"""Output checks, run after each timed window.

During the window every result is reduced to a digest (outside the op's
own timing); afterwards each distinct request is recomputed by a fresh
serial in-process engine and every digest is compared with the
reference's.  A digest covers each fact's exact numerator and
denominator on both measures, the method and — for sampled results —
the accuracy block, and it refuses anything that is not a ``Fraction``,
so a float or a rounded value can never pass.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Iterable

#: Stand-in digest of a result holding a non-``Fraction`` value.
NOT_EXACT = "not-exact"


def _mapping_digest(mapping) -> int | str:
    items = []
    for item, value in mapping.items():
        if type(value) is not Fraction:
            return NOT_EXACT
        items.append((item, value.numerator, value.denominator))
    return hash(frozenset(items))


def digest(result) -> int | str:
    """Order-insensitive digest of one ``BatchResult``'s values."""
    shapley = _mapping_digest(result.shapley)
    banzhaf = _mapping_digest(result.banzhaf)
    if NOT_EXACT in (shapley, banzhaf):
        return NOT_EXACT
    estimate = result.estimate
    accuracy = (
        None
        if estimate is None
        else (estimate.epsilon, estimate.delta, estimate.rounds, estimate.permutations)
    )
    return hash((result.method, shapley, banzhaf, accuracy))


def answers_digest(batch) -> int | str:
    """Digest of an ``AnswerBatchResult``: one digest per answer."""
    parts = []
    for answer, result in batch.per_answer.items():
        part = digest(result)
        if part == NOT_EXACT:
            return NOT_EXACT
        parts.append((answer, part))
    return hash(frozenset(parts))


def check_digests(
    observed: Iterable[tuple[Hashable, int | str]],
    reference: Callable[[Hashable], int | str],
    label: str,
) -> list[str]:
    """Compare every observed digest with its request's reference digest.

    ``reference(key)`` is called once per distinct key.  Returns one
    problem line per mismatching key (with how many outputs were wrong).
    """
    expected: dict[Hashable, int | str] = {}
    wrong: dict[Hashable, int] = {}
    total = 0
    for key, value in observed:
        total += 1
        if key not in expected:
            expected[key] = reference(key)
        if value == NOT_EXACT or value != expected[key]:
            wrong[key] = wrong.get(key, 0) + 1
    if total == 0:
        return [f"{label}: no outputs were recorded"]
    return [
        f"{label}: {count} output(s) of {key!r} differ from the reference"
        for key, count in sorted(wrong.items(), key=repr)[:5]
    ] + ([f"{label}: ... and {len(wrong) - 5} more keys"] if len(wrong) > 5 else [])


def check_brute_force(result, database, query, label: str) -> list[str]:
    """Exact values must equal coalition enumeration (small shapes only)."""
    from repro.shapley.banzhaf import banzhaf_all_brute_force
    from repro.shapley.brute_force import shapley_all_brute_force

    problems = []
    if dict(result.shapley) != dict(shapley_all_brute_force(database, query)):
        problems.append(f"{label}: Shapley values differ from brute force")
    if dict(result.banzhaf) != dict(banzhaf_all_brute_force(database, query)):
        problems.append(f"{label}: Banzhaf values differ from brute force")
    return problems


def check_sampled(result, rerun, epsilon: float, delta: float, label: str) -> list[str]:
    """A sampled estimate: the requested contract, and reproducible."""
    problems = []
    estimate = result.estimate
    if estimate is None:
        return [f"{label}: a sampled request came back without an estimate"]
    if estimate.delta != delta:
        problems.append(f"{label}: delta {estimate.delta} != requested {delta}")
    if not estimate.epsilon <= epsilon:
        problems.append(f"{label}: epsilon {estimate.epsilon} > requested {epsilon}")
    if rerun is not None and digest(result) != digest(rerun):
        problems.append(f"{label}: estimate differs from an in-process rerun")
    return problems
