"""Self-test of the output checks: one corrupted result must fail them.

Run from the root of a checkout::

    python3 repobench/selftest.py

Each case first confirms that the check passes on honest outputs, then
corrupts exactly one result — one Shapley value nudged by 10^-9, one
value turned into a float, one wire payload edited, one sampled estimate
altered or claiming a looser contract — and confirms that the same check
now reports it.  Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from fractions import Fraction

sys.path.insert(0, os.path.abspath("src"))
os.environ["REPRO_JOBS"] = "1"
os.environ.pop("REPRO_KERNEL", None)

from repro.core.parser import parse_query  # noqa: E402
from repro.engine import BatchAttributionEngine, MethodPolicy, SerialExecutor  # noqa: E402
from repro.io import batch_result_from_dict, batch_result_to_dict  # noqa: E402

import exact_cold  # noqa: E402
import verify  # noqa: E402
from inputs import QRST, qrst_instance  # noqa: E402


def nudge(result):
    """The same result with its first nonzero Shapley value off by 1e-9."""
    shapley = dict(result.shapley)
    target = next(item for item, value in shapley.items() if value)
    shapley[target] += Fraction(1, 10**9)
    return replace(result, shapley=shapley)


def as_float(result):
    shapley = dict(result.shapley)
    target = next(iter(shapley))
    shapley[target] = float(shapley[target])
    return replace(result, shapley=shapley)


def exact_cases(failures: list[str]) -> None:
    shapes = exact_cold.build(1)
    honest = []
    for shape in shapes:
        result = exact_cold.run_op(shape, exact_cold.fresh_engine(), trace=False)
        honest.append((shape.name, exact_cold.output_digest(shape, result)))
    if exact_cold.check(shapes, honest):
        failures.append("exact-cold: honest outputs were reported wrong")
    middle = shapes[1]
    good = exact_cold.run_op(middle, exact_cold.fresh_engine(), trace=False)
    for label, bad in (("nudged", nudge(good)), ("float", as_float(good))):
        outputs = honest + [(middle.name, verify.digest(bad))]
        if not exact_cold.check(shapes, outputs):
            failures.append(f"exact-cold: a {label} result passed the check")
    smallest = shapes[0]
    reference = exact_cold.run_op(smallest, exact_cold.fresh_engine(), trace=False)
    if verify.check_brute_force(reference, smallest.database, smallest.query, "bf"):
        failures.append("brute force: the honest reference was reported wrong")
    if not verify.check_brute_force(nudge(reference), smallest.database, smallest.query, "bf"):
        failures.append("brute force: a nudged result passed")


def served_cases(failures: list[str]) -> None:
    shape = exact_cold.build(2)[2]
    result = exact_cold.run_op(shape, exact_cold.fresh_engine(), trace=False)
    wire = batch_result_to_dict(result)
    reference = lambda key: verify.digest(result)  # noqa: E731
    honest = [("k", verify.digest(batch_result_from_dict(wire)))] * 3
    if verify.check_digests(honest, reference, "served"):
        failures.append("served: honest wire results were reported wrong")
    # Wire rows are [relation, args, numerator, denominator].
    relation, args, numerator, denominator = wire["shapley"][0]
    edited_row = [relation, args, type(numerator)(int(numerator) + 1), denominator]
    edited = dict(wire, shapley=[edited_row] + wire["shapley"][1:])
    bad = honest + [("k", verify.digest(batch_result_from_dict(edited)))]
    if not verify.check_digests(bad, reference, "served"):
        failures.append("served: an edited wire result passed the check")


def sampled_cases(failures: list[str]) -> None:
    database, query = qrst_instance(10, 2, 5), parse_query(QRST)
    policy = MethodPolicy("sampled", epsilon=0.5, delta=0.05)
    first = BatchAttributionEngine(executor=SerialExecutor()).batch(database, query, policy=policy)
    rerun = BatchAttributionEngine(executor=SerialExecutor()).batch(database, query, policy=policy)
    if verify.check_sampled(first, rerun, 0.5, 0.05, "sampled"):
        failures.append("sampled: an honest estimate was reported wrong")
    if not verify.check_sampled(nudge(first), rerun, 0.5, 0.05, "sampled"):
        failures.append("sampled: a nudged estimate passed")
    loose = replace(first, estimate=replace(first.estimate, epsilon=0.6))
    if not verify.check_sampled(loose, None, 0.5, 0.05, "sampled"):
        failures.append("sampled: an estimate over its epsilon passed")


def main() -> int:
    failures: list[str] = []
    exact_cases(failures)
    served_cases(failures)
    sampled_cases(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: every corrupted result was caught" if not failures else "selftest: FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
