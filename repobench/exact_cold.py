"""Workload ``exact-cold``: in-process exact batches, one closed-loop caller.

Each op builds a fresh serial ``BatchAttributionEngine`` (so no result
or component cache helps) and runs one ``auto``-mode request; the
process-wide memo tables (factorials, binomial rows, Shapley weights)
are warm from set-up.  A pass runs every batch shape once in a seeded
order, then one multi-answer ``batch_answers`` — so every fifth op is an
answers op and the mix is fixed by count, not by time.  Only complete
passes are measured.

Latency, the answers p50 and throughput are *quiet* figures: the passes
are cut into groups of ``QUIET_PASSES`` consecutive passes (about half a
second) and the group with the lowest median counts (``stats.quiet_p50``
of each shape's latency and of the pass time; throughput is ops per pass
over the quiet pass time).  The host adds time in bursts; the quietest
group is what the program itself costs.  The whole-window figures are
reported in the ``# run`` line beside them.

The star-join ladder straddles ``tier_for_sizes``: the small shapes
convolve with the schoolbook kernel only, the large one mostly with the
packed kernel.  The ExoShap shape takes the rewrite route.  Nearly all
time is plan → bundles → kernels → results; no daemon, no durable
store, no sampler.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.core.parser import parse_query
from repro.engine import BatchAttributionEngine, LRUCache, SerialExecutor
from repro.engine.bundles import batch_count_vectors
from repro.engine.results import result_from_vectors
from repro.workloads.running_example import query_q1, query_q2

import layers
import stats
import verify
from inputs import star_instance

#: Tail percentile of each shape's latency (>= 100 samples per shape).
TAIL_LEVEL = 90.0
#: Passes per group of the quiet figures (about half a second).
QUIET_PASSES = 6
ANSWERS_QUERY = "ans(x) :- Stud(x), not TA(x), Reg(x, y)"


@dataclass
class Shape:
    name: str
    database: object
    query: object
    exogenous: frozenset | None = None
    answers: bool = False


def build(seed: int) -> list[Shape]:
    """The batch shapes in ladder order, then the answers shape."""
    q1 = query_q1()
    exo = frozenset({"Stud", "Course"})
    return [
        Shape("star-6x2", star_instance(6, 2, 1, seed * 8 + 1), q1),
        Shape("star-16x4", star_instance(16, 4, 2, seed * 8 + 2), q1),
        Shape("star-32x6", star_instance(32, 6, 3, seed * 8 + 3), q1),
        Shape("exoshap-10x4", star_instance(10, 4, 2, seed * 8 + 4), query_q2(), exo),
        Shape(
            "answers-10x4",
            star_instance(10, 4, 2, seed * 8 + 5),
            parse_query(ANSWERS_QUERY),
            answers=True,
        ),
    ]


def run_op(shape: Shape, engine: BatchAttributionEngine, trace: bool):
    if shape.answers:
        return engine.batch_answers(shape.database, shape.query, trace=trace)
    return engine.batch(
        shape.database, shape.query, exogenous_relations=shape.exogenous, trace=trace
    )


def fresh_engine() -> BatchAttributionEngine:
    return BatchAttributionEngine(executor=SerialExecutor())


def output_digest(shape: Shape, result) -> int | str:
    return verify.answers_digest(result) if shape.answers else verify.digest(result)


def setup(seed: int) -> list[Shape]:
    """Build the inputs and warm the memo tables with one untimed pass."""
    shapes = build(seed)
    for shape in shapes:
        run_op(shape, fresh_engine(), trace=False)
    return shapes


def measure(shapes: list[Shape], seed: int, seconds: float, traced_passes: bool):
    """Closed loop over whole passes until ``seconds`` have elapsed.

    With ``traced_passes`` every other pass is traced; the untraced
    passes are the overhead baseline.
    """
    rng = random.Random(seed * 7919 + 17)
    batches, answers = shapes[:-1], shapes[-1]
    host = stats.HostSpeed()
    outputs: list[tuple[str, int | str]] = []
    traced: dict[str, list[float]] = {shape.name: [] for shape in shapes}
    untraced: dict[str, list[float]] = {shape.name: [] for shape in shapes}
    pass_times: list[float] = []
    spans = layers.SpanTotals()
    counts = dict.fromkeys(
        ("kernel.schoolbook_calls", "kernel.packed_calls", "results.hits", "results.misses"), 0
    )
    assembly: list[float] = []
    ops = passes = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        pass_begin = time.perf_counter()
        host.probe()
        trace = traced_passes and passes % 2 == 1
        order = list(batches)
        rng.shuffle(order)
        for shape in order + [answers]:
            engine = fresh_engine()
            begin = time.perf_counter()
            result = run_op(shape, engine, trace)
            elapsed = (time.perf_counter() - begin) * 1000.0
            (traced if trace else untraced)[shape.name].append(elapsed)
            outputs.append((shape.name, output_digest(shape, result)))
            for key in counts:
                counts[key] += engine.counters()[key]
            if trace:
                spans.add(engine.last_trace)
                if not shape.answers and shape.exogenous is None:
                    vectors = batch_count_vectors(shape.database, shape.query, LRUCache(512))
                    begin = time.perf_counter()
                    result_from_vectors(vectors, "cntsat")
                    assembly.append((time.perf_counter() - begin) * 1000.0)
            ops += 1
        passes += 1
        if not trace:
            pass_times.append((time.perf_counter() - pass_begin) * 1000.0)
        if time.perf_counter() >= deadline:
            break
    window = time.perf_counter() - started
    return {
        "ops": ops,
        "passes": passes,
        "window_s": window,
        "pass_times": pass_times,
        "outputs": outputs,
        "traced": traced,
        "untraced": untraced,
        "spans": spans,
        "counts": counts,
        "assembly": assembly,
        "host": host,
    }


def check(shapes: list[Shape], outputs) -> list[str]:
    """Every output against a fresh serial engine; the smallest shape
    also against brute force; the ExoShap shape must take its route."""
    by_name = {shape.name: shape for shape in shapes}
    references = {}

    def reference(name):
        shape = by_name[name]
        references[name] = run_op(shape, fresh_engine(), trace=False)
        return output_digest(shape, references[name])

    problems = verify.check_digests(outputs, reference, "exact-cold")
    smallest = shapes[0]
    if smallest.name in references:
        problems += verify.check_brute_force(
            references[smallest.name], smallest.database, smallest.query, smallest.name
        )
    for shape in shapes:
        result = references.get(shape.name)
        if result is None:
            problems.append(f"{shape.name}: never ran")
        elif shape.exogenous is not None and result.method != "exoshap":
            problems.append(f"{shape.name}: took {result.method}, not exoshap")
    return problems


def run(seed: int, seconds: float, trace: bool, setup_s: float) -> dict:
    shapes = setup(seed)
    data = measure(shapes, seed, seconds, traced_passes=trace)
    problems = check(shapes, data["outputs"])
    invalid: list[str] = []
    batches = [shape.name for shape in shapes if not shape.answers]
    latencies = data["untraced"]
    p50s = [stats.median(latencies[name]) for name in batches]
    tails = (
        []
        if trace
        else [stats.tail(latencies[name], TAIL_LEVEL, name, invalid) for name in batches]
    )
    out = {
        "problems": problems,
        "invalid": invalid,
        "attempted": data["ops"],
        "failed": 0,
        "report": {
            "passes": data["passes"],
            "window_s": data["window_s"],
            "streams": {
                "batch": {"attempted": data["ops"] - data["passes"], "failed": 0},
                "batch_answers": {"attempted": data["passes"], "failed": 0},
            },
            "per_shape_p50_ms": dict(zip(batches, p50s)),
            "per_shape_tail_ms": dict(zip(batches, tails)),
            "tail_level": TAIL_LEVEL,
            "tail_beyond": {name: stats.beyond(latencies[name], TAIL_LEVEL) for name in batches},
            "samples": {name: len(latencies[name]) for name in latencies},
            "host_speed_ms": data["host"].summary(),
        },
    }
    if not trace:
        quiet = [stats.quiet_p50(latencies[name], QUIET_PASSES) for name in batches]
        out["report"]["per_shape_quiet_p50_ms"] = dict(zip(batches, quiet))
        out["report"]["ops_per_s_whole_window"] = data["ops"] / data["window_s"]
        out["metrics"] = {
            "throughput_rps": stats.metric(
                len(shapes) * 1000.0 / stats.quiet_p50(data["pass_times"], QUIET_PASSES),
                "1/s",
            ),
            "latency_ms": stats.metric(stats.geomean(quiet), "ms"),
            "latency_tail_ms": stats.metric(stats.geomean(tails), "ms"),
            "side_ms": stats.metric(
                stats.quiet_p50(latencies[shapes[-1].name], QUIET_PASSES), "ms"
            ),
            "setup_s": stats.metric(setup_s, "s"),
            "peak_rss_mb": stats.metric(stats.self_peak_rss_mb(), "MB"),
        }
        return out
    spans = data["spans"]
    ratios = [
        stats.median(data["traced"][name]) / stats.median(latencies[name])
        for name in data["traced"]
    ]
    values = {
        name: spans.per_op(name)
        for name in (
            "plan.self_ms",
            "stores.get_ms",
            "executors.busy_ms",
            "bundles.self_ms",
            "kernels.convolve_ms",
        )
    }
    values.update(layers.hit_ratios(data["counts"]))
    values["kernels.schoolbook_calls"] = data["counts"]["kernel.schoolbook_calls"] / data["ops"]
    values["kernels.packed_calls"] = data["counts"]["kernel.packed_calls"] / data["ops"]
    values["results.assembly_ms"] = sum(data["assembly"]) / len(data["assembly"])
    values["tracing.overhead_pct"] = layers.overhead_pct(stats.geomean(ratios), 1.0)
    values["host.speed_ms"] = data["host"].summary()["p50_ms"]
    out["metrics"] = layers.finish(values, spans.dropped_docs, "exact-cold")
    return out


def probe_setup(seed: int) -> None:
    """The set-up a fresh process performs before its first timed op."""
    setup(seed)
