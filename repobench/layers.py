"""The per-layer table: span documents, timed seams and counters.

A traced run records the program's own span documents (engine
``trace=True``, wire ``trace: true``) and folds each one into per-op
layer times here.  A layer's *self* time is its span's duration minus
the time its direct child spans cover.  Documents whose span budget
dropped spans are left out (a partial tree would under-count).

Layers the program has no span for are measured at a *timed seam*: the
benchmark calls the same public function on the same input and times
it (``fingerprint.ms``, ``results.inflate_ms``, ``results.assembly_ms``).
Counts come from ``engine.counters()`` and the daemon's per-request
``stats`` deltas, which are exact.
"""

from __future__ import annotations

from collections import defaultdict

from stats import metric

#: name, unit, the end-to-end metric a change to this layer should move.
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    ("plan.self_ms", "ms", "serve-warm/latency_ms"),
    ("fingerprint.ms", "ms", "serve-warm/latency_ms"),
    ("stores.get_ms", "ms", "serve-warm/latency_ms"),
    ("stores.memory_hit_ratio", "ratio", "serve-warm/latency_ms"),
    ("stores.durable_hit_ratio", "ratio", "serve-warm/latency_ms"),
    ("results.inflate_ms", "ms", "serve-warm/latency_ms"),
    ("executors.busy_ms", "ms", "exact-cold/throughput_rps,latency_ms"),
    ("bundles.self_ms", "ms", "exact-cold/throughput_rps,latency_ms"),
    ("kernels.convolve_ms", "ms", "exact-cold/throughput_rps,latency_ms"),
    ("kernels.schoolbook_calls", "count", "exact-cold/throughput_rps,latency_ms"),
    ("kernels.packed_calls", "count", "exact-cold/throughput_rps,latency_ms"),
    ("results.assembly_ms", "ms", "exact-cold/throughput_rps,latency_ms"),
    ("daemon.prepare_ms", "ms", "serve-warm/throughput_rps"),
    ("daemon.outside_engine_ms", "ms", "serve-warm/throughput_rps"),
    ("protocol.response_bytes", "bytes", "serve-warm/throughput_rps"),
    ("client.decode_ms", "ms", "serve-warm/throughput_rps"),
    ("registry.update_ms", "ms", "serve-warm/side_ms,latency_tail_ms"),
    ("delta.components_dirty_per_update", "count", "serve-warm/side_ms,latency_tail_ms"),
    ("executors.tasks_per_read", "count", "serve-warm/side_ms,latency_tail_ms"),
    ("admission.wait_ms", "ms", "serve-contended/latency_ms"),
    ("daemon.lock_wait_ms", "ms", "serve-contended/latency_ms"),
    ("admission.queue_peak", "count", "serve-contended/latency_ms"),
    ("sampling.round_ms", "ms", "serve-contended/throughput_rps,side_ms"),
    ("sampling.evaluations_per_op", "count", "serve-contended/throughput_rps,side_ms"),
    ("evaluation.evals_per_s", "1/s", "serve-contended/throughput_rps,side_ms"),
    ("loadgen.lag_p99_ms", "ms", "validity check, not a layer"),
    ("tracing.overhead_pct", "%", "traced vs untraced, same run"),
    ("host.speed_ms", "ms", "drift diagnostic, feeds no metric"),
)


class SpanTotals:
    """Per-op sums of layer times over the traced documents of one stream."""

    def __init__(self) -> None:
        self.sums: dict[str, float] = defaultdict(float)
        self.docs = 0
        self.dropped_docs = 0

    def add(self, document: dict) -> None:
        if document.get("dropped"):
            self.dropped_docs += 1
            return
        self.docs += 1
        spans = document.get("spans") or []
        by_id = {span["id"]: span for span in spans}
        children: dict[int, float] = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["dur_us"]
        first: dict[str, dict] = {}
        for span in spans:
            name = span["name"]
            first.setdefault(name, span)
            ms = span["dur_us"] / 1000.0
            self_ms = max(0.0, span["dur_us"] - children[span["id"]]) / 1000.0
            parent = by_id.get(span["parent"])
            if name == "plan":
                self.sums["plan.self_ms"] += self_ms
            elif name == "store.get" and (parent is None or parent["name"] != "store.get"):
                self.sums["stores.get_ms"] += ms
            elif name == "execute":
                self.sums["executors.busy_ms"] += ms
            elif name == "kernel.convolve":
                self.sums["kernels.convolve_ms"] += ms
            elif name.startswith("node:") and name != "node:sampled":
                self.sums["bundles.self_ms"] += self_ms
            elif name == "sampler.round":
                self.sums["sampler.ms"] += ms
                self.sums["sampler.rounds"] += span["attrs"].get("count", 0)
                self.sums["sampler.evaluations"] += span["attrs"].get("evaluations", 0)
            elif name == "server.prepare":
                self.sums["daemon.prepare_ms"] += ms
            elif name == "server.admission":
                self.sums["admission.wait_ms"] += ms
        server, engine = first.get("server.request"), first.get("request")
        if server is not None and engine is not None:
            outside = server["dur_us"] - engine["dur_us"]
            self.sums["daemon.outside_engine_ms"] += max(0, outside) / 1000.0
            coalesce = first.get("server.coalesce")
            if coalesce is not None:
                wait = engine["start_us"] - coalesce["start_us"]
                self.sums["daemon.lock_wait_ms"] += max(0, wait) / 1000.0

    def per_op(self, name: str) -> float:
        return self.sums.get(name, 0.0) / self.docs if self.docs else 0.0

    def sampler(self) -> dict[str, float]:
        """Per-round time and evaluation rate of the sampler spans."""
        rounds, seconds = self.sums.get("sampler.rounds", 0), self.sums.get("sampler.ms", 0) / 1000.0
        if not rounds or not seconds:
            return {}
        return {
            "sampling.round_ms": seconds * 1000.0 / rounds,
            "evaluation.evals_per_s": self.sums["sampler.evaluations"] / seconds,
        }


def hit_ratios(counters: dict[str, int]) -> dict[str, float]:
    """Memory- and durable-tier hits over memory-tier lookups.

    ``counters`` sums ``engine.counters()`` or per-request ``stats``
    deltas; without a durable tier its ratio is left out (``idle``).
    """
    lookups = counters.get("results.hits", 0) + counters.get("results.misses", 0)
    if not lookups:
        return {}
    ratios = {"stores.memory_hit_ratio": counters.get("results.hits", 0) / lookups}
    if "persistent.hits" in counters:
        ratios["stores.durable_hit_ratio"] = counters["persistent.hits"] / lookups
    return ratios


def overhead_pct(traced: float, untraced: float) -> float:
    """How much slower the traced twin of an op ran, in percent."""
    return (traced / untraced - 1.0) * 100.0


def finish(values: dict[str, float], excluded_docs: int, workload: str) -> dict:
    """Print the table and return the ``per_layer`` metrics document.

    Layers the workload does not exercise print as ``idle`` and report
    0 in the result line.
    """
    print(f"# per-layer table, workload {workload} (per op; mean over traced ops)")
    print(f"# {'metric':36} {'value':>14} {'unit':6}  moves")
    metrics = {}
    for name, unit, moves in LAYER_METRICS:
        value = values.get(name)
        shown = "idle" if value is None else f"{value:.6g}"
        print(f"# {name:36} {shown:>14} {unit:6}  {moves}")
        metrics[name] = metric(0.0 if value is None else value, unit)
    print(f"# trace documents left out for dropped spans: {excluded_docs}")
    return metrics
