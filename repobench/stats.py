"""Summary statistics, the host-speed probe and the result line.

Every timing the benchmark reports goes through this module, so the
definitions in README.md have one implementation:

* a p50 is the linearly interpolated median of a stream's samples;
* a tail is a *fixed* percentile per workload (see ``TAIL_LEVEL`` in each
  workload module), valid only when at least ``MIN_BEYOND`` samples lie
  above it — a run whose tail rests on fewer samples is invalid;
* a *quiet* p50 is the lowest p50 over consecutive groups of samples
  (``quiet_p50``; used where one process does all the work, see
  README.md);
* the host-speed probe is a fixed pure-Python loop timed between units
  of work; it is reported beside the metrics and feeds none of them.
"""

from __future__ import annotations

import json
import math
import resource
import time
from typing import Iterable, Sequence

#: A tail percentile needs at least this many samples strictly above it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], level: float) -> float:
    """Linear-interpolation percentile (``level`` in [0, 100])."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * level / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def beyond(samples: Sequence[float], level: float) -> int:
    """How many samples lie strictly above the ``level`` percentile."""
    cut = percentile(samples, level)
    return sum(1 for value in samples if value > cut)


def quiet_p50(samples: Sequence[float], group: int) -> float:
    """The lowest p50 over consecutive groups of ``group`` samples.

    ``samples`` are in completion order.  Interference from the host only
    ever adds time, and it comes and goes within a second; the median of
    the quietest group is the steadiest measure of the program's own cost
    (see README.md, *Noise controls*).  With fewer than ``group`` samples
    it is the median of all of them.
    """
    medians = [
        median(samples[start : start + group])
        for start in range(0, len(samples) - group + 1, group)
    ]
    return min(medians) if medians else median(samples)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError(f"geometric mean needs positive values, got {values}")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def tail(samples: Sequence[float], level: float, stream: str, problems: list[str]) -> float:
    """The ``level`` percentile; records a validity problem when too thin."""
    count = beyond(samples, level)
    if count < MIN_BEYOND:
        problems.append(
            f"{stream}: p{level:g} has {count} samples beyond it"
            f" (needs {MIN_BEYOND}; {len(samples)} samples in all)"
        )
    return percentile(samples, level)


class HostSpeed:
    """A fixed pure-Python loop, timed between units of work.

    The loop does the same interpreter work every time, so its duration
    tracks how fast this core runs right now.  It is reported next to
    the metrics as a drift diagnostic; no metric is corrected by it.
    """

    ITERATIONS = 20_000

    def __init__(self) -> None:
        self.samples: list[float] = []

    def probe(self) -> None:
        started = time.perf_counter()
        total = 0
        for index in range(self.ITERATIONS):
            total += index * index % 7
        self.samples.append((time.perf_counter() - started) * 1000.0)

    def summary(self) -> dict[str, float]:
        if not self.samples:
            return {}
        return {
            "p50_ms": median(self.samples),
            "min_ms": min(self.samples),
            "max_ms": max(self.samples),
            "probes": len(self.samples),
        }


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The result line: the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            },
            sort_keys=True,
        ),
        flush=True,
    )


def report(name: str, document: dict) -> None:
    """A diagnostic line before the result line (ignored by parsers)."""
    print(f"# {name} {json.dumps(document, sort_keys=True, default=str)}", flush=True)
