"""Run one benchmark workload and print its result line.

Usage, from the root of a checkout::

    python3 repobench/run.py --workload exact-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
table (and its metrics).  Diagnostic lines start with ``#``; the last
line of standard output is the JSON result.  A run whose outputs are
wrong prints ``"correct": false`` and exits 1; a run whose measurement is
invalid (a tail resting on fewer than 10 samples, an open-loop generator
running late) prints why on standard error and exits 3 without a result.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

SOURCE = os.path.abspath("src")
WORKLOADS = ("exact-cold", "serve-warm", "serve-contended")
#: Set-up probes per exact-cold run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Hard stop for one run (the contract allows 180 s).
WATCHDOG_S = 170


def pinned_environment() -> dict:
    """The program's environment: serial engine, automatic kernel tiers."""
    env = dict(os.environ)
    env["REPRO_JOBS"] = "1"
    env.pop("REPRO_KERNEL", None)
    env.pop("REPRO_START_METHOD", None)
    env["PYTHONPATH"] = SOURCE + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_exact_setup(seed: int, env: dict) -> float:
    """Median time from a fresh process's start to its first timed op."""
    times = []
    for _ in range(SETUP_PROBES):
        begin = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload", "exact-cold",
             "--seed", str(seed), "--setup-probe"],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            times.append(time.perf_counter() - begin)
        finally:
            child.stdout.close()
            child.wait(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {child.returncode}")
    times.sort()
    return times[len(times) // 2]


def main(argv=None) -> int:
    options = arguments(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print("error: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    env = pinned_environment()
    os.environ.update({key: env[key] for key in ("REPRO_JOBS", "PYTHONPATH")})
    os.environ.pop("REPRO_KERNEL", None)
    os.environ.pop("REPRO_START_METHOD", None)
    sys.path.insert(0, SOURCE)
    import exact_cold
    import serve
    import stats

    if options.setup_probe:
        exact_cold.probe_setup(options.seed)
        print("ready", flush=True)
        return 0

    def interrupted(signum, frame):
        raise SystemExit(f"stopped by signal {signum}")

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGALRM, interrupted)
    signal.alarm(WATCHDOG_S)
    os.makedirs(".bench_work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=".bench_work")
    try:
        if options.workload == "exact-cold":
            setup_s = probe_exact_setup(options.seed, env)
            out = exact_cold.run(options.seed, options.seconds, bool(options.trace), setup_s)
        elif options.workload == "serve-warm":
            out = serve.run_warm(options.seed, options.seconds, bool(options.trace), workdir, env)
        else:
            out = serve.run_contended(options.seed, options.seconds, bool(options.trace), workdir, env)
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass
    stats.report("run", {"workload": options.workload, "seed": options.seed, **out["report"]})
    for problem in out["problems"]:
        print(f"wrong output: {problem}", file=sys.stderr)
    if out["invalid"] and not out["problems"]:
        for reason in out["invalid"]:
            print(f"invalid run: {reason}", file=sys.stderr)
        return 3
    stats.emit(not out["problems"], out["attempted"], out["failed"], out["metrics"])
    return 1 if out["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
