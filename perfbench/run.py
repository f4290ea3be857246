"""Infopipes performance ledger: one command, four closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig9_item --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the six end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer ledger instead (profiler self time
grouped by ``src/repro`` module, the program's public counters and
timings around its public set-up calls).  Workloads: fig9_item,
fig9_batch, video_netpipe, fabric_mux (see perfbench/README.md).

The first line of standard output records the run's environment
(commit, Python, CPU, cores, seed).  The last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
end-to-end timings are scaled to a reference host speed (see
``calibration_s``); an untraced run prints their unscaled medians on the
line before the last.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    """Put this checkout's ``src`` first on the path and import it; refuse
    to measure a ``repro`` found anywhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"imported repro from {repro.__file__}, not from {SRC}")


def _commit() -> str:
    """The git commit of the checkout, or a digest of ``src`` when the
    checkout is not a git repository."""
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        # A checkout nested in some other repository is not that commit.
        if Path(top).resolve() == ROOT:
            return head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "cores": os.cpu_count(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }


#: CPU seconds the calibration loop takes at the reference speed to which
#: the end-to-end timings are scaled (near this loop's median on the
#: 2-vCPU Xeon host the bounds were set on).
REFERENCE_CALIBRATION_S = 0.015
#: The workloads' timings move with about the square root of the
#: calibration loop's slowdown (fitted over 24 runs of all four
#: workloads): the tight loop is the more sensitive to host contention.
SLOWNESS_EXPONENT = 0.5
CALIBRATION_REPEATS = 2


def _calibration_loop() -> int:
    """Fixed pure-Python work of the kinds the runtime does most (generator
    resumes, method calls, dict and list updates); it runs no code of the
    program."""

    class Counter:
        __slots__ = ("total",)

        def __init__(self):
            self.total = 0

        def add(self, value):
            self.total += value

    def numbers(count):
        for number in range(count):
            yield number

    table = {}
    counter = Counter()
    for number in numbers(40_000):
        table[number & 1023] = number
        counter.add(number)
        pair = [number, number + 1]
        pair.append(len(pair))
    return counter.total


def calibration_s() -> float:
    """The host's interpreter speed now: the least CPU time of a few runs
    of the calibration loop."""
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        started = time.process_time()
        _calibration_loop()
        best = min(best, time.process_time() - started)
    return best


def percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    index = max(0, min(len(sorted_values) - 1, int(q * len(sorted_values))))
    return sorted_values[index]


class Measure:
    """Drives whole rounds of a workload and keeps per-round figures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.rounds: list[dict] = []

    def round(self, profiler=None, keep_counters=False) -> dict:
        workload = self.workload
        gc.collect()
        calibration = calibration_s()
        if profiler is not None:
            profiler.enable()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        rnd = workload.setup()
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        workload.run(rnd)
        t2 = time.perf_counter()
        cpu2 = time.process_time()
        if profiler is not None:
            profiler.disable()
        try:
            outcome = workload.finish(rnd)
            counters = workload.counters(rnd) if keep_counters else None
        finally:
            workload.close(rnd)
        calibration = (calibration + calibration_s()) / 2
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        latencies = sorted(outcome.latencies_ns)
        figures = {
            "setup_s": t1 - t0,
            "run_s": t2 - t1,
            "cpu_s": cpu2 - cpu1,
            "setup_cpu_s": cpu1 - cpu0,
            "delivered": outcome.delivered,
            "p50_us": percentile(latencies, 0.50) / 1e3,
            "p99_us": percentile(latencies, 0.99) / 1e3,
            "times": rnd[1],
            "counters": counters,
            # Host slowness during the round against the reference speed.
            "slowness": (calibration / REFERENCE_CALIBRATION_S)
            ** SLOWNESS_EXPONENT,
        }
        self.rounds.append(figures)
        return figures

    def for_seconds(self, seconds: float, **kwargs) -> list[dict]:
        """Whole rounds until ``seconds`` of wall time have passed."""
        start = len(self.rounds)
        deadline = time.perf_counter() + seconds
        while True:
            self.round(**kwargs)
            if time.perf_counter() >= deadline:
                return self.rounds[start:]


def end_to_end(rounds: list[dict], scaled: bool = True) -> dict:
    """The six end-to-end metrics: medians over rounds of each round's
    value.  With ``scaled``, each round's timings are first divided by the
    host's slowness during that round (see ``calibration_s``)."""

    def median(key):
        return statistics.median(
            key(r) / (r["slowness"] if scaled else 1.0) for r in rounds
        )

    values = {
        "setup_s": (median(lambda r: r["setup_s"]), "s"),
        "items_per_s": (
            1.0 / median(lambda r: r["run_s"] / r["delivered"]), "1/s"
        ),
        "cpu_us_per_item": (
            median(lambda r: r["cpu_s"] / r["delivered"] * 1e6), "us"
        ),
        "item_latency_p50_us": (median(lambda r: r["p50_us"]), "us"),
        "item_latency_p99_us": (median(lambda r: r["p99_us"]), "us"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}"
        )
    print(json.dumps(environment(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )))
    sys.stdout.flush()

    workload = WORKLOADS[args.workload](args.seed)
    measure = Measure(workload)
    correct = True
    try:
        # One untimed round first: the interpreter's specialisation and
        # lazy set-up settle before anything is timed.
        measure.round()
        measure.rounds.clear()
        if args.trace:
            from layers import traced_metrics

            metrics = traced_metrics(measure, args.seconds)
        else:
            rounds = measure.for_seconds(args.seconds)
            metrics = end_to_end(rounds)
            unscaled = end_to_end(rounds, scaled=False)
            print(json.dumps({
                "unscaled": {k: v["value"] for k, v in unscaled.items()},
                "slowness": statistics.median(r["slowness"] for r in rounds),
                "rounds": len(rounds),
            }))
    except CheckFailed as failure:
        print(f"correctness check failed: {failure}", file=sys.stderr)
        correct = False
        metrics = {}
    print(json.dumps({
        "correct": correct,
        "attempted": measure.attempted,
        "failed": measure.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
