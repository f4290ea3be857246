"""Steadiness check: repeated sets of untraced runs of one commit.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads video_netpipe --runs 5 --sets 1

Each set runs ``perfbench/run.py`` once per seed (``--runs`` seeds, a fresh
range per set), one run at a time, on every workload.  For each
end-to-end metric of ``BENCHMARK.json`` it prints the set's median and
quartiles and the quartile spread as a share of the median next to the
metric's bound.  With two or more sets it also prints how far each later
set's median moved against the first set's, in the metric's worse
direction, and whether the share of failed operations is the same in
every run.  Bounds are set from these figures: a bound must sit well
above the spread that repeated runs of one commit already show.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs not correct")
    return result


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread share)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument(
        "--seconds", type=int, help="run length (default: run_seconds)"
    )
    parser.add_argument("--out", help="also write every run's result here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    results: dict = {w: [] for w in workloads}
    seed = args.first_seed
    for set_index in range(args.sets):
        for workload in workloads:
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(
                    spec, workload, seed, args.seconds or spec["run_seconds"]
                ))
                seed += 1
            results[workload].append(runs)
            print(f"set {set_index + 1} {workload}: {args.runs} runs done",
                  file=sys.stderr)

    steady = True
    for workload in workloads:
        sets = results[workload]
        shares = {
            (r["failed"], r["attempted"]) for runs in sets for r in runs
        }
        fractions = {f / a for f, a in shares}
        print(f"\n{workload}: failed/attempted share(s) "
              f"{sorted(fractions)} over {len(shares)} distinct counts")
        steady &= len(fractions) == 1
        print(f"  {'metric':22} {'set':>3} {'median':>14} {'q1':>14} "
              f"{'q3':>14} {'spread':>7} {'bound':>6} {'moved':>7}")
        for name, meta in metrics.items():
            first_median = None
            for set_index, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                median, q1, q3, spread = summarize(values)
                moved = ""
                if first_median is None:
                    first_median = median
                else:
                    change = (median - first_median) / first_median
                    worse = change if meta["better"] == "lower" else -change
                    moved = f"{worse:+.3f}"
                    steady &= worse <= meta["bound"]
                if name != "setup_s":
                    steady &= spread <= meta["bound"]
                print(f"  {name:22} {set_index + 1:>3} {median:>14.6g} "
                      f"{q1:>14.6g} {q3:>14.6g} {spread:>7.3f} "
                      f"{meta['bound']:>6.2f} {moved:>7}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    print("\nsteady" if steady else "\nNOT steady: a spread, a move or a "
          "failed share is outside its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
