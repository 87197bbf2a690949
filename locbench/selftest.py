#!/usr/bin/env python3
"""The benchmark's own test, run from the root of a checkout.

  python3 locbench/selftest.py            # quick: reduced sizes
  python3 locbench/selftest.py --full --workload scan_corpus --runs 10

Quick mode runs a reduced size of every workload, traced and untraced, and
fails unless every output checks out and every metric of BENCHMARK.json is
reported.  Both modes then make two sets of runs (seeds 1..N each) per
workload and fail unless, for every end-to-end metric, the second set's
median is no worse than the first's by more than the metric's bound.  At
full size each set's quartile spread across seeds, (Q3 - Q1) / median from
statistics.quantiles(n=4), must also stay within the bound (setup_s
exempt); reduced sizes vary too much between seeds for that rule.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUICK_SECONDS = 5   # run length at reduced sizes


def bench(workload, seed, seconds, trace, quick):
    argv = [sys.executable, "locbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv + (["--quick"] if quick else []), cwd=ROOT,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {' '.join(argv)}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"FAIL {workload} seed {seed}: outputs wrong\n{proc.stdout}")
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(names):
        raise SystemExit(f"FAIL {workload}: metrics {sorted(result['metrics'])}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def check_sets(workload, runs, seconds, quick):
    """Two sets of `runs` runs; returns the failures."""
    sets = [[bench(workload, seed, seconds, 0, quick) for seed in range(1, runs + 1)]
            for _ in range(2)]
    failures = []
    print(f"{workload}: {runs} runs x 2 sets")
    for m in SPEC["end_to_end"]:
        name, bound = m["name"], m["bound"]
        a = [r[name] for r in sets[0]]
        b = [r[name] for r in sets[1]]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        print(f"  {name:<18} median {ma:12.4f} / {mb:12.4f}  worse {worse:+.3f}"
              f"  spread {sa:.3f} / {sb:.3f}  bound {bound}")
        if worse > bound:
            failures.append(f"{workload} {name}: second median worse by {worse:.3f}")
        if not quick and name != "setup_s" and max(sa, sb) > bound:
            failures.append(f"{workload} {name}: spread {max(sa, sb):.3f} > {bound}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--full", action="store_true", help="full input sizes")
    parser.add_argument("--workload", action="append",
                        help="limit to this workload (repeatable)")
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args()
    quick = not args.full
    seconds = QUICK_SECONDS if quick else SPEC["run_seconds"]
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    if quick:
        for w in workloads:
            bench(w, 1, seconds, 0, True)
            bench(w, 1, seconds, 1, True)
            print(f"ok {w}: outputs checked, every metric reported")
    failures = []
    for w in workloads:
        failures += check_sets(w, args.runs, seconds, quick)
    for f in failures:
        print("FAIL", f)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
