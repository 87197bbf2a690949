#!/usr/bin/env python3
"""Perf-regression gate over bench --json reports.

Compares the rows of a current bench run against a checked-in baseline
(bench/baselines/<bench>.json) with per-metric rules:

  exact         value must match the baseline exactly (determinism
                invariants: edge counts, convergence flags, digests)
  lower_better  current <= baseline * (1 + tol)   (wall times)
  higher_better current >= baseline * (1 - tol)   (throughputs)

Baselines are recorded on one machine and compared on another, so
wall-clock rules carry loose tolerances (see CONFIG) while deterministic
metrics are pinned exactly.  The default tolerance (when a rule does not
name one) is DEFAULT_TOL: tight enough that a 2x slowdown always fails —
the self-test pins that.

Usage:
  bench_gate.py --baseline FILE --current FILE     gate (exit 1 on fail)
  bench_gate.py --baseline FILE --current FILE --update
                                                   overwrite the baseline
  bench_gate.py --self-test                        verify the gate fails
                                                   on a synthetic 2x
                                                   slowdown (exit 1 if
                                                   the gate is broken)

Rows are matched on the bench's key fields (CONFIG[bench]["key"]); a
baseline row with no matching current row fails the gate, extra current
rows are reported but pass (size ladders may grow).
"""

import argparse
import json
import sys

DEFAULT_TOL = 0.5

# Wall-clock tolerance: CI runners differ from the machines baselines were
# recorded on, and share cores with other jobs; 3x headroom gates real
# regressions (algorithmic, 5-10x) without flaking on scheduler noise.
WALL_TOL = 3.0

CONFIG = {
    "perf_parallel_scaling": {
        "key": ("workload", "threads"),
        "metrics": {
            # Invocation provenance: a CI run with different workload
            # parameters must fail loudly, not gate apples against oranges.
            "seed": {"kind": "exact"},
            "ops": {"kind": "exact"},
            "trials": {"kind": "exact"},
            "identical_to_serial": {"kind": "exact"},
            "ms": {"kind": "lower_better", "tol": WALL_TOL},
            "p50_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "p95_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "p99_ms": {"kind": "lower_better", "tol": WALL_TOL},
        },
    },
    "perf_static_analysis": {
        "key": ("ops",),
        "metrics": {
            "seed": {"kind": "exact"},
            "threads": {"kind": "exact"},
            "edges": {"kind": "exact"},
            "csr_bytes_per_node": {"kind": "exact"},
            "reach_converged": {"kind": "exact"},
            "slack_converged": {"kind": "exact"},
            # Worklist pops of the CSR reachability and slack passes:
            # deterministic engine work, so a change in how much the
            # engine does fails even when the wall times stay in bounds.
            "reach_visits": {"kind": "exact"},
            "slack_fwd_visits": {"kind": "exact"},
            "slack_bwd_visits": {"kind": "exact"},
            "semantic_findings": {"kind": "exact"},
            "lint_findings": {"kind": "exact"},
            "p50_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "p95_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "p99_ms": {"kind": "lower_better", "tol": WALL_TOL},
        },
    },
    "perf_graph_core": {
        "key": ("ops",),
        "metrics": {
            "seed": {"kind": "exact"},
            "edges": {"kind": "exact"},
            "csr_bytes_per_node": {"kind": "exact"},
            "p50_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "p95_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "p99_ms": {"kind": "lower_better", "tol": WALL_TOL},
        },
    },
    "perf_incremental": {
        "key": ("ops",),
        "metrics": {
            "seed": {"kind": "exact"},
            "threads": {"kind": "exact"},
            "batches": {"kind": "exact"},
            "edits": {"kind": "exact"},
            "edges": {"kind": "exact"},
            "findings": {"kind": "exact"},
            # The ISSUE 8 acceptance invariants: byte-identical reports
            # and the >= 50x re-lint speedup must never regress silently.
            "identical": {"kind": "exact"},
            "meets_target": {"kind": "exact"},
            "init_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "inc_total_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "full_total_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "p50_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "p95_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "p99_ms": {"kind": "lower_better", "tol": WALL_TOL},
        },
    },
    "disc_corpus_scan": {
        "key": ("designs", "certs"),
        "metrics": {
            "seed": {"kind": "exact"},
            "threads": {"kind": "exact"},
            # Soundness invariants (ISSUE 10 acceptance): the pre-filter
            # must find exactly the pairs the exact scan finds, including
            # every planted one.  Pinned exactly — any drift is a recall
            # bug, not noise.
            "planted": {"kind": "exact"},
            "matched_planted": {"kind": "exact"},
            "recall_planted": {"kind": "exact"},
            "match_rows_equal": {"kind": "exact"},
            "matches": {"kind": "exact"},
            "pruned_pairs": {"kind": "exact"},
            "survivor_pairs": {"kind": "exact"},
            "precision": {"kind": "exact"},
            # Identification contexts each scan built: one per distinct
            # (root, radius) the replay reached — deterministic work.
            "pre_contexts": {"kind": "exact"},
            "exact_contexts": {"kind": "exact"},
            "pre_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "exact_ms": {"kind": "lower_better", "tol": WALL_TOL},
            # Wall-clock ratio on one machine: far more stable than the
            # raw times, so the default tolerance applies.  meets_target
            # (>= 10x) is NOT pinned — the CI config is smaller than the
            # acceptance corpus and may legitimately hover near the bar.
            "speedup": {"kind": "higher_better"},
        },
    },
    "perf_project_lint": {
        "key": ("artifacts",),
        "metrics": {
            "seed": {"kind": "exact"},
            "findings": {"kind": "exact"},
            "cache_hit_pct": {"kind": "exact"},
            # The ISSUE 9 acceptance invariants: byte-identical cold/warm
            # reports and the >= 5x warm speedup must never regress
            # silently.
            "identical": {"kind": "exact"},
            "meets_target": {"kind": "exact"},
            "cold_ms": {"kind": "lower_better", "tol": WALL_TOL},
            "warm_ms": {"kind": "lower_better", "tol": WALL_TOL},
        },
    },
}


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if "bench" not in doc or "rows" not in doc:
        raise SystemExit(f"{path}: not a bench report (missing bench/rows)")
    return doc


def row_key(row, key_fields):
    return tuple(row.get(k) for k in key_fields)


def check_metric(name, rule, base, cur, where, failures):
    kind = rule["kind"]
    tol = rule.get("tol", DEFAULT_TOL)
    if kind == "exact":
        if base != cur:
            failures.append(
                f"{where}: {name} changed: baseline {base!r} -> {cur!r}"
                " (pinned exact)")
        return
    if not isinstance(base, (int, float)) or not isinstance(
            cur, (int, float)):
        failures.append(f"{where}: {name} is not numeric "
                        f"(baseline {base!r}, current {cur!r})")
        return
    if kind == "lower_better":
        limit = base * (1.0 + tol)
        if cur > limit:
            failures.append(
                f"{where}: {name} regressed: {cur:.4g} > {base:.4g} "
                f"* (1 + {tol}) = {limit:.4g}")
    elif kind == "higher_better":
        limit = base * (1.0 - tol)
        if cur < limit:
            failures.append(
                f"{where}: {name} regressed: {cur:.4g} < {base:.4g} "
                f"* (1 - {tol}) = {limit:.4g}")
    else:
        raise SystemExit(f"unknown metric kind {kind!r} for {name}")


def gate(baseline, current, config):
    """Returns a list of failure strings (empty = pass)."""
    failures = []
    if baseline["bench"] != current["bench"]:
        failures.append(
            f"bench name mismatch: baseline {baseline['bench']!r} vs "
            f"current {current['bench']!r}")
        return failures
    key_fields = config["key"]
    current_rows = {}
    for row in current["rows"]:
        current_rows[row_key(row, key_fields)] = row
    matched = set()
    for row in baseline["rows"]:
        key = row_key(row, key_fields)
        where = f"{baseline['bench']}[{', '.join(map(str, key))}]"
        cur = current_rows.get(key)
        if cur is None:
            failures.append(f"{where}: row missing from current run")
            continue
        matched.add(key)
        for name, rule in config["metrics"].items():
            if name not in row:
                continue  # baseline predates the metric
            if name not in cur:
                failures.append(f"{where}: {name} missing from current row")
                continue
            check_metric(name, rule, row[name], cur[name], where, failures)
    for key in current_rows:
        if key not in matched:
            print(f"note: current row {key} has no baseline (not gated)")
    return failures


def self_test():
    """The gate must fail on a 2x slowdown and on a changed exact metric,
    and pass on a within-tolerance run."""
    config = {
        "key": ("case",),
        "metrics": {
            "p95_ms": {"kind": "lower_better"},  # DEFAULT_TOL
            "edges": {"kind": "exact"},
            "edges_per_us": {"kind": "higher_better"},
        },
    }
    base = {
        "bench": "synthetic",
        "rows": [{"case": 1, "p95_ms": 100.0, "edges": 42,
                  "edges_per_us": 50.0}],
        "schema_version": 2,
    }

    def run(**overrides):
        row = dict(base["rows"][0])
        row.update(overrides)
        cur = {"bench": "synthetic", "rows": [row], "schema_version": 2}
        return gate(base, cur, config)

    problems = []
    if not run(p95_ms=200.0):
        problems.append("2x p95_ms slowdown was NOT caught")
    if not run(edges=43):
        problems.append("exact-metric drift was NOT caught")
    if not run(edges_per_us=10.0):
        problems.append("throughput collapse was NOT caught")
    if run(p95_ms=120.0):
        problems.append("within-tolerance run was flagged")
    if run():
        problems.append("identical run was flagged")
    for p in problems:
        print(f"self-test FAIL: {p}", file=sys.stderr)
    if not problems:
        print("self-test OK: gate fails on 2x slowdown, exact drift, and "
              "throughput collapse; passes in-tolerance runs")
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline")
    ap.add_argument("--current")
    ap.add_argument("--update", action="store_true",
                    help="overwrite the baseline with the current report")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required (or --self-test)")

    current = load(args.current)
    if args.update:
        with open(args.current, encoding="utf-8") as src, \
                open(args.baseline, "w", encoding="utf-8") as dst:
            dst.write(src.read())
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = load(args.baseline)
    config = CONFIG.get(baseline["bench"])
    if config is None:
        raise SystemExit(f"no gate config for bench {baseline['bench']!r}")
    failures = gate(baseline, current, config)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    if not failures:
        print(f"bench gate OK: {baseline['bench']} "
              f"({len(baseline['rows'])} baseline rows)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
