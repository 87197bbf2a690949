#!/usr/bin/env python3
"""locbench: end-to-end and per-layer benchmark of the locwm toolchain.

Run from the root of a checkout:

  python3 locbench/run.py --workload verify_mediabench --seed 1 \
      --seconds 20 --trace 0

It builds the locwm CLI (Release) and the probe from source, generates the
workload's inputs from --seed, and then either measures the CLI for
--seconds (--trace 0: the end-to-end metrics) or makes the traced run
(--trace 1: the per-layer metrics).  Every output is checked against
ground truth.  The last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; metric names and units
come from BENCHMARK.json.  See README.md in this directory.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import BenchError, Cli, Tally, median  # noqa: E402
from workloads import WORKLOADS, Context, tree_digest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3   # set-ups per timed run; setup_s is their median


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def sh(argv, log, env):
    """Runs a build step, appending its output to `log`."""
    with open(log, "ab") as out:
        rc = subprocess.run(argv, cwd=ROOT, env=env, stdout=out,
                            stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL).returncode
    if rc != 0:
        tail = Path(log).read_text(errors="replace")[-2000:]
        raise BenchError(f"build step failed: {' '.join(map(str, argv))}\n{tail}")


def build(env):
    """Configures and builds the CLI and the probe; returns both paths."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    log.write_text("")
    jobs = str(min(4, os.cpu_count() or 1))
    repo_b, probe_b = bdir / "locwm", bdir / "probe"
    if not (repo_b / "CMakeCache.txt").exists():
        sh(["cmake", "-S", ROOT, "-B", repo_b, "-DCMAKE_BUILD_TYPE=Release"],
           log, env)
    sh(["cmake", "--build", repo_b, "--target", "locwm", "-j", jobs], log, env)
    if not (probe_b / "CMakeCache.txt").exists():
        sh(["cmake", "-S", HERE, "-B", probe_b, "-DCMAKE_BUILD_TYPE=Release",
            f"-DLOCWM_BUILD_DIR={repo_b}"], log, env)
    sh(["cmake", "--build", probe_b, "-j", jobs], log, env)
    return repo_b / "tools" / "locwm", probe_b / "locbench_probe"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(exe, args, threads, env):
    """CPU, threads, seed, git describe and build type of this run."""
    version = subprocess.run([exe, "version"], capture_output=True, text=True,
                             env=env).stdout.strip()
    # "locwm 1.0.0 (DESCRIBE, BUILD_TYPE)"
    inner = version[version.find("(") + 1:version.rfind(")")].split(", ")
    describe = inner[0] if len(inner) == 2 else "unknown"
    build_type = inner[-1] if inner else "unknown"
    git = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                         cwd=ROOT, capture_output=True, text=True, env=env)
    if git.returncode == 0 and git.stdout.strip():
        describe = git.stdout.strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": "quick" if args.quick else "full",
        "cpu_model": cpu_model(), "nproc": os.cpu_count(), "threads": threads,
        "git_describe": describe, "dirty": describe.endswith("-dirty"),
        "build_type": build_type,
    }


def set_up(workload, d):
    """Writes the workload's inputs into `d`; returns the seconds it took.

    `d` persists between runs, so a set-up mostly overwrites the files of
    the last one.  On ext4 mounted with online discard, creating thousands
    of new files after many deletions costs 1-2 s of system time where
    overwriting costs 0.1 s, and which of the two a run sees depends on
    the file system's recent history (other tenants' included); measured
    set-up time would follow it.  Files this set-up did not write are left
    from another seed or size and are removed, untimed."""
    d.mkdir(parents=True, exist_ok=True)
    since_ns = time.time_ns() - 1_000_000_000   # file times are coarse
    start = time.perf_counter()
    workload.setup(d)
    took = time.perf_counter() - start
    for path in sorted(d.rglob("*"), reverse=True):
        if path.is_dir():
            if not any(path.iterdir()):
                path.rmdir()
        elif path.stat().st_mtime_ns < since_ns:
            path.unlink()
    return took


def timed_run(workload, tally, seconds, work):
    """SETUPS set-ups, then rounds until --seconds is used up.  Nothing is
    deleted until the run ends: deleting many files slows the file
    creation that follows (see set_up), which would leak into the timings."""
    setup_s, digests = [], []
    for k in range(SETUPS):
        d = work / f"setup{k}"
        setup_s.append(set_up(workload, d))
        digests.append(tree_digest(d))
    tally.check(len(set(digests)) == 1, "set-up is not deterministic in the seed")

    # The untimed preparation (cache fills, reference reports) happens in
    # the first round and counts against --seconds.  Rounds come in whole
    # cycles over the workload's parts; another cycle starts only if it
    # fits.  Per part the median round counts, and the parts are summed.
    rounds = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(workload.round(tally, len(rounds)))
        if len(rounds) == 1:
            prepare_s = time.perf_counter() - round_start - rounds[0].wall_s
        if len(rounds) % workload.cycle == 0:
            elapsed = time.perf_counter() - start
            cycle_s = sum(r.wall_s for r in rounds[-workload.cycle:])
            if elapsed + cycle_s > seconds:
                break
    parts = [rounds[k::workload.cycle] for k in range(workload.cycle)]
    items = sum(p[0].items for p in parts)
    metrics = {
        "items_per_s": items / sum(median([r.first_s for r in p]) for p in parts),
        "warm_items_per_s":
            items / sum(median([r.second_s for r in p]) for p in parts),
        "peak_rss_mib": max(r.rss_kib for r in rounds) / 1024.0,
        "setup_s": median(setup_s),
    }
    samples = {"rounds": len(rounds), "setups": len(setup_s),
               "prepare_s": prepare_s,
               "first_pass_s": [r.first_s for r in rounds],
               "second_pass_s": [r.second_s for r in rounds],
               "cpu_s": [r.cpu_s for r in rounds],
               "setup_s": setup_s}
    return metrics, samples


def traced_run(workload, tally, work):
    set_up(workload, work / "setup0")
    return workload.trace(tally), {}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced input sizes (self test only)")
    args = parser.parse_args()

    if not all((ROOT / p).exists() for p in ("CMakeLists.txt", "src", "tools")):
        print(f"locbench: no locwm sources next to {HERE.name}/; run it from "
              "the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # The set-up directories stay between runs (see set_up); everything
    # else under `work` belongs to one run.
    work = ROOT / ".bench_work" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    for path in work.iterdir():
        if not path.is_dir():
            path.unlink()
        elif not path.name.startswith("setup"):
            shutil.rmtree(path)
    scratch = work / "run"
    (scratch / "tmp").mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(scratch / "tmp"), LC_ALL="C")
    env.pop("LOCWM_THREADS", None)
    env.pop("LOCWM_CHECK_PASSES", None)
    threads = min(4, os.cpu_count() or 1)
    try:
        exe, probe = build(env)
        prov = provenance(exe, args, threads, env)
        if prov["build_type"] != "Release":
            raise BenchError(f"locwm is a {prov['build_type']} build; the "
                             "benchmark measures Release builds only")
        if prov["dirty"]:
            print("locbench: warning: the tree is dirty; these numbers "
                  "describe uncommitted code", file=sys.stderr)
        ctx = Context(cli=Cli(exe, env, threads), probe=Cli(probe, env),
                      seed=args.seed, threads=threads, quick=args.quick,
                      trace=bool(args.trace), scratch=scratch)
        workload = WORKLOADS[args.workload](ctx)
        tally = Tally()
        if args.trace:
            metrics, samples = traced_run(workload, tally, work)
        else:
            metrics, samples = timed_run(workload, tally, args.seconds, work)
    except BenchError as e:
        print(f"locbench: {e}", file=sys.stderr)
        return 1
    finally:
        # The caches are bulky; keep the inputs, result.json and trace.json.
        shutil.rmtree(scratch, ignore_errors=True)

    for m in wanted:
        # A layer the workload does not exercise did no work: it reads 0.
        metrics.setdefault(m["name"], 0.0)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    fail_pct = 100.0 * tally.failed / max(1, tally.attempted)
    print(f"locbench {args.workload} seed={args.seed} trace={args.trace}")
    for m in wanted:
        print(f"  {m['name']:<28} {metrics[m['name']]:>14.4f} {m['unit']}")
    print(f"  {'fail_pct':<28} {fail_pct:>14.4f} % "
          f"({tally.failed} of {tally.attempted} checked operations)")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    record = {"provenance": prov, "samples": samples, **result}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
