"""The three locbench workloads.

Each workload generates its inputs from the seed (`setup`) and runs timed
rounds of locwm CLI commands (`round`), checking every output against
ground truth.  A scan or lint round is a pass without any cache and a pass
with a warm cache (filled, untimed, in the first round); a verify round is
one pass.  `trace` gives the per-layer split: one untraced CLI round for
CPU time, one CLI round with --stats for the work counters, and the
probe's traced in-process run, whose verdicts, rows or report must equal
the CLI's.  README.md in this directory says why each workload was chosen.
"""

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

from harness import BenchError, Cli, StatsSum


@dataclass
class Context:
    cli: Cli      # the locwm CLI under test
    probe: Cli    # locbench_probe
    seed: int
    threads: int
    quick: bool   # reduced sizes, for the self test
    trace: bool   # the traced run
    scratch: Path  # this run's caches and --stats files, outside the inputs


@dataclass
class Round:
    first_s: float   # wall time of the first pass
    second_s: float  # wall time of the second pass
    items: int       # items per pass
    cpu_s: float     # CPU time of the CLI children over wall_s
    wall_s: float
    rss_kib: int     # largest max-RSS of the timed CLI children


def tree_digest(root):
    """SHA-256 over every file's relative path and bytes under `root`."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def counters_metrics(stats):
    """Per-layer work counts read from the CLI's own --stats counters.
    Pass timers there are summed across lanes, hence `_cpu_ms`."""
    return {
        "cdfg.ordering_runs": stats.counter("cdfg.ordering.runs"),
        "cdfg.ordering_cpu_ms": stats.pass_ms.get("cdfg.ordering", 0.0),
        "core.derive_calls": stats.counter("core.locality.derive_calls"),
        "sched.enum_states": stats.counter("sched.enum.states"),
        "crypto.streams_keyed": stats.counter("crypto.bitstream.streams_keyed"),
    }


def rt_metrics(rnd):
    return {"rt.cpu_s": rnd.cpu_s, "rt.parallelism": rnd.cpu_s / rnd.wall_s}


class Workload:
    """`round(tally, index)` runs part `index % cycle` of the workload; a
    timed run is whole cycles, so every run weighs every part equally."""

    cycle = 1

    def __init__(self, ctx):
        self.ctx = ctx
        self.dir = None

    def trace(self, tally):
        """Untraced round, --stats round, then the probe's traced run."""
        rnd = self.round(tally, 0)
        stats = StatsSum()
        self.round(tally, 1, stats=stats)
        trace_out = self.ctx.scratch.parent / "trace.json"
        probe = self.ctx.probe.run([*self.probe_args(), trace_out], cwd=self.dir)
        result = json.loads(probe.out)
        self.compare_probe(result, tally)
        return {**result["metrics"], **counters_metrics(stats), **rt_metrics(rnd)}


class VerifyMediaBench(Workload):
    """detect / detect-reg / detect-tm on the paper's designs.

    Verification has no cache, so there is no warm pass: a round is one
    pass over one instance, reported as both the first and the second.
    Which localities a signature selects, and so what replay and Pc
    enumeration cost, varies between seeds; a timed run therefore covers
    INSTANCES independent instances (sub-seeds of the seed) of the design
    set, one per round, in whole cycles.  The traced run covers the first
    instance.
    """

    name = "verify_mediabench"
    APPS = ["adpcm", "g721", "gsm", "pegwit", "mpeg2"]
    QUICK_APPS = ["adpcm", "g721"]
    INSTANCES = 4

    def setup(self, d):
        ctx = self.ctx
        self.dir = d
        self.apps = self.QUICK_APPS if ctx.quick else self.APPS
        count = 1 if ctx.quick or ctx.trace else self.INSTANCES
        self.cycle = count
        # Per instance: (cwd, identity, command, item, nonce, leading args,
        # own certs, foreign certs).
        self.instances = []
        for k in range(count):
            inst = d / f"inst{k}"
            inst.mkdir(exist_ok=True)
            self.setup_instance(inst, ctx.seed * 1000 + k)

    def setup_instance(self, d, seed):
        cli = self.ctx.cli
        identity = f"locbench-{seed}"
        self.ctx.probe.run(["gen-verify", seed, d], cwd=d)
        for app in self.apps:
            # An earlier run may have left more marks in this directory.
            for stale in d.glob(f"{app}.wmc*"):
                stale.unlink()
            sig = ["-i", identity, "-n", f"{app}-{seed}"]
            cli.run(["embed", f"mb/{app}.cdfg", *sig, "-o", f"{app}.marked.cdfg",
                     "-c", f"{app}.wmc", "--marks", 3, "-q"], cwd=d)
            cli.run(["schedule", f"{app}.marked.cdfg", "-o", f"{app}.sched", "-q"],
                    cwd=d)
            cli.run(["strip", f"{app}.marked.cdfg", "-o", f"{app}.pub.cdfg"], cwd=d)
            cli.run(["embed-reg", f"{app}.pub.cdfg", f"{app}.sched", *sig,
                     "-c", f"{app}.rwc", "-o", f"{app}.bind", "-q"], cwd=d)
        accepted = []
        for path in sorted((d / "hyper").glob("*.cdfg")):
            h = path.stem
            call = cli.run(["embed-tm", f"hyper/{h}.cdfg", "-i", identity,
                            "-n", f"{h}-{seed}", "-c", f"{h}.tmc",
                            "-o", f"{h}.cover", "-q"], cwd=d, ok_codes=(0, 2))
            if call.rc == 0:
                accepted.append(h)
        if len(accepted) < 2:
            raise BenchError("embed-tm accepted fewer than two HYPER designs")

        ops = []
        apps = self.apps
        for i, app in enumerate(apps):
            other = apps[(i + 1) % len(apps)]
            own = sorted(p.name for p in d.glob(f"{app}.wmc*"))
            foreign = sorted(p.name for p in d.glob(f"{other}.wmc*"))
            ops.append(("detect", app, f"{app}-{seed}",
                        [f"{app}.pub.cdfg", f"{app}.sched"], own, foreign))
        for i, app in enumerate(apps):
            other = apps[(i + 1) % len(apps)]
            ops.append(("detect-reg", app, f"{app}-{seed}",
                        [f"{app}.pub.cdfg", f"{app}.sched", f"{app}.bind"],
                        [f"{app}.rwc"], [f"{other}.rwc"]))
        for i, h in enumerate(accepted):
            other = accepted[(i + 1) % len(accepted)]
            ops.append(("detect-tm", h, f"{h}-{seed}",
                        [f"hyper/{h}.cdfg", f"{h}.cover"], [f"{h}.tmc"],
                        [f"{other}.tmc"]))
        plan = [" ".join([cmd, item, *lead, identity, nonce, *own, *foreign])
                for cmd, item, nonce, lead, own, foreign in ops]
        (d / "plan.txt").write_text("\n".join(plan) + "\n")
        self.instances.append([(d, identity, *op) for op in ops])

    @staticmethod
    def parse_verdicts(out, certs):
        """Per certificate: True (DETECTED), False (not found) or None."""
        lines = out.splitlines()
        verdicts = []
        for k, cert in enumerate(certs):
            line = lines[k] if k < len(lines) else ""
            rest = line[len(cert):].lstrip() if line.startswith(cert) else ""
            verdicts.append(True if rest.startswith("DETECTED") else
                            False if rest.startswith("not found") else None)
        return verdicts

    def round(self, tally, index, stats=None):
        """Runs every detect command of one instance, checking each verdict."""
        verdicts = []
        cpu = 0.0
        rss = 0
        start = time.perf_counter()
        ops = self.instances[index % self.cycle]
        for n, (cwd, identity, cmd, item, nonce, lead, own, foreign) in \
                enumerate(ops):
            certs = own + foreign
            stats_path = (self.ctx.scratch / f"stats-{n}.json"
                          if stats is not None else None)
            call = self.ctx.cli.run([cmd, *lead, *certs, "-i", identity,
                                     "-n", nonce], cwd=cwd,
                                    stats=stats_path, ok_codes=(0, 1, 2))
            cpu += call.cpu_s
            rss = max(rss, call.maxrss_kib)
            if stats is not None:
                stats.add(stats_path)
            got = self.parse_verdicts(call.out, certs)
            expected = [True] * len(own) + [False] * len(foreign)
            for cert, g, e in zip(certs, got, expected):
                tally.check(call.rc != 2 and g == e,
                            f"{cmd} {cwd.name}/{item} {cert}: got {g}, expected {e}")
                verdicts.append([item, cert, g])
        wall = time.perf_counter() - start
        self.cli_verdicts = verdicts
        return Round(wall, wall, len(verdicts), cpu, wall, rss)

    def probe_args(self):
        return ["trace-verify", "inst0/plan.txt", self.ctx.threads]

    def compare_probe(self, result, tally):
        tally.check(result["verdicts"] == self.cli_verdicts,
                    "traced verdicts differ from the CLI's")


class ScanCorpus(Workload):
    """`locwm scan` of CORPORA seeded random corpora: no cache, then warm.

    How much survivor replay a corpus needs varies between seeds (24 000
    to 34 000 derivations; the --no-cache scan time's coefficient of
    variation is about 0.1), so a round scans several independent corpora
    (sub-seeds of the seed) and sums their times; the traced run covers the
    first.  (A median over one-corpus rounds spread more: 0.25 against
    0.15.)
    """

    name = "scan_corpus"
    CORPORA = 5

    def setup(self, d):
        ctx = self.ctx
        self.dir = d
        self.designs, certs = (60, 20) if ctx.quick else (400, 100)
        count = 1 if ctx.quick or ctx.trace else self.CORPORA
        self.corpora = [f"corpus{k}" for k in range(count)]
        self.planted, self.reference = {}, {}
        for k, corpus in enumerate(self.corpora):
            ctx.probe.run(["gen-scan", ctx.seed * 1000 + k, corpus, f"{corpus}.truth",
                           self.designs, certs], cwd=d)
            self.planted[corpus] = {tuple(line.split()) for line in
                                    (d / f"{corpus}.truth").read_text().splitlines()
                                    if line}

    def scan(self, corpus, cache, stats_path=None):
        cache_args = (["--cache", self.ctx.scratch / f"{corpus}.cache"] if cache
                      else ["--no-cache"])
        return self.ctx.cli.run(["scan", corpus, "--keys", f"{corpus}/ring.keyring",
                                 "--json", "-q", *cache_args],
                                cwd=self.dir, stats=stats_path, ok_codes=(0, 1, 2))

    def check_rows(self, corpus, call, tally, what):
        """Checks design count and planted recall, and that the rows (less
        their `cache` field) equal the cold scan's."""
        rows = [json.loads(line) for line in call.out.splitlines() if line]
        found = {(r["design"], r["cert"]) for r in rows
                 if r["type"] == "match" and r["found"]}
        designs = sum(r["type"] == "design" for r in rows)
        missed = len(self.planted[corpus] - found)
        tally.check(call.rc == 0 and designs == self.designs,
                    f"{what} scan of {corpus}: rc {call.rc}, {designs} design rows")
        tally.check(missed == 0, f"{what} scan of {corpus} missed {missed} planted pairs")
        rows = [{k: v for k, v in r.items() if k != "cache"} for r in rows]
        ref = self.reference.setdefault(corpus, rows)
        tally.check(rows == ref, f"{what} scan rows of {corpus} differ from the cold scan's")

    def prepare(self, tally):
        """Untimed: a cold scan of each corpus, filling its cache."""
        self.cli_rows = {}
        for corpus in self.corpora:
            cold = self.scan(corpus, cache=True)
            self.check_rows(corpus, cold, tally, "cold")
            self.cli_rows.setdefault("fill", cold.out.splitlines())

    def round(self, tally, index, stats=None):
        if not self.reference:
            self.prepare(tally)
        first = second = cpu = 0.0
        rss = 0
        for corpus in self.corpora:
            stats_path = self.ctx.scratch / "stats.json" if stats is not None else None
            nocache = self.scan(corpus, cache=False, stats_path=stats_path)
            if stats is not None:
                stats.add(stats_path)
            warm = self.scan(corpus, cache=True)
            self.check_rows(corpus, nocache, tally, "--no-cache")
            self.check_rows(corpus, warm, tally, "warm")
            first += nocache.wall_s
            second += warm.wall_s
            cpu += nocache.cpu_s + warm.cpu_s
            rss = max(rss, nocache.maxrss_kib, warm.maxrss_kib)
            if corpus == self.corpora[0]:
                self.cli_rows["nocache"] = nocache.out.splitlines()
                self.cli_rows["warm"] = warm.out.splitlines()
        return Round(first, second, self.designs * len(self.corpora), cpu,
                     first + second, rss)

    def probe_args(self):
        return ["trace-scan", "corpus0", "corpus0/ring.keyring", "corpus0.truth",
                self.ctx.scratch / "probe-cache", self.ctx.threads]

    def compare_probe(self, result, tally):
        tally.check(result["rows"] == self.cli_rows,
                    "traced scan rows differ from the CLI's")


class LintWorkspace(Workload):
    """`locwm lint --manifest`: no cache, then warm."""

    name = "lint_workspace"
    EDIT_PCT = 10

    def setup(self, d):
        ctx = self.ctx
        self.dir = d
        pairs = 100 if ctx.quick else 750
        ctx.probe.run(["gen-lint", ctx.seed, "ws", "ws-edit", pairs, self.EDIT_PCT],
                      cwd=d)
        self.artifacts = sum(line.startswith("artifact ") for line in
                             (d / "ws" / "ws.manifest").read_text().splitlines())
        self.reference = None

    def lint(self, ws, cache_args, stats_path=None):
        return self.ctx.cli.run(["lint", "--manifest", f"{ws}/ws.manifest", "--json",
                                 "-q", *cache_args], cwd=self.dir,
                                stats=stats_path, ok_codes=(0, 1, 2))

    def check(self, call, ref, tally, what):
        tally.check(call.rc != 2 and call.out == self.reference[ref],
                    f"{what} lint report differs from the --no-cache report")

    def prepare(self, tally):
        """Untimed: the --no-cache reports of the workspace and its edit,
        then a cold lint filling the cache and a warm lint of the edit."""
        cold = self.lint("ws", ["--no-cache"])
        edit = self.lint("ws-edit", ["--no-cache"])
        if cold.rc == 2 or edit.rc == 2:
            raise BenchError("--no-cache lint failed: " + (cold.err + edit.err)[-400:])
        self.reference = (cold.out, edit.out)
        fill = self.lint("ws", ["--cache", self.ctx.scratch / "cache"])
        self.check(fill, 0, tally, "cold")
        warm_edit = self.lint("ws-edit", ["--cache", self.ctx.scratch / "cache"])
        self.check(warm_edit, 1, tally, "warm edit")

    def round(self, tally, index, stats=None):
        if self.reference is None:
            self.prepare(tally)
        stats_path = self.ctx.scratch / "stats.json" if stats is not None else None
        first = self.lint("ws", ["--no-cache"], stats_path)
        if stats is not None:
            stats.add(stats_path)
        second = self.lint("ws", ["--cache", self.ctx.scratch / "cache"])
        self.check(first, 0, tally, "--no-cache")
        self.check(second, 0, tally, "warm")
        return Round(first.wall_s, second.wall_s, self.artifacts,
                     first.cpu_s + second.cpu_s, first.wall_s + second.wall_s,
                     max(first.maxrss_kib, second.maxrss_kib))

    def probe_args(self):
        return ["trace-lint", "ws/ws.manifest", "ws-edit/ws.manifest",
                self.ctx.scratch / "probe-cache", self.ctx.threads]

    def compare_probe(self, result, tally):
        tally.check(result["warm_report"] == self.reference[1],
                    "traced warm lint report differs from the CLI's")


WORKLOADS = {w.name: w for w in (VerifyMediaBench, ScanCorpus, LintWorkspace)}
