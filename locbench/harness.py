"""Process plumbing shared by the locbench workloads.

`Cli` runs one locwm (or probe) command at a time, captures its output,
and records each child's wall time, CPU time and max-RSS from wait4(), so
the benchmark can report per-child peaks without a sampler.
"""

import json
import os
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


class BenchError(Exception):
    """A setup or build step failed; the run cannot produce a result."""


@dataclass
class Call:
    rc: int
    out: str
    err: str
    wall_s: float
    cpu_s: float
    maxrss_kib: int


@dataclass
class Tally:
    """Checked operations and the failures among them."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok


class Cli:
    """Runs one child at a time and reaps it with wait4(), so its own
    CPU time and max-RSS are known; `--threads` is appended when `threads`
    is set."""

    def __init__(self, exe, env, threads=None):
        self.exe = str(exe)
        self.env = env
        self.threads = threads

    def run(self, args, cwd, stats=None, ok_codes=(0,)):
        argv = [self.exe, *map(str, args)]
        if self.threads is not None:
            argv += ["--threads", str(self.threads)]
        if stats is not None:
            argv += ["--stats", str(stats)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        err = []
        drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        drain.start()
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        call = Call(proc.returncode, out.decode(errors="replace"),
                    err[0].decode(errors="replace"), wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
        if call.rc not in ok_codes:
            raise BenchError(f"{' '.join(argv)} exited {call.rc}: "
                             f"{call.err.strip()[-400:]}")
        return call


def median(values):
    return statistics.median(values) if values else 0.0


class StatsSum:
    """Sums the --stats counters and pass totals of several CLI runs."""

    def __init__(self):
        self.counters = {}
        self.pass_ms = {}

    def add(self, path):
        snap = json.loads(Path(path).read_text())
        for name, value in snap.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for row in snap.get("passes", []):
            self.pass_ms[row["name"]] = (self.pass_ms.get(row["name"], 0.0)
                                         + row["total_ms"])

    def counter(self, name):
        return float(self.counters.get(name, 0))
