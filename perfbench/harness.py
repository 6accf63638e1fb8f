"""Measurement primitives shared by the workloads.

Everything here runs in the benchmark's own process and knows nothing
about the program under test beyond how to start it: child processes
with exact wall/CPU/peak-RSS accounting (``wait4``), order statistics
that say how many samples back them, span self time, the open-loop
ladder rule, and run provenance.
"""

from __future__ import annotations

import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
#: the interpreter the benchmark runs under starts the program too
PYTHON = sys.executable


# -- order statistics ---------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between
    closest ranks (the same rule as ``statistics.quantiles`` inclusive)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    if low == pos or ordered[low] == ordered[low + 1]:
        return ordered[low]  # also keeps inf (a failed request) exact
    return ordered[low] + (ordered[low + 1] - ordered[low]) * (pos - low)


def tail_percentile(values: list[float], wanted: float = 99.0) -> tuple[float, float]:
    """``(q, value)``: the highest percentile up to ``wanted`` that has
    at least ten samples beyond it, so a tail figure is never read off
    a handful of points. Fewer than 20 samples fall back to the median.
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    # the largest q with n * (1 - q/100) >= 10, rounded down to 0.1
    best = math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0 if n >= 10 else 0.0
    q = max(50.0, min(wanted, best))
    return q, percentile(values, q)


@dataclass(frozen=True)
class Summary:
    """A timing as the guide asks for it: median, a tail, the count."""

    n: int
    median: float
    tail_q: float
    tail: float

    @classmethod
    def of(cls, values: list[float]) -> "Summary":
        q, tail = tail_percentile(values)
        return cls(len(values), statistics.median(values), q, tail)


# -- spans --------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per-span self time: duration minus the union of the intervals its
    direct children cover (clipped to the parent, overlaps counted once).

    ``spans`` are dicts with ``id``, ``parent`` (``None`` for a root),
    ``start`` and ``end``.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result: dict[int, float] = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = 0.0
        reach = lo
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = (hi - lo) - covered
    return result


# -- open-loop ladder ---------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One ladder rate's outcome, latencies timed from the schedule."""

    rate: float
    latencies_ms: list[float]
    late_ms: list[float]
    failed: int
    #: requests still unsent when the step's time ran out
    dropped: int = 0

    def tail(self) -> tuple[float, float]:
        """``(q, latency)`` at the highest percentile up to p99 that has
        ten samples beyond it (:func:`tail_percentile`), with every
        failed or dropped request counted as a miss (an infinite
        latency), so they can never hide in the tail."""
        values = self.latencies_ms + [math.inf] * (self.failed + self.dropped)
        return tail_percentile(values) if values else (99.0, math.inf)

    def backlog_grew(self, limit_ms: float) -> bool:
        """True when the sender fell further behind as the step went on:
        the median lateness of the last quarter of sends exceeds that of
        the first quarter by more than ``limit_ms``."""
        late = self.late_ms
        if len(late) < 8:
            return False
        quarter = len(late) // 4
        first = statistics.median(late[:quarter])
        last = statistics.median(late[-quarter:])
        return last - first > limit_ms

    def qualifies(self, p99_limit_ms: float, backlog_ms: float) -> bool:
        """A step counts towards the max rate only if nothing failed or
        was dropped, its tail latency meets the limit and its backlog
        did not grow."""
        return (
            self.failed == 0
            and self.dropped == 0
            and self.tail()[1] <= p99_limit_ms
            and not self.backlog_grew(backlog_ms)
        )


def max_rate(steps: list[Step], p99_limit_ms: float, backlog_ms: float) -> float:
    """The highest ladder rate whose step qualifies (0 when none does)."""
    good = [s.rate for s in steps if s.qualifies(p99_limit_ms, backlog_ms)]
    return max(good, default=0.0)


# -- child processes ----------------------------------------------------------


TMP = WORK / "tmp"


def child_env() -> dict[str, str]:
    """The environment a program process runs in: the checkout's
    sources on the path, temp files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    TMP.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(TMP)
    return env


def clear_tmp() -> None:
    """Remove what a finished child left in its temp directory.
    ``repro-rank --store mmap`` never closes its pipeline result, so
    each run would otherwise leave its ~22 MB spill directory behind."""
    shutil.rmtree(TMP, ignore_errors=True)


@dataclass(frozen=True)
class Finished:
    """One child run, measured from outside."""

    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes


def run_child(argv: list[str], timeout_s: float) -> Finished:
    """Spawn ``argv``, wait for it with ``wait4`` and measure it.

    Wall time runs from just before the spawn to the reap; CPU and
    peak RSS are the child's own from its rusage, so nothing of an
    earlier sample carries over.
    """
    out_path = WORK / "stdout.bin"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=subprocess.DEVNULL, env=child_env(),
            cwd=ROOT,
        )
        deadline = start + timeout_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        wall = time.perf_counter() - start
    clear_tmp()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
    )


# -- memory -------------------------------------------------------------------


def proc_status_kb(pid: int, field: str) -> int:
    """A ``/proc/<pid>/status`` field in kB (``VmRSS``, ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


# -- provenance ---------------------------------------------------------------


def calibration_s(rounds: int = 3) -> float:
    """Best-of-``rounds`` time of a fixed pure-Python loop: a host-speed
    yardstick, so rows from different machines can be normalised."""
    best = math.inf
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best


def git_sha() -> str:
    """The checkout's commit, when it is a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance() -> dict:
    """Who measured: commit, usable CPUs, interpreter, host yardstick."""
    return {
        "git_sha": git_sha(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "calibration_s": round(calibration_s(), 6),
    }
