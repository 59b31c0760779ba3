"""Process control and statistics for the benchmark: one child at a time.

Each request is a fresh CLI process.  The parent notes ``time.monotonic()``
just before the spawn, waits on a pidfd with the per-request cap as timeout,
and reaps the child with ``os.wait4``, whose ``ru_maxrss`` is the peak RSS
of a killed child (an upper bound: it also counts the parent's resident
pages at the spawn).  A child that outlives its cap is killed with its
process group.
"""

from __future__ import annotations

import math
import os
import platform
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

TRACEBACK = b"Traceback (most recent call last):"


@dataclass
class Exit:
    exit_code: int | None  # None when the child was killed
    killed: bool
    elapsed_s: float  # spawn to reap, as measured
    rss_kb: int
    started: float  # time.monotonic() just before the spawn


def spawn(cmd: list[str], cwd: Path, timeout_s: float, stdout: Path, stderr: Path) -> Exit:
    """Run ``cmd`` to completion or until ``timeout_s``; never raises on the
    child's behalf, and always reaps it."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True,
        )
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout_s, 0.0))
        killed = not ready
    except BaseException:
        _kill(proc.pid)
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        os.close(pidfd)
    if killed:
        _kill(proc.pid)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.monotonic() - started
    # the child is reaped here; tell Popen so that it never waits on the pid
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        exit_code=None if killed else proc.returncode,
        killed=killed,
        elapsed_s=elapsed,
        rss_kb=usage.ru_maxrss,
        started=started,
    )


def _kill(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def classify(exit_code: int | None, timed_out: bool, stderr: bytes) -> str | None:
    """Failure class of a finished request, or None when it ran cleanly."""
    if timed_out:
        return "timeout"
    if TRACEBACK in stderr:
        return "traceback"
    if exit_code != 0:
        return f"exit{exit_code}"
    return None


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """Harrell-Davis estimate of the ``p``-th percentile, and how many samples
    lie strictly above it (the tail the percentile rests on).

    The estimate is a weighted mean of the order statistics, with the weights
    of the Beta(p(n+1), (1-p)(n+1)) distribution over the n equal slices of
    [0, 1]; unlike a single order statistic, it does not jump when noise
    swaps two samples next to the percentile.
    """
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    n = len(xs)
    q = p / 100.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 32  # midpoint rule inside each slice; avoids the end points

    def density(t: float) -> float:
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)

    weights = [
        sum(density((i + (k + 0.5) / steps) / n) for k in range(steps))
        for i in range(n)
    ]
    total = sum(weights)
    value = sum(w * x for w, x in zip(weights, xs)) / total
    return value, sum(1 for x in xs if x > value)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }
