"""Shared plumbing: hermetic environment, host block, timers, statistics.

Everything here is benchmark-side; nothing imports the program until a
workload asks for it, so :func:`pin_environment` runs before the
program reads its environment variables at import time.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Repository root: the benchmark runs from the root of a checkout.
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

#: Variables that would turn a run into a cache hit, resume a checkpoint
#: or inject faults; removed for every run and every child process.
CLEARED_ENV = ("REPRO_CACHE_DIR", "REPRO_CHECKPOINT_DIR", "REPRO_FAULTS",
               "REPRO_FAULTS_SEED")


def pinned_env(trace: bool) -> dict:
    """The environment every run and child process sees."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update({
        # Parallelism is passed explicitly where the workload uses it;
        # everything else runs serially.
        "REPRO_WORKERS": "1",
        "REPRO_MP_CONTEXT": "fork",
        "REPRO_OBS": "1" if trace else "0",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join(
            [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(
                os.pathsep) if p and p != SRC]),
    })
    return env


def pin_environment(trace: bool) -> None:
    """Apply :func:`pinned_env` to this process before importing repro."""
    for key in CLEARED_ENV:
        os.environ.pop(key, None)
    os.environ.update(pinned_env(trace))
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def cores() -> int:
    """Cores this process may run on (the smaller of count and affinity)."""
    count = os.cpu_count() or 1
    try:
        return min(count, len(os.sched_getaffinity(0)))
    except AttributeError:
        return count


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git
    repository of its own (an enclosing repository does not count)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def src_digest() -> str:
    """sha256 over every file under ``src/`` (paths and contents)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def host_block(parallelism: dict) -> dict:
    """Who ran this: cores, interpreter, numpy, commit and parallelism."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cores_usable": cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": src_digest(),
        "machine": platform.machine(),
        **parallelism,
    }


def host_speed() -> float:
    """Iterations per second of a fixed pure-Python loop over 0.2 s.

    Recorded at the start and end of every run, so a reader can tell a
    slower program from a slower host.
    """
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        sum(range(10_000))
        n += 1
    return n / (time.perf_counter() - t0)


def peak_rss_mb() -> float:
    """High-water resident set of this process, MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# -- statistics ------------------------------------------------------------ #

def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def mean(values) -> float:
    xs = [float(v) for v in values]
    if not xs:
        raise ValueError("mean of no values")
    return sum(xs) / len(xs)


def tail(latencies_ms) -> dict:
    """Sample count and quantiles of one phase's latencies."""
    return {"n": len(latencies_ms), "mean": mean(latencies_ms),
            **{f"p{q}": quantile(latencies_ms, q / 100)
               for q in (50, 90, 95, 99)}}


# -- stage timing ---------------------------------------------------------- #

@dataclass
class Stage:
    name: str
    wall_s: float
    cpu_s: float


@dataclass
class StageTimer:
    """Wall and CPU time of named calls into the program's layers."""

    stages: list[Stage] = field(default_factory=list)

    @contextmanager
    def stage(self, name: str):
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            yield
        finally:
            self.stages.append(Stage(name, time.perf_counter() - t0,
                                     cpu_seconds() - c0))

    def wall(self, name: str) -> float:
        return sum(s.wall_s for s in self.stages if s.name == name)

    def cpu(self, name: str) -> float:
        return sum(s.cpu_s for s in self.stages if s.name == name)

    def total_wall(self) -> float:
        return sum(s.wall_s for s in self.stages)


def emit(result: dict) -> None:
    """Print the result object as the last line of standard output."""
    sys.stdout.flush()
    print(json.dumps(result, sort_keys=True), flush=True)
