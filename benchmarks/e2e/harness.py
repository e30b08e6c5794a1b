"""Timing that repeats on a drifting machine, and the run's fingerprint.

Measured work is cut into chunks (a handful of queries, a batch of
documents, one operation). A :class:`Segment` runs the reference kernel
before the first chunk and after every chunk, and scales each chunk by
``KERNEL_REF_S`` over the median of the four kernel samples around it,
so a slow minute stretches the kernel and the chunk alike and cancels.
Everything reads one injectable clock, so a test can run the harness on
a clock that is 1.5x slow and see only the raw numbers move.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import threading
import time
from typing import Callable, Sequence

from benchmarks.e2e.kernel import KERNEL_CHECKSUM, KERNEL_REF_S, run_kernel

Clock = Callable[[], float]


class Pacer:
    """Owns the clock and the kernel that :class:`Segment` s sample."""

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.clock = clock
        self.started = clock()
        #: Wall seconds spent inside the kernel (calibration overhead).
        self.kernel_time = 0.0
        #: Every chunk's speed factor, in the order segments finished.
        self.factors: list[float] = []

    def sample(self) -> float:
        """Time one kernel call."""
        start = self.clock()
        checksum = run_kernel()
        elapsed = self.clock() - start
        if checksum != KERNEL_CHECKSUM:
            raise RuntimeError(
                f"reference kernel returned {checksum}, not "
                f"{KERNEL_CHECKSUM}: the kernel changed, so every "
                "timing's unit did"
            )
        self.kernel_time += elapsed
        return elapsed

    def elapsed(self) -> float:
        return self.clock() - self.started


class Segment:
    """One uninterrupted run of chunks, a kernel sample between each."""

    def __init__(self, pacer: Pacer) -> None:
        self._pacer = pacer
        self._kernel = [pacer.sample()]

    def mark(self) -> None:
        """The chunk that just ran is complete."""
        self._kernel.append(self._pacer.sample())

    def factors(self) -> list[float]:
        """One speed factor per chunk: reference speed over local speed.

        Chunk ``i`` ran between samples ``i`` and ``i + 1``; the median
        over those and one more on each side shrugs off a single kernel
        call that caught an interrupt, while still following drift.
        """
        samples = self._kernel
        out = [
            KERNEL_REF_S / statistics.median(samples[max(0, i - 1) : i + 3])
            for i in range(len(samples) - 1)
        ]
        self._pacer.factors.extend(out)
        return out


class FsyncMeter:
    """Counts ``os.fsync`` and times the calls that block the caller.

    The durable workload's seats live inside the checkout, on whatever
    shared device that is, and a flush there takes 0.1-3 ms for reasons
    no CPU kernel tracks. The harness keeps the program's flush policy,
    counts every flush exactly, and subtracts the measured device wait
    from the chunk it interrupted before scaling the rest by the kernel.
    Flushes on a background compactor thread block nobody, so they are
    counted but not subtracted.
    """

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._original = None
        self.calls = 0
        self.foreground_wait = 0.0

    def __enter__(self) -> "FsyncMeter":
        self._original = os.fsync
        os.fsync = self._fsync
        return self

    def __exit__(self, *_exc) -> None:
        os.fsync = self._original

    def _fsync(self, fd) -> None:
        start = self._clock()
        try:
            self._original(fd)
        finally:
            waited = self._clock() - start
            foreground = not threading.current_thread().name.startswith(
                "zerber-compactor"
            )
            with self._lock:
                self.calls += 1
                if foreground:
                    self.foreground_wait += waited


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_average() -> list[float]:
    try:
        return [round(v, 2) for v in os.getloadavg()]
    except OSError:
        return []


def git_commit(root: str) -> str:
    """The checked-out commit, read without running git ("unknown" in
    the driver's checkout, which is not a repository)."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def filesystem_of(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, fs_type = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                _device, mount, kind = line.split()[:3]
                prefix = mount.rstrip("/") + "/"
                if (path + "/").startswith(prefix) and len(mount) > len(best):
                    best, fs_type = mount, kind
    except OSError:
        pass
    return fs_type


def fingerprint(work_dir: str) -> dict:
    """What a reader needs to judge whether two runs are comparable."""
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "load_average_start": load_average(),
        "git_commit": git_commit(
            os.path.join(os.path.dirname(__file__), "..", "..")
        ),
        "wal_filesystem": filesystem_of(work_dir),
    }
