"""Server-side admission control: shed early, shed typed, shed cheap.

An overloaded server that keeps queueing turns overload into latency
collapse — every queued request still gets served, seconds too late,
and the client has long since timed out and retried (adding more
load). Bounding the dispatch queue converts the same overload into
fast typed :class:`~repro.errors.OverloadedError` rejections: the
client's :class:`~repro.resilience.retry.RetryPolicy` backs off (the
error is classified retryable — nothing was applied), the deadline
machinery keeps the caller's budget honest, and the server's goodput
stays at capacity instead of collapsing.

One controller instance guards one server's dispatch concurrency; both
socket servers and :class:`~repro.protocol.service.IndexServerService`
accept one. Counters are cheap and lock-protected — they feed the
load bench (``BENCH_load.json``) and operator surfaces.
"""

from __future__ import annotations

import threading

from repro.errors import OverloadedError, ReproError


class AdmissionController:
    """A bounded dispatch gate with shed accounting.

    Args:
        max_pending: concurrent admitted requests before shedding.
    """

    def __init__(self, max_pending: int) -> None:
        if max_pending < 1:
            raise ReproError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self._depth = 0
        self.peak_depth = 0
        self.admitted = 0
        self.shed = 0

    def try_acquire(self) -> bool:
        """Admit one request, or count a shed and refuse."""
        with self._lock:
            if self._depth >= self.max_pending:
                self.shed += 1
                return False
            self._depth += 1
            self.admitted += 1
            if self._depth > self.peak_depth:
                self.peak_depth = self._depth
            return True

    def release(self) -> None:
        with self._lock:
            if self._depth > 0:
                self._depth -= 1

    def admit(self, what: str = "request") -> None:
        """Admit or raise the typed retryable rejection."""
        if not self.try_acquire():
            raise OverloadedError(
                f"{what} shed: {self.max_pending} requests already "
                "in dispatch (retryable)"
            )

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    def stats(self) -> dict:
        """Counters for benches and the ``zerber_admission_*`` series."""
        with self._lock:
            return {
                "max_pending": self.max_pending,
                "depth": self._depth,
                "peak_depth": self.peak_depth,
                "admitted": self.admitted,
                "shed": self.shed,
            }
