"""The worker pool hedged reads race their legs on."""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

from repro.errors import TransportError


class ConcurrentDispatcher:
    """The worker pool hedged reads race their legs on.

    A hedged read submits its primary leg, and after the hedge delay a
    backup leg, and takes the first answer; the query thread stays free
    to time the race. The executor is created lazily on the first
    submission and shared across calls (worker threads are reused, not
    churned per query).
    """

    def __init__(
        self,
        max_workers: int = 8,
        thread_name_prefix: str = "zerber-fanout",
    ) -> None:
        """Args:
        max_workers: thread-pool width.
        thread_name_prefix: worker-thread name prefix. Deployments pass
            a per-instance prefix so lifecycle tests can prove *their*
            workers died with the deployment's ``close()``.
        """
        if max_workers < 1:
            raise TransportError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._max_workers = max_workers
        self.thread_name_prefix = thread_name_prefix
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()

    def submit(self, call: Callable[[], Any]) -> Future:
        """Run one thunk on the pool; returns its :class:`Future`.

        Never runs inline: the caller (a hedged read racing a primary
        leg against a delayed backup leg, first answer wins) needs to
        keep the current thread free to time the race.
        """
        return self._ensure_executor().submit(call)

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix=self.thread_name_prefix,
                )
            return self._executor

    def shutdown(self) -> None:
        """Release the worker threads (idempotent)."""
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
