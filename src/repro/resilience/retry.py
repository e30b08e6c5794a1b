"""Declarative retry: bounded attempts, seeded-jitter backoff, typed
classification.

One policy object replaces the transports' ad-hoc ``for attempt in
(0, 1)`` loops. Three rules decide whether an attempt N+1 happens:

1. the error must be classified retryable — the ``retryable``
   attribute on the :mod:`repro.errors` hierarchy, instance overrides
   included (a broken connection is retryable for pure reads, a fail-
   fast ambiguity for writes);
2. attempts are bounded by ``max_attempts``;
3. the backoff sleep must fit the ambient deadline — a retry that
   would outsleep the caller's budget converts to the typed
   :class:`~repro.errors.DeadlineExceededError` immediately instead.

Jitter is deterministic: the policy owns a seeded RNG, so a test (or a
reproduced incident) replays the exact same sleep schedule. The RNG is
lock-protected — one policy instance is typically shared by every
calling thread of a transport.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable

from repro.errors import DeadlineExceededError, ReproError
from repro.resilience.deadline import current_deadline


def is_retryable(error: BaseException) -> bool:
    """The taxonomy read: instance attribute first, class default second."""
    return bool(getattr(error, "retryable", False))


@dataclass
class RetryPolicy:
    """How many times, how long between, and which failures at all.

    Args:
        max_attempts: total tries including the first (1 = no retry).
        base_backoff_s: sleep before the first retry.
        multiplier: exponential growth per further retry.
        max_backoff_s: cap on any single sleep.
        jitter: fraction of the computed backoff replaced by a seeded
            uniform draw — ``backoff * (1 - jitter + jitter * u)``
            keeps the expectation near the schedule while decorrelating
            concurrent retriers.
        seed: jitter RNG seed (deterministic sleep schedule per policy).
        sleep: injectable sleep for tests.
    """

    max_attempts: int = 3
    base_backoff_s: float = 0.01
    multiplier: float = 2.0
    max_backoff_s: float = 0.25
    jitter: float = 0.5
    seed: int = 0x2E4B
    sleep: Callable[[float], None] = time.sleep
    _rng: Random = field(init=False, repr=False)
    _rng_lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        self._rng = Random(self.seed)
        self._rng_lock = threading.Lock()

    def backoff_s(self, retry_index: int) -> float:
        """The jittered sleep before retry ``retry_index`` (0-based)."""
        backoff = min(
            self.base_backoff_s * (self.multiplier**retry_index),
            self.max_backoff_s,
        )
        if self.jitter <= 0.0 or backoff <= 0.0:
            return backoff
        with self._rng_lock:
            u = self._rng.random()
        return backoff * (1.0 - self.jitter + self.jitter * u)

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """May attempt ``attempt`` (0-based) be followed by another?"""
        return attempt + 1 < self.max_attempts and is_retryable(error)

    def pause_before_retry(self, retry_index: int) -> None:
        """Sleep the scheduled backoff, deadline-capped.

        Raises:
            DeadlineExceededError: the remaining ambient budget is
                smaller than the scheduled sleep — the retry could
                never answer in time, so the caller learns *now*.
        """
        backoff = self.backoff_s(retry_index)
        deadline = current_deadline()
        if deadline is not None and deadline.remaining_s() <= backoff:
            raise DeadlineExceededError(
                f"retry backoff of {backoff * 1e3:.1f} ms does not fit "
                "the remaining deadline budget"
            )
        if backoff > 0.0:
            self.sleep(backoff)

    def run(self, attempt_fn: Callable[[int], Any], failed=None) -> Any:
        """Run ``attempt_fn(attempt_index)`` under this policy.

        The last error is re-raised unchanged when attempts run out or
        the error is terminal — classification lives on the error, so
        callers keep their typed failure modes. ``failed`` is the error
        an attempt 0 made elsewhere (one frame of a pipelined batch)
        ended with; the schedule then resumes at attempt 1.
        """
        retries = 0
        for attempt in range(self.max_attempts):
            try:
                if attempt == 0 and failed is not None:
                    raise failed
                return attempt_fn(attempt)
            except ReproError as exc:
                if not self.should_retry(exc, attempt):
                    raise
                self.pause_before_retry(retries)
                retries += 1
        raise AssertionError("unreachable")  # pragma: no cover
