"""Per-pod circuit breakers: stop asking a fleet that keeps saying no.

The failover ladder already *survives* a dead pod — but it still pays
to discover the death on every query (a TransportError per seat per
round). A breaker remembers: ``failure_threshold`` consecutive failed
legs open it, an open breaker deprioritizes the pod in
:meth:`ClusterCoordinator.read_replicas` ranking for ``cooldown_s``,
then a single half-open probe decides between closing it (pod is back)
and re-opening for a doubled cooldown (still down, capped at
``max_cooldown_s``). Ranking-level integration means an open pod is
*deprioritized, never forbidden* — when every replica's breaker is
open, the ladder still tries them all rather than failing a query the
pods could have answered.

State transitions are observation-driven (record_success /
record_failure from the query path), so with a deterministic clock and
a deterministic failure schedule the breaker is fully reproducible.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """One endpoint-group's health automaton (thread-safe).

    Args:
        failure_threshold: consecutive failures that open the breaker.
        cooldown_s: how long an open breaker deprioritizes its pod
            before allowing a half-open probe.
        max_cooldown_s: cap for the doubling re-open cooldown.
        clock: injectable monotonic clock for deterministic tests.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        max_cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._failure_threshold = failure_threshold
        self._base_cooldown_s = cooldown_s
        self._cooldown_s = cooldown_s
        self._max_cooldown_s = max_cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_outstanding = False
        #: Lifetime counters (surfaced in :meth:`snapshot`).
        self.times_opened = 0
        self.recorded_failures = 0
        self.recorded_successes = 0

    # -- observations ----------------------------------------------------------

    def record_success(self) -> None:
        """A leg against this pod completed: close whatever was open."""
        with self._lock:
            self.recorded_successes += 1
            self._consecutive_failures = 0
            self._probe_outstanding = False
            if self._state != CLOSED:
                self._state = CLOSED
                self._cooldown_s = self._base_cooldown_s

    def record_failure(self) -> None:
        """A leg failed outright (no seat of the pod answered)."""
        with self._lock:
            self.recorded_failures += 1
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                # The probe failed: re-open for longer.
                self._trip()
            elif (
                self._state == CLOSED
                and self._consecutive_failures >= self._failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        """(Re-)open; caller holds the lock."""
        if self._state == HALF_OPEN:
            self._cooldown_s = min(
                self._cooldown_s * 2.0, self._max_cooldown_s
            )
        self._state = OPEN
        self._opened_at = self._clock()
        self._probe_outstanding = False
        self.times_opened += 1

    # -- routing reads ---------------------------------------------------------

    def deprioritize(self) -> bool:
        """Should ranking push this pod to the back *right now*?

        An open breaker whose cooldown has elapsed releases exactly one
        half-open probe (the first ranking read after the cooldown sees
        the pod at normal priority; concurrent readers keep it
        deprioritized until the probe's outcome is recorded).
        """
        with self._lock:
            if self._state == CLOSED:
                return False
            if self._state == OPEN:
                if self._clock() - self._opened_at < self._cooldown_s:
                    return True
                self._state = HALF_OPEN
                self._probe_outstanding = False
            # HALF_OPEN: let one probe through at normal rank.
            if self._probe_outstanding:
                return True
            self._probe_outstanding = True
            return False

    # -- introspection ---------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            if (
                self._state == OPEN
                and self._clock() - self._opened_at >= self._cooldown_s
            ):
                return HALF_OPEN  # due for a probe
            return self._state

    def snapshot(self) -> dict:
        """State and counters (the ``zerber_breaker_*`` series read it)."""
        state = self.state
        with self._lock:
            return {
                "state": state,
                "consecutive_failures": self._consecutive_failures,
                "times_opened": self.times_opened,
                "failures": self.recorded_failures,
                "successes": self.recorded_successes,
                "cooldown_s": self._cooldown_s,
            }


class BreakerRegistry:
    """Breakers keyed by pod name, created on first observation, each
    with :class:`CircuitBreaker`'s default threshold and cooldowns."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}

    def of(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    clock=self._clock
                )
            return breaker

    def record_success(self, name: str) -> None:
        self.of(name).record_success()

    def record_failure(self, name: str) -> None:
        self.of(name).record_failure()

    def deprioritize(self, name: str) -> bool:
        """Ranking read; pods never observed are healthy by default."""
        with self._lock:
            breaker = self._breakers.get(name)
        return breaker.deprioritize() if breaker is not None else False

    def forget(self, name: str) -> None:
        """Drop a retired pod's breaker (name may be reused later)."""
        with self._lock:
            self._breakers.pop(name, None)

    def snapshot(self) -> dict[str, dict]:
        with self._lock:
            items = list(self._breakers.items())
        return {name: breaker.snapshot() for name, breaker in items}
