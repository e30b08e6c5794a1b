"""Ambient request deadlines: one absolute expiry, many shrinking hops.

A deadline is an absolute ``time.monotonic()`` instant, not a duration:
every layer that touches the request — the searcher's fetch ladder, a
failover round, a transport retry, the snippet fetch — reads the *same*
expiry and therefore sees a naturally shrinking budget, with no
budget-threading through a dozen call signatures. The deadline rides a
thread-local set by :func:`deadline_scope`; transports sample it at
send time and serialize the *remaining* budget onto the wire (absolute
instants don't survive clock skew between machines — a remaining
budget does, minus transit time, which only makes the server side
*more* conservative).

The scope is per thread by design. A query's fetch rounds, their
hedged backups included, run on the query's own thread (the async
socket collects a round's answers on the calling thread), so the scope
covers every frame a query sends; code that hands work to another
thread must pass the deadline along itself.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager

from repro.errors import DeadlineExceededError, ReproError

#: Wire budgets are 4-byte unsigned microseconds (~71 minutes max —
#: anything longer is indistinguishable from "no deadline" for a
#: request/response protocol and is clamped rather than rejected).
MAX_BUDGET_US = 0xFFFF_FFFF

_local = threading.local()


class Deadline:
    """An absolute expiry on the monotonic clock.

    Args:
        expires_at: ``time.monotonic()`` instant after which the
            request's answer is worthless to its caller.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = float(expires_at)

    @classmethod
    def after(cls, budget_s: float) -> "Deadline":
        """A deadline ``budget_s`` seconds from now."""
        return cls(time.monotonic() + budget_s)

    def remaining_s(self) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining_s() <= 0.0

    def budget_us(self) -> int:
        """The remaining budget as clamped wire microseconds (>= 0)."""
        remaining = self.remaining_s()
        if remaining <= 0.0:
            return 0
        return min(int(remaining * 1e6), MAX_BUDGET_US)

    def check(self, what: str = "request") -> None:
        """Raise the typed error if this deadline has passed."""
        remaining = self.remaining_s()
        if remaining <= 0.0:
            raise DeadlineExceededError(
                f"{what} deadline exceeded "
                f"({-remaining * 1e3:.1f} ms past its budget)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining_s() * 1e3:.1f}ms)"


def current_deadline() -> Deadline | None:
    """The calling thread's ambient deadline, if a scope is active."""
    return getattr(_local, "deadline", None)


def remaining_budget_s() -> float | None:
    """Seconds left on the ambient deadline (None when unbounded)."""
    deadline = current_deadline()
    return None if deadline is None else deadline.remaining_s()


def check_deadline(what: str = "request") -> None:
    """Raise :class:`DeadlineExceededError` if the ambient deadline passed."""
    deadline = current_deadline()
    if deadline is not None:
        deadline.check(what)


@contextmanager
def deadline_scope(budget_s: float | None = None):
    """Run the body under a deadline ``budget_s`` seconds from now
    (thread-local, properly nested; None runs the body unbounded).

    A nested scope can only *tighten* the deadline: when an outer scope
    is already closer, the outer expiry stays in force — a callee must
    never outlive its caller's patience. A NaN or infinite budget is a
    :class:`~repro.errors.ReproError` on entry: no wire budget encodes
    it, and NaN compares false against every clock reading.
    """
    if budget_s is None:
        yield None
        return
    if not math.isfinite(budget_s):
        raise ReproError(
            "budget_s must be a finite number of seconds or None, "
            f"got {budget_s}"
        )
    deadline = Deadline.after(budget_s)
    previous = current_deadline()
    if previous is not None and previous.expires_at < deadline.expires_at:
        deadline = previous
    _local.deadline = deadline
    try:
        yield deadline
    finally:
        _local.deadline = previous
