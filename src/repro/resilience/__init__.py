"""Request-lifecycle machinery: deadlines, retries, breakers, chaos.

Everything a production request path needs beyond "either it works or
it raises":

- :mod:`~repro.resilience.deadline` — an ambient per-thread deadline
  that transports serialize onto the wire as a shrinking budget and
  servers check before dispatch;
- :mod:`~repro.resilience.retry` — a declarative :class:`RetryPolicy`
  (bounded attempts, exponential backoff, deterministic seeded jitter,
  ``retryable``-classified errors) shared by both socket transports;
- :mod:`~repro.resilience.breaker` — per-pod circuit breakers
  (closed / open / half-open) feeding the coordinator's replica
  ranking and the ``zerber_breaker_*`` series;
- :mod:`~repro.resilience.admission` — bounded server-side dispatch
  with typed retryable :class:`~repro.errors.OverloadedError` shedding;
- :mod:`~repro.resilience.faults` — the seeded :class:`FaultPlan` /
  :class:`FaultyTransport` chaos harness behind
  ``tests/test_chaos_drill.py``.

All randomness in this package is seeded: two runs with the same seeds
make the same retry jitter, the same fault schedule, the same breaker
decisions at the same observed failures.
"""

from repro.resilience.admission import AdmissionController
from repro.resilience.breaker import BreakerRegistry, CircuitBreaker
from repro.resilience.deadline import (
    Deadline,
    check_deadline,
    current_deadline,
    deadline_scope,
    remaining_budget_s,
)
from repro.resilience.retry import RetryPolicy, is_retryable

_LAZY = ("FaultPlan", "FaultyTransport")


def __getattr__(name: str):
    # The chaos harness imports the transport layer, and the transport
    # layer imports this package's deadline/retry submodules — loading
    # faults lazily keeps that dependency loop open at import time.
    if name in _LAZY:
        from repro.resilience import faults

        return getattr(faults, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "AdmissionController",
    "BreakerRegistry",
    "CircuitBreaker",
    "Deadline",
    "FaultPlan",
    "FaultyTransport",
    "RetryPolicy",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
    "is_retryable",
    "remaining_budget_s",
]
