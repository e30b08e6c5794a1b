"""Deterministic chaos: seeded fault schedules over any transport.

:class:`FaultyTransport` wraps any :class:`~repro.protocol.transport
.Transport` and injects the unpolite failure modes the real network
produces — latency spikes, connection resets, dropped frames,
duplicated frames, slow-seat stalls — on a schedule drawn from a
seeded :class:`FaultPlan`. Same seed, same schedule: a chaos drill
that fails replays exactly.

The injection point is the client-side ``call`` boundary, which makes
the harness transport-agnostic (the same plan runs in-process and
over the async TCP stack) and keeps fault *semantics* honest:

- a **reset** or **drop** surfaces as the same typed
  :class:`~repro.errors.TransportError` a real broken socket produces,
  with the same read-vs-write ``retryable`` classification the
  transports apply (a lost write response is ambiguous — it may have
  been applied — so it must fail fast);
- a **duplicate** re-delivers a *pure read* and returns the second
  response (byte-identical stores answer byte-identically — that is
  the invariant the drill checks). Write frames are never duplicated:
  TCP cannot duplicate a frame inside one stream, and the fail-fast
  write classification exists precisely because a transport can never
  know whether an unacknowledged write landed;
- **latency** and **stall** sleep before forwarding, which exercises
  deadline enforcement but not hedged reads: a wrapped transport's
  ``call_many`` is sequential, so no hedge delay ever passes. Hedging
  tests hand the plan to the socket server's ``_fault_plan`` seam,
  which holds back only the targeted seats' answers, on its loop.

For storage-level chaos, :meth:`FaultPlan.storage_crash_hook` reuses
the PR 5 crash-injection seam (``SegmentedStore._crash_hook``) to
crash compactions at seeded points.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Collection

from repro.errors import ReproError, TransportError
from repro.protocol.transport import _RETRY_SAFE, Transport

from random import Random

#: The injectable fault kinds, in draw order.
FAULT_KINDS = ("latency", "stall", "reset", "drop", "duplicate")


class FaultPlan:
    """A seeded schedule of fault draws.

    Each :meth:`draw` consumes one uniform variate and maps it onto the
    configured rates, so the fault sequence is a pure function of the
    seed and the number of calls made so far. Rates are probabilities
    per call; their sum must stay <= 1.

    Args:
        seed: the schedule.
        latency_rate / latency_s: small latency spikes.
        stall_rate / stall_s: long slow-seat stalls.
        reset_rate: injected connection resets.
        drop_rate: dropped frames (no response ever arrives).
        duplicate_rate: duplicated read frames.
        endpoints: when given, faults only strike calls to these
            destination names (the "one slow pod" shape); other calls
            pass through untouched *without consuming a draw*, so the
            targeted schedule is independent of background traffic.
        max_faults: stop injecting after this many faults (None: never).
    """

    def __init__(
        self,
        seed: int,
        latency_rate: float = 0.0,
        latency_s: float = 0.005,
        stall_rate: float = 0.0,
        stall_s: float = 0.2,
        reset_rate: float = 0.0,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        endpoints: Collection[str] | None = None,
        max_faults: int | None = None,
    ) -> None:
        rates = {
            "latency": latency_rate,
            "stall": stall_rate,
            "reset": reset_rate,
            "drop": drop_rate,
            "duplicate": duplicate_rate,
        }
        if any(rate < 0.0 for rate in rates.values()):
            raise ReproError("fault rates must be >= 0")
        if sum(rates.values()) > 1.0 + 1e-9:
            raise ReproError(
                f"fault rates sum to {sum(rates.values()):.3f} > 1"
            )
        self.seed = seed
        self.rates = rates
        self.latency_s = latency_s
        self.stall_s = stall_s
        self.endpoints = None if endpoints is None else frozenset(endpoints)
        self.max_faults = max_faults
        self._rng = Random(seed)
        self._lock = threading.Lock()
        #: kind -> times injected (drills assert the schedule actually
        #: exercised something).
        self.injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def targets(self, dst: str) -> bool:
        return self.endpoints is None or dst in self.endpoints

    def draw(self) -> str | None:
        """The next fault in the schedule (None: this call is clean)."""
        with self._lock:
            if (
                self.max_faults is not None
                and sum(self.injected.values()) >= self.max_faults
            ):
                return None
            u = self._rng.random()
            cumulative = 0.0
            for kind in FAULT_KINDS:
                cumulative += self.rates[kind]
                if u < cumulative:
                    self.injected[kind] += 1
                    return kind
            return None

    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    def storage_crash_hook(
        self,
        crash_rate: float,
        crash_exception: Callable[[str], BaseException],
    ) -> Callable[[str], None]:
        """A seeded ``SegmentedStore._crash_hook`` — the PR 5 seam.

        Each compaction checkpoint label draws against ``crash_rate``;
        a hit raises ``crash_exception(label)`` there, simulating a
        crash at that point of the compaction.
        """

        def hook(label: str) -> None:
            with self._lock:
                u = self._rng.random()
            if u < crash_rate:
                raise crash_exception(label)

        return hook


class FaultyTransport(Transport):
    """A transport wrapper executing a :class:`FaultPlan`.

    Endpoint listing and registration-ish surfaces pass straight
    through; only ``call`` draws faults.
    """

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._inner = inner
        self.plan = plan
        self._sleep = sleep

    def call(self, src: str, dst: str, request: Any) -> Any:
        if not self.plan.targets(dst):
            return self._inner.call(src, dst, request)
        fault = self.plan.draw()
        if fault == "latency":
            self._sleep(self.plan.latency_s)
        elif fault == "stall":
            self._sleep(self.plan.stall_s)
        elif fault in ("reset", "drop"):
            detail = (
                "injected connection reset"
                if fault == "reset"
                else "injected dropped frame (no response)"
            )
            error = TransportError(f"{detail} for {dst!r}")
            # Same classification the real transports apply: a lost
            # pure read is safely retryable, a lost write is ambiguous.
            error.retryable = isinstance(request, _RETRY_SAFE)
            raise error
        elif fault == "duplicate" and isinstance(request, _RETRY_SAFE):
            self._inner.call(src, dst, request)
            return self._inner.call(src, dst, request)
        return self._inner.call(src, dst, request)

    def has_endpoint(self, name: str) -> bool:
        return self._inner.has_endpoint(name)

    def endpoints(self) -> list[str]:
        return self._inner.endpoints()

    def close(self) -> None:
        # The wrapped transport usually belongs to a deployment that
        # closes it itself; closing here too is harmless (idempotent).
        self._inner.close()
