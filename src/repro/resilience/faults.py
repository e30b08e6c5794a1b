"""Deterministic chaos: a seeded fault schedule acted out at the seat.

A :class:`FaultPlan` draws the unpolite failure modes the real network
produces — latency spikes, connection resets, dropped frames,
duplicated frames, slow-seat stalls — on a schedule that is a pure
function of its seed. Same seed, same schedule: a chaos drill that
fails replays exactly.

There is one place a plan acts: the endpoint registry, where requests
reach a seat. Set it as ``cluster.registry.fault_plan = plan``
(:attr:`~repro.protocol.transport.InProcessTransport.fault_plan`);
``None`` turns faults off. Every request to a registered endpoint
passes that seam whichever transport carried it, and each transport
acts the five kinds out in one place:

- **in process** (``InProcessTransport.call``): latency and stall
  sleep before dispatch; a reset or drop raises the same typed
  :class:`~repro.errors.TransportError` a broken socket produces,
  ``retryable`` only for a pure read (a lost write may have landed, so
  it fails fast); a duplicate dispatches a pure read twice;
- **over the socket** (``AsyncSocketServer``'s read loop): latency and
  stall hold the answer back on the server loop; a reset aborts the
  connection before dispatch, failing every call in flight on it (pure
  reads retry on a fresh connection, writes fail fast); a drop
  discards the frame undispatched, so the caller's deadline or timeout
  fires; a duplicate sends the answer frame twice and the client drops
  the second by correlation id.

So a drill over async-socket runs the pipelined waves and hedges that
queries take.

For storage-level chaos, :meth:`FaultPlan.storage_crash_hook` reuses
the crash-injection seam (``SegmentedStore._crash_hook``) to crash
compactions at seeded points.
"""

from __future__ import annotations

import threading
from random import Random
from typing import Callable, Collection

from repro.errors import ReproError

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
        duplicate_rate: duplicated frames (in process, a pure read is
            dispatched twice; over the socket, the answer frame is sent
            twice).
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

    def hold_s(self, fault: str | None) -> float:
        """Seconds a drawn fault holds its request back (0.0 unless it
        is a latency spike or a stall)."""
        if fault == "latency":
            return self.latency_s
        return self.stall_s if fault == "stall" else 0.0

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
