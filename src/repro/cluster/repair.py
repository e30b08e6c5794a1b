"""Anti-entropy: the staleness ledger and the sweep that empties it.

A seat that misses a write of a list (it was dead when the write was
routed, failed its message of the write round, or never received a
rebalance shipment) is *stale* for that list until something re-delivers
it. :class:`StalenessLedger` is the one record of those gaps: writes
fill it, reads steer around it, and three paths empty it — owner
re-provisioning, the repair sweep, and a list leaving the pod that
missed it. :class:`AntiEntropy` is the sweep: it heals each stale seat
from a trusted same-slot replica through the one list-transfer path,
:func:`~repro.cluster.membership.ship`, so the cluster converges even
when the owner that dropped the writes never reconnects.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.cluster.membership import Move, Pod, ServerSlot, ship
from repro.errors import ClusterError

if TYPE_CHECKING:
    from repro.cluster.coordinator import ClusterCoordinator

#: One seat missing one list: ``(pod name, pl_id, server id)``.
Gap = tuple[str, int, str]

_NO_SEATS: frozenset[str] = frozenset()


class StalenessLedger:
    """``(pod, pl_id) -> {seat: missed routes}``: who is missing what.

    Each cell names the seats of one pod known to be missing writes for
    one list, with how many routed batches each missed (0 for a
    transfer that never happened rather than a dropped write). The
    counters are the accounting the cells are credited against:
    :attr:`dropped` counts every dropped route, :attr:`repaired` the
    routes retired from the ledger — credited *from the cells' own
    counts* when they clear, so :attr:`outstanding` converges to zero
    whichever repair path wins the race for a cell, and never
    double-credits.

    Mutators take the ledger's lock (routes, owners and the sweep write
    from different threads); the read view (:attr:`gapped`,
    :meth:`stale_seats`, :meth:`stale_lists`) is lock-free dict reads,
    because the query path consults it per list.
    """

    def __init__(self) -> None:
        self._cells: dict[tuple[str, int], dict[str, int]] = {}
        #: pl_id -> the list's open cells, over every pod: a list not
        #: in it has no stale seat anywhere.
        self.gapped: dict[int, int] = {}
        self._lock = threading.Lock()
        #: Dropped routes: one per list per dead seat a write was routed
        #: past, and one per list per seat that failed its message of a
        #: write round. A lower bound on missed per-operation writes —
        #: routes are per batch.
        self.dropped = 0
        #: Per replica pod slice of :attr:`dropped`.
        self.dropped_by_pod: dict[str, int] = {}
        #: Routes retired from the ledger, by any repair path.
        self.repaired = 0

    @property
    def outstanding(self) -> int:
        """Dropped routes nothing has re-provisioned yet."""
        return self.dropped - self.repaired

    def __len__(self) -> int:
        """Cells (``(pod, list)`` gaps) still open."""
        return len(self._cells)

    # -- the read view -----------------------------------------------------

    def stale_seats(self, pod_name: str, pl_id: int) -> frozenset[str]:
        """Seats of one pod known to be missing writes for one list.

        The read path must not consume these seats' responses for the
        list at all: a seat that slept through an insert would silently
        *omit* it (no share-shortfall signal exists for an element it
        never saw), and a seat that slept through a delete still holds
        the share and could help a deleted element reach k again. A pod
        with no stale seat for the list is complete for it.
        """
        if pl_id not in self.gapped:
            return _NO_SEATS
        cell = self._cells.get((pod_name, pl_id))
        return frozenset(cell) if cell else _NO_SEATS

    def stale_lists(
        self, pod_name: str, pl_ids: Iterable[int]
    ) -> dict[str, set[int]]:
        """The same view turned per seat: each stale seat of one pod
        with the lists among ``pl_ids`` it must not be asked for (a
        seat plan is built from it once per pod)."""
        by_seat: dict[str, set[int]] = {}
        for pl_id in pl_ids:
            for server_id in self.stale_seats(pod_name, pl_id):
                by_seat.setdefault(server_id, set()).add(pl_id)
        return by_seat

    def backlog(self) -> list[tuple[str, int]]:
        """Every open cell's ``(pod, pl_id)`` key, sorted."""
        with self._lock:
            return sorted(self._cells)

    def stale_lists_by_pod(self) -> dict[str, int]:
        """pod name -> lists with at least one stale seat there."""
        by_pod: dict[str, int] = {}
        with self._lock:
            for pod_name, _pl_id in self._cells:
                by_pod[pod_name] = by_pod.get(pod_name, 0) + 1
        return by_pod

    # -- filling -----------------------------------------------------------

    def _cell(self, pod_name: str, pl_id: int) -> dict[str, int]:
        """The open cell of ``(pod, list)``, opened if need be; caller
        holds the lock."""
        cell = self._cells.get((pod_name, pl_id))
        if cell is None:
            # Counted before it opens: a reader never sees an open cell
            # of a list that is not in ``gapped``.
            self.gapped[pl_id] = self.gapped.get(pl_id, 0) + 1
            cell = self._cells[(pod_name, pl_id)] = {}
        return cell

    def _close(self, pod_name: str, pl_id: int) -> dict[str, int] | None:
        """Remove and return one cell (None when not open); caller holds
        the lock."""
        cell = self._cells.pop((pod_name, pl_id), None)
        if cell is not None:
            left = self.gapped[pl_id] - 1
            if left:
                self.gapped[pl_id] = left
            else:
                del self.gapped[pl_id]
        return cell

    def drop(self, seats: Iterable[Gap]) -> None:
        """Count one dropped route per seat and mark it stale."""
        with self._lock:
            for pod_name, pl_id, server_id in seats:
                cell = self._cell(pod_name, pl_id)
                cell[server_id] = cell.get(server_id, 0) + 1
                self.dropped += 1
                self.dropped_by_pod[pod_name] = (
                    self.dropped_by_pod.get(pod_name, 0) + 1
                )

    def mark_stale(self, seats: Iterable[Gap]) -> None:
        """Mark seats stale with no dropped route: a transfer that never
        happened is the repair sweep's problem, not an owner's."""
        with self._lock:
            for pod_name, pl_id, server_id in seats:
                self._cell(pod_name, pl_id).setdefault(server_id, 0)

    # -- emptying ----------------------------------------------------------

    def clear_seats(self, seats: Iterable[Gap]) -> int:
        """Retire seats from their cells (their writes were re-delivered);
        credit and return their route counts."""
        credit = 0
        with self._lock:
            for pod_name, pl_id, server_id in seats:
                cell = self._cells.get((pod_name, pl_id))
                if cell is None or server_id not in cell:
                    continue
                credit += cell.pop(server_id)
                if not cell:
                    self._close(pod_name, pl_id)
            self.repaired += credit
        return credit

    def clear_lists(self, pod_name: str, pl_ids: Iterable[int]) -> None:
        """Retire whole cells of lists the pod no longer holds: gaps in
        a list a pod dropped are moot."""
        with self._lock:
            for pl_id in pl_ids:
                cell = self._close(pod_name, pl_id)
                if cell:
                    self.repaired += sum(cell.values())

    def forget_pod(self, pod_name: str) -> None:
        """A pod left the cluster: its unhealed gaps leave with it."""
        with self._lock:
            for key in [key for key in self._cells if key[0] == pod_name]:
                self.repaired += sum(self._close(*key).values())
            self.dropped_by_pod.pop(pod_name, None)


@dataclass
class RepairSweepStats:
    """What one anti-entropy sweep over the staleness ledger did.

    Attributes:
        examined: ledger entries the sweep looked at.
        healed_seats: stale (seat, list) pairs healed from a trusted
            source (one ship/adopt round trip each).
        repaired_routes: dropped write routes those heals retired from
            the ledger.
        shipped_bytes: sealed snapshot bytes moved by the heals.
        skipped_no_source: stale pairs left alone because no live,
            trusted same-slot source seat exists (``R == 1``, or every
            replica slept through the same writes) — owner
            re-provisioning remains their only cure.
        skipped_dead_seat: stale pairs whose target seat is down (a
            heal needs a live destination; the entry survives for a
            post-restart sweep).
        failed: heals that errored mid-flight (source or target died
            between election and transfer); the ledger entry survives
            and the next sweep retries.
        budget_exhausted: True when the sweep stopped early because it
            hit its heal budget.
    """

    examined: int = 0
    healed_seats: int = 0
    repaired_routes: int = 0
    shipped_bytes: int = 0
    skipped_no_source: int = 0
    skipped_dead_seat: int = 0
    failed: int = 0
    budget_exhausted: bool = False


class AntiEntropy:
    """The repair sweep and its background thread.

    A mixin of :class:`~repro.cluster.deployment.ClusterDeployment`: it
    reads the host's ``coordinator`` for placement, the ledger, the
    repair mutex and cache invalidation.
    """

    coordinator: ClusterCoordinator

    #: Lifetime anti-entropy accounting (the ``zerber_repair_*`` series
    #: and ``repro cluster status``).
    repair_sweeps = 0
    repair_healed_seats = 0
    repair_shipped_bytes = 0
    repair_failures = 0
    #: The repair thread's current backoff (None: not running);
    #: surfaced as ``zerber_repair_backoff_seconds`` (0 when None).
    repair_backoff_s: float | None = None
    _repair_thread: threading.Thread | None = None
    _repair_stop: threading.Event | None = None

    def repair_sweep(self, budget: int | None = None) -> RepairSweepStats:
        """One pass over the staleness ledger, healing what it can.

        For every (pod, list) gap, each live stale seat is healed by
        electing a **trusted same-slot source**: the same slot index of
        another replica pod, live and not itself stale for the list
        (slot s of every pod holds the share at ``scheme.x_of(s)``, so
        only a same-slot seat has the right bytes). The heal is one
        :func:`~repro.cluster.membership.ship` move: the source's
        sealed snapshot image of the list, bulk-loaded with replace
        semantics — a stale seat may have slept through deletes, so
        merge cannot cure it. Each entry's heals run under the
        coordinator's ``repair_mutex``, so they can never interleave
        with an owner's route+deliver span; the ledger credit comes
        from the entry's own route counts.

        Args:
            budget: max heals this sweep (None means unbounded).
                Exhausting it sets ``budget_exhausted`` and leaves the
                rest for the next sweep — the sweep is a rate-limited
                background chore, not a stop-the-world pass.

        Unhealable gaps are left in place and classified: a dead target
        seat waits for its restart; a gap with no trusted source
        (``R == 1``, or every replica missed the same writes) waits for
        owner re-provisioning. Mid-flight failures (a seat dying
        between election and transfer) are counted and retried next
        sweep.
        """
        stats = RepairSweepStats()
        coordinator = self.coordinator
        for key in coordinator.ledger.backlog():
            if budget is not None and stats.healed_seats >= budget:
                stats.budget_exhausted = True
                break
            with coordinator.repair_mutex:
                self._repair_entry(key, budget, stats)
        self.repair_sweeps += 1
        self.repair_healed_seats += stats.healed_seats
        self.repair_shipped_bytes += stats.shipped_bytes
        self.repair_failures += stats.failed
        return stats

    def _repair_entry(
        self,
        key: tuple[str, int],
        budget: int | None,
        stats: RepairSweepStats,
    ) -> None:
        """Heal one ledger entry's stale seats (repair_mutex held)."""
        coordinator = self.coordinator
        ledger = coordinator.ledger
        pod_name, pl_id = key
        seats = sorted(ledger.stale_seats(pod_name, pl_id))
        if not seats:
            return  # an owner's reprovision won the race; nothing left
        stats.examined += 1
        replicas = coordinator.pods_of(pl_id)
        pod = next((p for p in replicas if p.name == pod_name), None)
        if pod is None:
            # The pod retired, or placement moved on and the list is no
            # longer this pod's to host; the rebalance's drop retires
            # the entry.
            return
        for server_id in seats:
            if budget is not None and stats.healed_seats >= budget:
                stats.budget_exhausted = True
                return
            slot = coordinator.find_slot(server_id)
            if slot is None:
                continue
            if not slot.alive:
                stats.skipped_dead_seat += 1
                continue
            source = _trusted_source(ledger, replicas, pod, pl_id, slot)
            if source is None:
                stats.skipped_no_source += 1
                continue
            (outcome,) = ship(
                coordinator,
                [Move(source.server_id, pod_name, server_id, (pl_id,))],
            )
            if outcome is None:
                # Source or target died mid-ship (the drill case), or
                # the image tore in flight: the entry stays; the next
                # sweep re-elects and retries.
                stats.failed += 1
                continue
            coordinator.invalidate_list(pl_id)
            stats.repaired_routes += ledger.clear_seats(
                [(pod_name, pl_id, server_id)]
            )
            stats.healed_seats += 1
            stats.shipped_bytes += outcome[0]

    def start_repair_thread(
        self,
        interval_s: float = 0.05,
        budget: int | None = None,
        max_backoff_s: float | None = None,
        jitter: float = 0.25,
        seed: int = 0xA17E,
    ) -> None:
        """Run :meth:`repair_sweep` periodically in a daemon thread.

        A sweep that hits mid-flight failures doubles the wait (up to
        ``max_backoff_s``, default 8x the interval) before retrying —
        a flapping seat should not be hammered; a clean sweep resets
        the backoff. Each actual sleep is the current backoff with a
        seeded jitter fraction (``wait * (1 - jitter + jitter * u)``):
        many deployments recovering from the same outage spread their
        sweeps out instead of thundering in lockstep, and the same
        seed replays the same schedule. The *un*-jittered backoff is
        exposed as :attr:`repair_backoff_s` (and as
        ``zerber_repair_backoff_seconds``) so an operator can see a
        sweeping-vs-backing-off thread at a glance.
        """
        if self._repair_thread is not None:
            raise ClusterError("repair thread is already running")
        if max_backoff_s is None:
            max_backoff_s = interval_s * 8
        rng = Random(seed)
        stop = self._repair_stop = threading.Event()

        def run() -> None:
            wait = interval_s
            while True:
                self.repair_backoff_s = wait
                sleep_s = wait
                if jitter > 0.0:
                    sleep_s = wait * (1.0 - jitter + jitter * rng.random())
                if stop.wait(sleep_s):
                    return
                try:
                    swept = self.repair_sweep(budget)
                except Exception:  # noqa: BLE001 - the chore must survive
                    self.repair_failures += 1
                    wait = min(wait * 2, max_backoff_s)
                    continue
                if swept.failed:
                    wait = min(wait * 2, max_backoff_s)
                else:
                    wait = interval_s

        self.repair_backoff_s = interval_s
        thread = threading.Thread(
            target=run, name="repro-anti-entropy", daemon=True
        )
        self._repair_thread = thread
        thread.start()

    def stop_repair_thread(self) -> None:
        """Stop the background sweep (idempotent; joins the thread)."""
        thread = self._repair_thread
        if thread is None:
            return
        self._repair_stop.set()
        thread.join()
        self._repair_thread = None
        self.repair_backoff_s = None

    def _repair_series(self):
        """Registry collector: the ``zerber_repair_*`` series."""
        for key, value in (
            ("sweeps", self.repair_sweeps),
            ("healed_seats", self.repair_healed_seats),
            ("shipped_bytes", self.repair_shipped_bytes),
            ("failures", self.repair_failures),
            ("pending_entries", len(self.coordinator.ledger)),
            ("thread_running", self._repair_thread is not None),
            ("backoff_seconds", self.repair_backoff_s or 0.0),
        ):
            yield f"zerber_repair_{key}", {}, value


def _trusted_source(
    ledger: StalenessLedger,
    replicas: Sequence[Pod],
    stale_pod: Pod,
    pl_id: int,
    slot: ServerSlot,
) -> ServerSlot | None:
    """A live, trusted seat holding the same share slot, or None.

    Only the same slot index of *another* replica pod qualifies — any
    other slot holds a different Shamir x-coordinate's share, and
    shipping it would corrupt reconstruction. Trust is per-seat: a
    source pod may be stale on other seats as long as this slot's seat
    never missed a write for the list.
    """
    for candidate in replicas:
        if candidate.name == stale_pod.name:
            continue
        seat = candidate.slots[slot.slot_index]
        if seat.alive and seat.server_id not in ledger.stale_seats(
            candidate.name, pl_id
        ):
            return seat
    return None
