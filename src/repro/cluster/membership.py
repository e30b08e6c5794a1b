"""Cluster membership: seats, pods, their lifecycle, and list transfer.

A pod is n slot-aligned seats; a seat holds one
:class:`~repro.server.index_server.IndexServer` at a time and outlives
it (a restart from the seat's durable store swaps the object). This
module decides who is a member and moves the lists that membership
changes move:

- :class:`Membership` kills and restarts seats and pods, joins and
  retires pods, and adds a seat to every pod (§5.1's "extend n"). A
  join or retire re-rings the coordinator's placement and transfers
  only the lists whose replica set changed — the
  operational win the paper's §8 DHT direction points at: churn moves
  single lists, never whole indexes.
- :func:`ship` is the one path shares travel between seats: a source
  seat seals lists into a ``ZSNP`` snapshot image and the destination
  adopts it with replace semantics. Rebalancing ships one move per
  (source seat, destination seat) pair; the anti-entropy sweep
  (:mod:`repro.cluster.repair`) ships one per heal. A move that fails
  ledgers its destination seat stale for the sweep to close.
- :func:`drop` is the one path lists leave seats: the pods a rebalance
  displaced, and every seat of a retiring pod.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from repro.errors import ClusterError, ReproError
from repro.protocol.messages import (
    AdoptSnapshotRequest,
    DropListRequest,
    ShipSnapshotRequest,
)
from repro.protocol.service import IndexServerService
from repro.server.index_server import IndexServer
from repro.storage.engine import SegmentedStore, refuse_flat_wals

if TYPE_CHECKING:
    from repro.cluster.coordinator import ClusterCoordinator


@dataclass
class ServerSlot:
    """One server's seat in a pod: the live object plus its lifecycle state.

    Attributes:
        pod_index: which pod the seat belongs to.
        slot_index: the seat number — also the Shamir share index, so
            ``scheme.x_of(slot_index)`` is this server's x-coordinate.
        server: the current :class:`IndexServer` occupying the seat (a
            restart from WAL replaces the object; the seat persists).
        alive: False between :meth:`Membership.kill_server` and the
            matching restart.
        wal_path: the seat's storage directory, when durability is on.
        log: the open :class:`~repro.storage.SegmentedStore` attached to
            ``server``.
        storage_options: the store options the seat was attached
            with, so a restart round-trips them (a seat configured
            with ``auto_compact=False`` must not come back compacting).
    """

    pod_index: int
    slot_index: int
    server: IndexServer
    alive: bool = True
    wal_path: pathlib.Path | None = None
    log: SegmentedStore | None = field(default=None, repr=False)
    storage_options: dict = field(default_factory=dict, repr=False)

    @property
    def server_id(self) -> str:
        return self.server.server_id


class Pod:
    """One k-of-n server fleet owning a shard of the merged posting lists."""

    def __init__(self, index: int, name: str, slots: Sequence[ServerSlot]) -> None:
        if not slots:
            raise ClusterError(f"pod {name!r} needs at least one server")
        self.index = index
        self.name = name
        self.slots = list(slots)

    @property
    def servers(self) -> list[IndexServer]:
        return [slot.server for slot in self.slots]

    def live_slots(self) -> list[ServerSlot]:
        return [slot for slot in self.slots if slot.alive]

    def slot(self, slot_index: int) -> ServerSlot:
        if not 0 <= slot_index < len(self.slots):
            raise ClusterError(
                f"pod {self.name!r} has no slot {slot_index} "
                f"(0..{len(self.slots) - 1})"
            )
        return self.slots[slot_index]


def attach_wal_to_slot(slot: ServerSlot, path, **store_options):
    """Wire a durable store into one seat (usable before the pod joins
    a ring). Returns the opened store."""
    if slot.log is not None:
        raise ClusterError(f"server {slot.server_id!r} already has a WAL")
    store = SegmentedStore(path, **store_options)
    slot.server.attach_store(store)
    slot.wal_path = pathlib.Path(path)
    slot.log = store
    slot.storage_options = dict(store_options)
    return store


@dataclass
class RebalanceStats:
    """What one ring-membership change actually moved.

    Attributes:
        pod_name: the pod that joined or left.
        action: ``"join"`` or ``"leave"``.
        moved_lists: posting lists whose replica set changed.
        copied_elements: share records copied slot-to-slot onto new
            owners (summed over slots, so n copies of a list count n x).
        gc_elements: records garbage-collected from pods that lost
            ownership of a list (a retiring pod's own wipe excluded).
        dropped_copy_routes: (list, slot) pairs that could not transfer
            (source or destination seat dead, or a ship that failed
            mid-flight) — nonzero means a replica starts life
            incomplete; those gaps land in the staleness ledger for the
            repair sweep to close.
        snapshot_ships: bulk ship/adopt round trips performed (one per
            distinct source-seat/destination-seat pair, covering every
            moved list those seats share).
        shipped_bytes: total sealed ``ZSNP`` image bytes moved.
    """

    pod_name: str
    action: str
    moved_lists: int = 0
    copied_elements: int = 0
    gc_elements: int = 0
    dropped_copy_routes: int = 0
    snapshot_ships: int = 0
    shipped_bytes: int = 0


class Move(NamedTuple):
    """One list transfer: seat ``source`` exports ``pl_ids`` and seat
    ``dest`` of pod ``pod`` adopts them."""

    source: str
    pod: str
    dest: str
    pl_ids: tuple[int, ...]


def ship(
    coordinator: ClusterCoordinator, moves: Iterable[Move]
) -> list[tuple[int, int] | None]:
    """Move lists' shares between seats: ship a sealed image, adopt it.

    Each move is one :class:`ShipSnapshotRequest` to the source and one
    :class:`AdoptSnapshotRequest` to the destination, through the
    coordinator's transport. The adopter replaces its copy of every
    listed list (a seat that slept through deletes cannot be cured by
    merging). Returns, per move, ``(image bytes, adopted records)``, or
    None when the move failed mid-flight — the source died between
    election and export, the destination between export and adopt, or
    the image tore. A failed move never raises: its destination seat is
    ledgered stale for the lists, and the repair sweep re-elects a
    source and retries.
    """
    outcomes: list[tuple[int, int] | None] = []
    for move in moves:
        try:
            shipped = coordinator.transport.call(
                src="coordinator",
                dst=move.source,
                request=ShipSnapshotRequest(pl_ids=move.pl_ids),
            )
            adopted = coordinator.transport.call(
                src="coordinator",
                dst=move.dest,
                request=AdoptSnapshotRequest(
                    pl_ids=move.pl_ids, snapshot=shipped.snapshot
                ),
            )
        except (ReproError, ValueError, OSError):
            coordinator.ledger.mark_stale(
                (move.pod, pl_id, move.dest) for pl_id in move.pl_ids
            )
            outcomes.append(None)
            continue
        outcomes.append((len(shipped.snapshot), adopted.count))
    return outcomes


def drop(
    coordinator: ClusterCoordinator, pod: Pod, pl_ids: Sequence[int]
) -> int:
    """Drop lists from every live seat of a pod; returns rows dropped.

    One :class:`DropListRequest` per list per seat, which the seat logs
    as one delete block (when a store is attached) and answers with the
    count of rows dropped — the rows never travel back. A dead seat
    cannot take the message and keeps its copy. The lists' ledger
    cells for the pod retire with them: gaps in a list the pod no
    longer holds are moot.
    """
    removed = 0
    for slot in pod.live_slots():
        for pl_id in pl_ids:
            removed += coordinator.transport.call(
                src="coordinator",
                dst=slot.server_id,
                request=DropListRequest(pl_id=pl_id),
            ).count
    coordinator.ledger.clear_lists(pod.name, pl_ids)
    return removed


class Membership:
    """Seat and pod lifecycle: kill, restart, join, retire, extend n.

    A mixin of :class:`~repro.cluster.deployment.ClusterDeployment`. It
    reads the host's ``coordinator`` (placement, ledger, transport,
    repair mutex), ``registry`` (where seats are reachable),
    ``scheme``, ``mapping_table``, ``_wal_dir`` and ``_owners``, and
    numbers new pods with ``_next_pod_ordinal``.
    """

    # -- seats -------------------------------------------------------------

    def kill_server(self, pod_index: int, slot_index: int) -> str:
        """Take one server down; in-flight state is lost, the WAL survives.

        Returns the downed server's id.
        """
        slot = self._pod(pod_index).slot(slot_index)
        if not slot.alive:
            raise ClusterError(f"server {slot.server_id!r} is already down")
        slot.alive = False
        if slot.log is not None:
            slot.log.close()
        return slot.server_id

    def restart_server(self, pod_index: int, slot_index: int) -> IndexServer:
        """Bring a dead seat back.

        With a WAL attached, the crash is taken seriously: the old
        server object (its memory) is discarded, a fresh
        :class:`IndexServer` replays the log, and the WAL is re-attached
        so post-restart writes keep logging. Without a WAL the seat's
        in-memory store is reused (a network partition, not a crash).
        Seats that missed writes while down stay ledgered stale until
        an owner or the repair sweep re-delivers them; reads prefer
        complete replicas in the meantime.
        """
        slot = self._pod(pod_index).slot(slot_index)
        if slot.alive:
            raise ClusterError(f"server {slot.server_id!r} is not down")
        if slot.wal_path is not None:
            fresh = slot.server.empty_twin()
            store = SegmentedStore(slot.wal_path, **slot.storage_options)
            fresh.bulk_load(store.replay())
            fresh.attach_store(store)
            slot.server = fresh
            slot.log = store
        slot.alive = True
        return slot.server

    def kill_pod(self, pod_index: int) -> list[str]:
        """Take an entire pod down (rack loss, AZ outage drill).

        Every live seat is killed; with ``replication_factor >= 2`` the
        cluster keeps answering byte-identically from the surviving
        replicas. Returns the downed server ids.
        """
        pod = self._pod(pod_index)
        live = pod.live_slots()
        if not live:
            raise ClusterError(f"pod {pod.name!r} is already down")
        return [
            self.kill_server(pod_index, slot.slot_index) for slot in live
        ]

    def restart_pod(self, pod_index: int) -> list[IndexServer]:
        """Bring every dead seat of one pod back (WAL recovery per seat)."""
        pod = self._pod(pod_index)
        dead = [slot for slot in pod.slots if not slot.alive]
        if not dead:
            raise ClusterError(f"pod {pod.name!r} has no dead servers")
        return [
            self.restart_server(pod_index, slot.slot_index) for slot in dead
        ]

    def dead_servers(self) -> list[str]:
        return [
            slot.server_id
            for pod in self.coordinator.pods
            for slot in pod.slots
            if not slot.alive
        ]

    def _pod(self, pod_index: int) -> Pod:
        pods = self.coordinator.pods
        if not 0 <= pod_index < len(pods):
            raise ClusterError(f"no pod {pod_index} (0..{len(pods) - 1})")
        return pods[pod_index]

    # -- pods --------------------------------------------------------------

    def _build_pod(self, pod_index: int, name: str) -> Pod:
        """One fleet of n slot-aligned seats."""
        slots = [
            self._build_seat(pod_index, name, slot_index)
            for slot_index in range(self.scheme.n)
        ]
        return Pod(index=pod_index, name=name, slots=slots)

    def _build_seat(
        self, pod_index: int, pod_name: str, slot_index: int
    ) -> ServerSlot:
        """One empty seat at ``scheme.x_of(slot_index)``, with its WAL
        (when the deployment is durable) and its endpoint on the
        registry."""
        slot = ServerSlot(
            pod_index=pod_index,
            slot_index=slot_index,
            server=self._index_server(
                f"{pod_name}-server-{slot_index}",
                self.scheme.x_of(slot_index),
            ),
        )
        if self._wal_dir is not None:
            attach_wal_to_slot(slot, self._wal_dir / slot.server_id)
        self.registry.register(slot.server_id, IndexServerService(slot))
        return slot

    def add_server(self) -> list[IndexServer]:
        """§5.1: "dynamic extension of the number n of servers without
        recalculating the existing secret shares, by just selecting
        additional points on the polynomial curve".

        Slot n joins every pod: the scheme mints the next x-coordinate
        (:meth:`~repro.secretsharing.shamir.ShamirScheme.extend`), each
        pod gets a new seat there, and every known owner interpolates
        its own elements at the new x and delivers the points to the
        new seats of their lists' replica pods
        (:meth:`~repro.client.owner.DocumentOwner.provision_new_server`).
        No element is re-encrypted and no ID changes, so queries may
        use the new seats as sources at once; later writes reach all
        n + 1 seats.

        Returns:
            The new seats' servers, one per pod in pod order.
        """
        coordinator = self.coordinator
        with coordinator.repair_mutex:
            slot_index = self.scheme.n
            self.scheme.extend(1)
            for pod in coordinator.pods:
                pod.slots.append(
                    self._build_seat(pod.index, pod.name, slot_index)
                )
            for owner in self._owners.values():
                owner.provision_new_server(slot_index)
        return [pod.slots[slot_index].server for pod in coordinator.pods]

    def add_pod(self, name: str | None = None) -> RebalanceStats:
        """Join a fresh pod to the ring and rebalance onto it.

        The pod's seats get WALs and endpoints before the join, so
        migrated records are logged and the seats are reachable at
        once. Only the lists whose replica set changed move: each is
        shipped slot-to-slot from a surviving owner (complete replicas
        preferred) and dropped from any pod the join displaced.
        """
        name = name or f"pod{self._next_pod_ordinal}"
        coordinator = self.coordinator
        # Before any seat store opens: opening one runs crash cleanup
        # in its directory, which a live same-named seat still uses.
        if any(pod.name == name for pod in coordinator.pods):
            raise ClusterError(f"duplicate pod name {name!r}")
        if self._wal_dir is not None:
            refuse_flat_wals(self._wal_dir)
        pod = self._build_pod(len(coordinator.pods), name)
        with coordinator.repair_mutex:
            before = self._placement()
            coordinator.join(pod)
            stats = self._rebalance(pod, "join", before)
        self._next_pod_ordinal += 1
        return stats

    def retire_pod(self, pod_index: int) -> RebalanceStats:
        """Drain one pod off the ring and decommission it.

        Lists the pod owned gain a new replica elsewhere, shipped from
        the surviving owners (or from the retiring pod itself when it
        held the only copy); remaining pods are re-indexed. Then the
        pod goes entirely: its seat stores are closed *and deleted* (a
        retired store is an orphan that would accumulate forever and
        hand a future same-named seat a stale state to replay), every
        list is dropped from its live seats — a drained pod must not
        keep its index fraction, on disk any more than in memory — and
        its endpoints are released, so the name can be reused.
        """
        coordinator = self.coordinator
        pod = self._pod(pod_index)
        if len(coordinator.pods) - 1 < coordinator.replication_factor:
            raise ClusterError(
                f"cannot retire {pod.name!r}: {len(coordinator.pods) - 1} "
                f"pods cannot hold replication_factor="
                f"{coordinator.replication_factor}"
            )
        with coordinator.repair_mutex:
            before = self._placement()
            coordinator.leave(pod)
            stats = self._rebalance(pod, "leave", before)
            coordinator.ledger.forget_pod(pod.name)
        for slot in pod.slots:
            # Unhook persistence first: the wipe must not log into a
            # store that is about to be destroyed.
            slot.server.detach_store()
            if slot.log is not None:
                slot.log.destroy()
                slot.log = None
                slot.wal_path = None
        drop(coordinator, pod, range(self.mapping_table.num_lists))
        for slot in pod.slots:
            if self.registry.has_endpoint(slot.server_id):
                self.registry.unregister(slot.server_id)
        return stats

    def _placement(self) -> dict[int, tuple[Pod, ...]]:
        return {
            pl_id: self.coordinator.pods_of(pl_id)
            for pl_id in range(self.mapping_table.num_lists)
        }

    def _rebalance(
        self,
        pod: Pod,
        action: str,
        before: dict[int, tuple[Pod, ...]],
    ) -> RebalanceStats:
        """Diff old vs new placement; ship gained lists, drop lost ones.

        The diff groups every moved list by (source seat, destination
        seat) pair and ships each group as one move — one round trip
        and one sequential pass per seat pair. Displaced copies are
        dropped after every ship, so a displaced pod can still serve as
        a source. A leaving pod is not dropped here; its whole wipe is
        :meth:`retire_pod`'s.
        """
        coordinator = self.coordinator
        ledger = coordinator.ledger
        stats = RebalanceStats(pod_name=pod.name, action=action)
        #: (source server_id, dest pod name, slot index) -> moved lists.
        shipments: dict[tuple[str, str, int], list[int]] = {}
        dest_pods: dict[str, Pod] = {}
        displaced: dict[str, tuple[Pod, list[int]]] = {}
        for pl_id, old in before.items():
            after = coordinator.pods_of(pl_id)
            if tuple(p.name for p in after) == tuple(p.name for p in old):
                continue
            stats.moved_lists += 1
            coordinator.invalidate_list(pl_id)
            after_names = {p.name for p in after}
            old_names = {p.name for p in old}
            # Complete old owners first; an incomplete source would hand
            # its gaps to the new replica.
            complete = {
                p.name: not ledger.stale_seats(p.name, pl_id) for p in old
            }
            sources = sorted(
                old,
                key=lambda p: (
                    not complete[p.name],
                    p is not pod if action == "leave" else False,
                ),
            )
            for dest in after:
                if dest.name in old_names:
                    continue
                dest_pods[dest.name] = dest
                self._plan_ship(pl_id, sources, dest, shipments, stats)
                if not any(complete.values()):
                    ledger.mark_stale(
                        (dest.name, pl_id, slot.server_id)
                        for slot in dest.slots
                    )
            for lost in old:
                if lost.name not in after_names and lost is not pod:
                    displaced.setdefault(lost.name, (lost, []))[1].append(
                        pl_id
                    )
        keys = sorted(shipments)
        moves = [
            Move(
                source_id,
                pod_name,
                dest_pods[pod_name].slots[slot_index].server_id,
                tuple(shipments[source_id, pod_name, slot_index]),
            )
            for source_id, pod_name, slot_index in keys
        ]
        for move, outcome in zip(moves, ship(coordinator, moves)):
            if outcome is None:
                stats.dropped_copy_routes += len(move.pl_ids)
                continue
            stats.snapshot_ships += 1
            stats.shipped_bytes += outcome[0]
            stats.copied_elements += outcome[1]
        for lost, pl_ids in displaced.values():
            stats.gc_elements += drop(coordinator, lost, pl_ids)
        return stats

    def _plan_ship(
        self,
        pl_id: int,
        sources: Sequence[Pod],
        dest: Pod,
        shipments: dict[tuple[str, str, int], list[int]],
        stats: RebalanceStats,
    ) -> None:
        """Assign one moved list's slot transfers to shipment groups.

        Slot s of every replica holds the same share, so slot s of the
        first source pod (complete owners first) whose seat s is alive
        feeds slot s of the destination. Untransferable slots (no live
        source, dead destination seat) are dropped copy routes,
        ledgered at once so the repair sweep can close the gap once a
        source or the seat returns.
        """
        for slot_index, dest_slot in enumerate(dest.slots):
            source = next(
                (
                    p.slots[slot_index]
                    for p in sources
                    if p.slots[slot_index].alive
                ),
                None,
            )
            if source is None or not dest_slot.alive:
                stats.dropped_copy_routes += 1
                self.coordinator.ledger.mark_stale(
                    [(dest.name, pl_id, dest_slot.server_id)]
                )
                continue
            shipments.setdefault(
                (source.server_id, dest.name, slot_index), []
            ).append(pl_id)
