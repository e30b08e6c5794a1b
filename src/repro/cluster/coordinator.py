"""Sharded cluster coordination: pods, placement, routing, failover.

The paper's §5 deployment is one *pod*: n index servers that each hold
one Shamir share of every posting element. That replicates every merged
posting list n times and caps throughput at one fleet's capacity. The
cluster layer shards the merged lists across many pods:

- a :class:`~repro.extensions.dht.ConsistentHashRing` over pod names
  places each ``pl_id`` on ``replication_factor`` pods (``pl_id ->
  [pod, ...]``), so a pod stores — and a compromised pod reveals — only
  its fraction of the index, the §8 "DHT-based infrastructure"
  direction; with ``replication_factor >= 2`` the loss of an *entire*
  pod costs nothing but a read failover;
- within each replica pod, an element is still split k-of-n across that
  pod's servers, so confidentiality and the §5.4.2 query protocol are
  unchanged — a replica pod holds the same slot-aligned shares, never
  more reconstruction power;
- every pod shares one :class:`~repro.secretsharing.shamir.ShamirScheme`
  (slot ``s`` of every pod uses ``x_of(s)``), which keeps owners and
  searchers pod-agnostic: shares are index-aligned with *slots*, not
  with global server numbers — and lets replica pods answer
  interchangeably, byte for byte.

The :class:`ClusterCoordinator` is the control plane: it owns the
placement, routes writes to every replica pod's live servers
(invalidating every cache tier first), remembers which seats missed
which lists (the staleness ledger read preference and owner
re-provisioning lean on), tracks which servers are dead, and restarts
them — from their durable seat store (a
:class:`~repro.storage.SegmentedStore` snapshot + segment-suffix
store) when one is attached, which is the recovery path §5.4.1's
element IDs exist for. Pods join and leave at runtime: :meth:`add_pod` /
:meth:`retire_pod` move only the lists whose ownership changed —
shipped as sealed snapshot images per seat pair, not record by record —
and report the movement as :class:`RebalanceStats`. Staleness no longer
waits on owners alone: :meth:`repair_sweep` (one-shot or on the
background repair thread) walks the ledger and heals stale seats from
trusted same-slot replicas, so the cluster converges even when the
owner that dropped the writes never reconnects.
"""

from __future__ import annotations

import pathlib
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable, Sequence

from repro.client.owner import DroppedRoute, WriteRoute
from repro.errors import ClusterDegradedError, ClusterError, ReproError
from repro.extensions.dht import ConsistentHashRing
from repro.observability.metrics import MetricsRegistry
from repro.protocol.messages import (
    AdoptSnapshotRequest,
    CacheInvalidateRequest,
    DropListRequest,
    ShipSnapshotRequest,
)
from repro.protocol.service import IndexServerService
from repro.protocol.transport import InProcessTransport
from repro.resilience.breaker import BreakerRegistry
from repro.secretsharing.shamir import ShamirScheme
from repro.server.auth import AuthService
from repro.server.groups import GroupDirectory
from repro.server.index_server import IndexServer
from repro.storage.engine import SegmentedStore

#: EWMA smoothing factor for observed per-pod read latency.
READ_LATENCY_ALPHA = 0.25

#: Latency bucket width (seconds per posting list) used when ranking
#: replicas. Replica choice compares *buckets*, not raw floats, so
#: micro-jitter between equally healthy pods never flips the ranking —
#: only a genuinely slower pod (>= one bucket worse per list) loses its
#: place, and ties fall back to the load counters deterministically.
READ_LATENCY_BUCKET_S = 1e-4

#: Recent whole-fetch latency samples kept per pod for the p95 the
#: hedged-read delay derives from.
LATENCY_SAMPLE_WINDOW = 64

#: Hedge delay when no pod of the list has latency samples yet.
DEFAULT_HEDGE_DELAY_S = 0.05


@dataclass
class ServerSlot:
    """One server's seat in a pod: the live object plus its lifecycle state.

    Attributes:
        pod_index: which pod the seat belongs to.
        slot_index: the seat number — also the Shamir share index, so
            ``scheme.x_of(slot_index)`` is this server's x-coordinate.
        server: the current :class:`IndexServer` occupying the seat (a
            restart from WAL replaces the object; the seat persists).
        alive: False between :meth:`ClusterCoordinator.kill_server` and
            the matching restart.
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

    def slot_by_id(self, server_id: str) -> ServerSlot | None:
        for slot in self.slots:
            if slot.server_id == server_id:
                return slot
        return None


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


def slot_service(slot: ServerSlot) -> IndexServerService:
    """The protocol endpoint for one seat; a dead seat drops every request.

    The service reads ``slot.server`` at call time, so a WAL restart
    that swaps the server object needs no transport re-registration.
    """
    return IndexServerService.for_slot(slot)


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
            ownership of a list.
        dropped_copy_routes: (list, slot) pairs that could not transfer
            (source or destination seat dead, or a ship that failed
            mid-flight) — nonzero means a replica starts life
            incomplete; under snapshot-shipping those gaps land in the
            staleness ledger for the repair sweep to close.
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


class ClusterCoordinator:
    """Control plane of a sharded Zerber cluster.

    Owners use it as their write router (:meth:`route_batch`); searchers use
    it for read placement (:meth:`group_by_pod`), cache-key write
    epochs (:meth:`write_epoch`), and liveness. Operators use
    :meth:`kill_server` / :meth:`restart_server` for failure drills.
    """

    def __init__(
        self,
        scheme: ShamirScheme,
        pods: Sequence[Pod],
        auth: AuthService,
        groups: GroupDirectory,
        share_bytes: int,
        virtual_nodes: int = 64,
        replication_factor: int = 1,
        transport: InProcessTransport | None = None,
        repair_budget: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        """Args:
        scheme: the k-of-n scheme every pod shares (n = pod size).
        pods: the server fleets; every pod must have exactly ``scheme.n``
            slots so shares stay slot-aligned.
        auth: enterprise auth service (needed to rebuild servers on
            WAL restart).
        groups: the replicated group table (also feeds the cache
            keys' membership fingerprints).
        share_bytes: wire size of one share value.
        virtual_nodes: ring smoothness for pod placement.
        replication_factor: pods each merged posting list lives on.
            1 reproduces the PR 1 single-owner sharding; >= 2 keeps
            every list fully readable with an entire pod dead.
        transport: the endpoint registry the control plane's admin
            traffic (slot-to-slot replication during rebalancing) flows
            through. A deployment passes its shared registry — with
            every seat already registered; standalone coordinators get
            a private registry with the seats registered here.
        repair_budget: default per-sweep heal cap for
            :meth:`repair_sweep` (None = unbounded). A budget turns the
            sweep into a rate limiter: a huge backlog is worked off
            across sweeps instead of one long stop-the-world pass.
        clock: the single monotonic clock behind every latency-
            sensitive path the coordinator owns — breaker open/half-open
            windows, :meth:`note_pod_read` EWMA + p95 samples, and
            (through :attr:`clock`) the search clients' per-pod fetch
            timing. Inject a fake to make latency tests deterministic
            without sleeps.
        metrics: optional observability registry; when set,
            :meth:`note_pod_read` publishes per-pod fetch latency
            histograms and read counters into it on the hot path.
        """
        if not pods:
            raise ClusterError("cluster needs at least one pod")
        for pod in pods:
            if len(pod.slots) != scheme.n:
                raise ClusterError(
                    f"pod {pod.name!r} has {len(pod.slots)} servers, "
                    f"scheme expects n={scheme.n}"
                )
        names = [pod.name for pod in pods]
        if len(set(names)) != len(names):
            raise ClusterError("duplicate pod names")
        if not 1 <= replication_factor <= len(pods):
            raise ClusterError(
                f"replication_factor must be in 1..{len(pods)} (the pod "
                f"count), got {replication_factor}"
            )
        self.scheme = scheme
        self.pods = list(pods)
        self.replication_factor = replication_factor
        self._pod_by_name = {pod.name: pod for pod in self.pods}
        self._ring = ConsistentHashRing(names, virtual_nodes=virtual_nodes)
        self._placement_memo: dict[int, tuple[Pod, ...]] = {}
        self._auth = auth
        self._groups = groups
        self._share_bytes = share_bytes
        if transport is None:
            transport = InProcessTransport()
            for pod in self.pods:
                for slot in pod.slots:
                    transport.register(slot.server_id, slot_service(slot))
        self.transport = transport
        self.repair_budget = repair_budget
        #: The injected monotonic clock (satellite of the observability
        #: PR): breakers, hedge-delay p95 samples, and the clients'
        #: fetch timing all read this one source, so a fake clock moves
        #: every latency surface together.
        self.clock = clock
        #: Optional observability registry note_pod_read publishes into.
        self.metrics = metrics
        #: Routing decisions (one per distinct posting list per batch,
        #: per dead seat, per replica pod) made while a seat was down,
        #: and one per list per seat that failed its message of a write
        #: round (:meth:`note_dropped`). A lower bound on missed
        #: per-operation writes — routes are per batch — so dropped >
        #: repaired means some seat is missing data until an owner or
        #: the repair sweep re-provisions.
        self.dropped_write_routes = 0
        #: Per replica pod slice of :attr:`dropped_write_routes`.
        self.dropped_write_routes_by_pod: dict[str, int] = {}
        #: Routes retired from the ledger — by owner re-provisioning,
        #: by the anti-entropy sweep, or by a list leaving the pod that
        #: missed it. Credited *from the ledger's own counts* when an
        #: entry clears, so it converges on dropped_write_routes no
        #: matter which repair path wins the race.
        self.repaired_write_routes = 0
        #: (pod_name, pl_id) -> {server_id: dropped route count}. Seats
        #: known to be missing writes for the list, with how many routed
        #: batches each missed. The read path deprioritizes stale
        #: (pod, list) pairs so a replica that slept through a write is
        #: never the only source of an answer; owner re-provisioning and
        #: the repair sweep clear entries (crediting the counts).
        self._incomplete: dict[tuple[str, int], dict[str, int]] = {}
        #: Guards :attr:`_incomplete` and the dropped/repaired counters
        #: — route(), note_repaired(), and the sweep touch them from
        #: different threads. Always taken *inside* :attr:`repair_mutex`
        #: when both are held.
        self._ledger_lock = threading.Lock()
        #: Serializes whole repair/delivery *spans*: owners hold it
        #: across each route+deliver pair, the anti-entropy sweep holds
        #: it per heal, and rebalances hold it for their transfer phase.
        #: This is the hard guarantee that a heal (replace from a
        #: trusted source) never interleaves with a write mid-delivery —
        #: without it, a write landing on the source after its export
        #: but before the target's adopt would be silently erased from
        #: the healed seat. Reentrant so coordinator-internal paths
        #: (retire_pod -> rebalance) can nest.
        self.repair_mutex = threading.RLock()
        #: Lifetime anti-entropy accounting (the ``zerber_repair_*``
        #: series and ``repro cluster status``).
        self.repair_sweeps = 0
        self.repair_healed_seats = 0
        self.repair_shipped_bytes = 0
        self.repair_failures = 0
        self._repair_thread: threading.Thread | None = None
        self._repair_stop = threading.Event()
        #: pod name -> posting-list lookups routed to it (read balancing).
        self.pod_read_load: dict[str, int] = {}
        #: pod name -> EWMA of observed fetch latency in seconds *per
        #: posting list* (normalized so batched and single-list fetches
        #: are comparable). Fed by :meth:`note_pod_read`; consulted by
        #: :meth:`read_replicas`.
        self.pod_read_latency: dict[str, float] = {}
        #: The parallel fan-out reports per-pod accounting from the
        #: query thread after every round, but nothing stops multiple
        #: searchers (or future async paths) from reporting
        #: concurrently — the counters and EWMA updates take this lock.
        self._read_stats_lock = threading.Lock()
        #: Per-pod circuit breakers, fed by the search clients' fetch
        #: outcomes; an open breaker deprioritizes its pod in
        #: :meth:`read_replicas` (never forbids it — when everything is
        #: open the failover ladder still tries every replica).
        self.breakers = BreakerRegistry(clock=clock)
        #: pod name -> recent whole-fetch latency samples (seconds),
        #: the raw material for :meth:`pod_latency_p95`.
        self._pod_latency_samples: dict[str, deque] = {}
        #: The repair thread's current backoff (None: not running);
        #: surfaced as ``zerber_repair_backoff_seconds`` (0 when None).
        self.repair_backoff_s: float | None = None
        #: Searcher-local L1 caches subscribed to write invalidations.
        #: Weakly referenced: a searcher that goes away takes its L1
        #: with it, with no unsubscribe ceremony.
        self._l1_caches: weakref.WeakSet = weakref.WeakSet()
        #: Lifetime counters of the L1s already gone, folded in by
        #: their finalizers so fleet totals never run backwards.
        self._retired_l1_counts = dict.fromkeys(
            ("hits", "misses", "evictions", "invalidations"), 0
        )
        self._l1_lock = threading.Lock()
        #: Endpoint name of the shared cache tier, when one is attached
        #: (:meth:`attach_cache_tier`); invalidations fan out to it
        #: through :attr:`transport` before any write is delivered.
        self.cache_tier_endpoint: str | None = None
        #: pl_id -> write epoch (absent = 0). Bumped by
        #: :meth:`invalidate_list` and :meth:`complete_write`; baked
        #: into every cache key so a look-aside fill that raced a
        #: concurrent write lands under an unreachable key instead of
        #: re-installing pre-write shares (see :meth:`write_epoch`).
        self._write_epochs: dict[int, int] = {}
        self._epoch_lock = threading.Lock()
        # Eager L1 eviction on membership change: key rotation alone
        # would leave a revoked user's entries resident until LRU aged
        # them out; the subscription drops them the moment the group
        # table changes.
        groups.subscribe(self._on_membership_change)

    # -- placement -------------------------------------------------------------

    def pods_of(self, pl_id: int) -> tuple[Pod, ...]:
        """The replica pods owning one merged posting list, ring order
        (the first is the primary, the rest successors on the ring)."""
        replicas = self._placement_memo.get(pl_id)
        if replicas is None:
            names = self._ring.owners(
                f"pl:{pl_id}", replicas=self.replication_factor
            )
            replicas = tuple(self._pod_by_name[name] for name in names)
            self._placement_memo[pl_id] = replicas
        return replicas

    def pod_of(self, pl_id: int) -> Pod:
        """The primary pod of one merged posting list."""
        return self.pods_of(pl_id)[0]

    def group_by_pod(self, pl_ids: Sequence[int]) -> dict[Pod, list[int]]:
        """Partition a query's posting lists by primary pod (routing plan)."""
        plan: dict[Pod, list[int]] = {}
        for pl_id in pl_ids:
            plan.setdefault(self.pod_of(pl_id), []).append(pl_id)
        return plan

    def shard_distribution(self, num_lists: int) -> dict[str, int]:
        """pod name -> hosted list count over ``[0, num_lists)`` (balance;
        every replica counts, so values sum to num_lists x R)."""
        counts = {pod.name: 0 for pod in self.pods}
        for pl_id in range(num_lists):
            for pod in self.pods_of(pl_id):
                counts[pod.name] += 1
        return counts

    # -- cache-tier fan-out ------------------------------------------------------

    def register_l1(self, cache) -> None:
        """Subscribe a searcher-local L1 to write invalidations.

        Weakly held: dropping the searcher (and its cache) is the
        unsubscribe, and folds the cache's lifetime counters into
        :meth:`l1_totals`.
        """
        self._l1_caches.add(cache)
        weakref.finalize(cache, self._retire_l1, cache.counts)

    def _retire_l1(self, counts: dict[str, int]) -> None:
        with self._l1_lock:
            for key, value in counts.items():
                self._retired_l1_counts[key] += value

    def l1_totals(self) -> dict[str, int]:
        """Fleet view of the searcher-local L1s.

        ``caches``, ``entries`` and ``capacity`` describe the live L1s
        (0 when none is); the four counters are lifetime totals that
        include every L1 already dropped.
        """
        live = list(self._l1_caches)
        with self._l1_lock:
            totals = dict(self._retired_l1_counts)
        totals.update(caches=len(live), entries=0, capacity=0)
        for l1 in live:
            for key, value in l1.stats_snapshot().items():
                totals[key] += value
        return totals

    def attach_cache_tier(self, endpoint: str) -> None:
        """Route invalidations to a shared cache-tier endpoint too."""
        self.cache_tier_endpoint = endpoint

    def write_epoch(self, pl_id: int) -> int:
        """The list's current write epoch, part of every cache key.

        Readers capture the epoch *before* fetching and fill caches
        under the captured value; gets always key by the current value.
        Any invalidation (or write completion) in between bumps the
        epoch, so a racing fill installs under a key no later reader
        derives — eviction alone cannot guarantee that, because a fill
        can execute after the eviction it raced.
        """
        with self._epoch_lock:
            return self._write_epochs.get(pl_id, 0)

    def _bump_epochs(self, pl_ids: Iterable[int]) -> None:
        epochs = self._write_epochs
        with self._epoch_lock:
            for pl_id in pl_ids:
                epochs[pl_id] = epochs.get(pl_id, 0) + 1

    def complete_write(self, *pl_ids: int) -> None:
        """A write (route + delivery) finished for the lists: fence them.

        :meth:`invalidate_list` runs before delivery, so a reader that
        starts *inside* the invalidate→delivery window captures the
        post-invalidate epoch yet can still fetch pre-write shares.
        Owners call this after the last seat took the write; the extra
        bump makes that window's fills unreachable too. No eviction is
        needed — the pre-delivery invalidation already emptied every
        tier for the list.
        """
        self._bump_epochs(pl_ids)

    def invalidate_list(self, *pl_ids: int) -> None:
        """Evict lists from every tier: the subscribed L1s and the
        attached cache tier (one message for all of them).

        Called *before* any write (or rebalance, or heal) touches the
        lists on any seat — the invalidate-before-write rule, applied
        uniformly, is what keeps every tier byte-identical to a fresh
        fetch. A cache-tier failure propagates: delivering the write
        anyway would let the tier serve pre-write shares forever, so
        the write fails loudly instead. The epoch bumps come first:
        once any tier is emptied, every in-flight fill must already be
        fenced out of the new key space.
        """
        self._bump_epochs(pl_ids)
        l1_caches = list(self._l1_caches)
        for pl_id in pl_ids:
            for l1 in l1_caches:
                l1.invalidate(pl_id)
        if self.cache_tier_endpoint is not None:
            self.transport.call(
                src="coordinator",
                dst=self.cache_tier_endpoint,
                request=CacheInvalidateRequest(pl_ids=tuple(pl_ids)),
            )

    def _on_membership_change(self, group_id: int, user_id: str) -> None:
        """Group table changed: evict the affected user's L1 entries now.

        L1 and L2 keys rotate with the fingerprint (the old entries
        become unreachable), but eager eviction frees the space and
        removes even the theoretical stale-replay window.
        """
        for l1 in list(self._l1_caches):
            l1.evict_user(user_id)

    # -- write routing (the owner's router) --------------------------------------

    def route_batch(self, pl_ids: Iterable[int]) -> dict[int, WriteRoute]:
        """The write routes of one batch's distinct posting lists.

        Invalidate-before-write, once per batch: every cached entry of
        every list is evicted (one cache-tier message) before the first
        route is computed, hence before the owner delivers to any seat,
        so no reader can observe pre-write shares after the write
        lands; a cache-tier failure aborts the batch with no seat
        written.

        Lists that share a replica-pod set share a route: while every
        seat of the set is alive, :meth:`route` runs once for the set
        and its answer serves every list placed there. A set with a
        dead seat is routed list by list, so each list's drop lands in
        the ledger.
        """
        # Routed once each: a repeat would count its dropped seats twice.
        pl_ids = tuple(dict.fromkeys(pl_ids))
        self.invalidate_list(*pl_ids)
        routes: dict[int, WriteRoute] = {}
        healthy: dict[tuple[Pod, ...], WriteRoute] = {}
        for pl_id in pl_ids:
            pods = self.pods_of(pl_id)
            route = healthy.get(pods)
            if route is None:
                route = self.route(pl_id)
                if not route.dropped:
                    healthy[pods] = route
            routes[pl_id] = route
        return routes

    def route(self, pl_id: int) -> WriteRoute:
        """The full write route for one posting list, replicas included
        — the placement half of :meth:`route_batch`, which has already
        invalidated the list.

        Each replica pod with >= k live seats receives the write on its
        live seats (dead seats drop their route); a replica pod *below*
        k live seats is skipped entirely — partial sub-k replicas would
        never reconstruct on their own, so the whole pod's routes are
        dropped, every seat is marked incomplete for the list, and the
        owner's re-provisioning ledger gets the full slot set back. The
        write fails only when no replica pod can take >= k shares.
        """
        live: list[tuple[int, str]] = []
        missed_by_pod: list[tuple[Pod, list[ServerSlot]]] = []
        for pod in self.pods_of(pl_id):
            pod_live = pod.live_slots()
            if len(pod_live) >= self.scheme.k:
                live.extend(
                    (slot.slot_index, slot.server_id) for slot in pod_live
                )
                missed = [slot for slot in pod.slots if not slot.alive]
            else:
                missed = list(pod.slots)
            if missed:
                missed_by_pod.append((pod, missed))
        if not live:
            # The write never happened anywhere: fail loudly and leave
            # the dropped/staleness ledgers untouched.
            raise ClusterDegradedError(
                f"no replica pod of list {pl_id} has k={self.scheme.k} "
                "live servers to accept writes"
            )
        dropped: list[DroppedRoute] = []
        with self._ledger_lock:
            for pod, missed in missed_by_pod:
                for slot in missed:
                    dropped.append(
                        DroppedRoute(
                            pod_name=pod.name,
                            share_slot=slot.slot_index,
                            server_id=slot.server_id,
                        )
                    )
                    self._drop_locked(pod.name, pl_id, slot.server_id)
        return WriteRoute(live=tuple(live), dropped=tuple(dropped))

    def note_dropped(self, server_id: str, pl_ids: Iterable[int]) -> None:
        """A routed seat failed to take a write of the lists: ledger it
        as :meth:`route` ledgers a dead seat's drop, so reads avoid the
        seat for the lists until an owner or the sweep repairs it."""
        slot = self.find_slot(server_id)
        if slot is None:
            return
        pod_name = self.pods[slot.pod_index].name
        with self._ledger_lock:
            for pl_id in pl_ids:
                self._drop_locked(pod_name, pl_id, server_id)

    def _drop_locked(self, pod_name: str, pl_id: int, server_id: str) -> None:
        """Count one dropped route and mark the seat incomplete for the
        list. Caller holds :attr:`_ledger_lock`."""
        cell = self._incomplete.setdefault((pod_name, pl_id), {})
        cell[server_id] = cell.get(server_id, 0) + 1
        self.dropped_write_routes += 1
        self.dropped_write_routes_by_pod[pod_name] = (
            self.dropped_write_routes_by_pod.get(pod_name, 0) + 1
        )

    def note_repaired(self, server_id: str, pl_ids: Iterable[int]) -> None:
        """An owner re-delivered a seat's missed writes; clear the ledger.

        The credit comes from the ledger's own per-seat route counts:
        the coordinator is the accounting authority, so a seat the
        anti-entropy sweep already healed credits nothing a second
        time, and :attr:`outstanding_write_routes` converges to zero no
        matter which repair path — owner or sweep — clears each entry.
        """
        slot = self.find_slot(server_id)
        if slot is None:
            return
        pod_name = self.pods[slot.pod_index].name
        with self._ledger_lock:
            for pl_id in pl_ids:
                self._clear_ledger_seat_locked(pod_name, pl_id, server_id)

    def _clear_ledger_seat_locked(
        self, pod_name: str, pl_id: int, server_id: str
    ) -> int:
        """Retire one seat from one ledger cell; credit and return its
        route count. Caller holds :attr:`_ledger_lock`."""
        cell = self._incomplete.get((pod_name, pl_id))
        if cell is None:
            return 0
        count = cell.pop(server_id, None)
        if count is None:
            return 0
        if not cell:
            del self._incomplete[(pod_name, pl_id)]
        self.repaired_write_routes += count
        return count

    def _credit_ledger_cell_locked(self, pod_name: str, pl_id: int) -> int:
        """Retire a whole ledger cell (list left the pod, or the pod
        left the cluster); credit and return its route counts. Caller
        holds :attr:`_ledger_lock`."""
        cell = self._incomplete.pop((pod_name, pl_id), None)
        if not cell:
            return 0
        credit = sum(cell.values())
        self.repaired_write_routes += credit
        return credit

    @property
    def outstanding_write_routes(self) -> int:
        """Dropped routes nothing has re-provisioned yet."""
        return self.dropped_write_routes - self.repaired_write_routes

    # -- read-side helpers ----------------------------------------------------------

    def group_fingerprint(self, user_id: str) -> frozenset[int]:
        """The user's current group set — part of every cache key, so a
        membership change re-keys (and thereby bypasses) old entries."""
        return frozenset(self._groups.groups_of(user_id))

    def is_complete_for(self, pod: Pod, pl_id: int) -> bool:
        """Whether no seat of ``pod`` is known to be missing writes for
        the list (the staleness ledger's read-side view)."""
        return not self._incomplete.get((pod.name, pl_id))

    def incomplete_seats(self, pod_name: str, pl_id: int) -> frozenset[str]:
        """Seats of one pod known to be missing writes for one list.

        The read path must not consume these seats' responses for the
        list at all: a seat that slept through an insert would silently
        *omit* it (no share-shortfall signal exists for an element it
        never saw), and a seat that slept through a delete still holds
        the share and could help a deleted element reach k again.
        """
        return frozenset(self._incomplete.get((pod_name, pl_id), ()))

    def trusted_live_slots(self, pod: Pod, pl_id: int) -> int:
        """Live seats of ``pod`` whose data for the list is complete."""
        missing = self._incomplete.get((pod.name, pl_id))
        if not missing:
            return len(pod.live_slots())
        return sum(
            1
            for slot in pod.live_slots()
            if slot.server_id not in missing
        )

    def read_replicas(self, pl_id: int) -> list[Pod]:
        """The list's replica pods in read-preference order.

        A pod is ranked by how much *trustworthy* capacity it has for
        the list: live seats that did not miss any write (the staleness
        ledger). Pods that can answer alone (>= k trusted live seats)
        come first; among those, the lowest observed fetch latency wins
        (EWMA per list, compared in coarse buckets so jitter between
        equally healthy pods never flips the order), then the smallest
        read load — lookups the pod actually served (a cache hit sends
        no lookup and charges no pod). The rest stay as last resorts —
        even a sub-k pod contributes trusted slots that union with
        another replica's.

        An *open circuit breaker* outranks everything: a pod that has
        failed its last N legs outright goes behind every healthy pod
        regardless of its latency history (which predates the failures),
        until its cooldown releases a half-open probe. Reading the
        breaker here is what *performs* the probe release — ranking is
        the only consumer of breaker state.
        """
        k = self.scheme.k
        ranked = list(enumerate(self.pods_of(pl_id)))
        with self._read_stats_lock:
            latency = dict(self.pod_read_latency)
            load = dict(self.pod_read_load)
        ranked.sort(
            key=lambda item: (
                self.breakers.deprioritize(item[1].name),
                self.trusted_live_slots(item[1], pl_id) < k,
                int(
                    latency.get(item[1].name, 0.0) / READ_LATENCY_BUCKET_S
                ),
                load.get(item[1].name, 0),
                item[0],
            )
        )
        return [pod for _rank, pod in ranked]

    def note_pod_read(
        self,
        pod_name: str,
        num_lists: int,
        latency_s: float | None = None,
    ) -> None:
        """Account lookups routed to one pod (feeds read balancing).

        Args:
            pod_name: the pod that served the fetch.
            num_lists: posting lists the fetch covered.
            latency_s: observed wall-clock duration of the fetch; folded
                into the pod's per-list latency EWMA when given.

        Race-safe: callers may report from concurrent query threads.
        """
        with self._read_stats_lock:
            self.pod_read_load[pod_name] = (
                self.pod_read_load.get(pod_name, 0) + num_lists
            )
            if latency_s is not None and num_lists > 0:
                per_list = latency_s / num_lists
                previous = self.pod_read_latency.get(pod_name)
                self.pod_read_latency[pod_name] = (
                    per_list
                    if previous is None
                    else previous
                    + READ_LATENCY_ALPHA * (per_list - previous)
                )
                # Whole-fetch samples (not per-list): the hedged-read
                # delay races whole fetch legs, so its p95 must be in
                # the same unit.
                samples = self._pod_latency_samples.get(pod_name)
                if samples is None:
                    samples = self._pod_latency_samples[pod_name] = deque(
                        maxlen=LATENCY_SAMPLE_WINDOW
                    )
                samples.append(latency_s)
        # Registry publication happens outside _read_stats_lock: the
        # instruments carry their own locks, and holding two at once
        # would order this lock against every metrics reader.
        if self.metrics is not None:
            self.metrics.counter(
                "zerber_pod_read_lists_total", pod=pod_name
            ).inc(num_lists)
            if latency_s is not None:
                self.metrics.histogram(
                    "zerber_pod_fetch_latency_seconds", pod=pod_name
                ).observe(latency_s)

    def pod_latency_p95(self, pod_name: str) -> float | None:
        """p95 of the pod's recent whole-fetch latencies (None: no data)."""
        with self._read_stats_lock:
            samples = self._pod_latency_samples.get(pod_name)
            if not samples:
                return None
            ordered = sorted(samples)
        return ordered[int(0.95 * (len(ordered) - 1))]

    def hedge_delay_s(
        self, pl_id: int, fallback: float = DEFAULT_HEDGE_DELAY_S
    ) -> float:
        """How long a hedged read waits before firing its backup leg.

        The delay is the *minimum* over the list's replica pods of
        their p95 fetch latency: "if the best replica would have
        answered by now 95% of the time, something is wrong with this
        leg." Deriving it from the contacted pod instead would
        self-defeat exactly when hedging matters — a stalling pod's own
        p95 *is* the stall, so the hedge would never fire.
        """
        best: float | None = None
        for pod in self.pods_of(pl_id):
            p95 = self.pod_latency_p95(pod.name)
            if p95 is not None and (best is None or p95 < best):
                best = p95
        if best is None:
            return fallback
        return max(best, 1e-4)

    # -- failure injection & recovery ----------------------------------------------

    def kill_server(self, pod_index: int, slot_index: int) -> str:
        """Take one server down; in-flight state is lost, the WAL survives.

        Returns the downed server's id.
        """
        slot = self._slot(pod_index, slot_index)
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
        """
        slot = self._slot(pod_index, slot_index)
        if slot.alive:
            raise ClusterError(f"server {slot.server_id!r} is not down")
        if slot.wal_path is not None:
            old = slot.server
            fresh = IndexServer(
                server_id=old.server_id,
                x_coordinate=old.x_coordinate,
                auth=self._auth,
                groups=self._groups,
                share_bytes=self._share_bytes,
            )
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
        """Bring every dead seat of one pod back (WAL recovery per seat).

        Seats that missed writes while down stay marked incomplete until
        an owner re-provisions them — the read path keeps preferring
        complete replicas in the meantime.
        """
        pod = self._pod(pod_index)
        dead = [slot for slot in pod.slots if not slot.alive]
        if not dead:
            raise ClusterError(f"pod {pod.name!r} has no dead servers")
        return [
            self.restart_server(pod_index, slot.slot_index) for slot in dead
        ]

    def attach_wal(self, pod_index: int, slot_index: int, path):
        """Give one seat a durable store (once per seat); returns it."""
        return attach_wal_to_slot(self._slot(pod_index, slot_index), path)

    def _pod(self, pod_index: int) -> Pod:
        if not 0 <= pod_index < len(self.pods):
            raise ClusterError(
                f"no pod {pod_index} (0..{len(self.pods) - 1})"
            )
        return self.pods[pod_index]

    def _slot(self, pod_index: int, slot_index: int) -> ServerSlot:
        return self._pod(pod_index).slot(slot_index)

    def find_slot(self, server_id: str) -> ServerSlot | None:
        """The seat currently answering to one server id (None if gone)."""
        for pod in self.pods:
            for slot in pod.slots:
                if slot.server_id == server_id:
                    return slot
        return None

    # -- ring membership & rebalancing -------------------------------------------

    def add_pod(self, pod: Pod, num_lists: int) -> RebalanceStats:
        """Join a new pod: re-ring, move only the lists it now owns.

        For every posting list whose replica set changed, share records
        are copied slot-to-slot from a surviving owner (complete
        replicas preferred) onto the new pod, appended to the
        destination seats' WALs, and garbage-collected from any pod the
        join displaced. The cache entries of moved lists are
        invalidated. This is the DHT's operational win the paper's §8
        points at: a join shuffles per-list transfers, never the whole
        index.
        """
        if len(pod.slots) != self.scheme.n:
            raise ClusterError(
                f"pod {pod.name!r} has {len(pod.slots)} servers, "
                f"scheme expects n={self.scheme.n}"
            )
        if pod.name in self._pod_by_name:
            raise ClusterError(f"duplicate pod name {pod.name!r}")
        with self.repair_mutex:
            before = {
                pl_id: self.pods_of(pl_id) for pl_id in range(num_lists)
            }
            self._ring.add_peer(pod.name)
            pod.index = len(self.pods)
            for slot in pod.slots:
                slot.pod_index = pod.index
            self.pods.append(pod)
            self._pod_by_name[pod.name] = pod
            self._placement_memo.clear()
            return self._rebalance(pod.name, "join", before, num_lists)

    def retire_pod(self, pod_index: int, num_lists: int) -> RebalanceStats:
        """Gracefully drain one pod off the ring and out of the cluster.

        Lists the pod owned gain a new replica elsewhere, copied from
        the surviving owners (or from the retiring pod itself when it
        held the only copy). The retiring pod's servers stop being part
        of the cluster; remaining pods are re-indexed.
        """
        pod = self._pod(pod_index)
        if len(self.pods) - 1 < self.replication_factor:
            raise ClusterError(
                f"cannot retire {pod.name!r}: {len(self.pods) - 1} pods "
                f"cannot hold replication_factor="
                f"{self.replication_factor}"
            )
        with self.repair_mutex:
            before = {
                pl_id: self.pods_of(pl_id) for pl_id in range(num_lists)
            }
            self._ring.remove_peer(pod.name)
            self.pods.pop(pod_index)
            del self._pod_by_name[pod.name]
            for index, remaining in enumerate(self.pods):
                remaining.index = index
                for slot in remaining.slots:
                    slot.pod_index = index
            self._placement_memo.clear()
            with self._read_stats_lock:
                self.pod_read_load.pop(pod.name, None)
                self.pod_read_latency.pop(pod.name, None)
                self._pod_latency_samples.pop(pod.name, None)
            # A later pod under a reused name starts with a clean
            # breaker, not the retiree's failure history.
            self.breakers.forget(pod.name)
            stats = self._rebalance(pod.name, "leave", before, num_lists)
            with self._ledger_lock:
                # The pod's unhealed gaps leave the cluster with it —
                # retire the routes so the outstanding counter converges.
                for key in [
                    k for k in self._incomplete if k[0] == pod.name
                ]:
                    self._credit_ledger_cell_locked(*key)
                self.dropped_write_routes_by_pod.pop(pod.name, None)
            return stats

    def _rebalance(
        self,
        pod_name: str,
        action: str,
        before: dict[int, tuple[Pod, ...]],
        num_lists: int,
    ) -> RebalanceStats:
        """Diff old vs new placement; copy gained lists, GC lost ones.

        The diff groups every moved list by (source seat, destination
        seat) pair, then moves each group as one sealed ``ZSNP`` image +
        bulk load — one round trip and one sequential pass per seat
        pair. GC of displaced copies runs after the transfer phase, so a
        displaced pod can still serve as a copy source.
        """
        stats = RebalanceStats(pod_name=pod_name, action=action)
        #: (source server_id, dest pod name, slot index) -> moved lists.
        shipments: dict[tuple[str, str, int], list[int]] = {}
        gc_actions: list[tuple[int, Pod]] = []
        for pl_id in range(num_lists):
            after = self.pods_of(pl_id)
            if tuple(p.name for p in after) == tuple(
                p.name for p in before[pl_id]
            ):
                continue
            stats.moved_lists += 1
            self.invalidate_list(pl_id)
            after_names = {p.name for p in after}
            before_names = {p.name for p in before[pl_id]}
            gained = [p for p in after if p.name not in before_names]
            lost = [p for p in before[pl_id] if p.name not in after_names]
            # Complete old owners first; an incomplete source would hand
            # its gaps to the new replica.
            sources = sorted(
                before[pl_id],
                key=lambda p: (
                    not self.is_complete_for(p, pl_id),
                    p.name != pod_name if action == "leave" else False,
                ),
            )
            for dest in gained:
                self._plan_ship(pl_id, sources, dest, shipments, stats)
                if all(
                    not self.is_complete_for(p, pl_id) for p in sources
                ):
                    self._mark_seats_stale(
                        dest.name,
                        pl_id,
                        [slot.server_id for slot in dest.slots],
                    )
            for displaced in lost:
                if displaced.name == pod_name and action == "leave":
                    continue  # the pod is gone; nothing to GC
                gc_actions.append((pl_id, displaced))
        for key in sorted(shipments):
            self._execute_shipment(key, shipments[key], stats)
        for pl_id, displaced in gc_actions:
            stats.gc_elements += self._gc_list(pl_id, displaced)
        return stats

    def _mark_seats_stale(
        self, pod_name: str, pl_id: int, server_ids: Iterable[str]
    ) -> None:
        """Record seats as missing the list (count 0: no dropped write
        route, just a copy that never happened — the repair sweep's
        problem now)."""
        with self._ledger_lock:
            cell = self._incomplete.setdefault((pod_name, pl_id), {})
            for server_id in server_ids:
                cell.setdefault(server_id, 0)

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
        source, dead destination seat) are dropped routes, immediately
        ledgered so the repair sweep can close the gap once a source or
        the seat returns.
        """
        for slot_index in range(self.scheme.n):
            source = next(
                (
                    p.slots[slot_index]
                    for p in sources
                    if p.slots[slot_index].alive
                ),
                None,
            )
            dest_slot = dest.slots[slot_index]
            if source is None or not dest_slot.alive:
                stats.dropped_copy_routes += 1
                self._mark_seats_stale(
                    dest.name, pl_id, (dest_slot.server_id,)
                )
                continue
            shipments.setdefault(
                (source.server_id, dest.name, slot_index), []
            ).append(pl_id)

    def _execute_shipment(
        self,
        key: tuple[str, str, int],
        pl_ids: list[int],
        stats: RebalanceStats,
    ) -> None:
        """One bulk transfer: ship a sealed image, bulk-load it.

        A failure mid-flight (the source died between election and
        export, the destination between export and adopt, or a torn
        image) drops the whole group's routes into the ledger — the
        anti-entropy sweep re-elects a source and retries; the
        rebalance itself never raises for a transfer it can record as
        pending repair.
        """
        source_id, dest_pod_name, slot_index = key
        dest_pod = self._pod_by_name.get(dest_pod_name)
        if dest_pod is None:  # pragma: no cover - dest pods are members
            return
        dest_slot = dest_pod.slots[slot_index]
        try:
            shipped = self.transport.call(
                src="coordinator",
                dst=source_id,
                request=ShipSnapshotRequest(pl_ids=tuple(pl_ids)),
            )
            adopted = self.transport.call(
                src="coordinator",
                dst=dest_slot.server_id,
                request=AdoptSnapshotRequest(
                    pl_ids=tuple(pl_ids), snapshot=shipped.snapshot
                ),
            )
        except ReproError:
            stats.dropped_copy_routes += len(pl_ids)
            for pl_id in pl_ids:
                self._mark_seats_stale(
                    dest_pod_name, pl_id, (dest_slot.server_id,)
                )
            return
        stats.snapshot_ships += 1
        stats.shipped_bytes += len(shipped.snapshot)
        stats.copied_elements += adopted.count

    def _gc_list(self, pl_id: int, pod: Pod) -> int:
        """Drop one list from a pod that lost its ownership."""
        removed_total = 0
        for slot in pod.slots:
            if not slot.alive:
                continue
            # The seat's persistence hook logs the drop as one delete
            # block; the answer is the count of rows dropped.
            response = self.transport.call(
                src="coordinator",
                dst=slot.server_id,
                request=DropListRequest(pl_id=pl_id),
            )
            removed_total += response.count
        with self._ledger_lock:
            # Gaps in a list the pod no longer owns are moot; retire
            # their routes so the outstanding counter converges.
            self._credit_ledger_cell_locked(pod.name, pl_id)
        return removed_total

    # -- anti-entropy repair ---------------------------------------------------------

    def repair_sweep(self, budget: int | None = None) -> RepairSweepStats:
        """One pass over the staleness ledger, healing what it can.

        For every (pod, list) gap, each live stale seat is healed by
        electing a **trusted same-slot source**: the same slot index of
        another replica pod, live and not itself stale for the list
        (slot s of every pod holds the share at ``scheme.x_of(s)``, so
        only a same-slot seat has the right bytes). The heal ships the
        source's sealed snapshot image of the list and bulk-loads it
        with replace semantics — a stale seat may have slept through
        deletes, so merge cannot cure it. Each heal runs under
        :attr:`repair_mutex`, so it can never interleave with an
        owner's route+deliver span; the ledger credit comes from the
        entry's own route counts, keeping
        :attr:`outstanding_write_routes` convergent whether the owner
        or the sweep gets there first.

        Args:
            budget: max heals this sweep (None falls back to the
                coordinator's ``repair_budget``; that too being None
                means unbounded). Exhausting it sets
                ``budget_exhausted`` and leaves the rest for the next
                sweep — the sweep is a rate-limited background chore,
                not a stop-the-world pass.

        Unhealable gaps are left in place and classified: a dead target
        seat waits for its restart; a gap with no trusted source
        (``R == 1``, or every replica missed the same writes) waits for
        owner re-provisioning. Mid-flight failures (a seat dying
        between election and transfer) are counted and retried next
        sweep.
        """
        if budget is None:
            budget = self.repair_budget
        stats = RepairSweepStats()
        with self._ledger_lock:
            backlog = sorted(self._incomplete)
        for key in backlog:
            if budget is not None and stats.healed_seats >= budget:
                stats.budget_exhausted = True
                break
            with self.repair_mutex:
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
        pod_name, pl_id = key
        with self._ledger_lock:
            cell = self._incomplete.get(key)
            seats = sorted(cell) if cell else []
        if not seats:
            return  # an owner's reprovision won the race; nothing left
        stats.examined += 1
        pod = self._pod_by_name.get(pod_name)
        if pod is None:
            return  # pod retired between snapshot and heal
        replicas = self.pods_of(pl_id)
        if pod not in replicas:
            # Placement moved on; the list is no longer this pod's to
            # host. GC retires the entry on the next rebalance.
            return
        for server_id in seats:
            if budget is not None and stats.healed_seats >= budget:
                stats.budget_exhausted = True
                return
            slot = pod.slot_by_id(server_id)
            if slot is None:
                continue
            if not slot.alive:
                stats.skipped_dead_seat += 1
                continue
            source = self._elect_repair_source(
                replicas, pod, pl_id, slot.slot_index
            )
            if source is None:
                stats.skipped_no_source += 1
                continue
            try:
                shipped = self.transport.call(
                    src="coordinator",
                    dst=source.server_id,
                    request=ShipSnapshotRequest(pl_ids=(pl_id,)),
                )
                self.transport.call(
                    src="coordinator",
                    dst=slot.server_id,
                    request=AdoptSnapshotRequest(
                        pl_ids=(pl_id,), snapshot=shipped.snapshot
                    ),
                )
            except (ReproError, ValueError, OSError):
                # Source or target died mid-ship (the drill case), or
                # the image tore in flight: the entry stays; the next
                # sweep re-elects and retries.
                stats.failed += 1
                continue
            self.invalidate_list(pl_id)
            with self._ledger_lock:
                stats.repaired_routes += self._clear_ledger_seat_locked(
                    pod_name, pl_id, server_id
                )
            stats.healed_seats += 1
            stats.shipped_bytes += len(shipped.snapshot)

    def _elect_repair_source(
        self,
        replicas: Sequence[Pod],
        stale_pod: Pod,
        pl_id: int,
        slot_index: int,
    ) -> ServerSlot | None:
        """A live, trusted seat holding the same share slot, or None.

        Only the same slot index of *another* replica pod qualifies —
        any other slot holds a different Shamir x-coordinate's share,
        and shipping it would corrupt reconstruction. Trust is
        per-seat: a source pod may be stale on other seats as long as
        this slot's seat never missed a write for the list.
        """
        for candidate in replicas:
            if candidate.name == stale_pod.name:
                continue
            seat = candidate.slots[slot_index]
            if not seat.alive:
                continue
            with self._ledger_lock:
                cell = self._incomplete.get((candidate.name, pl_id))
                if cell and seat.server_id in cell:
                    continue
            return seat
        return None

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
        many coordinators recovering from the same outage spread their
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

        def run() -> None:
            wait = interval_s
            while True:
                self.repair_backoff_s = wait
                sleep_s = wait
                if jitter > 0.0:
                    sleep_s = wait * (1.0 - jitter + jitter * rng.random())
                if self._repair_stop.wait(sleep_s):
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

        self._repair_stop.clear()
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

    # -- introspection ---------------------------------------------------------------

    def register_collectors(
        self, registry: MetricsRegistry, num_lists: int
    ) -> None:
        """Publish the coordinator's live state as dump-time series.

        Pull-at-dump, not mirror-on-mutation: the collector runs at
        ``registry.samples()`` time and reads pods, seats, breakers and
        the repair ledger directly, under the locks their writers take.
        Hot-path instruments (the fetch-latency histograms in
        :meth:`note_pod_read`) update directly instead.
        """
        registry.add_collector(lambda: self._series(num_lists))
        self.metrics = registry

    def _series(self, num_lists: int):
        """The collector: ``(name, labels, value)`` for every live pod,
        seat and breaker, plus the cluster-wide and repair counters."""
        shards = self.shard_distribution(num_lists)
        with self._read_stats_lock:
            latency = dict(self.pod_read_latency)
            load = dict(self.pod_read_load)
        with self._ledger_lock:
            stale_by_pod: dict[str, int] = {}
            for (name, _pl), seats in self._incomplete.items():
                if seats:
                    stale_by_pod[name] = stale_by_pod.get(name, 0) + 1
            pending_entries = len(self._incomplete)
        for pod in self.pods:
            labels = {"pod": pod.name}
            live = len(pod.live_slots())
            for key, value in (
                ("live_seats", live),
                ("dead_seats", len(pod.slots) - live),
                ("hosted_lists", shards.get(pod.name, 0)),
                ("read_load", load.get(pod.name, 0)),
                ("read_latency_ewma_seconds", latency.get(pod.name) or 0.0),
                ("stale_lists", stale_by_pod.get(pod.name, 0)),
            ):
                yield f"zerber_pod_{key}", labels, value
            for slot in pod.slots:
                seat = {"pod": pod.name, "server": slot.server_id}
                yield "zerber_seat_alive", seat, slot.alive
        yield "zerber_replication_factor", {}, self.replication_factor
        yield "zerber_num_lists", {}, num_lists
        yield (
            "zerber_outstanding_write_routes",
            {},
            self.outstanding_write_routes,
        )
        state_rank = {"closed": 0.0, "half-open": 1.0, "open": 2.0}
        for pod_name, health in self.breakers.snapshot().items():
            labels = {"pod": pod_name}
            state = state_rank.get(health["state"], 0.0)
            yield "zerber_breaker_state", labels, state
            for key in ("consecutive_failures", "times_opened"):
                yield f"zerber_breaker_{key}", labels, health[key]
        for key, value in (
            ("sweeps", self.repair_sweeps),
            ("healed_seats", self.repair_healed_seats),
            ("shipped_bytes", self.repair_shipped_bytes),
            ("failures", self.repair_failures),
            ("pending_entries", pending_entries),
            ("thread_running", self._repair_thread is not None),
            ("backoff_seconds", self.repair_backoff_s or 0.0),
        ):
            yield f"zerber_repair_{key}", {}, value

    def live_servers(self) -> list[str]:
        return [
            slot.server_id
            for pod in self.pods
            for slot in pod.slots
            if slot.alive
        ]

    def dead_servers(self) -> list[str]:
        return [
            slot.server_id
            for pod in self.pods
            for slot in pod.slots
            if not slot.alive
        ]

    def total_elements(self) -> int:
        """Stored posting elements summed over every live server."""
        return sum(
            slot.server.num_elements
            for pod in self.pods
            for slot in pod.slots
            if slot.alive
        )

    def storage_bytes(self) -> int:
        """Wire-encoded storage across the cluster (n x per-pod shard)."""
        return sum(
            slot.server.storage_bytes()
            for pod in self.pods
            for slot in pod.slots
            if slot.alive
        )
