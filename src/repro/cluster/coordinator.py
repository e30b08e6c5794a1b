"""Sharded cluster coordination: placement, routing, read ranking.

The paper's §5 deployment is one *pod*: n index servers that each hold
one Shamir share of every posting element. The cluster shards the
merged lists across many pods (:mod:`repro.cluster.membership` holds
the pods and their lifecycle):

- a :class:`~repro.cluster.ring.ConsistentHashRing` over pod names
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
  searchers pod-agnostic and lets replica pods answer interchangeably,
  byte for byte.

The :class:`ClusterCoordinator` decides where lists live and who is
asked: it owns the placement, routes writes to every replica pod's live
seats (invalidating every cache tier first, and recording the seats a
write missed in the :class:`~repro.cluster.repair.StalenessLedger`),
ranks replicas for reads, and keeps the cache tiers' write epochs and
the per-pod read metrics.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Callable, Iterable, Sequence

from repro.client.owner import DroppedRoute, WriteRoute
from repro.cluster.membership import Pod, ServerSlot
from repro.cluster.repair import StalenessLedger
from repro.cluster.ring import ConsistentHashRing
from repro.errors import ClusterDegradedError, ClusterError
from repro.observability.metrics import MetricsRegistry
from repro.protocol.messages import CacheInvalidateRequest
from repro.protocol.transport import Transport
from repro.resilience.breaker import BreakerRegistry
from repro.secretsharing.shamir import ShamirScheme
from repro.server.groups import GroupDirectory

#: EWMA smoothing factor for observed per-pod read latency.
READ_LATENCY_ALPHA = 0.25

#: Latency bucket width (seconds per posting list) used when ranking
#: replicas. Replica choice compares *buckets*, not raw floats, so
#: micro-jitter between equally healthy pods never flips the ranking —
#: only a genuinely slower pod (>= one bucket worse per list) loses its
#: place, and ties fall back to the load counters deterministically.
READ_LATENCY_BUCKET_S = 1e-4


class ClusterCoordinator:
    """Control plane of a sharded Zerber cluster.

    Owners use it as their write router (:meth:`route_batch`); searchers use
    it for read placement (:meth:`read_replicas`, :meth:`group_by_pod`),
    cache-key write epochs (:meth:`write_epoch`), and the staleness
    ledger's read view. Membership changes re-ring it through
    :meth:`join` / :meth:`leave`.
    """

    def __init__(
        self,
        scheme: ShamirScheme,
        pods: Sequence[Pod],
        groups: GroupDirectory,
        transport: Transport,
        replication_factor: int = 1,
        clock: Callable[[], float] = time.monotonic,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        """Args:
        scheme: the k-of-n scheme every pod shares (n = pod size).
        pods: the server fleets; every pod must have exactly ``scheme.n``
            slots so shares stay slot-aligned.
        groups: the replicated group table (feeds the cache keys'
            membership fingerprints).
        transport: the endpoint registry, with every seat registered,
            that the control plane's admin traffic (cache-tier
            invalidations, list transfers and drops) flows through.
        replication_factor: pods each merged posting list lives on.
            1 reproduces the PR 1 single-owner sharding; >= 2 keeps
            every list fully readable with an entire pod dead.
        clock: the single monotonic clock behind every latency-
            sensitive path the coordinator owns — breaker open/half-open
            windows, the :meth:`note_pod_read` EWMA, and (through
            :attr:`clock`) the search clients' per-pod fetch timing.
            Inject a fake to make latency tests deterministic without
            sleeps.
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
        self._ring = ConsistentHashRing(names)
        self._placement_memo: dict[int, tuple[Pod, ...]] = {}
        self._groups = groups
        self.transport = transport
        #: The injected monotonic clock: breakers, the read-latency
        #: EWMA and the clients' fetch timing all read this one source,
        #: so a fake clock moves every latency surface together.
        self.clock = clock
        #: Optional observability registry note_pod_read publishes into.
        self.metrics = metrics
        #: Seats known to be missing writes, per (pod, list): routes
        #: fill it, reads steer around it, repairs empty it.
        self.ledger = StalenessLedger()
        #: Serializes whole repair/delivery *spans*: owners hold it
        #: across each route+deliver pair, the anti-entropy sweep holds
        #: it per heal, and rebalances hold it for their transfer phase.
        #: This is the hard guarantee that a heal (replace from a
        #: trusted source) never interleaves with a write mid-delivery —
        #: without it, a write landing on the source after its export
        #: but before the target's adopt would be silently erased from
        #: the healed seat. Reentrant so nested paths can take it again.
        #: Always taken *outside* the ledger's own lock.
        self.repair_mutex = threading.RLock()
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
        #: pod name ("" for the searches) -> (registry, counter,
        #: histogram): the read path's instrument handles, fetched once
        #: per pod and registry (:meth:`_handles`); a retired pod drops
        #: its.
        self._instruments: dict[str, tuple] = {}
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
        #: Endpoint name of the shared cache tier, when the deployment
        #: runs one; invalidations fan out to it
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

    def join(self, pod: Pod) -> None:
        """Place a new pod on the ring (its lists still have to move)."""
        self._ring.add_peer(pod.name)
        self.pods.append(pod)
        self._pod_by_name[pod.name] = pod
        self._placement_memo.clear()

    def leave(self, pod: Pod) -> None:
        """Take a pod off the ring and re-index the remaining pods; its
        read statistics and breaker go with it (a later pod under a
        reused name starts clean)."""
        self._ring.remove_peer(pod.name)
        self.pods.remove(pod)
        del self._pod_by_name[pod.name]
        for index, remaining in enumerate(self.pods):
            remaining.index = index
            for slot in remaining.slots:
                slot.pod_index = index
        self._placement_memo.clear()
        with self._read_stats_lock:
            self.pod_read_load.pop(pod.name, None)
            self.pod_read_latency.pop(pod.name, None)
        self._instruments.pop(pod.name, None)
        self.breakers.forget(pod.name)


    # -- cache-tier fan-out ------------------------------------------------------

    def register_l1(self, cache) -> None:
        """Subscribe a searcher-local L1 to write invalidations.

        Weakly held: dropping the searcher (and its cache) is the
        unsubscribe, and folds the cache's lifetime counters into
        :meth:`l1_totals`.
        """
        self._l1_caches.add(cache)
        weakref.finalize(cache, self._retire_l1, cache.counts)

    def clear_l1s(self) -> None:
        """Empty every registered L1 (the deployment closed)."""
        for l1 in list(self._l1_caches):
            l1.clear()

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
        dropped = tuple(
            DroppedRoute(
                pod_name=pod.name,
                share_slot=slot.slot_index,
                server_id=slot.server_id,
            )
            for pod, missed in missed_by_pod
            for slot in missed
        )
        if dropped:
            self.ledger.drop(
                (route.pod_name, pl_id, route.server_id) for route in dropped
            )
        return WriteRoute(live=tuple(live), dropped=dropped)

    def note_dropped(self, server_id: str, pl_ids: Iterable[int]) -> None:
        """A routed seat failed to take a write of the lists: ledger it
        as :meth:`route` ledgers a dead seat's drop, so reads avoid the
        seat for the lists until an owner or the sweep repairs it."""
        slot = self.find_slot(server_id)
        if slot is not None:
            pod_name = self.pods[slot.pod_index].name
            self.ledger.drop((pod_name, pl_id, server_id) for pl_id in pl_ids)

    def note_repaired(self, server_id: str, pl_ids: Iterable[int]) -> None:
        """An owner re-delivered a seat's missed writes; clear the ledger.

        The credit comes from the ledger's own per-seat route counts, so
        a seat the anti-entropy sweep already healed credits nothing a
        second time, and the outstanding count converges to zero no
        matter which repair path — owner or sweep — clears each entry.
        """
        slot = self.find_slot(server_id)
        if slot is not None:
            pod_name = self.pods[slot.pod_index].name
            self.ledger.clear_seats(
                (pod_name, pl_id, server_id) for pl_id in pl_ids
            )

    def find_slot(self, server_id: str) -> ServerSlot | None:
        """The seat currently answering to one server id (None if gone)."""
        for pod in self.pods:
            for slot in pod.slots:
                if slot.server_id == server_id:
                    return slot
        return None

    # -- read-side helpers ----------------------------------------------------------

    def group_fingerprint(self, user_id: str) -> frozenset[int]:
        """The user's current group set — part of every cache key, so a
        membership change re-keys (and thereby bypasses) old entries."""
        return frozenset(self._groups.groups_of(user_id))

    def read_replicas(self, pl_id: int) -> list[Pod]:
        """The list's replica pods in read-preference order.

        A pod is ranked by how much *trustworthy* capacity it has for
        the list: live seats the staleness ledger does not mark stale.
        Pods that can answer alone (>= k trusted live seats) come
        first; among those, the lowest observed fetch latency wins
        (EWMA per list, compared in coarse buckets so jitter between
        equally healthy pods never flips the order), then the smallest
        read load — lookups the pod actually served (a cache hit sends
        no lookup and charges no pod). The rest stay as last resorts —
        even a sub-k pod contributes trusted slots that union with
        another replica's.

        An *open circuit breaker* outranks everything: a pod that has
        failed its last N legs outright goes behind every healthy pod
        regardless of its latency history (which predates the failures),
        until its cooldown releases a half-open probe. Ranking only
        reads the breaker; the fetch claims the probe for the pod it
        actually sends a leg to.

        The fetch stage calls this once per replica set a round, for
        the set's first list: the result depends on the list only
        through its replica pods, their ring order and their stale
        seats for it.
        """
        k = self.scheme.k
        stale_seats = self.ledger.stale_seats
        held_back = self.breakers.held_back
        # Read in place, not copied under the lock: a concurrent
        # note_pod_read moves one pod's figures, which a ranking read a
        # moment later would see anyway.
        latency, load = self.pod_read_latency, self.pod_read_load
        ranked = []
        for rank, pod in enumerate(self.pods_of(pl_id)):
            name = pod.name
            stale = stale_seats(name, pl_id)
            trusted = [
                s
                for s in pod.slots
                if s.alive and not (stale and s.server_id in stale)
            ]
            ranked.append((
                held_back(name),
                len(trusted) < k,
                int(latency.get(name, 0.0) / READ_LATENCY_BUCKET_S),
                load.get(name, 0),
                rank,
                pod,
            ))
        ranked.sort()  # ranks are distinct: pods are never compared
        return [item[5] for item in ranked]


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
        # Registry publication happens outside _read_stats_lock: the
        # instruments carry their own locks, and holding two at once
        # would order this lock against every metrics reader.
        if self.metrics is not None:
            _registry, lists, latency = self._handles(
                pod_name,
                "zerber_pod_read_lists_total",
                "zerber_pod_fetch_latency_seconds",
            )
            lists.inc(num_lists)
            if latency_s is not None:
                latency.observe(latency_s)

    def note_search(self, latency_s: float) -> None:
        """Count one search and its latency into the metrics registry
        (``zerber_search_queries_total``, ``..._latency_seconds``)."""
        if self.metrics is not None:
            _registry, queries, latency = self._handles(
                "",
                "zerber_search_queries_total",
                "zerber_search_latency_seconds",
            )
            queries.inc()
            latency.observe(latency_s)

    def _handles(self, pod_name: str, counter: str, histogram: str) -> tuple:
        """``(registry, counter, histogram)`` of one pod (labelled
        ``pod=pod_name``; unlabelled for "")."""
        metrics = self.metrics
        handles = self._instruments.get(pod_name)
        if handles is None or handles[0] is not metrics:
            labels = {"pod": pod_name} if pod_name else {}
            handles = self._instruments[pod_name] = (
                metrics,
                metrics.counter(counter, **labels),
                metrics.histogram(histogram, **labels),
            )
        return handles

    # -- introspection ---------------------------------------------------------------

    def register_collectors(
        self, registry: MetricsRegistry, num_lists: int
    ) -> None:
        """Publish the coordinator's live state as dump-time series.

        Pull-at-dump, not mirror-on-mutation: the collector runs at
        ``registry.samples()`` time and reads pods, seats, breakers and
        the staleness ledger directly, under the locks their writers
        take. Hot-path instruments (the fetch-latency histograms in
        :meth:`note_pod_read`) update directly instead.
        """
        registry.add_collector(lambda: self._series(num_lists))
        self.metrics = registry

    def _series(self, num_lists: int):
        """The collector: ``(name, labels, value)`` for every live pod,
        seat and breaker, plus the cluster-wide counters."""
        shards = self.shard_distribution(num_lists)
        with self._read_stats_lock:
            latency = dict(self.pod_read_latency)
            load = dict(self.pod_read_load)
        stale_by_pod = self.ledger.stale_lists_by_pod()
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
            self.ledger.outstanding,
        )
        state_rank = {"closed": 0.0, "half-open": 1.0, "open": 2.0}
        for pod_name, health in self.breakers.snapshot().items():
            labels = {"pod": pod_name}
            state = state_rank.get(health["state"], 0.0)
            yield "zerber_breaker_state", labels, state
            for key in ("consecutive_failures", "times_opened"):
                yield f"zerber_breaker_{key}", labels, health[key]
