"""The sharded cluster facade — a multi-pod :class:`ZerberDeployment` (§8).

Where :class:`~repro.core.zerber_index.ZerberDeployment` stands up one
pod of n servers replicating the whole index, :class:`ClusterDeployment`
stands up ``num_pods`` of them and shards the merged posting lists
across pods by consistent hashing. The enterprise plane (auth service,
group table, dictionary, mapping table, snippet registry) stays shared
— there is still one logical Zerber installation, it just no longer fits
on one fleet.

Typical use (see ``examples/cluster_tour.py``)::

    cluster = ClusterDeployment.bootstrap(
        stats.term_probabilities(), num_pods=3, k=3, n=6, num_lists=256,
        replication_factor=2)
    cluster.create_group(1, coordinator="alice")
    cluster.share_document("alice", doc)
    cluster.flush_all()
    cluster.kill_server(pod_index=0, slot_index=2)   # survives n-k per pod
    cluster.kill_pod(1)                              # survives a whole pod
    results = cluster.search("alice", ["budget"], top_k=10)
"""

from __future__ import annotations

import pathlib
import random
import time
from typing import Callable, Mapping, Sequence

from repro.cachetier import (
    CACHE_TIER_ENDPOINT,
    CacheTierService,
    CacheTierStore,
)
from repro.client.batching import BatchPolicy
from repro.client.owner import DocumentOwner
from repro.client.searcher import SearchResult
from repro.client.snippets import SnippetService
from repro.cluster.clients import ClusterSearchClient
from repro.cluster.coordinator import (
    ClusterCoordinator,
    Pod,
    RebalanceStats,
    ServerSlot,
    attach_wal_to_slot,
    slot_service,
)
from repro.core.dictionary import TermDictionary
from repro.core.mapping_table import MappingTable
from repro.core.merging.base import MergingHeuristic
from repro.core.posting import PackingSpec, PostingElementCodec
from repro.core.zerber_index import build_mapping_table
from repro.errors import ClusterError
from repro.observability.metrics import MetricsRegistry
from repro.observability.service import METRICS_ENDPOINT, MetricsService
from repro.protocol.async_transport import (
    AsyncSocketServer,
    AsyncSocketTransport,
)
from repro.protocol.messages import DropListRequest
from repro.protocol.service import SnippetHostService
from repro.protocol.transport import InProcessTransport, Transport
from repro.secretsharing.field import DEFAULT_PRIME, PrimeField
from repro.secretsharing.shamir import ShamirScheme
from repro.server.auth import AuthService, AuthToken
from repro.server.groups import GroupDirectory
from repro.server.index_server import IndexServer
from repro.server.transport import (
    ConcurrentDispatcher,
    LinkSpec,
    SimulatedNetwork,
    WLAN_55_MBPS,
)
from repro.storage.engine import refuse_flat_wals


class ClusterDeployment:
    """A complete sharded Zerber installation: pods, placement, clients."""

    def __init__(
        self,
        mapping_table: MappingTable,
        num_pods: int = 3,
        k: int = 2,
        n: int = 3,
        field: PrimeField | None = None,
        packing: PackingSpec | None = None,
        use_network: bool = True,
        batch_policy: BatchPolicy | None = None,
        cache_entries: int = 0,
        virtual_nodes: int = 64,
        wal_dir: str | pathlib.Path | None = None,
        replication_factor: int = 1,
        seed: int = 0x2E4B,
        transport: str = "in-process",
        socket_host: str = "127.0.0.1",
        socket_port: int = 0,
        socket_idle_timeout_s: float | None = None,
        fanout_workers: int = 8,
        storage: str = "segmented",
        anti_entropy_interval_s: float | None = None,
        repair_budget: int | None = None,
        admission_max_pending: int | None = None,
        cache_tier: str | None = None,
        cache_tier_entries: int = 4096,
        l1_entries: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Args:
        mapping_table: the public term -> posting-list table.
        num_pods: server fleets to shard the merged lists across.
        k: Shamir reconstruction threshold within each pod.
        n: servers per pod (each pod tolerates n - k failures).
        field: the Z_p field; defaults to the 64-bit+ prime.
        packing: posting-element bit layout.
        use_network: charge all in-process traffic against a
            :class:`SimulatedNetwork` for byte/message accounting (the
            socket backend moves real bytes instead).
        batch_policy: default owner batching policy.
        cache_entries: must be 0, the default; anything else is a
            :class:`~repro.errors.ClusterError` naming ``l1_entries``,
            the searcher-local cache that replaced the coordinator's
            share cache. The keyword stays only because the benchmark
            scenario still passes ``cache_entries=0``, and goes once
            that scenario stops.
        virtual_nodes: consistent-hash smoothness for pod placement.
        wal_dir: when given, every server gets a durable seat store
            under this directory and :meth:`restart_server` recovers
            from it.
        replication_factor: pods each merged posting list lives on;
            >= 2 keeps the cluster byte-identical with a whole pod dead
            at the cost of R x storage and write fan-out.
        seed: master seed for all deployment randomness.
        transport: ``"in-process"`` (default) or ``"async-socket"``.
            With ``"async-socket"`` the deployment embeds a loopback
            :class:`AsyncSocketServer` and every client (owners,
            searchers, failover fetches) speaks real correlated frames
            over one multiplexed :class:`AsyncSocketTransport`
            connection. Anything else is a
            :class:`~repro.errors.ClusterError`. Search results are
            byte-identical across both backends; CI gates it.
        socket_host / socket_port: the socket listener address (port 0
            picks a free port; see ``self.transport.address``).
        socket_idle_timeout_s: close server-side connections idle for
            this long (None: never).
        fanout_workers: width of this deployment's hedged-read worker
            pool (reaped by :meth:`close`).
        storage: the seat-store engine under ``wal_dir``. It has one
            legal value, ``"segmented"`` (a per-seat directory holding a
            binary segment log, immutable snapshots written by a
            background compactor, and a fsync'd manifest; restarts load
            one snapshot and replay only the segment suffix — see
            :mod:`repro.storage`); anything else is a
            :class:`~repro.errors.ClusterError`. The keyword stays only
            because the benchmark scenario still passes it, and goes
            once that scenario stops.
        anti_entropy_interval_s: when given, a background repair
            thread runs :meth:`repair_sweep` at this cadence (with
            failure backoff) until :meth:`close`; None leaves repair
            to explicit sweeps and owner re-provisioning.
        repair_budget: per-sweep heal cap for the repair thread and
            default for :meth:`repair_sweep` (None = unbounded).
        admission_max_pending: bound on concurrently dispatched
            requests at the embedded socket server; excess requests
            are shed with a retryable
            :class:`~repro.errors.OverloadedError` instead of queueing
            without limit. None (default) admits everything — the
            byte-level equivalence suites depend on an unbounded
            server, so shedding is strictly opt-in.
        cache_tier: when given, the eviction/admission policy name
            (``"lru"`` or ``"tinylfu"``) of an embedded shared L2
            cache-tier service, registered as the ordinary protocol
            endpoint ``"cache-tier"`` — so it is reachable over every
            transport backend — and wired into the coordinator's
            write-path invalidation fan-out. None (default) runs
            without a cache tier.
        cache_tier_entries: L2 cache-tier capacity in entries.
        l1_entries: default searcher-local L1 capacity (reconstructed
            postings); 0 (default) disables the L1. Per-searcher
            overrides via ``searcher(..., l1_entries=...)``.
        clock: the monotonic clock behind every coordinator latency
            surface (fetch timing, EWMA/p95, breakers, hedge delays).
            Inject a fake for deterministic latency tests — no sleeps.
        """
        if num_pods < 1:
            raise ClusterError(f"need at least one pod, got {num_pods}")
        if transport not in ("in-process", "async-socket"):
            raise ClusterError(
                f"unknown transport {transport!r}; expected "
                "'in-process' or 'async-socket'"
            )
        self._rng = random.Random(seed)
        self.field = field or PrimeField(DEFAULT_PRIME)
        self.scheme = ShamirScheme(k=k, n=n, field=self.field, rng=self._rng)
        self.mapping_table = mapping_table
        self.dictionary = TermDictionary()
        self.packing = packing or PackingSpec()
        self.codec = PostingElementCodec(self.packing)
        self.auth = AuthService()
        self.groups = GroupDirectory()
        self._batch_policy = batch_policy or BatchPolicy()
        share_bytes = (self.field.p.bit_length() + 7) // 8
        self._share_bytes = share_bytes
        self._wal_dir = (
            pathlib.Path(wal_dir) if wal_dir is not None else None
        )
        if l1_entries < 0:
            raise ClusterError(f"l1_entries must be >= 0, got {l1_entries}")
        if cache_entries != 0:
            raise ClusterError(
                f"cache_entries={cache_entries}: the coordinator share "
                "cache is gone; size the searcher-local cache with "
                "l1_entries instead"
            )
        if storage != "segmented":
            raise ClusterError(
                f"unknown storage engine {storage!r}; the only engine is "
                "'segmented'"
            )
        if self._wal_dir is not None:
            refuse_flat_wals(self._wal_dir)
        pods: list[Pod] = [
            self._build_pod(pod_index, f"pod{pod_index}", n)
            for pod_index in range(num_pods)
        ]
        self._next_pod_ordinal = num_pods
        self.network: SimulatedNetwork | None = None
        if use_network:
            self.network = SimulatedNetwork(
                default_link=LinkSpec(bandwidth_bps=WLAN_55_MBPS)
            )
        self.registry = InProcessTransport(
            network=self.network, share_bytes=share_bytes
        )
        for pod in pods:
            for slot in pod.slots:
                self.registry.register(slot.server_id, slot_service(slot))
        #: The deployment-wide observability registry. Every subsystem
        #: publishes into this one object — coordinator read/write
        #: paths, socket-server frame counters, cache tiers, breakers,
        #: admission, repair — and the ``metrics`` endpoint serves it
        #: over every transport backend.
        self.metrics = MetricsRegistry()
        self.coordinator = ClusterCoordinator(
            scheme=self.scheme,
            pods=pods,
            auth=self.auth,
            groups=self.groups,
            share_bytes=share_bytes,
            virtual_nodes=virtual_nodes,
            replication_factor=replication_factor,
            transport=self.registry,
            repair_budget=repair_budget,
            clock=clock,
            metrics=self.metrics,
        )
        self.coordinator.register_collectors(
            self.metrics, mapping_table.num_lists
        )
        self.metrics.add_collector(self._collect_deployment_metrics)
        self.registry.register(
            METRICS_ENDPOINT, MetricsService(self.metrics)
        )
        self.cache_tier_store: CacheTierStore | None = None
        if cache_tier is not None:
            # The L2 tier is just another endpoint on the shared
            # registry, so every transport backend reaches it through
            # the same dispatch path as the index servers.
            self.cache_tier_store = CacheTierStore(
                capacity=cache_tier_entries, policy=cache_tier
            )
            # The tier holds the same enterprise trust anchors an index
            # server holds: it authenticates every get/put and checks
            # the key's fingerprint against the live group table.
            self.registry.register(
                CACHE_TIER_ENDPOINT,
                CacheTierService(
                    self.cache_tier_store,
                    auth=self.auth,
                    groups=self.groups,
                ),
            )
            self.coordinator.attach_cache_tier(CACHE_TIER_ENDPOINT)
        self._l1_entries = l1_entries
        if anti_entropy_interval_s is not None:
            self.coordinator.start_repair_thread(
                interval_s=anti_entropy_interval_s, budget=repair_budget
            )
        if self._wal_dir is not None:
            for pod in pods:
                for slot in pod.slots:
                    self.coordinator.attach_wal(
                        pod.index,
                        slot.slot_index,
                        self._wal_dir / slot.server_id,
                    )
        self._socket_server: AsyncSocketServer | None = None
        self.transport: Transport = self.registry
        if transport == "async-socket":
            self._socket_server = AsyncSocketServer(
                self.registry,
                host=socket_host,
                port=socket_port,
                idle_timeout_s=socket_idle_timeout_s,
                max_pending=admission_max_pending,
                metrics=self.metrics,
            )
            self.transport = AsyncSocketTransport(self._socket_server.address)
        #: Per-deployment hedged-read pool: closing the deployment reaps
        #: its worker threads (the dispatcher-leak regression).
        self.dispatcher = ConcurrentDispatcher(
            max_workers=fanout_workers,
            thread_name_prefix=f"zerber-fanout-{id(self):x}",
        )
        self._closed = False
        self.snippets = SnippetService(self.groups)
        self._tokens: dict[str, AuthToken] = {}
        self._owners: dict[str, DocumentOwner] = {}

    def _collect_deployment_metrics(self):
        """Registry collector for the deployment-owned surfaces.

        Runs at dump time (``metrics.samples()``) and returns series
        read from the owners, the admission controller, the cache
        tiers and the live seats' stores.
        """
        # Write side: lifetime totals summed over the owners (each keeps
        # its own; the flush-time histogram is observed by the owners).
        owners = list(self._owners.values())
        for name, attribute in (
            ("documents", "documents_shared"),
            ("elements", "elements_shared"),
            ("batches", "batches_flushed"),
        ):
            total = sum(getattr(owner, attribute) for owner in owners)
            yield f"zerber_index_{name}_total", {}, total
        server = self._socket_server
        if server is not None and server.admission is not None:
            for key, value in server.admission.stats().items():
                yield f"zerber_admission_{key}", {}, value or 0
        if self.cache_tier_store is not None:
            snap = self.cache_tier_store.stats_snapshot()
            yield "zerber_cache_tier_info", {"policy": snap.pop("policy")}, 1
            for key, value in snap.items():
                yield f"zerber_cache_tier_{key}", {}, value
        # Searcher-local L1s are per-client; the coordinator keeps the
        # fleet view (live sizes, lifetime counters).
        for key, value in self.coordinator.l1_totals().items():
            yield f"zerber_l1_{key}", {}, value
        # Seat read snapshots, then seat-store / compactor state.
        for pod in self.coordinator.pods:
            for slot in pod.slots:
                seat = {"server": slot.server_id}
                for key in ("snapshot_builds", "snapshot_reads"):
                    value = getattr(slot.server, key)
                    yield f"zerber_server_{key}", seat, value
                if slot.log is None:
                    continue
                status = slot.log.status()
                for key in (
                    "records_appended",
                    "bytes_appended",
                    "disk_bytes",
                    "segments",
                    "compacting",
                ):
                    yield f"zerber_storage_{key}", seat, status[key]

    def _build_pod(self, pod_index: int, name: str, n: int) -> Pod:
        """One fleet of n slot-aligned servers (shared scheme/auth/groups)."""
        slots = [
            ServerSlot(
                pod_index=pod_index,
                slot_index=slot_index,
                server=IndexServer(
                    server_id=f"{name}-server-{slot_index}",
                    x_coordinate=self.scheme.x_of(slot_index),
                    auth=self.auth,
                    groups=self.groups,
                    share_bytes=self._share_bytes,
                ),
            )
            for slot_index in range(n)
        ]
        return Pod(index=pod_index, name=name, slots=slots)

    # -- construction from corpus statistics --------------------------------------

    @classmethod
    def bootstrap(
        cls,
        term_probabilities: Mapping[str, float],
        heuristic: MergingHeuristic | str = "dfm",
        num_lists: int | None = None,
        target_r: float | None = None,
        rare_cutoff: float = 0.0,
        **kwargs,
    ) -> "ClusterDeployment":
        """Build a cluster by running a §6 merging heuristic first.

        Same contract as :meth:`ZerberDeployment.bootstrap`; extra
        ``**kwargs`` (num_pods, k, n, wal_dir, ...) reach the constructor.
        """
        table, merge = build_mapping_table(
            term_probabilities,
            heuristic=heuristic,
            num_lists=num_lists,
            target_r=target_r,
            rare_cutoff=rare_cutoff,
        )
        deployment = cls(mapping_table=table, **kwargs)
        deployment.merge_result = merge
        return deployment

    # -- principals ---------------------------------------------------------------

    def enroll_user(self, user_id: str) -> AuthToken:
        """Provision a user with the enterprise and cache their ticket."""
        if user_id in self._tokens:
            return self._tokens[user_id]
        credential = self.auth.register_user(user_id)
        token = self.auth.issue_token(user_id, credential)
        self._tokens[user_id] = token
        return token

    def create_group(self, group_id: int, coordinator: str) -> None:
        """Create a collaboration group; enrolls the coordinator if needed."""
        self.enroll_user(coordinator)
        self.groups.create_group(group_id, coordinator)

    def add_member(
        self, group_id: int, user_id: str, actor: str | None = None
    ) -> None:
        self.enroll_user(user_id)
        self.groups.add_member(group_id, user_id, actor=actor)

    def remove_member(
        self, group_id: int, user_id: str, actor: str | None = None
    ) -> None:
        self.groups.remove_member(group_id, user_id, actor=actor)

    # -- clients ---------------------------------------------------------------------

    def owner(
        self, owner_id: str, batch_policy: BatchPolicy | None = None
    ) -> DocumentOwner:
        """The (cached) owner client, routing writes through the cluster."""
        if owner_id not in self._owners:
            token = self.enroll_user(owner_id)
            self._owners[owner_id] = DocumentOwner(
                owner_id=owner_id,
                token=token,
                scheme=self.scheme,
                mapping_table=self.mapping_table,
                dictionary=self.dictionary,
                servers=None,
                codec=self.codec,
                network=self.network,
                batch_policy=batch_policy or self._batch_policy,
                rng=random.Random(self._rng.getrandbits(64)),
                router=self.coordinator,
                transport=self.transport,
            )
        return self._owners[owner_id]

    def searcher(self, user_id: str, **kwargs) -> ClusterSearchClient:
        """A fresh cluster search client for a principal."""
        token = self.enroll_user(user_id)
        kwargs.setdefault("transport", self.transport)
        kwargs.setdefault("dispatcher", self.dispatcher)
        if self.cache_tier_store is not None:
            kwargs.setdefault("cache_tier", CACHE_TIER_ENDPOINT)
        kwargs.setdefault("l1_entries", self._l1_entries)
        return ClusterSearchClient(
            user_id=user_id,
            token=token,
            coordinator=self.coordinator,
            mapping_table=self.mapping_table,
            dictionary=self.dictionary,
            codec=self.codec,
            network=self.network,
            snippet_service=self.snippets,
            **kwargs,
        )

    # -- convenience -------------------------------------------------------------------

    def share_document(self, owner_id: str, document) -> int:
        """Share one document and host it for snippet requests."""
        owner = self.owner(owner_id)
        count = owner.share_document(document)
        self.snippets.host_document(document)
        if not self.registry.has_endpoint(document.host):
            self.registry.register(
                document.host, SnippetHostService(self.snippets)
            )
        return count

    def search(
        self, user_id: str, terms: Sequence[str], top_k: int = 10, **kwargs
    ) -> list[SearchResult]:
        """One-shot search for a principal."""
        return self.searcher(user_id, **kwargs).search(terms, top_k=top_k)

    def flush_all(self) -> int:
        """Flush every owner's pending batches (test/bench convenience)."""
        return sum(owner.flush_updates() for owner in self._owners.values())

    # -- operations --------------------------------------------------------------------

    def kill_server(self, pod_index: int, slot_index: int) -> str:
        """Take one server down (failure drill); returns its id."""
        return self.coordinator.kill_server(pod_index, slot_index)

    def restart_server(self, pod_index: int, slot_index: int) -> IndexServer:
        """Bring a dead server back (recovering from its WAL if it has one)."""
        return self.coordinator.restart_server(pod_index, slot_index)

    def kill_pod(self, pod_index: int) -> list[str]:
        """Take an entire pod down; returns the downed server ids.

        With ``replication_factor >= 2`` every list the pod owned stays
        fully readable from its surviving replicas.
        """
        return self.coordinator.kill_pod(pod_index)

    def restart_pod(self, pod_index: int) -> list[IndexServer]:
        """Bring a whole pod back (per-seat WAL recovery)."""
        return self.coordinator.restart_pod(pod_index)

    def reprovision_dropped_writes(self) -> int:
        """Every owner replays the writes dead seats missed (post-restart).

        Returns the number of operations re-delivered; afterwards
        ``coordinator.outstanding_write_routes`` is 0 when every seat
        with a ledger entry is back up.
        """
        return sum(
            owner.reprovision_dropped_writes()
            for owner in self._owners.values()
        )

    def repair_sweep(self, budget: int | None = None):
        """One anti-entropy pass over the staleness ledger (see
        :meth:`ClusterCoordinator.repair_sweep`). Heals stale seats
        from trusted same-slot replicas without involving any owner."""
        return self.coordinator.repair_sweep(budget)

    # -- ring membership --------------------------------------------------------

    def add_pod(self, name: str | None = None) -> RebalanceStats:
        """Join a fresh pod to the ring and rebalance onto it.

        Only the lists whose replica set changed move (slot-aligned
        share transfers from surviving owners); returns the movement
        stats. The new pod gets WALs/network endpoints matching the
        deployment's configuration.
        """
        name = name or f"pod{self._next_pod_ordinal}"
        pod = self._build_pod(len(self.pods), name, self.scheme.n)
        # WAL and transport wiring must precede the join so migrated
        # records are logged and the seats are reachable immediately.
        if self._wal_dir is not None:
            refuse_flat_wals(self._wal_dir)
            for slot in pod.slots:
                attach_wal_to_slot(slot, self._wal_dir / slot.server_id)
        for slot in pod.slots:
            self.registry.register(slot.server_id, slot_service(slot))
        stats = self.coordinator.add_pod(
            pod, self.mapping_table.num_lists
        )
        self._next_pod_ordinal += 1
        return stats

    def retire_pod(self, pod_index: int) -> RebalanceStats:
        """Drain one pod off the ring (graceful leave) with rebalancing.

        After the coordinator re-homes its lists, the pod is fully
        decommissioned: seat stores closed *and deleted* (the whole
        segment/snapshot directory), network endpoints released
        (so the name can be reused), and its share stores wiped — a
        drained pod must not keep its index fraction around, on disk
        any more than in memory. The store delete closes the
        durability story: the seats' lists now live (and are logged) on
        their new owners, so a retired seat's store is an orphan that
        would otherwise accumulate forever — and hand a future
        same-named seat a stale state to replay.
        """
        pods = self.coordinator.pods
        pod = pods[pod_index] if 0 <= pod_index < len(pods) else None
        stats = self.coordinator.retire_pod(
            pod_index, self.mapping_table.num_lists
        )
        assert pod is not None  # coordinator validated the index
        for slot in pod.slots:
            # Unhook persistence first: the wipe below must not log into
            # a store that is about to be destroyed (and a dead seat's
            # store handle is already closed).
            slot.server.detach_store()
            if slot.log is not None:
                slot.log.destroy()
                slot.log = None
                slot.wal_path = None
            # Wipe the drained seat's store — through the same admin
            # messages replication uses while the seat still serves; a
            # dead seat's store is wiped locally (its box is being
            # decommissioned either way) — then release its endpoint.
            if slot.alive and self.registry.has_endpoint(slot.server_id):
                for pl_id in range(self.mapping_table.num_lists):
                    self.registry.call(
                        "coordinator",
                        slot.server_id,
                        DropListRequest(pl_id=pl_id),
                    )
            else:
                for pl_id in range(self.mapping_table.num_lists):
                    slot.server.drop_posting_list(pl_id)
            if self.registry.has_endpoint(slot.server_id):
                self.registry.unregister(slot.server_id)
        return stats

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Shut the whole deployment down (idempotent).

        Reaps the hedged-read worker threads (the dispatcher-leak fix),
        closes the client transport and the embedded
        socket server when ``transport="async-socket"``, and closes every
        seat's WAL handle — after ``close()`` returns, no thread, TCP
        socket, or file handle of this deployment outlives it.
        """
        if self._closed:
            return
        self._closed = True
        self.coordinator.stop_repair_thread()
        self.dispatcher.shutdown()
        if self.transport is not self.registry:
            self.transport.close()
        if self._socket_server is not None:
            self._socket_server.close()
        self.registry.close()
        for pod in self.coordinator.pods:
            for slot in pod.slots:
                if slot.log is not None:
                    slot.log.close()

    def __enter__(self) -> "ClusterDeployment":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- observability ------------------------------------------------------------------

    @property
    def socket_server(self) -> AsyncSocketServer | None:
        """The embedded socket server (None for in-process transport)."""
        return self._socket_server

    # -- fleet statistics ---------------------------------------------------------------

    @property
    def pods(self) -> list[Pod]:
        return self.coordinator.pods

    def total_elements(self) -> int:
        """Posting elements stored across all live servers."""
        return self.coordinator.total_elements()

    def storage_bytes(self) -> int:
        """Total wire-encoded storage across the cluster."""
        return self.coordinator.storage_bytes()
