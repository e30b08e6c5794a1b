"""The sharded cluster facade — a multi-pod Zerber installation (§8).

:class:`ClusterDeployment` stands up ``num_pods`` fleets of n servers
and shards the merged posting lists across them by consistent hashing;
the paper's single fleet,
:class:`~repro.core.zerber_index.ZerberDeployment`, is the same shape
at one pod. It subclasses
:class:`~repro.core.installation.Installation`, the one enterprise
plane (scheme, auth service, group table, dictionary, mapping table,
snippet registry, principals, owners, one-shot search): there is still
one logical Zerber installation, it just no longer fits on one fleet.
This module adds what the shape needs on top — pods, the coordinator,
transports, caches, operations and statistics.

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
import time
from typing import Callable

from repro.cachetier import (
    CACHE_TIER_ENDPOINT,
    CacheTierService,
    CacheTierStore,
)
from repro.client.batching import BatchPolicy
from repro.client.searcher import SearchClient
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.membership import Membership, Pod
from repro.cluster.repair import AntiEntropy
from repro.core.mapping_table import MappingTable
from repro.core.posting import PackingSpec
from repro.core.installation import Installation
from repro.errors import ClusterError
from repro.observability.metrics import MetricsRegistry
from repro.observability.service import METRICS_ENDPOINT, MetricsService
from repro.protocol.async_transport import (
    AsyncSocketServer,
    AsyncSocketTransport,
)
from repro.protocol.transport import InProcessTransport, Transport
from repro.storage.engine import refuse_flat_wals


class ClusterDeployment(Installation, Membership, AntiEntropy):
    """A complete sharded Zerber installation: pods, placement, clients.

    Seat and pod lifecycle (kill, restart, join, retire) come from
    :class:`~repro.cluster.membership.Membership`, the repair sweep and
    its thread from :class:`~repro.cluster.repair.AntiEntropy`.
    """

    def __init__(
        self,
        mapping_table: MappingTable,
        num_pods: int = 3,
        k: int = 2,
        n: int = 3,
        packing: PackingSpec | None = None,
        use_network: bool = False,
        batch_policy: BatchPolicy | None = None,
        cache_entries: int = 0,
        wal_dir: str | pathlib.Path | None = None,
        replication_factor: int = 1,
        seed: int = 0x2E4B,
        transport: str = "in-process",
        socket_host: str = "127.0.0.1",
        socket_port: int = 0,
        socket_idle_timeout_s: float | None = None,
        storage: str = "segmented",
        anti_entropy_interval_s: float | None = None,
        admission_max_pending: int | None = None,
        cache_tier: str | None = None,
        cache_tier_entries: int = 4096,
        l1_entries: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        """Args:
        mapping_table, k, packing, use_network, batch_policy, seed:
            the enterprise plane, as
            :class:`~repro.core.installation.Installation`'s (a refused
            ``use_network`` is a :class:`~repro.errors.ClusterError`).
        num_pods: server fleets to shard the merged lists across.
        n: servers per pod (each pod tolerates n - k failures).
        cache_entries: must be 0, the default; anything else is a
            :class:`~repro.errors.ClusterError` naming ``l1_entries``,
            the searcher-local cache that replaced the coordinator's
            share cache. The keyword stays only because the benchmark
            scenario still passes ``cache_entries=0``, and goes once
            that scenario stops.
        wal_dir: when given, every server gets a durable seat store
            under this directory and :meth:`restart_server` recovers
            from it.
        replication_factor: pods each merged posting list lives on;
            >= 2 keeps the cluster byte-identical with a whole pod dead
            at the cost of R x storage and write fan-out.
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
        admission_max_pending: bound on concurrently dispatched
            requests at the embedded socket server; excess requests
            are shed with a retryable
            :class:`~repro.errors.OverloadedError` instead of queueing
            without limit. None (default) admits everything — the
            byte-level equivalence suites depend on an unbounded
            server, so shedding is strictly opt-in.
        cache_tier: ``"lru"`` embeds a shared L2 cache-tier service
            (least-recently-used eviction), registered as the ordinary
            protocol endpoint ``"cache-tier"`` — so it is reachable
            over every transport backend — and wired into the
            coordinator's write-path invalidation fan-out. None
            (default) runs without a cache tier; anything else is a
            :class:`~repro.errors.ClusterError`, raised before any pod
            is built. The keyword takes a name rather than a flag
            because the benchmark scenario passes ``"lru"``.
        cache_tier_entries: L2 cache-tier capacity in entries.
        l1_entries: default searcher-local L1 capacity (reconstructed
            postings); 0 (default) disables the L1. Per-searcher
            overrides via ``searcher(..., l1_entries=...)``.
        clock: the monotonic clock behind every coordinator latency
            surface (fetch timing, the read-latency EWMA, breakers).
            Inject a fake for deterministic latency tests — no sleeps.
        """
        if num_pods < 1:
            raise ClusterError(f"need at least one pod, got {num_pods}")
        if transport not in ("in-process", "async-socket"):
            raise ClusterError(
                f"unknown transport {transport!r}; expected "
                "'in-process' or 'async-socket'"
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
        if cache_tier not in (None, "lru"):
            raise ClusterError(
                f"unknown cache tier {cache_tier!r}; the only tier is "
                "'lru'"
            )
        super().__init__(
            mapping_table, k, n, packing, use_network, batch_policy, seed
        )
        self._wal_dir = (
            pathlib.Path(wal_dir) if wal_dir is not None else None
        )
        if self._wal_dir is not None:
            refuse_flat_wals(self._wal_dir)
        self._next_pod_ordinal = num_pods
        self._l1_entries = l1_entries
        self.registry = InProcessTransport()
        self.transport: Transport = self.registry
        self._socket_server: AsyncSocketServer | None = None
        self._closed = False
        pods: list[Pod] = []
        try:
            for pod_index in range(num_pods):
                pods.append(self._build_pod(pod_index, f"pod{pod_index}"))
            #: The deployment-wide observability registry. Every subsystem
            #: publishes into this one object — coordinator read/write
            #: paths, socket-server frame counters, cache tiers, breakers,
            #: admission, repair — and the ``metrics`` endpoint serves it
            #: over every transport backend.
            self.metrics = MetricsRegistry()
            self.coordinator = ClusterCoordinator(
                scheme=self.scheme,
                pods=pods,
                groups=self.groups,
                transport=self.registry,
                replication_factor=replication_factor,
                clock=clock,
                metrics=self.metrics,
            )
            self.coordinator.register_collectors(
                self.metrics, mapping_table.num_lists
            )
            self.metrics.add_collector(self._repair_series)
            self.metrics.add_collector(self._collect_deployment_metrics)
            self.registry.register(
                METRICS_ENDPOINT, MetricsService(self.metrics)
            )
            self.cache_tier_store: CacheTierStore | None = None
            if cache_tier is not None:
                # The L2 tier is just another endpoint on the shared
                # registry, so every transport backend reaches it through
                # the same dispatch path as the index servers.
                self.cache_tier_store = CacheTierStore(cache_tier_entries)
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
                self.coordinator.cache_tier_endpoint = CACHE_TIER_ENDPOINT
            if transport == "async-socket":
                self._socket_server = AsyncSocketServer(
                    self.registry,
                    host=socket_host,
                    port=socket_port,
                    idle_timeout_s=socket_idle_timeout_s,
                    max_pending=admission_max_pending,
                    metrics=self.metrics,
                )
                self.transport = AsyncSocketTransport(
                    self._socket_server.address
                )
        except BaseException:
            # Nothing the constructor started may outlive it: no caller
            # holds an object to close() yet.
            self._shut(pods)
            raise
        if anti_entropy_interval_s is not None:
            self.start_repair_thread(interval_s=anti_entropy_interval_s)

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
            for key, value in self.cache_tier_store.stats_snapshot().items():
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

    # -- clients ---------------------------------------------------------------------

    def searcher(self, user_id: str, **kwargs) -> SearchClient:
        """A fresh search client for a principal."""
        if self._closed:
            raise ClusterError("the deployment is closed")
        token = self.enroll_user(user_id)
        kwargs.setdefault("transport", self.transport)
        if self.cache_tier_store is not None:
            kwargs.setdefault("cache_tier", CACHE_TIER_ENDPOINT)
        kwargs.setdefault("l1_entries", self._l1_entries)
        return SearchClient(
            user_id=user_id,
            token=token,
            coordinator=self.coordinator,
            mapping_table=self.mapping_table,
            dictionary=self.dictionary,
            codec=self.codec,
            snippet_service=self.snippets,
            **kwargs,
        )

    # -- operations --------------------------------------------------------------------

    def reprovision_dropped_writes(self) -> int:
        """Every owner replays the writes dead seats missed (post-restart).

        Returns the number of operations re-delivered; afterwards
        ``coordinator.ledger.outstanding`` is 0 when every seat
        with a ledger entry is back up.
        """
        return sum(
            owner.reprovision_dropped_writes()
            for owner in self._owners.values()
        )

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Shut the whole deployment down (idempotent).

        Stops the repair thread, closes the client transport and the
        embedded socket server when ``transport="async-socket"``, closes
        every seat's WAL handle (its files stay), and empties the seats'
        lists, snapshots and logs, the registry and every L1 — after
        ``close()`` returns, no thread, TCP socket, file handle, or
        list in memory of this deployment outlives it, and a search is
        a typed error.
        """
        if not self._closed:
            self._shut(self.pods)
            self.coordinator.clear_l1s()

    def _shut(self, pods: list[Pod]) -> None:
        self._closed = True
        self.stop_repair_thread()
        if self.transport is not self.registry:
            self.transport.close()
        if self._socket_server is not None:
            self._socket_server.close()
        self.registry.close()
        for pod in pods:
            for slot in pod.slots:
                if slot.log is not None:
                    slot.log.close()
                slot.server.release()

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
        return sum(
            slot.server.num_elements
            for pod in self.pods
            for slot in pod.live_slots()
        )

    def storage_bytes(self) -> int:
        """Wire-encoded storage across the cluster (n x per-pod shard)."""
        return sum(
            slot.server.storage_bytes()
            for pod in self.pods
            for slot in pod.live_slots()
        )
