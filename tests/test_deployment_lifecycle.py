"""Deployment lifecycle: ``close()``, context managers, and leak fixes.

The dispatcher-leak regression: ``ClusterDeployment`` used to spin up
worker threads for hedged reads (and, with the socket backend,
server-loop and client-reader threads and WAL handles) that nothing
ever shut down. The worker pool is gone — hedged backups ride the
socket's pipelined round — so a hedged search must start no thread
beyond the server loop and the client reader, and ``close()`` — and
the ``with`` form — must reap those, idempotently. Plus the
unregistered-endpoint race: a seat leaving the transport mid-query
must surface as a typed, *named* failure that the failover ladder
absorbs.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.core.mapping_table import MappingTable
from repro.core.zerber_index import ZerberDeployment
from repro.corpus.document import Document
from repro.errors import (
    ClusterError,
    StorageError,
    TransportError,
    UnknownEndpointError,
)


def _documents(count=6):
    return [
        Document(
            doc_id=i,
            host=f"peer{i % 2}",
            group_id=0,
            term_counts={"alpha": 2, "beta": 1, f"w{i}": 1},
            length=4,
            text=f"alpha alpha beta w{i}",
        )
        for i in range(count)
    ]


def _cluster(**kwargs):
    kwargs.setdefault("num_pods", 2)
    kwargs.setdefault("k", 2)
    kwargs.setdefault("n", 3)
    kwargs.setdefault("replication_factor", 2)
    kwargs.setdefault("seed", 77)
    cluster = ClusterDeployment(
        MappingTable({}, num_lists=12),
        batch_policy=BatchPolicy(min_documents=1),
        **kwargs,
    )
    cluster.create_group(0, coordinator="alice")
    for document in _documents():
        cluster.share_document("alice", document)
    cluster.flush_all()
    return cluster


def _socket_threads_since(before: set[threading.Thread]) -> list:
    """Live socket-stack threads (server loop, client reader) started
    after ``before`` was taken."""
    return [
        t for t in threading.enumerate()
        if t not in before
        and t.is_alive()
        and t.name.startswith("zerber-async-")
    ]


class TestDispatcherLeak:
    def test_a_hedged_socket_search_starts_no_other_thread(self):
        """The thread census of a hedged read: backups leave from the
        query's own thread, so only the server loop and the client
        reader exist beside it, and neither outlives ``close()``."""
        before = set(threading.enumerate())
        cluster = _cluster(transport="async-socket")
        # R=2 gives every pod a backup; a zero delay sends all of them.
        searcher = cluster.searcher(
            "alice", use_cache=False, hedge_reads=True, hedge_delay_s=0.0
        )
        searcher.search(["alpha", "beta", "w0", "w3"], top_k=5,
                        fetch_snippets=False)
        assert searcher.last_cluster_diagnostics.hedged_fetches > 0
        started = [t for t in threading.enumerate() if t not in before]
        assert sorted(t.name for t in started) == [
            "zerber-async-client-reader",
            "zerber-async-server-loop",
        ]
        cluster.close()
        assert _socket_threads_since(before) == []

    def test_no_socket_threads_outlive_a_closed_deployment(self):
        before = set(threading.enumerate())
        cluster = _cluster(transport="async-socket")
        cluster.search("alice", ["alpha", "beta"], top_k=5)
        assert len(_socket_threads_since(before)) == 2  # loop + reader
        cluster.close()
        assert _socket_threads_since(before) == []

    def test_close_is_idempotent_and_with_block_closes(self):
        before = set(threading.enumerate())
        with _cluster(transport="async-socket") as cluster:
            assert cluster.search("alice", ["alpha"], top_k=3)
        assert _socket_threads_since(before) == []
        cluster.close()  # second close is a no-op
        cluster.close()

    def test_close_closes_wal_handles(self, tmp_path):
        cluster = _cluster(wal_dir=tmp_path, replication_factor=1)
        logs = [
            slot.log
            for pod in cluster.pods
            for slot in pod.slots
            if slot.log is not None
        ]
        assert logs
        cluster.close()
        for log in logs:
            with pytest.raises(StorageError, match="store is closed"):
                log.append_inserts([0], [1], [0], [1])

    def test_a_failed_bind_stops_what_the_constructor_started(
        self, tmp_path
    ):
        """Regression: the repair thread and the seat stores came up
        before the socket listener bound, so a taken port raised with
        the thread still running and nothing left to ``close()``."""
        taken = socket.socket()
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        with taken:
            with pytest.raises(TransportError):
                ClusterDeployment(
                    MappingTable({}, num_lists=12),
                    wal_dir=tmp_path,
                    anti_entropy_interval_s=0.05,
                    transport="async-socket",
                    socket_port=taken.getsockname()[1],
                )
        assert not [
            t for t in threading.enumerate()
            if t.name == "repro-anti-entropy" and t.is_alive()
        ]
        with _cluster(wal_dir=tmp_path) as cluster:
            assert cluster.search("alice", ["alpha"], top_k=3)

    def test_single_fleet_deployment_context_manager(self):
        """The single fleet is the cluster shape at one pod: a ``with``
        block works, starts no thread in process, and the pod count and
        replication are fixed."""
        before = set(threading.enumerate())
        with ZerberDeployment(
            MappingTable({}, num_lists=4),
            batch_policy=BatchPolicy(min_documents=1),
            seed=5,
        ) as deployment:
            deployment.create_group(0, coordinator="alice")
            deployment.share_document("alice", _documents(1)[0])
            assert deployment.search("alice", ["alpha"], top_k=3)
            assert deployment.transport is deployment.registry
        assert set(threading.enumerate()) <= before
        deployment.close()  # idempotent
        for fixed in ("num_pods", "replication_factor"):
            with pytest.raises(TypeError, match=fixed):
                ZerberDeployment(MappingTable({}, num_lists=4), **{fixed: 2})


class TestTransportChoice:
    @pytest.mark.parametrize("transport", ["socket", "tcp", ""])
    def test_unknown_transport_is_a_cluster_error(self, transport):
        """Only "in-process" and "async-socket" exist; the retired
        threaded "socket" backend is refused like any unknown name,
        before a pod, thread or socket is built."""
        before = set(threading.enumerate())
        with pytest.raises(ClusterError) as excinfo:
            ClusterDeployment(
                MappingTable({}, num_lists=4), transport=transport
            )
        message = str(excinfo.value)
        assert "'in-process'" in message and "'async-socket'" in message
        assert set(threading.enumerate()) <= before


class TestUnregisteredEndpointRace:
    def test_searcher_fails_over_past_an_unregistered_seat(self):
        """The kill-pod race: a routing plan can still name a seat whose
        endpoint a concurrent retirement already unregistered. The call
        raises a typed UnknownEndpointError (not a KeyError), which the
        ladder counts as an ordinary failover."""
        with _cluster() as cluster:
            healthy = cluster.search("alice", ["alpha", "beta"], top_k=5)
            # Replica choice between two equally healthy pods keys on
            # wall-clock latency EWMAs, so which pod serves the next
            # read is machine-dependent. Unregister the first seat of
            # *every* pod: whichever replica the plan picks, it names
            # an unregistered endpoint.
            for pod in cluster.pods:
                cluster.registry.unregister(pod.slots[0].server_id)
            searcher = cluster.searcher("alice", use_cache=False)
            results = searcher.search(
                ["alpha", "beta"], top_k=5, fetch_snippets=False
            )
            assert results == cluster.searcher(
                "alice", use_cache=False
            ).search(["alpha", "beta"], top_k=5, fetch_snippets=False)
            assert [r.doc_id for r in results] == [
                r.doc_id for r in healthy
            ]
            assert searcher.last_cluster_diagnostics.failovers >= 1

    def test_unknown_endpoint_error_names_the_seat(self):
        with _cluster() as cluster:
            from repro.protocol import ServerStatusRequest

            victim = cluster.pods[0].slots[0].server_id
            cluster.registry.unregister(victim)
            with pytest.raises(UnknownEndpointError) as excinfo:
                cluster.registry.call(
                    "alice", victim, ServerStatusRequest()
                )
            assert excinfo.value.endpoint == victim
            assert victim in str(excinfo.value)
