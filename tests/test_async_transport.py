"""The asyncio serving stack and the socket-layer fixes.

Five contracts live here:

- :class:`AsyncSocketServer` / :class:`AsyncSocketTransport` honour the
  Transport semantics — typed errors, read retry, write fail-fast,
  deterministic close — while multiplexing many in-flight requests
  over one connection;
- ``call_many`` answers a batch in call order with each failure in its
  call's place, and a cluster query's fetch round, an owner's flush and
  a document's deletes each leave in one write; a hedged batch sends
  its backups in at most one more write and takes each call's first
  response (stalls come from the registry's ``fault_plan`` seam);
- the server hangs up on what it cannot frame (a frame without a
  correlation id) and on silent clients, without dispatching anything
  and without disturbing its other connections;
- ``close()`` racing an in-flight call fails it with the typed
  "transport is closed" message;
- the request and response frames are pinned byte for byte.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import Counter

import pytest

from helpers import make_cluster, make_documents, make_single_fleet
from repro.corpus.document import Document
from repro.errors import (
    AccessDeniedError,
    DeadlineExceededError,
    ProtocolError,
    TransportError,
    UnknownEndpointError,
)
from repro.cluster import ServerSlot
from repro.protocol import (
    AsyncSocketServer,
    AsyncSocketTransport,
    EndpointsRequest,
    FetchListsRequest,
    InProcessTransport,
    IndexServerService,
    InsertBatchRequest,
    ServerStatusRequest,
)
from repro.protocol.transport import (
    _LEN,
    CORRELATION_FLAG,
    _pack_request,
    frame_bytes,
)
from repro.observability.metrics import SampleView
from repro.resilience import FaultPlan, deadline_scope
from repro.server.auth import AuthService, AuthToken
from repro.server.groups import GroupDirectory
from repro.server.index_server import IndexServer


@pytest.fixture()
def world():
    auth = AuthService()
    groups = GroupDirectory()
    credential = auth.register_user("alice")
    token = auth.issue_token("alice", credential)
    groups.create_group(0, "alice")
    server = IndexServer(
        server_id="s0", x_coordinate=1, auth=auth, groups=groups
    )
    return auth, groups, token, server


def _service(server):
    """A bare server's endpoint, behind an always-alive seat."""
    return IndexServerService(ServerSlot(0, 0, server))


def _registry(server):
    registry = InProcessTransport()
    registry.register(server.server_id, _service(server))
    return registry


class _SlowService:
    """Wrap a service with a fixed per-request delay (drain/race tests)."""

    def __init__(self, inner, delay_s: float) -> None:
        self._inner = inner
        self._delay_s = delay_s

    def handle(self, request):
        time.sleep(self._delay_s)
        return self._inner.handle(request)


@pytest.fixture()
def served(world):
    _auth, _groups, token, server = world
    registry = _registry(server)
    with AsyncSocketServer(registry) as srv:
        with AsyncSocketTransport(srv.address) as transport:
            yield token, server, srv, transport


class TestAsyncRoundTrips:
    def test_insert_then_fetch_over_tcp(self, served):
        token, _server, _srv, transport = served
        columns = [1], [7], [0], [99]
        ack = transport.call(
            "alice", "s0", InsertBatchRequest(token, *columns)
        )
        assert ack.count == 1
        response = transport.call(
            "alice", "s0", FetchListsRequest(token=token, pl_ids=(1,))
        )
        assert response.lists[0].records[0].share_y == 99

    def test_server_side_errors_reraise_same_class(self, served):
        token, *_rest, transport = served
        with pytest.raises(AccessDeniedError):
            transport.call(
                "alice",
                "s0",
                InsertBatchRequest(
                    token=token,
                    pl_ids=[1],
                    element_ids=[1],
                    group_ids=[7],
                    share_ys=[1],
                ),
            )

    def test_unknown_endpoint_over_tcp(self, served):
        *_rest, transport = served
        with pytest.raises(UnknownEndpointError):
            transport.call("alice", "ghost", ServerStatusRequest())

    def test_endpoint_discovery(self, served):
        *_rest, transport = served
        assert transport.endpoints() == ["s0"]
        assert transport.has_endpoint("s0")
        assert not transport.has_endpoint("ghost")

    def test_connection_refused_is_transport_error(self):
        transport = AsyncSocketTransport(("127.0.0.1", 1))
        with pytest.raises(TransportError):
            transport.call("alice", "s0", EndpointsRequest())

    def test_many_threads_multiplex_one_connection(self, served):
        token, _server, srv, transport = served
        rows = range(32)
        columns = [i % 4 for i in rows], list(rows), [0] * 32, list(rows)
        transport.call("alice", "s0", InsertBatchRequest(token, *columns))
        errors: list[Exception] = []

        def fetch(i: int) -> None:
            try:
                response = transport.call(
                    "alice",
                    "s0",
                    FetchListsRequest(token=token, pl_ids=(i % 4,)),
                )
                assert response.lists[0].pl_id == i % 4
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=fetch, args=(i,)) for i in range(24)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Every thread shared the single multiplexed connection.
        assert srv.connection_count == 1


class TestCallMany:
    def test_results_in_call_order_with_failures_in_place(self, served):
        token, *_rest, transport = served
        sent, done = [], []
        results = transport.call_many(
            "alice",
            [
                ("s0", FetchListsRequest(token=token, pl_ids=(2,))),
                ("ghost", ServerStatusRequest()),
                ("s0", ServerStatusRequest()),
            ],
            on_sent=sent.append,
            on_done=done.append,
        )
        assert results[0].lists[0].pl_id == 2
        assert isinstance(results[1], UnknownEndpointError)
        assert results[2].server_id == "s0"
        assert sent == [0, 1, 2]
        assert sorted(done) == [0, 1, 2]

    def test_a_lost_connection_retries_each_read(self, served):
        token, *_rest, transport = served
        assert transport.endpoints() == ["s0"]
        transport._sock.close()  # break the shared connection under it
        results = transport.call_many(
            "alice",
            [("s0", FetchListsRequest(token=token, pl_ids=(n,))) for n in (1, 2)],
        )
        assert [r.lists[0].pl_id for r in results] == [1, 2]

    def test_after_close_every_call_fails_typed(self, served):
        *_rest, transport = served
        transport.close()
        results = transport.call_many(
            "alice", [("s0", ServerStatusRequest())] * 2
        )
        assert all(
            isinstance(r, TransportError) and "closed" in str(r)
            for r in results
        )


@pytest.fixture()
def writes(monkeypatch) -> list[int]:
    """The byte length of every ``_send_frame`` a socket client makes:
    one entry per write."""
    sizes: list[int] = []
    send_frame = AsyncSocketTransport._send_frame

    def counting(self, sock, wstate, frame):
        sizes.append(len(frame))
        return send_frame(self, sock, wstate, frame)

    monkeypatch.setattr(AsyncSocketTransport, "_send_frame", counting)
    return sizes


def _frames(cluster) -> float:
    """The server's frame counter, from a fresh metrics dump."""
    view = SampleView(cluster.metrics.samples())
    return view.value(
        "zerber_server_frames_total", transport="async-socket"
    ) or 0


class TestPipelinedFetchRound:
    def test_a_fetch_round_is_one_write(self, writes):
        """A healthy uncached query over two pods sends every seat
        lookup of its fetch round in one write, and the server counts
        exactly the lookup messages the diagnostics report."""
        documents = make_documents()
        vocabulary = sorted({t for d in documents for t in d.term_counts})
        with make_cluster(documents, transport="async-socket") as cluster:
            searcher = cluster.searcher("owner0", use_cache=False)
            two_pod_rounds = 0
            for start in range(0, len(vocabulary), 4):
                before = _frames(cluster)
                writes.clear()
                searcher.search(
                    vocabulary[start : start + 4], fetch_snippets=False
                )
                diag = searcher.last_cluster_diagnostics
                two_pod_rounds += diag.pods_contacted == 2
                assert len(writes) == 1
                assert _frames(cluster) - before == diag.lookup_messages
            # The claim is about rounds that span pods.
            assert two_pod_rounds >= 2

    def test_a_hedged_fetch_round_is_at_most_two_writes(self, writes):
        """With hedging on (R=2, zero delay: every backup leaves), a
        healthy query sends its primaries in one write and all their
        backups in one more."""
        documents = make_documents()
        vocabulary = sorted({t for d in documents for t in d.term_counts})
        with make_cluster(
            documents, replication_factor=2, transport="async-socket"
        ) as cluster:
            searcher = cluster.searcher(
                "owner0", use_cache=False, hedge_after_s=0.0
            )
            for start in range(0, len(vocabulary), 4):
                writes.clear()
                searcher.search(
                    vocabulary[start : start + 4], fetch_snippets=False
                )
                assert searcher.last_cluster_diagnostics.hedged_fetches > 0
                assert len(writes) == 2

    def test_a_dead_seats_error_answer_is_a_lookup_message(self):
        """A lookup a dead seat answers with an error was still sent:
        over the socket ``lookup_messages`` grows exactly as the
        server's frame counter does, and in process the same query
        reports the same count."""
        documents = make_documents()
        vocabulary = sorted({t for d in documents for t in d.term_counts})
        queries = [
            vocabulary[start : start + 3]
            for start in range(0, len(vocabulary), 3)
        ]
        counts: dict[str, list[int]] = {}
        for transport in ("async-socket", "in-process"):
            with make_cluster(
                documents, num_pods=2, k=2, n=4, transport=transport
            ) as cluster:
                cluster.kill_server(0, 0)
                searcher = cluster.searcher("owner0", use_cache=False)
                failovers = 0
                for terms in queries:
                    before = _frames(cluster)
                    searcher.search(terms, fetch_snippets=False)
                    diag = searcher.last_cluster_diagnostics
                    failovers += diag.failovers
                    counts.setdefault(transport, []).append(
                        diag.lookup_messages
                    )
                    if transport == "async-socket":
                        grown = _frames(cluster) - before
                        assert grown == diag.lookup_messages
                # The claim is about queries that met the dead seat.
                assert failovers > 0
        assert counts["in-process"] == counts["async-socket"]

    def test_failover_replacements_leave_in_one_more_write(self, writes):
        """A first-choice seat dead in each of two pods: the round's
        first write asks both, and both replacements leave together in
        a second write (asking them one at a time would be three)."""
        documents = make_documents()
        vocabulary = sorted({t for d in documents for t in d.term_counts})
        with make_cluster(documents, transport="async-socket") as cluster:
            cluster.kill_server(0, 0)
            cluster.kill_server(1, 0)
            searcher = cluster.searcher("owner0", use_cache=False)
            two_pod_rounds = 0
            for start in range(0, len(vocabulary), 4):
                writes.clear()
                searcher.search(
                    vocabulary[start : start + 4], fetch_snippets=False
                )
                diag = searcher.last_cluster_diagnostics
                if diag.pods_contacted < 2:
                    continue
                two_pod_rounds += 1
                assert len(writes) == 2
                assert (diag.failovers, diag.lookup_messages) == (2, 6)
            assert two_pod_rounds >= 2

    def test_fetch_postings_never_calls_one_seat_at_a_time(self):
        """Failover replacements, escalations and hedged lookups all
        leave through ``call_many``: ``Transport.call`` is never used by
        a query, and every query still equals the single fleet."""
        documents = make_documents()
        vocabulary = sorted({t for d in documents for t in d.term_counts})
        queries = [
            vocabulary[start : start + 4]
            for start in range(0, len(vocabulary), 4)
        ]
        single = make_single_fleet(documents, k=2, n=4)
        oracle = single.searcher("owner0")

        def run(cluster, escalate=False, **searcher_kwargs):
            called = []

            def call(*args, **kwargs):
                called.append(args)
                return type(cluster.transport).call(
                    cluster.transport, *args, **kwargs
                )

            cluster.transport.call = call
            searcher = cluster.searcher(
                "owner0", use_cache=False, **searcher_kwargs
            )
            totals = Counter()
            for terms in queries:
                if escalate:
                    for term in terms:
                        pl_id = cluster.mapping_table.lookup(term)
                        pod = cluster.coordinator.pods_of(pl_id)[0]
                        pod.slots[0].server.drop_posting_list(pl_id)
                assert searcher.search(
                    terms, fetch_snippets=False
                ) == oracle.search(terms, fetch_snippets=False)
                totals.update(vars(searcher.last_cluster_diagnostics))
            assert called == []
            return totals

        with make_cluster(documents, transport="async-socket") as cluster:
            for pod in cluster.pods:
                cluster.kill_server(pod.index, 0)
            assert run(cluster)["failovers"] > 0
        with make_cluster(documents, transport="async-socket") as cluster:
            assert run(cluster, escalate=True)["escalations"] > 0
        with make_cluster(
            documents, replication_factor=2, transport="async-socket"
        ) as cluster:
            cluster.kill_server(0, 0)
            totals = run(cluster, hedge_after_s=0.0)
            assert totals["hedged_fetches"] > 0


class TestPipelinedWriteRound:
    """An owner's write round is one write too: a flushed insert batch,
    and a document's deletes, reach every seat in one ``_send_frame``,
    and the server counts exactly one frame per seat."""

    @pytest.fixture()
    def counted(self, writes):
        documents = make_documents()
        with make_cluster(documents, transport="async-socket") as cluster:
            yield cluster, writes

    @staticmethod
    def seats_of(cluster, terms) -> set[str]:
        coordinator = cluster.coordinator
        pods = {
            pod
            for term in terms
            for pod in coordinator.pods_of(cluster.mapping_table.lookup(term))
        }
        # The claim is about rounds that span pods.
        assert len(pods) == 2
        return {slot.server_id for pod in pods for slot in pod.slots}

    def test_a_flush_is_one_write(self, counted):
        cluster, writes = counted
        owner = cluster.owner("owner0")
        terms = [f"w{i}" for i in range(10)]
        extra = Document(
            doc_id=920, host="host0", group_id=0,
            term_counts=dict.fromkeys(terms, 1), length=len(terms),
        )
        before = _frames(cluster)
        writes.clear()
        owner.share_document(extra)
        owner.flush_updates()
        assert len(writes) == 1
        seats = self.seats_of(cluster, terms)
        assert _frames(cluster) - before == len(seats)

    def test_a_delete_is_one_write(self, counted):
        cluster, writes = counted
        owner = cluster.owner("owner0")
        target = max(
            (d for d in make_documents() if d.group_id == 0),
            key=lambda d: len(d.term_counts),
        )
        seats = self.seats_of(cluster, target.term_counts)
        before = _frames(cluster)
        writes.clear()
        assert owner.delete_document(target.doc_id) == len(target.term_counts)
        assert len(writes) == 1
        assert _frames(cluster) - before == len(seats)


@pytest.fixture()
def twin_seats(world, writes):
    """Two seats holding the same rows behind one server, their
    registry (the fault seam), and a counter of the client's writes."""
    auth, groups, token, _server = world
    registry = InProcessTransport()
    columns = [1, 2], [7, 8], [0, 0], [99, 98]
    for name, x in (("s0", 1), ("s1", 2)):
        seat = IndexServer(server_id=name, x_coordinate=x, auth=auth,
                           groups=groups)
        seat.insert_batch(token, *columns)
        registry.register(name, _service(seat))
    with AsyncSocketServer(registry) as srv:
        with AsyncSocketTransport(srv.address) as transport:
            transport.endpoints()  # connect before counting writes
            writes.clear()
            yield token, registry, srv, transport, writes


def _stall(registry, seat, stall_s):
    """Hold back every answer of ``seat`` by ``stall_s`` (server-side)."""
    registry.fault_plan = FaultPlan(
        seed=1, stall_rate=1.0, stall_s=stall_s, endpoints=[seat]
    )


def _fetch(token, pl_id):
    return FetchListsRequest(token=token, pl_ids=(pl_id,))


class TestHedgedCallMany:
    """A batch's backups ride the same connection and completion queue:
    they leave only for calls unsettled at the hedge delay, all in one
    more write, and each slot takes its first response."""

    def test_a_backup_leaves_only_for_calls_unsettled_at_the_delay(
        self, twin_seats
    ):
        token, registry, _srv, transport, writes = twin_seats
        _stall(registry, "s0", 1.0)
        sent, done = [], []
        results = transport.call_many(
            "alice",
            [("s0", _fetch(token, 1)), ("s1", _fetch(token, 2))],
            on_sent=sent.append,
            on_done=done.append,
            backups=[("s1", _fetch(token, 1)), ("s0", _fetch(token, 2))],
            hedge_after_s=0.05,
        )
        assert [r.lists[0].pl_id for r in results] == [1, 2]
        # Call 1 answered before the delay, so only call 0's backup
        # (index 2 + 0) left, and it answered first.
        assert sent == [0, 1, 2]
        assert sorted(done) == [1, 2]
        assert len(writes) == 2

    def test_the_first_response_wins(self, twin_seats):
        token, registry, _srv, transport, _writes = twin_seats
        _stall(registry, "s0", 1.0)
        done = []
        started = time.monotonic()
        (result,) = transport.call_many(
            "alice",
            [("s0", _fetch(token, 1))],
            on_done=done.append,
            backups=[("s1", _fetch(token, 1))],
            hedge_after_s=0.01,
        )
        assert time.monotonic() - started < 0.5
        assert done == [1]
        assert result.lists[0].element_ids == [7]

    def test_a_settled_batch_sends_no_backup(self, twin_seats):
        token, _, _srv, transport, writes = twin_seats
        sent = []
        results = transport.call_many(
            "alice",
            [("s0", _fetch(token, 1)), ("s1", _fetch(token, 2))],
            on_sent=sent.append,
            backups=[("s1", _fetch(token, 1)), ("s0", _fetch(token, 2))],
            hedge_after_s=5.0,
        )
        assert [r.lists[0].pl_id for r in results] == [1, 2]
        assert sent == [0, 1]
        assert len(writes) == 1

    def test_a_zero_delay_sends_every_backup_behind_the_calls(
        self, twin_seats
    ):
        """Pinned: a zero delay fires before the collect loop takes any
        answer, so every backup leaves however fast the calls answer."""
        token, _, _srv, transport, writes = twin_seats
        for _ in range(20):
            writes.clear()
            sent = []
            transport.call_many(
                "alice",
                [("s0", _fetch(token, 1)), ("s1", _fetch(token, 2))],
                on_sent=sent.append,
                backups=[("s1", _fetch(token, 1)), ("s0", _fetch(token, 2))],
                hedge_after_s=0.0,
            )
            assert sent == [0, 1, 2, 3]
            assert len(writes) == 2

    def test_an_error_waits_for_its_backup(self, twin_seats):
        token, registry, _srv, transport, _writes = twin_seats
        _stall(registry, "s0", 0.05)
        done = []
        (result,) = transport.call_many(
            "alice",
            [("ghost", _fetch(token, 1))],
            on_done=done.append,
            backups=[("s0", _fetch(token, 1))],
            hedge_after_s=0.0,
        )
        assert result.lists[0].pl_id == 1
        assert done == [1]

    def test_a_slot_fails_typed_only_when_both_legs_fail(self, twin_seats):
        token, _, _srv, transport, _writes = twin_seats
        (result,) = transport.call_many(
            "alice",
            [("ghost", _fetch(token, 1))],
            backups=[("phantom", _fetch(token, 1))],
            hedge_after_s=0.0,
        )
        assert isinstance(result, UnknownEndpointError)

    def test_a_late_losers_frame_is_dropped(self, twin_seats):
        token, registry, srv, transport, _writes = twin_seats
        _stall(registry, "s0", 0.1)
        (result,) = transport.call_many(
            "alice",
            [("s0", _fetch(token, 1))],
            backups=[("s1", _fetch(token, 1))],
            hedge_after_s=0.01,
        )
        assert result.lists[0].pl_id == 1
        assert transport._pending == {}
        time.sleep(0.2)  # the stalled primary's answer arrives now
        assert transport._pending == {}
        registry.fault_plan = None
        assert transport.call("alice", "s1", _fetch(token, 2)).lists
        assert srv.connection_count == 1


class TestServerFaultSeam:
    def test_a_stalled_seats_answer_does_not_hold_up_its_neighbour(
        self, twin_seats
    ):
        """The seam delays only the targeted frame's answer: on one
        connection, in one write, the other seat answers on time."""
        token, registry, srv, transport, writes = twin_seats
        _stall(registry, "s0", 0.3)
        arrived = {}
        started = time.monotonic()
        results = transport.call_many(
            "alice",
            [("s0", _fetch(token, 1)), ("s1", _fetch(token, 2))],
            on_done=lambda i: arrived.setdefault(
                i, time.monotonic() - started
            ),
        )
        assert [r.lists[0].pl_id for r in results] == [1, 2]
        assert arrived[1] < 0.15 < 0.3 <= arrived[0]
        assert len(writes) == 1
        assert srv.connection_count == 1
        assert registry.fault_plan.injected["stall"] == 1

    def test_a_reset_retries_the_read_and_fails_the_write(self, twin_seats):
        """A reset aborts the connection before dispatch: both calls in
        flight on it fail, the read resumes on a fresh connection, the
        write (never applied) fails fast."""
        token, registry, _srv, transport, _writes = twin_seats
        registry.fault_plan = FaultPlan(
            seed=1, reset_rate=1.0, endpoints=["s0"], max_faults=1
        )
        insert = InsertBatchRequest(token, [3], [9], [0], [97])
        read, write = transport.call_many(
            "alice", [("s0", _fetch(token, 1)), ("s1", insert)]
        )
        assert read.lists[0].element_ids == [7]
        assert isinstance(write, TransportError)
        assert write.retryable is False
        status = transport.call("alice", "s1", ServerStatusRequest())
        assert status.num_elements == 2
        assert transport._pending == {}

    def test_a_dropped_frame_fails_at_the_deadline(self, twin_seats):
        token, registry, _srv, transport, _writes = twin_seats
        registry.fault_plan = FaultPlan(
            seed=1, drop_rate=1.0, endpoints=["s0"]
        )
        with deadline_scope(budget_s=0.1):
            with pytest.raises(DeadlineExceededError):
                transport.call("alice", "s0", _fetch(token, 1))
        assert transport._pending == {}
        assert transport.call("alice", "s1", _fetch(token, 1)).lists

    def test_a_duplicated_answer_is_dropped_by_correlation_id(
        self, twin_seats
    ):
        token, registry, srv, transport, writes = twin_seats
        registry.fault_plan = FaultPlan(
            seed=1, duplicate_rate=1.0, endpoints=["s0"]
        )
        for pl_id in (1, 2, 1):
            response = transport.call("alice", "s0", _fetch(token, pl_id))
            assert response.lists[0].pl_id == pl_id
        assert registry.fault_plan.injected["duplicate"] == 3
        assert transport._pending == {}
        assert srv.connection_count == 1


class TestAsyncFailureSemantics:
    def test_reads_retry_on_a_broken_connection(self, served):
        token, *_rest, transport = served
        assert transport.endpoints() == ["s0"]
        transport._sock.close()  # break the shared connection under it
        response = transport.call(
            "alice", "s0", FetchListsRequest(token=token, pl_ids=(1,))
        )
        assert response.lists[0].pl_id == 1

    def test_writes_never_retry_on_a_broken_connection(self, world):
        """The seam resets the connection on the insert's own frame,
        once. A lost write answer fails fast: a retry would pass once
        the fault is spent, and land."""
        _auth, _groups, token, server = world
        registry = _registry(server)
        registry.fault_plan = FaultPlan(
            seed=0, reset_rate=1.0, endpoints={"s0"}, max_faults=1
        )
        with AsyncSocketServer(registry) as srv:
            with AsyncSocketTransport(srv.address) as transport:
                assert transport.endpoints() == ["s0"]
                request = InsertBatchRequest(
                    token=token,
                    pl_ids=[1],
                    element_ids=[5],
                    group_ids=[0],
                    share_ys=[9],
                )
                with pytest.raises(TransportError) as caught:
                    transport.call("alice", "s0", request)
                assert caught.value.retryable is False
                assert registry.fault_plan.injected["reset"] == 1
                assert server.num_elements == 0

    def test_closed_server_fails_typed(self, world):
        *_rest, server = world
        registry = _registry(server)
        srv = AsyncSocketServer(registry)
        transport = AsyncSocketTransport(srv.address)
        assert transport.endpoints() == ["s0"]
        srv.close()
        with pytest.raises(TransportError):
            transport.call("alice", "s0", ServerStatusRequest())
        transport.close()

    def test_close_races_in_flight_call_deterministically(self, world):
        """close() while a call waits on its response: the caller gets
        the typed "transport is closed" error, never a retry or a bare
        connection-reset."""
        _auth, _groups, _token, server = world
        registry = InProcessTransport()
        registry.register(
            "slow", _SlowService(_service(server), 0.6)
        )
        with AsyncSocketServer(registry) as srv:
            transport = AsyncSocketTransport(srv.address)
            outcome: list[Exception] = []

            def call() -> None:
                try:
                    transport.call("alice", "slow", ServerStatusRequest())
                except Exception as exc:
                    outcome.append(exc)

            thread = threading.Thread(target=call)
            thread.start()
            time.sleep(0.15)  # let the request reach the wire
            transport.close()
            thread.join(timeout=5)
            assert len(outcome) == 1
            assert isinstance(outcome[0], TransportError)
            assert "closed" in str(outcome[0])

    def test_calls_after_close_fail_typed(self, served):
        *_rest, transport = served
        transport.close()
        with pytest.raises(TransportError, match="closed"):
            transport.call("alice", "s0", ServerStatusRequest())


class TestAsyncServerLifecycle:
    def test_idle_timeout_reaps_silent_connection(self, world):
        *_rest, server = world
        registry = _registry(server)
        with AsyncSocketServer(registry, idle_timeout_s=0.2) as srv:
            with AsyncSocketTransport(srv.address) as transport:
                assert transport.endpoints() == ["s0"]
                assert srv.connection_count == 1
                deadline = time.time() + 5
                while srv.connection_count and time.time() < deadline:
                    time.sleep(0.05)
                assert srv.connection_count == 0
                # The hang-up is invisible to the client: the next call
                # simply opens a fresh connection — including a write,
                # because the reader thread saw the EOF and dropped the
                # dead socket before anything tried to reuse it.
                time.sleep(0.1)
                assert transport.endpoints() == ["s0"]

    def test_graceful_drain_answers_in_flight_requests(self, world):
        """Server close() must deliver responses already in flight."""
        _auth, _groups, _token, server = world
        registry = InProcessTransport()
        registry.register(
            "slow", _SlowService(_service(server), 0.3)
        )
        with AsyncSocketTransport_ctx(registry) as (srv, transport):
            results: list[object] = []
            errors: list[Exception] = []

            def call() -> None:
                try:
                    results.append(
                        transport.call(
                            "alice", "slow", ServerStatusRequest()
                        )
                    )
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            thread = threading.Thread(target=call)
            thread.start()
            time.sleep(0.1)  # request is on the server, handler running
            srv.close()  # drain: finish in-flight, flush, then hang up
            thread.join(timeout=5)
            assert not errors
            assert len(results) == 1
            assert results[0].server_id == "s0"


class AsyncSocketTransport_ctx:
    """Context pairing a server and transport for the drain test."""

    def __init__(self, registry: InProcessTransport) -> None:
        self._registry = registry

    def __enter__(self):
        self._srv = AsyncSocketServer(self._registry)
        self._transport = AsyncSocketTransport(self._srv.address)
        return self._srv, self._transport

    def __exit__(self, *_exc):
        self._transport.close()
        self._srv.close()


class TestUnframeablePeers:
    def test_plain_frame_hangs_up_without_dispatch(self, world):
        """A frame without a correlation id (the retired plain form) is
        unframeable: the server closes that connection and dispatches
        nothing, and keeps serving its other connections."""
        _auth, _groups, token, server = world
        registry = _registry(server)
        insert = _pack_request(
            "s0",
            InsertBatchRequest(
                token=token,
                pl_ids=[1],
                element_ids=[5],
                group_ids=[0],
                share_ys=[9],
            ),
        )
        with AsyncSocketServer(registry) as srv:
            with AsyncSocketTransport(srv.address) as transport:
                assert transport.endpoints() == ["s0"]
                plain = socket.create_connection(srv.address)
                try:
                    plain.sendall(_LEN.pack(len(insert)) + insert)
                    plain.settimeout(5)
                    assert plain.recv(1) == b""  # hung up, no answer
                finally:
                    plain.close()
                assert server.num_elements == 0
                status = transport.call("alice", "s0", ServerStatusRequest())
                assert status.num_elements == 0
                assert srv.connection_count == 1


class TestThreadedServerRegressions:
    """The socket-layer stall fix first made in the thread-per-connection
    server, now pinned against :class:`AsyncSocketServer`."""

    def test_idle_timeout_unpins_stalled_client_thread(self, world):
        """A client that connects and never speaks must not hold a
        connection forever — the idle timeout hangs up on it."""
        *_rest, server = world
        registry = _registry(server)
        with AsyncSocketServer(registry, idle_timeout_s=0.2) as srv:
            silent = socket.create_connection(srv.address)
            try:
                # The server actively closes its side.
                silent.settimeout(5)
                assert silent.recv(1) == b""
                assert srv.connection_count == 0
            finally:
                silent.close()


#: One insert batch every earlier client wrote as the same bytes.
_PINNED_TOKEN = AuthToken(
    user_id="alice", issued_at=5, expires_at=900, signature=b"\x01\x02"
)
#: pl_ids, element_ids, group_ids, share_ys.
_PINNED_COLUMNS = ([3, 0, 3], [70000, 9, 4], [2, 1, 2], [2**64 + 12, 300, 0])


class TestWireBytes:
    def test_traced_deadline_insert_frame_is_pinned(self):
        """What the client writes for an insert batch carrying a
        deadline budget and a trace context: correlated length word,
        correlation id, flagged envelope, packed (0x41) message."""
        frame = frame_bytes(
            _pack_request(
                "pod0-server-1",
                InsertBatchRequest(_PINNED_TOKEN, *_PINNED_COLUMNS),
                budget_us=250_000,
                trace=(0x0123456789ABCDEF, 3),
            ),
            0x01020304,
        )
        assert frame == bytes.fromhex(
            "8000005e010203046000000d706f64302d7365727665722d310003d090"
            "0123456789abcdef00035a57034105616c6963650584070201020301030003"
            "03011170000009000004010201020901000000000000000c00000000000000"
            "012c000000000000000000"
        )

    def test_fetch_response_frame_is_pinned(self, world):
        """What the server writes back for a fetch: the packed (0x42)
        lists under the request's correlation id."""
        _auth, _groups, token, server = world
        registry = _registry(server)
        pl_ids, element_ids, _groups, share_ys = _PINNED_COLUMNS
        columns = pl_ids, element_ids, [0] * len(pl_ids), share_ys
        with AsyncSocketServer(registry) as srv:
            with AsyncSocketTransport(srv.address) as transport:
                transport.call(
                    "alice",
                    "s0",
                    InsertBatchRequest(token, *columns),
                )
            raw = socket.create_connection(srv.address)
            try:
                raw.sendall(
                    frame_bytes(
                        _pack_request(
                            "s0", FetchListsRequest(token=token, pl_ids=(3, 0))
                        ),
                        9,
                    )
                )
                raw.settimeout(5)
                data = b""
                while len(data) < 8 or len(data) < 8 + (
                    _LEN.unpack(data[:4])[0] ^ CORRELATION_FLAG
                ):
                    data += raw.recv(4096)
            finally:
                raw.close()
        assert data == bytes.fromhex(
            "8000002d000000095a570342020302030111700000040100000901000000"
            "000000000c00000000000000000000010109010002012c"
        )
