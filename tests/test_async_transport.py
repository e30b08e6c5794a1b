"""The asyncio serving stack and the socket-layer fixes.

Four contracts live here:

- :class:`AsyncSocketServer` / :class:`AsyncSocketTransport` honour the
  Transport semantics — typed errors, read retry, write fail-fast,
  deterministic close — while multiplexing many in-flight requests
  over one connection;
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

import pytest

from repro.errors import (
    AccessDeniedError,
    ProtocolError,
    TransportError,
    UnknownEndpointError,
)
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
from repro.server.auth import AuthService, AuthToken
from repro.server.groups import GroupDirectory
from repro.server.index_server import IndexServer, InsertOp


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


def _registry(server):
    registry = InProcessTransport()
    registry.register(server.server_id, IndexServerService.for_server(server))
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
        ops = (InsertOp(pl_id=1, element_id=7, group_id=0, share_y=99),)
        ack = transport.call(
            "alice", "s0", InsertBatchRequest(token=token, operations=ops)
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
                    operations=(
                        InsertOp(
                            pl_id=1, element_id=1, group_id=7, share_y=1
                        ),
                    ),
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
        ops = tuple(
            InsertOp(pl_id=i % 4, element_id=i, group_id=0, share_y=i)
            for i in range(32)
        )
        transport.call(
            "alice", "s0", InsertBatchRequest(token=token, operations=ops)
        )
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
        _auth, _groups, token, server = world
        registry = _registry(server)
        with AsyncSocketServer(registry) as srv:
            with AsyncSocketTransport(srv.address) as transport:
                assert transport.endpoints() == ["s0"]
                transport._sock.close()
                request = InsertBatchRequest(
                    token=token,
                    operations=(
                        InsertOp(
                            pl_id=1, element_id=5, group_id=0, share_y=9
                        ),
                    ),
                )
                with pytest.raises(TransportError):
                    transport.call("alice", "s0", request)
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
            "slow", _SlowService(IndexServerService.for_server(server), 0.6)
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
            "slow", _SlowService(IndexServerService.for_server(server), 0.3)
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
                operations=(
                    InsertOp(pl_id=1, element_id=5, group_id=0, share_y=9),
                ),
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
_PINNED_OPS = (
    InsertOp(3, 70000, 2, 2**64 + 12),
    InsertOp(0, 9, 1, 300),
    InsertOp(3, 4, 2, 0),
)


class TestWireBytes:
    def test_traced_deadline_insert_frame_is_pinned(self):
        """What the client writes for an insert batch carrying a
        deadline budget and a trace context: correlated length word,
        correlation id, flagged envelope, packed (0x41) message."""
        frame = frame_bytes(
            _pack_request(
                "pod0-server-1",
                InsertBatchRequest(
                    token=_PINNED_TOKEN, operations=_PINNED_OPS
                ),
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
        ops = tuple(
            InsertOp(op.pl_id, op.element_id, 0, op.share_y)
            for op in _PINNED_OPS
        )
        with AsyncSocketServer(registry) as srv:
            with AsyncSocketTransport(srv.address) as transport:
                transport.call(
                    "alice",
                    "s0",
                    InsertBatchRequest(token=token, operations=ops),
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
