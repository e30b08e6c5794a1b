"""The wire-protocol service layer and both transport backends.

Covers the contract every backend must honour: request dispatch onto
the narrow server interface, typed failures (a dead seat, an unknown
endpoint, an ACL denial) surfacing as the *same* exception class across
the in-process and async-socket transports, and the socket pair's
framing/reconnect behaviour.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    AccessDeniedError,
    AuthError,
    ProtocolError,
    TransportError,
    UnknownEndpointError,
    error_class,
)
from repro.cluster import ServerSlot
from repro.protocol import (
    AsyncSocketServer,
    AsyncSocketTransport,
    EndpointsRequest,
    ErrorResponse,
    FetchListsRequest,
    InProcessTransport,
    IndexServerService,
    InsertBatchRequest,
    ServerStatusRequest,
    raise_for_error,
)
from repro.resilience import FaultPlan
from repro.server.auth import AuthService
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


class TestInProcessTransport:
    def test_insert_then_fetch(self, world):
        _auth, _groups, token, server = world
        registry = _registry(server)
        columns = [1], [7], [0], [99]
        ack = registry.call(
            "alice", "s0", InsertBatchRequest(token, *columns)
        )
        assert ack.count == 1
        response = registry.call(
            "alice", "s0", FetchListsRequest(token=token, pl_ids=(1,))
        )
        assert response.lists[0].records[0].share_y == 99

    def test_unknown_endpoint_is_typed(self, world):
        *_rest, server = world
        registry = _registry(server)
        with pytest.raises(UnknownEndpointError) as excinfo:
            registry.call("alice", "ghost", ServerStatusRequest())
        assert excinfo.value.endpoint == "ghost"

    def test_duplicate_registration_rejected(self, world):
        *_rest, server = world
        registry = _registry(server)
        with pytest.raises(TransportError):
            registry.register("s0", _service(server))

    def test_unregister_releases_network_endpoint(self, world):
        *_rest, server = world
        registry = _registry(server)
        assert registry.has_endpoint("s0")
        registry.unregister("s0")
        assert not registry.has_endpoint("s0")
        with pytest.raises(UnknownEndpointError):
            registry.unregister("s0")


class TestErrorRoundTrip:
    def test_error_class_registry(self):
        assert error_class("AuthError") is AuthError
        assert error_class("AccessDeniedError") is AccessDeniedError
        assert error_class("NoSuchError").__name__ == "ReproError"

    def test_raise_for_error_rebuilds_unknown_endpoint(self):
        response = ErrorResponse(
            error="UnknownEndpointError", message="gone", endpoint="s9"
        )
        with pytest.raises(UnknownEndpointError) as excinfo:
            raise_for_error(response)
        assert excinfo.value.endpoint == "s9"

    def test_non_error_passes_through(self):
        request = ServerStatusRequest()
        assert raise_for_error(request) is request


class TestSocketTransport:
    """The socket pair (``AsyncSocketServer`` / ``AsyncSocketTransport``)
    against one index server."""

    @pytest.fixture()
    def served(self, world):
        _auth, _groups, token, server = world
        registry = _registry(server)
        with AsyncSocketServer(registry) as srv:
            with AsyncSocketTransport(srv.address) as transport:
                yield token, server, transport

    def test_round_trip_over_tcp(self, served):
        token, _server, transport = served
        columns = [3], [11], [0], [42]
        ack = transport.call(
            "alice", "s0", InsertBatchRequest(token, *columns)
        )
        assert ack.count == 1
        response = transport.call(
            "alice", "s0", FetchListsRequest(token=token, pl_ids=(3,))
        )
        assert response.lists[0].records[0].share_y == 42

    def test_server_side_errors_reraise_same_class(self, served):
        token, _server, transport = served
        bad = InsertBatchRequest(
            token=token,
            pl_ids=[1],
            element_ids=[1],
            group_ids=[5],
            share_ys=[1],
        )
        # Group 5 does not exist: the ACL denial crosses the wire typed.
        with pytest.raises(AccessDeniedError):
            transport.call("alice", "s0", bad)

    def test_unknown_endpoint_over_tcp(self, served):
        _token, _server, transport = served
        with pytest.raises(UnknownEndpointError) as excinfo:
            transport.call("alice", "ghost", ServerStatusRequest())
        assert excinfo.value.endpoint == "ghost"

    def test_endpoint_discovery(self, served):
        _token, _server, transport = served
        assert transport.endpoints() == ["s0"]
        assert transport.has_endpoint("s0")
        assert not transport.has_endpoint("ghost")

    def test_status_request(self, served):
        token, server, transport = served
        transport.call(
            "alice",
            "s0",
            InsertBatchRequest(
                token=token,
                pl_ids=[1],
                element_ids=[1],
                group_ids=[0],
                share_ys=[1],
            ),
        )
        status = transport.call("alice", "s0", ServerStatusRequest())
        assert status.server_id == "s0"
        assert status.num_elements == 1

    def test_connection_refused_is_transport_error(self):
        # Nothing listens on port 1.
        transport = AsyncSocketTransport(("127.0.0.1", 1))
        with pytest.raises(TransportError):
            transport.call("alice", "s0", EndpointsRequest())

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

    def test_dead_seat_raises_transport_error_like_in_process(self, world):
        """A down seat answers with the same TransportError over TCP
        that the failover ladder sees in-process."""
        from dataclasses import dataclass

        _auth, _groups, token, server = world

        @dataclass
        class Seat:
            server: object
            alive: bool = True

        seat = Seat(server=server)
        registry = InProcessTransport()
        registry.register("s0", IndexServerService(seat))
        with AsyncSocketServer(registry) as srv:
            with AsyncSocketTransport(srv.address) as transport:
                seat.alive = False
                request = FetchListsRequest(token=token, pl_ids=(1,))
                with pytest.raises(TransportError):
                    transport.call("alice", "s0", request)
                with pytest.raises(TransportError):
                    registry.call("alice", "s0", request)

    def test_reads_retry_on_a_broken_connection(self, served):
        token, _server, transport = served
        assert transport.endpoints() == ["s0"]
        # Break the shared connection under the transport: a pure read
        # must transparently reconnect and succeed.
        transport._sock.close()
        response = transport.call(
            "alice", "s0", FetchListsRequest(token=token, pl_ids=(1,))
        )
        assert response.lists[0].pl_id == 1

    def test_writes_never_retry_on_a_broken_connection(self, world):
        """A write whose connection broke may already have been applied
        server-side — re-sending it silently would double-apply. It must
        fail fast instead, and the server must have seen it at most
        once."""
        _auth, _groups, token, server = world
        registry = _registry(server)
        # Reset the connection on the insert's own frame, once: a retry
        # would pass once the fault is spent, and land.
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
                assert server.num_elements == 0  # applied zero times

    def test_internal_server_bug_ships_back_typed(self, world):
        """A non-ReproError inside a service must come back as a typed
        error response, not kill the connection (which would make a
        software bug look like a dead seat and trigger a write retry)."""
        from repro.errors import ReproError

        *_rest, server = world

        class ExplodingService:
            def handle(self, request):
                raise RuntimeError("boom")

        registry = _registry(server)
        registry.register("buggy", ExplodingService())
        with AsyncSocketServer(registry) as srv:
            with AsyncSocketTransport(srv.address) as transport:
                with pytest.raises(ReproError, match="internal server"):
                    transport.call("alice", "buggy", ServerStatusRequest())
                # The connection survived: the next call works.
                status = transport.call(
                    "alice", "s0", ServerStatusRequest()
                )
                assert status.server_id == "s0"

    def test_garbage_request_message_rejected_typed(self, served):
        token, _server, transport = served
        # A snippet request hitting an index-server service: a protocol
        # mismatch, shipped back as a typed ProtocolError.
        from repro.protocol import FetchSnippetRequest

        with pytest.raises(ProtocolError):
            transport.call(
                "alice",
                "s0",
                FetchSnippetRequest(token=token, doc_id=1, terms=("x",)),
            )
