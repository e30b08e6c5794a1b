"""Server-side dispatch: decoded protocol messages onto the narrow interface.

:class:`IndexServerService` is the only code that translates a request
message into a call on :class:`~repro.server.index_server.IndexServer`.
Clients never hold server objects any more — they hold a
:class:`~repro.protocol.transport.Transport` and endpoint *names*; the
service at the far end of the transport is the server boundary.

Services raise the ordinary :mod:`repro.errors` exceptions (a dead seat
raises :class:`~repro.errors.TransportError` exactly like the old
network handler did). The in-process transport lets those propagate
natively; the socket server converts them to
:class:`~repro.protocol.messages.ErrorResponse` frames which the socket
client re-raises as the same class — one failure model across backends.
"""

from __future__ import annotations

from typing import Any

from repro.client.snippets import SnippetService
from repro.errors import (
    ProtocolError,
    ReproError,
    TransportError,
    UnknownEndpointError,
    error_class,
)
from repro.protocol.messages import (
    AdoptListRequest,
    AdoptSnapshotRequest,
    DeleteBatchRequest,
    DropListRequest,
    ErrorResponse,
    FetchListsRequest,
    FetchSnippetRequest,
    InsertBatchRequest,
    OpCountResponse,
    FetchListsResponse,
    ServerStatusRequest,
    ServerStatusResponse,
    ShipSnapshotRequest,
    SnapshotResponse,
    SnippetResponse,
)


class IndexServerService:
    """One seat's protocol endpoint: liveness gate + request dispatch.

    The service holds the *seat* (anything with ``server`` and ``alive``
    attributes — a :class:`~repro.cluster.membership.ServerSlot`, whose
    ``alive`` flag gates every request), not the server object: a WAL
    restart swaps ``seat.server`` and the service follows
    automatically. Admission control is the socket
    server's (``ClusterDeployment(admission_max_pending=)``), not the
    service's.
    """

    def __init__(self, seat: Any) -> None:
        self._seat = seat

    def handle(self, request: Any) -> Any:
        """Dispatch one decoded request; returns the response message.

        Raises:
            TransportError: the seat is down (every request kind — a
                dead box serves neither users nor replication).
            ProtocolError: a message this service does not understand.
            AuthError / AccessDeniedError / IndexServerError: surfaced
                from the narrow interface unchanged.
        """
        seat = self._seat
        if not seat.alive:
            raise TransportError(f"server {seat.server.server_id!r} is down")
        return self._dispatch(seat.server, request)

    def _dispatch(self, server: Any, request: Any) -> Any:
        if isinstance(request, FetchListsRequest):
            return FetchListsResponse(
                lists=tuple(
                    server.get_posting_lists(request.token, request.pl_ids)
                )
            )
        if isinstance(request, InsertBatchRequest):
            count = server.insert_batch(
                request.token,
                request.pl_ids,
                request.element_ids,
                request.group_ids,
                request.share_ys,
            )
            return OpCountResponse(count=count)
        if isinstance(request, DeleteBatchRequest):
            count = server.delete(
                request.token, request.pl_ids, request.element_ids
            )
            return OpCountResponse(count=count)
        if isinstance(request, AdoptListRequest):
            count = server.adopt_posting_list(
                request.pl_id,
                request.element_ids,
                request.group_ids,
                request.share_ys,
            )
            return OpCountResponse(count=count)
        if isinstance(request, DropListRequest):
            return OpCountResponse(
                count=server.drop_posting_list(request.pl_id)
            )
        if isinstance(request, ShipSnapshotRequest):
            image, count = server.export_snapshot(request.pl_ids)
            return SnapshotResponse(snapshot=image, record_count=count)
        if isinstance(request, AdoptSnapshotRequest):
            return OpCountResponse(
                count=server.ingest_snapshot(request.pl_ids, request.snapshot)
            )
        if isinstance(request, ServerStatusRequest):
            return ServerStatusResponse(
                server_id=server.server_id,
                x_coordinate=server.x_coordinate,
                num_posting_lists=server.num_posting_lists,
                num_elements=server.num_elements,
                storage_bytes=server.storage_bytes(),
            )
        raise ProtocolError(
            f"index server cannot handle {type(request).__name__}"
        )


class SnippetHostService:
    """A hosting peer's protocol endpoint (step 6 of Algorithm 2).

    The peer trusts the enterprise ticket for the requester's identity
    (as the §5.4.2 snippet flow always has) and enforces its own group
    ACL inside :class:`SnippetService`.
    """

    def __init__(self, snippets: SnippetService) -> None:
        self._snippets = snippets

    def handle(self, request: Any) -> Any:
        if isinstance(request, FetchSnippetRequest):
            return SnippetResponse(
                snippet=self._snippets.request_snippet(
                    request.token.user_id,
                    request.doc_id,
                    list(request.terms),
                )
            )
        raise ProtocolError(
            f"snippet host cannot handle {type(request).__name__}"
        )


def error_response(exc: ReproError) -> ErrorResponse:
    """Package a server-side failure for the wire."""
    return ErrorResponse(
        error=type(exc).__name__,
        message=str(exc),
        endpoint=getattr(exc, "endpoint", ""),
    )


def raise_for_error(response: Any) -> Any:
    """Re-raise a shipped :class:`ErrorResponse`; pass anything else through."""
    if isinstance(response, ErrorResponse):
        cls = error_class(response.error)
        if cls is UnknownEndpointError:
            raise UnknownEndpointError(
                response.endpoint or "?", response.message
            )
        raise cls(response.message)
    return response
