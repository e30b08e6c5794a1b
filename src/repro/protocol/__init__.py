"""The wire-protocol service API: messages, codec, services, transports.

This package is the explicit network boundary the paper's threat model
(§4–§5) assumes: clients and the cluster control plane speak *versioned,
byte-serializable messages* to named endpoints over a pluggable
:class:`~repro.protocol.transport.Transport`; nothing client-side ever
dispatches on an :class:`~repro.server.index_server.IndexServer` object
again.

- :mod:`repro.protocol.messages`  — the request/response catalogue and
  versioning rules;
- :mod:`repro.protocol.codec`     — the compact binary frame codec;
- :mod:`repro.protocol.service`   — server-side dispatchers;
- :mod:`repro.protocol.transport` — the in-process
  backend, the frame and request-envelope layout, and the server's
  request leg;
- :mod:`repro.protocol.async_transport` — the socket backend: an
  asyncio server and a client that multiplexes every calling thread
  over one connection with correlated frames.
"""

from repro.protocol.async_transport import (
    AsyncSocketServer,
    AsyncSocketTransport,
)
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.messages import (
    PROTOCOL_VERSION,
    AdoptListRequest,
    DeleteBatchRequest,
    DropListRequest,
    EndpointsRequest,
    EndpointsResponse,
    ErrorResponse,
    FetchListsRequest,
    FetchListsResponse,
    FetchSnippetRequest,
    InsertBatchRequest,
    OpCountResponse,
    ServerStatusRequest,
    ServerStatusResponse,
    SnippetResponse,
)
from repro.protocol.service import (
    IndexServerService,
    SnippetHostService,
    error_response,
    raise_for_error,
)
from repro.protocol.transport import InProcessTransport, Transport

__all__ = [
    "AsyncSocketServer",
    "AsyncSocketTransport",
    "PROTOCOL_VERSION",
    "AdoptListRequest",
    "DeleteBatchRequest",
    "DropListRequest",
    "EndpointsRequest",
    "EndpointsResponse",
    "ErrorResponse",
    "FetchListsRequest",
    "FetchListsResponse",
    "FetchSnippetRequest",
    "InsertBatchRequest",
    "OpCountResponse",
    "ServerStatusRequest",
    "ServerStatusResponse",
    "SnippetResponse",
    "IndexServerService",
    "SnippetHostService",
    "error_response",
    "raise_for_error",
    "InProcessTransport",
    "Transport",
    "decode_message",
    "encode_message",
]
