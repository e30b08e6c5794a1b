"""The versioned wire-protocol message catalogue.

Zerber's threat model (paper §4–§5) is stated at a *network* boundary:
index servers see opaque share requests, never Python objects. This
module is that boundary made explicit — every operation a client or the
control plane performs against a server is one of the request/response
dataclasses below, each byte-serializable through
:mod:`repro.protocol.codec` and dispatched server-side by
:class:`repro.protocol.service.IndexServerService`.

Catalogue (requests → responses):

====================  ==============================  ====================
request               carries                          response
====================  ==============================  ====================
InsertBatchRequest    token + 4 insert columns         OpCountResponse
DeleteBatchRequest    token + 2 delete columns         OpCountResponse
FetchListsRequest     token + posting-list ids         FetchListsResponse
FetchSnippetRequest   token + doc id + query terms     SnippetResponse
AdoptListRequest      pl_id + share columns (admin)    OpCountResponse
DropListRequest       pl_id (admin)                    OpCountResponse
ShipSnapshotRequest   pl_ids (admin/bulk transfer)     SnapshotResponse
AdoptSnapshotRequest  pl_ids + ZSNP image (admin)      OpCountResponse
ServerStatusRequest   —  (admin/observability)         ServerStatusResponse
EndpointsRequest      —  (transport discovery)         EndpointsResponse
CacheGetRequest       token + cache key (cache tier)   CacheValueResponse
CachePutRequest       token + key + pl_id + value      OpCountResponse
CacheInvalidateRequest  pl_ids (cache tier)            OpCountResponse
MetricsDumpRequest    —  (metrics observability)       MetricsDumpResponse
(any, on failure)                                      ErrorResponse
====================  ==============================  ====================

Versioning rules:

- :data:`PROTOCOL_VERSION` is a single integer carried in every frame
  header. A decoder that sees a version it does not implement must
  reject the frame with :class:`~repro.errors.ProtocolError` — never
  guess at field layouts.
- Adding a *new message type* is backwards-compatible (old peers reject
  only frames of that type, with a typed error); changing the *fields*
  of an existing message requires bumping :data:`PROTOCOL_VERSION`.
- Integers are unsigned LEB128 varints, so widening a counter or a
  share never changes the format.

The two answers that carry shares, :class:`FetchListsResponse` and
:class:`CacheValueResponse`, know their §7.3 payload size
(:meth:`wire_bytes`: 4-byte ids, ``share_bytes``-byte shares); a search
client sums it into ``SearchDiagnostics.response_bytes`` on every
transport. Everything else crosses the wire uncounted here: the socket
server counts its frames and bytes, and the seats log what they served.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.client.snippets import Snippet
from repro.server.auth import AuthToken
from repro.server.index_server import PostingListResponse

#: Bump when the *layout* of an existing message changes.
#: v2: CacheGetRequest/CachePutRequest carry an AuthToken — the cache
#: tier authenticates callers and verifies group fingerprints.
#: v3: the packed messages (0x41-0x45) are column-major — one width
#: byte + fixed-width values per column instead of row-major records.
#: The packed delete (0x45) came later as a new type, not a new layout,
#: so it needed no bump; the per-record delete (0x02) is retired.
PROTOCOL_VERSION = 3

#: Default share width (matches ceil(bits(DEFAULT_PRIME)/8)).
DEFAULT_SHARE_BYTES = 9


# -- requests -----------------------------------------------------------------


@dataclass(frozen=True)
class InsertBatchRequest:
    """One §5.4.1 update batch bound for one server, as four aligned
    columns: row ``i`` inserts ``(element_ids[i], group_ids[i],
    share_ys[i])`` into list ``pl_ids[i]``."""

    token: AuthToken
    pl_ids: Sequence[int]
    element_ids: Sequence[int]
    group_ids: Sequence[int]
    share_ys: Sequence[int]


@dataclass(frozen=True)
class DeleteBatchRequest:
    """Per-element deletions ("its owner must delete each element
    separately", §7.3), as two aligned columns: row ``i`` deletes
    ``element_ids[i]`` from list ``pl_ids[i]``."""

    token: AuthToken
    pl_ids: Sequence[int]
    element_ids: Sequence[int]


@dataclass(frozen=True)
class FetchListsRequest:
    """The §5.4.2 lookup: authenticated fetch of whole posting lists."""

    token: AuthToken
    pl_ids: tuple[int, ...]


@dataclass(frozen=True)
class FetchSnippetRequest:
    """Step 6 of Algorithm 2: a snippet read from a hosting peer."""

    token: AuthToken
    doc_id: int
    terms: tuple[str, ...]


@dataclass(frozen=True)
class AdoptListRequest:
    """Admin/replication: merge slot-aligned share columns into one
    list (idempotent); answered with the count of rows added."""

    pl_id: int
    element_ids: Sequence[int]
    group_ids: Sequence[int]
    share_ys: Sequence[int]


@dataclass(frozen=True)
class DropListRequest:
    """Admin/replication: discard a list the seat no longer owns;
    answered with the count of rows dropped."""

    pl_id: int


@dataclass(frozen=True)
class ShipSnapshotRequest:
    """Admin/replication: ask a seat for a sealed snapshot image of a
    set of posting lists — the bulk-transfer read of snapshot-shipping
    rebalance and anti-entropy repair. The response carries the exact
    ``ZSNP`` byte format the segmented engine writes to disk (one packed
    column block per list, trailing CRC32), so the eventual receiver's CRC
    check spans the whole journey.
    """

    pl_ids: tuple[int, ...]


@dataclass(frozen=True)
class AdoptSnapshotRequest:
    """Admin/replication: bulk-load a shipped snapshot into a seat.

    The receiver validates the image's CRC, *drops* its pre-existing
    data for every listed ``pl_id`` (stale records — including shares of
    since-deleted elements — must not survive the adoption), then loads
    the image in one sequential pass. Replace semantics are the point —
    an idempotent merge could never heal a seat that slept through a
    delete.

    Attributes:
        pl_ids: the lists this shipment covers (dropped before the
            load; a list absent from the image is left empty — shipping
            an empty posting list is how a receiver's stale copy dies).
        snapshot: a sealed ``ZSNP`` image (see
            :func:`repro.storage.snapshot.snapshot_bytes`).
    """

    pl_ids: tuple[int, ...]
    snapshot: bytes


@dataclass(frozen=True)
class ServerStatusRequest:
    """Admin/observability: one seat's store statistics."""


@dataclass(frozen=True)
class EndpointsRequest:
    """Transport discovery: which endpoints does the far side serve?

    Addressed to the transport itself (empty ``dst``), not to a seat —
    the socket client uses it to answer ``has_endpoint`` questions the
    in-process registry can answer locally.
    """


@dataclass(frozen=True)
class CacheGetRequest:
    """Cache tier: look one entry up by its key.

    Keys are built client-side from the group fingerprint, the fan-out
    width, the posting-list id, and the list's write epoch (see
    :func:`repro.cachetier.wire.entry_key`). The tier *does* interpret
    the fingerprint component: it verifies ``token`` against the
    enterprise auth service and serves the entry only when the caller's
    live group set matches the key's fingerprint — an L2 value bundles
    >= k shares per element, so an unauthenticated get would hand any
    client reconstructible postings for groups it never joined,
    bypassing the index servers' per-request filtering.
    """

    token: AuthToken
    key: str


@dataclass(frozen=True)
class CachePutRequest:
    """Cache tier: store one opaque value under ``key``.

    ``pl_id`` rides along so write-path invalidation can evict by
    posting list without the tier understanding the value format. The
    value is the encoded share-level entry
    (:func:`repro.cachetier.wire.encode_entry`). ``token`` is verified
    and the key's group fingerprint checked against the caller's live
    group set, exactly like :class:`CacheGetRequest` — otherwise any
    client could poison the entries other fingerprints are served.
    """

    token: AuthToken
    key: str
    pl_id: int
    value: bytes


@dataclass(frozen=True)
class CacheInvalidateRequest:
    """Cache tier: evict every entry of the named posting lists.

    Sent by the coordinator *before* a write is delivered to any seat —
    the same invalidate-before-write rule the coordinator's local share
    cache enforces. Idempotent: invalidating an absent list evicts
    nothing and succeeds.
    """

    pl_ids: tuple[int, ...]


@dataclass(frozen=True)
class MetricsDumpRequest:
    """Metrics observability: every registry sample in one answer.

    Token-free like :class:`ServerStatusRequest` — the dump carries
    counters and quantiles only, never shares, keys, or tokens.
    """


# -- responses ----------------------------------------------------------------


@dataclass(frozen=True)
class OpCountResponse:
    """Insert/delete acknowledgement: how many operations took effect."""

    count: int


@dataclass(frozen=True)
class FetchListsResponse:
    """The §5.4.2 answer: one :class:`PostingListResponse` per asked list."""

    lists: tuple[PostingListResponse, ...]

    def wire_bytes(self, share_bytes: int = DEFAULT_SHARE_BYTES) -> int:
        return sum(pl.wire_bytes(share_bytes) for pl in self.lists)


@dataclass(frozen=True)
class SnippetResponse:
    """A hosting peer's snippet (with the §7.3 XML envelope sizing)."""

    snippet: Snippet


@dataclass(frozen=True)
class SnapshotResponse:
    """A seat's answer to :class:`ShipSnapshotRequest`: the sealed image
    plus how many records it packs (the caller's transfer accounting)."""

    snapshot: bytes
    record_count: int


@dataclass(frozen=True)
class ServerStatusResponse:
    """One seat's observable store statistics."""

    server_id: str
    x_coordinate: int
    num_posting_lists: int
    num_elements: int
    storage_bytes: int


@dataclass(frozen=True)
class EndpointsResponse:
    """The far transport's endpoint names, sorted."""

    names: tuple[str, ...]


@dataclass(frozen=True)
class CacheValueResponse:
    """The cache tier's answer to :class:`CacheGetRequest`.

    ``hit`` distinguishes "absent" from "present and empty" — an empty
    posting list is a perfectly cacheable fact.
    """

    hit: bool
    value: bytes = b""

    def wire_bytes(self, share_bytes: int = DEFAULT_SHARE_BYTES) -> int:
        return 1 + len(self.value)


@dataclass(frozen=True)
class MetricsDumpResponse:
    """The metrics registry's sample set at one instant.

    Each sample is ``(name, canonical label string, value)`` — the
    wire twin of :class:`repro.observability.metrics.MetricSample`.
    Values travel as exact IEEE-754 doubles (8 wire bytes each), so a
    remote scrape renders byte-identically to a local one.
    """

    samples: tuple[tuple[str, str, float], ...]


@dataclass(frozen=True)
class ErrorResponse:
    """A server-side failure shipped back over the wire.

    Attributes:
        error: the :mod:`repro.errors` class name — re-raised verbatim
            by the client transport (see :func:`repro.errors.error_class`).
        message: the exception text; never carries shares or secrets
            (library exceptions are safe to log by contract).
        endpoint: for :class:`~repro.errors.UnknownEndpointError`, the
            endpoint that was addressed.
    """

    error: str
    message: str
    endpoint: str = ""


#: Requests a seat's service understands (EndpointsRequest is handled by
#: the transport itself).
REQUEST_TYPES = (
    InsertBatchRequest,
    DeleteBatchRequest,
    FetchListsRequest,
    FetchSnippetRequest,
    AdoptListRequest,
    DropListRequest,
    ShipSnapshotRequest,
    AdoptSnapshotRequest,
    ServerStatusRequest,
    EndpointsRequest,
    CacheGetRequest,
    CachePutRequest,
    CacheInvalidateRequest,
    MetricsDumpRequest,
)

RESPONSE_TYPES = (
    OpCountResponse,
    FetchListsResponse,
    SnippetResponse,
    SnapshotResponse,
    ServerStatusResponse,
    EndpointsResponse,
    ErrorResponse,
    CacheValueResponse,
    MetricsDumpResponse,
)
