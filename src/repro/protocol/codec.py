"""Compact binary codec for the wire-protocol messages.

Frame layout (everything big-picture, nothing clever)::

    +----+----+---------+------+-------------------------------+
    | 'Z'| 'W'| version | type |  message body (type-specific) |
    +----+----+---------+------+-------------------------------+

- 2-byte magic ``b"ZW"`` rejects garbage cheaply;
- 1 version byte (:data:`~repro.protocol.messages.PROTOCOL_VERSION`) —
  unknown versions are rejected, never guessed at;
- 1 type byte from the registry below;
- the body is a concatenation of primitives: unsigned LEB128 varints
  for every integer (ids, counts, shares — shares live in Z_p and can
  exceed 64 bits), and varint-length-prefixed UTF-8 for strings /
  raw bytes for blobs;
- the four bulk messages travel in a *packed*, column-major form
  instead (type bytes 0x41, 0x42, 0x44 and 0x45, since protocol version
  3; see "packed columns" below), public as :func:`write_columns` /
  :func:`read_columns` — the cache tier's L2 values use it too.

Decoding is strict: every primitive is bounds-checked against the
buffer *before anything is allocated*, varints and column widths are
capped at 74 bytes (a malicious 5 KB "integer" is garbage, not a
number), and a decoded message must consume the frame *exactly* —
trailing bytes mean a corrupt or hostile frame and raise
:class:`~repro.errors.ProtocolError`, as does any truncation.

The hot in-process path never touches this module (messages cross a
function call, not a socket); the differential and hostile-frame suite
in ``tests/test_protocol_codec.py`` (bulk column coding against a
per-value ``int.to_bytes`` reference) and the socket equivalence gate
keep the encoded form honest anyway.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Any, Callable, Sequence

from repro.client.snippets import Snippet
from repro.errors import ProtocolError
from repro.protocol import messages as m
from repro.server.auth import AuthToken
from repro.server.index_server import PostingListResponse

MAGIC = b"ZW"
HEADER_LEN = 4  # magic + version + type

#: Varint size cap: shares are < 2^72 today; 512 bits of headroom means
#: a "number" longer than 74 encoded bytes is garbage by construction.
_MAX_VARINT_BYTES = 74


# -- primitives ---------------------------------------------------------------


def _write_uint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ProtocolError(f"negative integer {value} cannot be encoded")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_bytes(out: bytearray, blob: bytes) -> None:
    _write_uint(out, len(blob))
    out.extend(blob)


def _write_str(out: bytearray, text: str) -> None:
    _write_bytes(out, text.encode("utf-8"))


class _Reader:
    """Strict, bounds-checked cursor over one frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def uint(self) -> int:
        value = 0
        shift = 0
        start = self.pos
        while True:
            if self.pos >= len(self.data):
                raise ProtocolError("truncated varint")
            if self.pos - start >= _MAX_VARINT_BYTES:
                raise ProtocolError("varint exceeds the size cap")
            byte = self.data[self.pos]
            self.pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def blob(self) -> bytes:
        length = self.uint()
        if self.pos + length > len(self.data):
            raise ProtocolError("truncated byte string")
        out = self.data[self.pos : self.pos + length]
        self.pos += length
        return out

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("invalid UTF-8 string") from exc

    def done(self) -> None:
        if self.pos != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.pos} trailing bytes after message"
            )


# -- compound fields ----------------------------------------------------------


def _write_token(out: bytearray, token: AuthToken) -> None:
    _write_str(out, token.user_id)
    _write_uint(out, token.issued_at)
    _write_uint(out, token.expires_at)
    _write_bytes(out, token.signature)


def _read_token(r: _Reader) -> AuthToken:
    return AuthToken(
        user_id=r.text(),
        issued_at=r.uint(),
        expires_at=r.uint(),
        signature=r.blob(),
    )


# -- per-message encoders/decoders -------------------------------------------


def _enc_fetch(out: bytearray, msg: m.FetchListsRequest) -> None:
    _write_token(out, msg.token)
    _write_uint(out, len(msg.pl_ids))
    for pl_id in msg.pl_ids:
        _write_uint(out, pl_id)


def _dec_fetch(r: _Reader) -> m.FetchListsRequest:
    token = _read_token(r)
    pl_ids = tuple(r.uint() for _ in range(r.uint()))
    return m.FetchListsRequest(token=token, pl_ids=pl_ids)


def _enc_snippet_req(out: bytearray, msg: m.FetchSnippetRequest) -> None:
    _write_token(out, msg.token)
    _write_uint(out, msg.doc_id)
    _write_uint(out, len(msg.terms))
    for term in msg.terms:
        _write_str(out, term)


def _dec_snippet_req(r: _Reader) -> m.FetchSnippetRequest:
    token = _read_token(r)
    doc_id = r.uint()
    terms = tuple(r.text() for _ in range(r.uint()))
    return m.FetchSnippetRequest(token=token, doc_id=doc_id, terms=terms)


def _enc_drop(out: bytearray, msg: m.DropListRequest) -> None:
    _write_uint(out, msg.pl_id)


def _dec_drop(r: _Reader) -> m.DropListRequest:
    return m.DropListRequest(pl_id=r.uint())


def _enc_ship_snapshot(out: bytearray, msg: m.ShipSnapshotRequest) -> None:
    _write_uint(out, len(msg.pl_ids))
    for pl_id in msg.pl_ids:
        _write_uint(out, pl_id)


def _dec_ship_snapshot(r: _Reader) -> m.ShipSnapshotRequest:
    return m.ShipSnapshotRequest(
        pl_ids=tuple(r.uint() for _ in range(r.uint()))
    )


def _enc_adopt_snapshot(
    out: bytearray, msg: m.AdoptSnapshotRequest
) -> None:
    _write_uint(out, len(msg.pl_ids))
    for pl_id in msg.pl_ids:
        _write_uint(out, pl_id)
    _write_bytes(out, msg.snapshot)


def _dec_adopt_snapshot(r: _Reader) -> m.AdoptSnapshotRequest:
    return m.AdoptSnapshotRequest(
        pl_ids=tuple(r.uint() for _ in range(r.uint())),
        snapshot=r.blob(),
    )


def _enc_snapshot_resp(out: bytearray, msg: m.SnapshotResponse) -> None:
    _write_uint(out, msg.record_count)
    _write_bytes(out, msg.snapshot)


def _dec_snapshot_resp(r: _Reader) -> m.SnapshotResponse:
    return m.SnapshotResponse(record_count=r.uint(), snapshot=r.blob())


def _enc_status_req(out: bytearray, msg: m.ServerStatusRequest) -> None:
    pass


def _dec_status_req(r: _Reader) -> m.ServerStatusRequest:
    return m.ServerStatusRequest()


def _enc_endpoints_req(out: bytearray, msg: m.EndpointsRequest) -> None:
    pass


def _dec_endpoints_req(r: _Reader) -> m.EndpointsRequest:
    return m.EndpointsRequest()


def _enc_count(out: bytearray, msg: m.OpCountResponse) -> None:
    _write_uint(out, msg.count)


def _dec_count(r: _Reader) -> m.OpCountResponse:
    return m.OpCountResponse(count=r.uint())


def _enc_snippet_resp(out: bytearray, msg: m.SnippetResponse) -> None:
    _write_uint(out, msg.snippet.doc_id)
    _write_str(out, msg.snippet.host)
    _write_str(out, msg.snippet.text)


def _dec_snippet_resp(r: _Reader) -> m.SnippetResponse:
    return m.SnippetResponse(
        snippet=Snippet(doc_id=r.uint(), host=r.text(), text=r.text())
    )


def _enc_status_resp(out: bytearray, msg: m.ServerStatusResponse) -> None:
    _write_str(out, msg.server_id)
    _write_uint(out, msg.x_coordinate)
    _write_uint(out, msg.num_posting_lists)
    _write_uint(out, msg.num_elements)
    _write_uint(out, msg.storage_bytes)


def _dec_status_resp(r: _Reader) -> m.ServerStatusResponse:
    return m.ServerStatusResponse(
        server_id=r.text(),
        x_coordinate=r.uint(),
        num_posting_lists=r.uint(),
        num_elements=r.uint(),
        storage_bytes=r.uint(),
    )


def _enc_endpoints_resp(out: bytearray, msg: m.EndpointsResponse) -> None:
    _write_uint(out, len(msg.names))
    for name in msg.names:
        _write_str(out, name)


def _dec_endpoints_resp(r: _Reader) -> m.EndpointsResponse:
    return m.EndpointsResponse(
        names=tuple(r.text() for _ in range(r.uint()))
    )


def _enc_error(out: bytearray, msg: m.ErrorResponse) -> None:
    _write_str(out, msg.error)
    _write_str(out, msg.message)
    _write_str(out, msg.endpoint)


def _dec_error(r: _Reader) -> m.ErrorResponse:
    return m.ErrorResponse(error=r.text(), message=r.text(), endpoint=r.text())


def _enc_cache_get(out: bytearray, msg: m.CacheGetRequest) -> None:
    _write_token(out, msg.token)
    _write_str(out, msg.key)


def _dec_cache_get(r: _Reader) -> m.CacheGetRequest:
    return m.CacheGetRequest(token=_read_token(r), key=r.text())


def _enc_cache_put(out: bytearray, msg: m.CachePutRequest) -> None:
    _write_token(out, msg.token)
    _write_str(out, msg.key)
    _write_uint(out, msg.pl_id)
    _write_bytes(out, msg.value)


def _dec_cache_put(r: _Reader) -> m.CachePutRequest:
    return m.CachePutRequest(
        token=_read_token(r), key=r.text(), pl_id=r.uint(), value=r.blob()
    )


def _enc_cache_invalidate(
    out: bytearray, msg: m.CacheInvalidateRequest
) -> None:
    _write_uint(out, len(msg.pl_ids))
    for pl_id in msg.pl_ids:
        _write_uint(out, pl_id)


def _dec_cache_invalidate(r: _Reader) -> m.CacheInvalidateRequest:
    return m.CacheInvalidateRequest(
        pl_ids=tuple(r.uint() for _ in range(r.uint()))
    )


def _enc_cache_value(out: bytearray, msg: m.CacheValueResponse) -> None:
    _write_uint(out, 1 if msg.hit else 0)
    _write_bytes(out, msg.value)


def _dec_cache_value(r: _Reader) -> m.CacheValueResponse:
    return m.CacheValueResponse(hit=r.uint() != 0, value=r.blob())




def _enc_metrics_dump_req(out: bytearray, msg: m.MetricsDumpRequest) -> None:
    pass


def _dec_metrics_dump_req(r: _Reader) -> m.MetricsDumpRequest:
    return m.MetricsDumpRequest()


# Metric values are exact IEEE-754 doubles (latencies, ratios, EWMA
# gauges do not fit varints); 8 fixed big-endian bytes per value.
_F64 = struct.Struct(">d")


def _enc_metrics_dump_resp(
    out: bytearray, msg: m.MetricsDumpResponse
) -> None:
    _write_uint(out, len(msg.samples))
    for name, labels, value in msg.samples:
        _write_str(out, name)
        _write_str(out, labels)
        out.extend(_F64.pack(value))


def _dec_metrics_dump_resp(r: _Reader) -> m.MetricsDumpResponse:
    count = r.uint()
    samples = []
    for _ in range(count):
        name = r.text()
        labels = r.text()
        if r.pos + _F64.size > len(r.data):
            raise ProtocolError("truncated metric value")
        (value,) = _F64.unpack_from(r.data, r.pos)
        r.pos += _F64.size
        samples.append((name, labels, value))
    return m.MetricsDumpResponse(samples=tuple(samples))


# -- packed columns -----------------------------------------------------------
#
# A record array travels column-major: ``count`` (varint), then — only
# when count > 0 — per column a width byte (bytes of the column's
# largest value, 1..74; a reader accepts any width in range) and
# ``count`` fixed-width big-endian values. No object per record: values
# < 2^64 are one ``array('Q')`` byte-swap, its width read off the zero
# byte planes and narrowed or widened by strided slice assignment;
# width 1 decodes as ``list(data)``; widths > 8 (a share >= 2^64:
# probability 7e-19 under p = 2^64 + 13) cost one ``int.to_bytes`` /
# ``from_bytes`` per value. Measurements: docs/ARCHITECTURE.md.
# The four bulk messages (insert batch, delete batch, fetched lists,
# adopted list) travel only in this form.

_SWAP = sys.byteorder == "little"


def _write_column(out: bytearray, column: Sequence[int]) -> None:
    try:
        try:
            wide = array("Q", column)
        except OverflowError:
            # Negative, or >= 2^64: the per-value path decides which.
            if min(column) < 0:
                raise ProtocolError("negative integer cannot be encoded")
            width = (max(column).bit_length() + 7) // 8
            if width > _MAX_VARINT_BYTES:
                raise ProtocolError("integer exceeds the size cap")
            out.append(width)
            out += b"".join([v.to_bytes(width, "big") for v in column])
            return
        if _SWAP:
            wide.byteswap()
        data = wide.tobytes()
        # Width = 8 minus the leading byte planes that are zero in every
        # value (at least 1): the largest value's byte length, found
        # without a Python pass over the column.
        zero = bytes(len(column))
        width = 8
        while width > 1 and data[8 - width :: 8] == zero:
            width -= 1
        out.append(width)
        if width < 8:
            narrow = bytearray(len(column) * width)
            for j in range(width):
                narrow[j::width] = data[8 - width + j :: 8]
            data = narrow
        out += data
    except (TypeError, AttributeError, OverflowError, ValueError) as exc:
        raise ProtocolError(f"column value cannot be encoded: {exc}") from exc


def _read_column(r: _Reader, count: int) -> list[int]:
    # Bounds before allocation: a 20-byte frame may claim 2^40 records.
    data, pos = r.data, r.pos
    if pos >= len(data):
        raise ProtocolError("truncated column width")
    width = data[pos]
    if not 0 < width <= _MAX_VARINT_BYTES:
        raise ProtocolError(f"column width {width} outside 1..74")
    pos += 1
    end = pos + width * count
    if end > len(data):
        raise ProtocolError("truncated column")
    r.pos = end
    if width == 1:
        return list(data[pos:end])
    if width > 8:
        from_bytes = int.from_bytes
        return [
            from_bytes(data[i : i + width], "big")
            for i in range(pos, end, width)
        ]
    if width == 8:
        wide = array("Q", data[pos:end])
    else:
        padded = bytearray(8 * count)
        for j in range(width):
            padded[8 - width + j :: 8] = data[pos + j : end : width]
        wide = array("Q", padded)
    if _SWAP:
        wide.byteswap()
    return wide.tolist()


def write_columns(out: bytearray, *columns: Sequence[int]) -> None:
    """Append aligned integer columns in the packed form. Ragged
    columns, or a value that is negative, not an integer or wider than
    the 74-byte cap, raise :class:`ProtocolError`."""
    count = len(columns[0])
    if any(len(column) != count for column in columns):
        raise ProtocolError("ragged columns cannot be encoded")
    _write_uint(out, count)
    if count:
        for column in columns:
            _write_column(out, column)


def read_columns(r: _Reader, n: int) -> list[list[int]]:
    """Read ``n`` aligned columns written by :func:`write_columns`."""
    count = r.uint()
    if not count:
        return [[] for _ in range(n)]
    return [_read_column(r, count) for _ in range(n)]


def packed_columns(response: PostingListResponse) -> bytes:
    """A read-only response's columns in the packed form, encoded once
    and memoised on it: a seat's read snapshot serves every lookup until
    the next write, and a decoded response keeps the bytes it arrived
    as, so frames and L2 fills (``encode_entry``) copy them."""
    if response.packed is None:
        block = bytearray()
        write_columns(block, *response.columns)
        object.__setattr__(response, "packed", bytes(block))
    return response.packed


def _enc_lists(out: bytearray, msg: m.FetchListsResponse) -> None:
    _write_uint(out, len(msg.lists))
    for pl in msg.lists:
        _write_uint(out, pl.pl_id)
        out += packed_columns(pl)


def _dec_lists(r: _Reader) -> m.FetchListsResponse:
    lists = []
    for _ in range(r.uint()):
        pl_id, start = r.uint(), r.pos
        lists.append(PostingListResponse(pl_id, *read_columns(r, 3)))
        object.__setattr__(lists[-1], "packed", bytes(r.data[start : r.pos]))
    return m.FetchListsResponse(lists=tuple(lists))


def _enc_insert(out: bytearray, msg: m.InsertBatchRequest) -> None:
    _write_token(out, msg.token)
    write_columns(
        out, msg.pl_ids, msg.element_ids, msg.group_ids, msg.share_ys
    )


def _dec_insert(r: _Reader) -> m.InsertBatchRequest:
    return m.InsertBatchRequest(_read_token(r), *read_columns(r, 4))


def _enc_delete(out: bytearray, msg: m.DeleteBatchRequest) -> None:
    _write_token(out, msg.token)
    write_columns(out, msg.pl_ids, msg.element_ids)


def _dec_delete(r: _Reader) -> m.DeleteBatchRequest:
    return m.DeleteBatchRequest(_read_token(r), *read_columns(r, 2))


def _enc_adopt(out: bytearray, msg: m.AdoptListRequest) -> None:
    _write_uint(out, msg.pl_id)
    write_columns(out, msg.element_ids, msg.group_ids, msg.share_ys)


def _dec_adopt(r: _Reader) -> m.AdoptListRequest:
    return m.AdoptListRequest(r.uint(), *read_columns(r, 3))


# -- public LEB128 surface ----------------------------------------------------
#
# The segmented storage engine (``repro.storage``) frames its on-disk
# records with the same varint primitives the wire protocol uses, so the
# byte discipline (and its Hypothesis suite) is shared rather than
# reimplemented. These aliases are the supported way in.

write_uint = _write_uint
Reader = _Reader


#: type byte -> (message class, encoder, decoder). Type bytes are wire
#: contract: never renumber, only append. Retired bytes stay unassigned
#: and decode as an unknown type: 0x05 (the per-list export), 0x43 (the
#: records an adopt or drop touched; both now answer with a count),
#: 0x01, 0x02, 0x06, 0x22 and 0x24 (the varint-per-record forms of the
#: bulk messages, which travel as columns under 0x41, 0x45, 0x42 and
#: 0x44), and 0x0F / 0x2A (CacheStatsRequest / CacheStatsResponse, the
#: L2 tier's own counters, which ``MetricsDump`` carries instead).
_REGISTRY: dict[int, tuple[type, Callable, Callable]] = {
    0x03: (m.FetchListsRequest, _enc_fetch, _dec_fetch),
    0x04: (m.FetchSnippetRequest, _enc_snippet_req, _dec_snippet_req),
    0x07: (m.DropListRequest, _enc_drop, _dec_drop),
    0x08: (m.ServerStatusRequest, _enc_status_req, _dec_status_req),
    0x09: (m.EndpointsRequest, _enc_endpoints_req, _dec_endpoints_req),
    0x0A: (m.ShipSnapshotRequest, _enc_ship_snapshot, _dec_ship_snapshot),
    0x0B: (
        m.AdoptSnapshotRequest,
        _enc_adopt_snapshot,
        _dec_adopt_snapshot,
    ),
    0x0C: (m.CacheGetRequest, _enc_cache_get, _dec_cache_get),
    0x0D: (m.CachePutRequest, _enc_cache_put, _dec_cache_put),
    0x0E: (
        m.CacheInvalidateRequest,
        _enc_cache_invalidate,
        _dec_cache_invalidate,
    ),
    0x10: (
        m.MetricsDumpRequest,
        _enc_metrics_dump_req,
        _dec_metrics_dump_req,
    ),
    0x21: (m.OpCountResponse, _enc_count, _dec_count),
    0x23: (m.SnippetResponse, _enc_snippet_resp, _dec_snippet_resp),
    0x25: (m.ServerStatusResponse, _enc_status_resp, _dec_status_resp),
    0x26: (m.EndpointsResponse, _enc_endpoints_resp, _dec_endpoints_resp),
    0x27: (m.ErrorResponse, _enc_error, _dec_error),
    0x28: (m.SnapshotResponse, _enc_snapshot_resp, _dec_snapshot_resp),
    0x29: (m.CacheValueResponse, _enc_cache_value, _dec_cache_value),
    0x2B: (
        m.MetricsDumpResponse,
        _enc_metrics_dump_resp,
        _dec_metrics_dump_resp,
    ),
    0x41: (m.InsertBatchRequest, _enc_insert, _dec_insert),
    0x42: (m.FetchListsResponse, _enc_lists, _dec_lists),
    0x44: (m.AdoptListRequest, _enc_adopt, _dec_adopt),
    0x45: (m.DeleteBatchRequest, _enc_delete, _dec_delete),
}

_TYPE_BYTE = {cls: byte for byte, (cls, _e, _d) in _REGISTRY.items()}


def encode_message(message: Any) -> bytes:
    """Serialize one protocol message to a self-describing frame body.

    Raises:
        ProtocolError: unknown message class or a negative integer field.
    """
    entry = _TYPE_BYTE.get(type(message))
    if entry is None:
        raise ProtocolError(
            f"{type(message).__name__} is not a protocol message"
        )
    out = bytearray(MAGIC)
    out.append(m.PROTOCOL_VERSION)
    out.append(entry)
    _REGISTRY[entry][1](out, message)
    return bytes(out)


def decode_message(data: bytes) -> Any:
    """Parse one frame body back into its message dataclass.

    Raises:
        ProtocolError: bad magic, unsupported version, unknown type,
            truncation, or trailing garbage.
    """
    if len(data) < HEADER_LEN:
        raise ProtocolError(f"frame shorter than the {HEADER_LEN}-byte header")
    if data[:2] != MAGIC:
        raise ProtocolError("bad magic; not a Zerber wire frame")
    version = data[2]
    if version != m.PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version} "
            f"(this peer speaks {m.PROTOCOL_VERSION})"
        )
    entry = _REGISTRY.get(data[3])
    if entry is None:
        raise ProtocolError(f"unknown message type byte 0x{data[3]:02x}")
    reader = _Reader(data, HEADER_LEN)
    message = entry[2](reader)
    reader.done()
    return message
