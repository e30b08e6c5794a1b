"""Property suite for the wire-protocol codec.

Random message → encode → decode must be the identity for every message
type in the catalogue, and the decoder must reject — with a typed
:class:`~repro.errors.ProtocolError`, never a stray ``ValueError`` or
``IndexError`` — everything that is not a well-formed frame: truncations
at every byte boundary, random garbage, bad magic, unknown type bytes,
and frames from protocol versions this peer does not speak.
"""

from __future__ import annotations

import pathlib
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_columns
from repro.client.snippets import Snippet
from repro.errors import ProtocolError
from repro.protocol import codec
from repro.protocol import messages as m
from repro.server.auth import AuthToken
from repro.server.index_server import PostingListResponse, ShareRecord

# -- strategies ---------------------------------------------------------------

uints = st.integers(min_value=0, max_value=2**72 - 1)
small_uints = st.integers(min_value=0, max_value=2**32 - 1)
texts = st.text(max_size=40)

tokens = st.builds(
    AuthToken,
    user_id=texts,
    issued_at=small_uints,
    expires_at=small_uints,
    signature=st.binary(max_size=48),
)

#: Insert rows ``(pl_id, element_id, group_id, share_y)`` and delete
#: rows ``(pl_id, element_id)``; a request carries them as columns.
insert_rows = st.lists(
    st.tuples(small_uints, small_uints, small_uints, uints), max_size=6
)
delete_rows = st.lists(st.tuples(small_uints, small_uints), max_size=6)

insert_requests = st.builds(
    lambda token, rows: m.InsertBatchRequest(token, *as_columns(rows)),
    tokens,
    insert_rows,
)
delete_requests = st.builds(
    lambda token, rows: m.DeleteBatchRequest(token, *as_columns(rows, 2)),
    tokens,
    delete_rows,
)

records = st.builds(
    ShareRecord, element_id=small_uints, group_id=small_uints, share_y=uints
)

posting_lists = st.builds(
    PostingListResponse.from_records,
    pl_id=small_uints,
    records=st.tuples() | st.lists(records, max_size=5).map(tuple),
)


def _adopt(pl_id, records) -> m.AdoptListRequest:
    """An adopt request carrying ``records`` as its share columns."""
    columns = PostingListResponse.from_records(pl_id, records).columns
    return m.AdoptListRequest(pl_id, *columns)


adopt_requests = st.builds(
    _adopt, pl_id=small_uints, records=st.lists(records, max_size=5)
)

snippets = st.builds(Snippet, doc_id=small_uints, host=texts, text=texts)

messages = st.one_of(
    insert_requests,
    delete_requests,
    st.builds(
        m.FetchListsRequest,
        token=tokens,
        pl_ids=st.lists(small_uints, max_size=8).map(tuple),
    ),
    st.builds(
        m.FetchSnippetRequest,
        token=tokens,
        doc_id=small_uints,
        terms=st.lists(texts, max_size=4).map(tuple),
    ),
    adopt_requests,
    st.builds(m.DropListRequest, pl_id=small_uints),
    st.just(m.ServerStatusRequest()),
    st.just(m.EndpointsRequest()),
    st.builds(m.OpCountResponse, count=small_uints),
    st.builds(
        m.FetchListsResponse,
        lists=st.lists(posting_lists, max_size=4).map(tuple),
    ),
    st.builds(m.SnippetResponse, snippet=snippets),
    st.builds(
        m.ServerStatusResponse,
        server_id=texts,
        x_coordinate=small_uints,
        num_posting_lists=small_uints,
        num_elements=small_uints,
        storage_bytes=small_uints,
    ),
    st.builds(
        m.EndpointsResponse, names=st.lists(texts, max_size=6).map(tuple)
    ),
    st.builds(
        m.ErrorResponse, error=texts, message=texts, endpoint=texts
    ),
    st.builds(m.CacheGetRequest, token=tokens, key=texts),
    st.builds(
        m.CachePutRequest,
        token=tokens,
        key=texts,
        pl_id=small_uints,
        value=st.binary(max_size=64),
    ),
    st.builds(
        m.CacheInvalidateRequest,
        pl_ids=st.lists(small_uints, max_size=8).map(tuple),
    ),
    st.builds(
        m.CacheValueResponse,
        hit=st.booleans(),
        value=st.binary(max_size=64),
    ),
)


# -- round trips --------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(message=messages)
def test_encode_decode_round_trip(message):
    assert codec.decode_message(codec.encode_message(message)) == message


@settings(max_examples=100, deadline=None)
@given(message=messages, data=st.data())
def test_truncated_frames_rejected(message, data):
    encoded = codec.encode_message(message)
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    truncated = encoded[:cut]
    # Every strict prefix either fails to parse or (when the cut lands
    # on a self-delimiting boundary of a shorter valid message) must
    # never be mistaken for the original.
    try:
        decoded = codec.decode_message(truncated)
    except ProtocolError:
        return
    assert decoded != message


@settings(max_examples=200, deadline=None)
@given(garbage=st.binary(max_size=120))
def test_garbage_rejected_or_roundtrips(garbage):
    """Arbitrary bytes never crash the decoder with an untyped error."""
    try:
        decoded = codec.decode_message(garbage)
    except ProtocolError:
        return
    # The rare garbage that *is* a valid frame must re-encode to itself.
    assert codec.encode_message(decoded) == garbage


@settings(max_examples=50, deadline=None)
@given(message=messages, version=st.integers(min_value=0, max_value=255))
def test_unknown_protocol_versions_rejected(message, version):
    encoded = bytearray(codec.encode_message(message))
    if version == m.PROTOCOL_VERSION:
        return
    encoded[2] = version
    with pytest.raises(ProtocolError, match="version"):
        codec.decode_message(bytes(encoded))


@settings(max_examples=50, deadline=None)
@given(message=messages, extra=st.binary(min_size=1, max_size=8))
def test_trailing_bytes_rejected(message, extra):
    with pytest.raises(ProtocolError):
        codec.decode_message(codec.encode_message(message) + extra)


# -- deterministic edges ------------------------------------------------------


def test_bad_magic_rejected():
    with pytest.raises(ProtocolError, match="magic"):
        codec.decode_message(b"XX\x01\x01")


def test_unknown_type_byte_rejected():
    with pytest.raises(ProtocolError, match="type"):
        codec.decode_message(codec.MAGIC + bytes([m.PROTOCOL_VERSION, 0xEE]))


def test_retired_export_list_type_byte_rejected():
    """0x05 (the per-list export, retired with record-by-record
    rebalance) is never reassigned: a frame carrying it is a typed
    unknown-type error, whatever body follows."""
    for body in (b"", b"\x07"):
        with pytest.raises(ProtocolError, match="0x05"):
            codec.decode_message(
                codec.MAGIC + bytes([m.PROTOCOL_VERSION, 0x05]) + body
            )
    assert not hasattr(m, "ExportListRequest")


#: Retired type bytes — the varint-per-record forms of the bulk
#: messages, and the L2 tier's own stats pair (its counters travel in
#: MetricsDump) — and the packed type byte each message class travels
#: under instead (None: the class is gone with all its forms).
_RETIRED_CLASSIC = {
    0x01: (m.InsertBatchRequest, 0x41),
    0x02: (m.DeleteBatchRequest, 0x45),
    0x06: (m.AdoptListRequest, 0x44),
    0x0F: (None, None),  # was CacheStatsRequest
    0x22: (m.FetchListsResponse, 0x42),
    0x24: (None, None),
    0x2A: (None, None),  # was CacheStatsResponse
}


@pytest.mark.parametrize("type_byte", sorted(_RETIRED_CLASSIC))
def test_retired_classic_bulk_type_bytes_rejected(type_byte):
    """0x01, 0x02, 0x06, 0x22 and 0x24 (the classic bulk encodings) and
    0x0F / 0x2A (the cache-tier stats pair) are retired like 0x05: a
    frame carrying one is a typed unknown-type error, whatever body
    follows, and the message class encodes only under its packed byte."""
    for body in (b"", b"\x00", b"\x01\x02\x03\x04"):
        with pytest.raises(ProtocolError, match=f"0x{type_byte:02x}"):
            codec.decode_message(
                codec.MAGIC + bytes([m.PROTOCOL_VERSION, type_byte]) + body
            )
    cls, packed_byte = _RETIRED_CLASSIC[type_byte]
    if cls is not None:
        assert codec._TYPE_BYTE[cls] == packed_byte


def test_retired_record_list_type_byte_is_never_reassigned():
    """0x43 (the records an adopt or drop touched, retired when both
    began to answer with a count) is never reassigned: a frame carrying
    it is a typed unknown-type error, whatever body follows — the body
    it used to carry included."""
    old_body = bytes.fromhex("01010101010101")  # one record, 1-byte columns
    for body in (b"", b"\x00", old_body):
        with pytest.raises(ProtocolError, match="0x43"):
            codec.decode_message(
                codec.MAGIC + bytes([m.PROTOCOL_VERSION, 0x43]) + body
            )
    assert 0x43 not in codec._REGISTRY
    assert not hasattr(m, "RecordListResponse")


ARCHITECTURE = (
    pathlib.Path(__file__).resolve().parent.parent / "docs" / "ARCHITECTURE.md"
)


def _catalogue_classes(table: str) -> set[str]:
    """The message classes a catalogue table names, retired rows aside."""
    return {
        name
        for line in table.splitlines()
        if "retired" not in line
        for name in re.findall(r"\b[A-Z]\w*(?:Request|Response)\b", line)
    }


def test_message_catalogues_match_the_codec_registry():
    """Every registered message class has a row in both catalogues —
    the ``messages`` module table and ARCHITECTURE's — and every class
    either table names is registered, so retiring a type byte cannot
    leave a stale row behind."""
    registered = {cls.__name__ for cls, _enc, _dec in codec._REGISTRY.values()}
    module_table = m.__doc__.split("Catalogue")[1].split("Versioning rules")[0]
    section = ARCHITECTURE.read_text().split("### Message catalogue")[1]
    architecture_table = "\n".join(
        line
        for line in section.split("\n### ")[0].splitlines()
        if line.startswith("|")
    )
    assert _catalogue_classes(module_table) == registered
    assert _catalogue_classes(architecture_table) == registered


def test_drop_request_is_its_pl_id_alone():
    """A 0x07 frame is the pl_id and nothing else. A frame in the old
    layout (pl_id + the retired count-only flag byte) is a typed error
    — trailing bytes — never a drop of some other list."""
    frame = codec.encode_message(m.DropListRequest(pl_id=3))
    assert frame == bytes.fromhex("5a57030703")
    assert codec.decode_message(frame) == m.DropListRequest(pl_id=3)
    for flag in (b"\x00", b"\x01"):
        with pytest.raises(ProtocolError, match="trailing"):
            codec.decode_message(frame + flag)


def test_adopt_frames_are_the_bytes_every_earlier_peer_wrote():
    """The 0x44 frame of one fixed adoption, as the encoder wrote it
    when the request carried share records: built from columns, the
    request puts the same bytes on the wire and decodes to columns."""
    columns = ([70000, 9, 4], [2, 1, 2], [2**64 + 12, 300, 0])
    packed = bytes.fromhex(
        "5a570344030303011170000009000004010201020901000000000000000c"
        "00000000000000012c000000000000000000"
    )
    message = m.AdoptListRequest(3, *columns)
    assert codec.encode_message(message) == packed
    assert codec.decode_message(packed) == message


def test_negative_integer_rejected_at_encode():
    with pytest.raises(ProtocolError, match="negative"):
        codec.encode_message(m.OpCountResponse(count=-1))


def test_oversized_varint_rejected():
    # 100 continuation bytes: an "integer" wider than any share can be.
    body = b"\xff" * 100 + b"\x01"
    frame = codec.MAGIC + bytes([m.PROTOCOL_VERSION, 0x21]) + body
    with pytest.raises(ProtocolError, match="cap"):
        codec.decode_message(frame)


def test_large_shares_survive_the_round_trip():
    # Shares live in Z_p with p > 2^64 — wider than any fixed-width int.
    message = m.AdoptListRequest(5, [1], [2], [2**71 + 12345])
    assert codec.decode_message(codec.encode_message(message)) == message


def test_wire_bytes_match_the_historical_cost_model():
    """The share-carrying answers' sizes must stay the §7.3 formulas:
    ``SearchDiagnostics.response_bytes`` sums them on every transport,
    so a drift here silently shifts every recorded
    ``response_bytes_per_query``."""
    lists = m.FetchListsResponse(
        lists=(
            PostingListResponse.from_records(
                pl_id=1,
                records=(ShareRecord(element_id=1, group_id=1, share_y=1),),
            ),
        )
    )
    assert lists.wire_bytes(9) == 4 + (4 + 4 + 9)
    assert m.CacheValueResponse(hit=True, value=b"ab").wire_bytes() == 3


# -- packed encodings (the bulk messages' record forms) -----------------------

#: The type bytes of the packed forms.
_PACKED_TYPES = (0x41, 0x42, 0x44, 0x45)

#: Messages with a packed (fixed-width column) wire form.
packable_messages = st.one_of(
    insert_requests,
    delete_requests,
    st.builds(
        m.FetchListsResponse,
        lists=st.lists(posting_lists, max_size=4).map(tuple),
    ),
    adopt_requests,
)


@settings(max_examples=300, deadline=None)
@given(message=packable_messages)
def test_packed_encode_decode_round_trip(message):
    encoded = codec.encode_message(message)
    assert encoded[3] in _PACKED_TYPES
    assert codec.decode_message(encoded) == message


@settings(max_examples=100, deadline=None)
@given(message=packable_messages, data=st.data())
def test_truncated_packed_frames_rejected(message, data):
    encoded = codec.encode_message(message)
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    try:
        decoded = codec.decode_message(encoded[:cut])
    except ProtocolError:
        return
    assert decoded != message


def test_packed_shares_wider_than_the_field_round_trip():
    message = m.AdoptListRequest(0, [1], [2], [2**71 + 99])
    blob = codec.encode_message(message)
    assert codec.decode_message(blob) == message


# -- the column codec: differential against a per-value reference -------------
#
# The packed messages code whole columns in bulk (array byte-swaps,
# strided slices). The reference below codes one value at a time with
# ``int.to_bytes`` / ``int.from_bytes``; the two must agree byte for
# byte and value for value, on every width the 74-byte cap allows a
# share to take — including the widths no benchmark run will ever see
# (a share >= 2^64 has probability 7e-19).

P = 2**64 + 13  # the deployment prime: shares live in [0, P)


def _reference_write(*columns) -> bytes:
    """The per-value rule, written out: a column's width is its largest
    value's byte length (``min``/``max``/``bit_length``), then one
    ``to_bytes`` per value; whatever that cannot encode is typed."""
    out = bytearray()
    codec.write_uint(out, len(columns[0]))
    if columns[0]:
        for column in columns:
            try:
                if min(column) < 0:
                    raise ProtocolError("negative integer")
                width = max(1, (max(column).bit_length() + 7) // 8)
                if width > 74:
                    raise ProtocolError("integer exceeds the size cap")
                out.append(width)
                for value in column:
                    out += value.to_bytes(width, "big")
            except (TypeError, AttributeError, OverflowError) as exc:
                raise ProtocolError(str(exc)) from exc
    return bytes(out)


def _reference_read(data: bytes, n: int) -> list[list[int]]:
    reader = codec.Reader(data)
    count = reader.uint()
    columns = []
    for _ in range(n if count else 0):
        width = data[reader.pos]
        start = reader.pos + 1
        reader.pos = start + width * count
        columns.append(
            [
                int.from_bytes(data[i : i + width], "big")
                for i in range(start, reader.pos, width)
            ]
        )
    reader.done()
    return columns or [[] for _ in range(n)]


def _column(rng: random.Random, width: int, count: int) -> list[int]:
    """``count`` values whose widest needs exactly ``width`` bytes."""
    column = [rng.getrandbits(8 * width) for _ in range(count)]
    if column:
        column[rng.randrange(count)] |= 1 << (8 * width - 1)
    return column


@pytest.mark.parametrize("count", [0, 1, 2, 1000])
@pytest.mark.parametrize("width", range(1, 21))  # 3, 8, 9, 16, 17 included
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32))
def test_column_codec_matches_the_per_value_reference(width, count, seed):
    rng = random.Random(seed)
    columns = [
        _column(rng, width, count),
        _column(rng, rng.randint(1, 20), count),
    ]
    out = bytearray()
    codec.write_columns(out, *columns)
    assert bytes(out) == _reference_write(*columns)
    reader = codec.Reader(bytes(out))
    assert codec.read_columns(reader, 2) == columns
    reader.done()
    assert _reference_read(bytes(out), 2) == columns


@pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 9, 16, 17, 74])
def test_reader_accepts_wider_than_minimal_columns(width):
    """Width is the *writer's* choice; a reader takes any 1..74."""
    column = [0, 1, 200, 255]
    frame = bytearray([len(column), width])
    for value in column:
        frame += value.to_bytes(width, "big")
    reader = codec.Reader(bytes(frame))
    assert codec.read_columns(reader, 1) == [column]
    reader.done()
    assert _reference_read(bytes(frame), 1) == [column]


#: Values on every byte-width boundary up to the 74-byte cap.
_WIDTH_EDGES = sorted(
    {0, 2**63, 2**64 - 1, 2**64, 2**64 + 12}
    | {
        2 ** (8 * j) + delta
        for j in range(1, 75)
        for delta in (-1, 1)
        if 2 ** (8 * j) + delta < 1 << (8 * 74)
    }
)
column_values = st.one_of(
    st.sampled_from(_WIDTH_EDGES),
    st.integers(min_value=0, max_value=1 << 20),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(
    columns=st.integers(min_value=1, max_value=40).flatmap(
        lambda count: st.lists(
            st.lists(column_values, min_size=count, max_size=count),
            min_size=1,
            max_size=3,
        )
    )
)
def test_column_encoder_matches_the_reference_at_every_width(columns):
    out = bytearray()
    codec.write_columns(out, *columns)
    assert bytes(out) == _reference_write(*columns)


@settings(max_examples=200, deadline=None)
@given(
    column=st.lists(column_values, max_size=20),
    bad=st.sampled_from([-1, -(2**64), 1.5, "7", 1 << (8 * 74), 2**700]),
    at=st.integers(min_value=0, max_value=20),
)
def test_unencodable_values_are_typed_by_both_encoders(column, bad, at):
    column.insert(min(at, len(column)), bad)
    with pytest.raises(ProtocolError):
        codec.write_columns(bytearray(), column)
    with pytest.raises(ProtocolError):
        _reference_write(column)


def _packed_messages_with(share: int) -> list:
    token = AuthToken("alice", 1, 2, b"sig")
    records = (
        ShareRecord(element_id=7, group_id=1, share_y=share),
        ShareRecord(element_id=70_000, group_id=3, share_y=5),
    )
    return [
        m.InsertBatchRequest(
            token,
            [9] * len(records),
            *PostingListResponse.from_records(9, records).columns,
        ),
        m.DeleteBatchRequest(token, [9, 10], [7, 70_000]),
        m.FetchListsResponse(
            lists=(
                PostingListResponse.from_records(9, records),
                PostingListResponse.from_records(10, ()),
            )
        ),
        _adopt(9, records),
    ]


@pytest.mark.parametrize("share", [2**64, P - 1, 2**71 + 99])
def test_two_limb_shares_round_trip_in_every_packed_message(share):
    for message in _packed_messages_with(share):
        packed = codec.encode_message(message)
        assert packed[3] in _PACKED_TYPES
        assert codec.decode_message(packed) == message


# -- the column codec: hostile frames ------------------------------------------


def test_packed_frames_truncated_at_every_cut_are_typed():
    for message in _packed_messages_with(P - 1):
        encoded = codec.encode_message(message)
        for cut in range(len(encoded)):
            with pytest.raises(ProtocolError):
                codec.decode_message(encoded[:cut])


def _forged_width_frames(width: int):
    """One valid single-record frame per column, that column's width
    byte overwritten with ``width``."""
    good = codec.encode_message(m.AdoptListRequest(0, [1], [1], [1]))
    # Layout: magic(2) version(1) type(1) pl_id(varint=0)
    # count(varint=1), then per column one width byte + one 1-byte value.
    for width_at in (6, 8, 10):
        forged = bytearray(good)
        forged[width_at] = width
        yield bytes(forged)


def test_packed_zero_width_column_rejected():
    """A forged packed frame claiming a zero-byte column is typed,
    whichever column carries it."""
    for forged in _forged_width_frames(0):
        with pytest.raises(ProtocolError, match="width"):
            codec.decode_message(forged)


@pytest.mark.parametrize("width", [75, 255])
def test_column_width_past_the_cap_rejected(width):
    for forged in _forged_width_frames(width):
        with pytest.raises(ProtocolError, match="width"):
            codec.decode_message(forged)


def test_oversized_count_is_rejected_before_allocating():
    """A 20-byte frame claiming 2^40 records must fail on the bounds
    check, not in the allocator."""
    body = bytearray()
    codec.write_uint(body, 1 << 40)
    body.append(8)  # element-id column: width 8, then nothing like 8 TiB
    frame = codec.MAGIC + bytes([m.PROTOCOL_VERSION, 0x44, 0]) + bytes(body)
    frame = frame.ljust(20, b"\x00")
    assert len(frame) == 20
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError, match="truncated"):
            codec.decode_message(frame)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("bad", [-1, 1.5, "7", None])
def test_unencodable_column_values_are_typed_at_encode(bad):
    for column in ([bad], [3, bad], [2**40, bad], [2**70, bad]):
        response = PostingListResponse(1, column, [1] * len(column), column)
        with pytest.raises(ProtocolError):
            codec.encode_message(m.FetchListsResponse(lists=(response,)))


def test_values_past_the_size_cap_are_typed_at_encode():
    with pytest.raises(ProtocolError, match="cap"):
        codec.write_columns(bytearray(), [1 << (8 * 74)])
    out = bytearray()
    codec.write_columns(out, [(1 << (8 * 74)) - 1])  # exactly at the cap
    assert codec.read_columns(codec.Reader(bytes(out)), 1) == [
        [(1 << (8 * 74)) - 1]
    ]


def test_ragged_columns_are_typed_at_encode():
    with pytest.raises(ProtocolError, match="ragged"):
        codec.write_columns(bytearray(), [1, 2], [1])
    ragged = PostingListResponse(1, [1, 2], [1], [1, 2])
    with pytest.raises(ProtocolError, match="ragged"):
        codec.encode_message(m.FetchListsResponse(lists=(ragged,)))


def test_version_2_frames_are_rejected_by_version():
    """v2 laid the packed messages out row-major under the same type
    bytes; a v2 frame must be refused for its version, never parsed."""
    assert m.PROTOCOL_VERSION == 3
    for message in _packed_messages_with(5):
        frame = bytearray(codec.encode_message(message))
        frame[2] = 2
        with pytest.raises(ProtocolError, match="version 2"):
            codec.decode_message(bytes(frame))


# -- a write batch is its columns, however they were built -------------------


@settings(max_examples=150, deadline=None)
@given(token=tokens, ops=insert_rows)
def test_insert_batch_from_columns_and_from_ops_share_their_bytes(token, ops):
    """Column lists, and tuples transposed from the rows with zip."""
    from_columns = m.InsertBatchRequest(token, *as_columns(ops))
    from_ops = m.InsertBatchRequest(token, *(tuple(zip(*ops)) or [()] * 4))
    frame = codec.encode_message(from_columns)
    assert frame[3] == 0x41
    assert frame == codec.encode_message(from_ops)
    # The decoder hands the server the columns it read, as lists.
    assert codec.decode_message(frame) == from_columns


_PINNED_TOKEN = AuthToken(
    user_id="alice", issued_at=5, expires_at=900, signature=b"\x01\x02"
)


def test_insert_frames_are_the_bytes_every_earlier_peer_wrote():
    """The protocol version 3 frame of one fixed batch, as the per-op
    encoder wrote it before the batch travelled as columns."""
    columns = ([3, 0, 3], [70000, 9, 4], [2, 1, 2], [2**64 + 12, 300, 0])
    packed = bytes.fromhex(
        "5a57034105616c696365058407020102030103000303011170000009000004"
        "010201020901000000000000000c00000000000000012c000000000000000000"
    )
    message = m.InsertBatchRequest(_PINNED_TOKEN, *columns)
    assert codec.encode_message(message) == packed
    assert codec.decode_message(packed) == message


def test_delete_frames_are_the_token_and_two_packed_columns():
    """0x45 is the token, then the row count and, per column, one width
    byte and fixed-width big-endian values — written out by hand."""
    packed = bytes.fromhex(
        "5a570345"  # magic, version 3, type 0x45
        "05616c696365" "05" "8407" "020102"  # the token
        "03"  # three rows
        "01030003"  # pl_ids: width 1
        "03011170000009000004"  # element_ids: width 3
    )
    message = m.DeleteBatchRequest(_PINNED_TOKEN, [3, 0, 3], [70000, 9, 4])
    assert codec.encode_message(message) == packed
    assert codec.decode_message(packed) == message
