"""Binary append-only segment files — the segmented engine's WAL unit.

A seat's history is a numbered sequence of segment files
(``seg-00000001.zseg``, ``seg-00000002.zseg``, ...). Each file is::

    +------+---------+--------+--------+-----+
    | ZSEG | version | record | record | ... |
    +------+---------+--------+--------+-----+

and each record is framed with the PR 4 LEB128 codec plus a CRC::

    varint(len(payload))  payload  crc32(payload) as 4 LE bytes
    payload = kind byte (1 = insert, 2 = delete)
              + varint pl_id + varint element_id
              [+ varint group_id + varint share_y]   (inserts only)

Only shares ever reach disk — the §5 share-only-on-disk guarantee holds
byte for byte through the binary layout.

Torn-tail discipline: a crash can truncate the *last* record of the
*last* segment mid-write. :func:`read_segment` therefore distinguishes
a clean tail (``truncate_at == file size``) from a torn one, and
:func:`repair_segment_tail` truncates the file back to its last whole
record on open, so sealed segments are always clean and corruption
anywhere else is a hard :class:`~repro.errors.StorageError` — damage in
the middle of the history can never be mistaken for a crash artifact.
"""

from __future__ import annotations

import os
import pathlib
import re
import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.errors import StorageError
from repro.protocol.codec import write_uint
from repro.server.index_server import DeleteOp, InsertOp

SEGMENT_MAGIC = b"ZSEG"
SEGMENT_VERSION = 1
HEADER_LEN = len(SEGMENT_MAGIC) + 1

KIND_INSERT = 1
KIND_DELETE = 2

_SEGMENT_NAME = re.compile(r"^seg-(\d{8})\.zseg$")


def segment_name(number: int) -> str:
    return f"seg-{number:08d}.zseg"


def segment_number(name: str) -> int | None:
    """The sequence number of a segment file name (None if not one)."""
    match = _SEGMENT_NAME.match(name)
    return int(match.group(1)) if match else None


def encode_insert(
    out: bytearray, pl_id: int, element_id: int, group_id: int, share_y: int
) -> None:
    """Append one framed insert record to ``out``."""
    payload = bytearray((KIND_INSERT,))
    write_uint(payload, pl_id)
    write_uint(payload, element_id)
    write_uint(payload, group_id)
    write_uint(payload, share_y)
    _frame(out, payload)


def encode_delete(out: bytearray, op: DeleteOp) -> None:
    """Append one framed delete record to ``out``."""
    payload = bytearray((KIND_DELETE,))
    write_uint(payload, op.pl_id)
    write_uint(payload, op.element_id)
    _frame(out, payload)


def _frame(out: bytearray, payload: bytearray) -> None:
    write_uint(out, len(payload))
    out.extend(payload)
    out.extend(zlib.crc32(payload).to_bytes(4, "little"))


@dataclass
class SegmentScan:
    """What one pass over a segment file found.

    Attributes:
        operations: the decoded records, in log order.
        truncate_at: byte offset of the end of the last whole, valid
            record (== file size when the tail is clean). Everything
            past it is a torn tail — or corruption, which is the
            caller's call to make based on whether this segment is the
            last of the live set.
    """

    operations: list[InsertOp | DeleteOp]
    truncate_at: int


def _uvarint(data, pos: int) -> tuple[int, int]:
    """LEB128 decode at ``pos`` (tight local loop — this is recovery's
    hot path; the codec's bounds-checked Reader costs ~3x as much).
    Raises IndexError past the end, which callers treat as a torn tail.
    """
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def read_segment(
    path: str | pathlib.Path, decode: bool = True
) -> SegmentScan:
    """Decode one segment file, stopping at the first damage.

    Args:
        path: the segment file.
        decode: with False, records are CRC-validated but not
            materialized (``operations`` comes back empty) — the cheap
            mode tail repair uses to find the valid prefix.

    Raises:
        StorageError: the header is wrong (not a segment / unsupported
            version) on a file large enough to have one, or a
            CRC-valid record fails to parse (a format bug, not a
            crash). A file shorter than the header is a create-crash
            artifact and scans as empty with ``truncate_at == 0``.
    """
    data = pathlib.Path(path).read_bytes()
    if len(data) < HEADER_LEN:
        return SegmentScan(operations=[], truncate_at=0)
    if data[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        raise StorageError(f"{path}: not a segment file (bad magic)")
    if data[len(SEGMENT_MAGIC)] != SEGMENT_VERSION:
        raise StorageError(
            f"{path}: unsupported segment version {data[len(SEGMENT_MAGIC)]}"
        )
    operations: list[InsertOp | DeleteOp] = []
    size = len(data)
    pos = HEADER_LEN
    good_end = HEADER_LEN
    crc32 = zlib.crc32
    from_bytes = int.from_bytes
    while pos < size:
        try:
            length, body_start = _uvarint(data, pos)
        except IndexError:
            break  # torn varint at the tail
        body_end = body_start + length
        if body_end + 4 > size:
            break  # torn tail: payload or CRC cut off
        payload = data[body_start:body_end]
        if crc32(payload) != from_bytes(
            data[body_end : body_end + 4], "little"
        ):
            break  # torn or corrupt record; caller judges which
        if decode:
            operations.append(_decode_payload(payload, path))
        pos = body_end + 4
        good_end = pos
    return SegmentScan(operations=operations, truncate_at=good_end)


def _decode_payload(
    payload: bytes, path: str | pathlib.Path
) -> InsertOp | DeleteOp:
    if not payload:
        raise StorageError(f"{path}: empty record payload")
    kind = payload[0]
    try:
        pl_id, pos = _uvarint(payload, 1)
        element_id, pos = _uvarint(payload, pos)
        if kind == KIND_INSERT:
            group_id, pos = _uvarint(payload, pos)
            share_y, pos = _uvarint(payload, pos)
            op: InsertOp | DeleteOp = InsertOp(
                pl_id=pl_id,
                element_id=element_id,
                group_id=group_id,
                share_y=share_y,
            )
        elif kind == KIND_DELETE:
            op = DeleteOp(pl_id=pl_id, element_id=element_id)
        else:
            # The CRC matched, so this is a format problem, not bit rot.
            raise StorageError(f"{path}: unknown record kind {kind}")
    except IndexError as exc:
        raise StorageError(f"{path}: undecodable record") from exc
    if pos != len(payload):
        raise StorageError(f"{path}: trailing bytes inside a record")
    return op


def decode_op_frames(
    data: bytes, source: str = "<wire>"
) -> list[InsertOp | DeleteOp]:
    """Decode a sealed run of record frames (no segment header).

    This is the *wire* twin of :func:`read_segment`: snapshot-shipping
    sends a segment suffix — operations logged after the shipped
    snapshot's rotation point — as a bare concatenation of the same
    framed records a segment file holds. Unlike an on-disk tail, a
    shipped suffix is sealed by construction (it crossed a
    length-prefixed transport frame intact), so *any* damage — torn
    varint, short payload, CRC mismatch, trailing bytes — raises
    :class:`~repro.errors.StorageError` instead of being treated as a
    crash artifact.
    """
    operations: list[InsertOp | DeleteOp] = []
    size = len(data)
    pos = 0
    crc32 = zlib.crc32
    from_bytes = int.from_bytes
    while pos < size:
        try:
            length, body_start = _uvarint(data, pos)
        except IndexError as exc:
            raise StorageError(f"{source}: torn record frame") from exc
        body_end = body_start + length
        if body_end + 4 > size:
            raise StorageError(f"{source}: truncated record frame")
        payload = data[body_start:body_end]
        if crc32(payload) != from_bytes(
            data[body_end : body_end + 4], "little"
        ):
            raise StorageError(f"{source}: record CRC mismatch")
        operations.append(_decode_payload(payload, source))
        pos = body_end + 4
    return operations


def encode_op_frames(operations) -> bytes:
    """Frame a run of operations for the wire (decode_op_frames' twin)."""
    out = bytearray()
    for op in operations:
        if isinstance(op, InsertOp):
            encode_insert(
                out, op.pl_id, op.element_id, op.group_id, op.share_y
            )
        else:
            encode_delete(out, op)
    return bytes(out)


def repair_segment_tail(path: str | pathlib.Path) -> int:
    """Truncate a segment back to its last whole record (crash repair).

    Returns the number of bytes cut. Called on the highest-numbered
    segment when a store opens, so every *sealed* segment is clean by
    construction.
    """
    path = pathlib.Path(path)
    size = path.stat().st_size
    if size < HEADER_LEN:
        # Create-crash artifact: not even a whole header. Rewrite it as
        # an empty, well-formed segment so the appender can continue.
        path.write_bytes(SEGMENT_MAGIC + bytes((SEGMENT_VERSION,)))
        return size
    scan = read_segment(path, decode=False)
    if scan.truncate_at >= size:
        return 0
    with open(path, "r+b") as handle:
        handle.truncate(scan.truncate_at)
        handle.flush()
        os.fsync(handle.fileno())
    return size - scan.truncate_at


class SegmentWriter:
    """Appender for one live segment file (creates it with the header).

    Tracks the size itself (append-mode ``tell()`` semantics differ
    across platforms before the first write).
    """

    def __init__(self, path: str | pathlib.Path, number: int) -> None:
        self.path = pathlib.Path(path)
        self.number = number
        self._handle = open(self.path, "ab")
        self._size = self.path.stat().st_size
        if self._size == 0:
            header = SEGMENT_MAGIC + bytes((SEGMENT_VERSION,))
            self._handle.write(header)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._size = len(header)

    def append(self, frames: bytes) -> None:
        """Write pre-encoded record frames and fsync (one sync per batch)."""
        self._handle.write(frames)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._size += len(frames)

    def tell(self) -> int:
        return self._size

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def scan_segment_numbers(directory: pathlib.Path) -> list[int]:
    """Sorted sequence numbers of every segment file in a directory."""
    numbers = []
    for name in os.listdir(directory):
        number = segment_number(name)
        if number is not None:
            numbers.append(number)
    return sorted(numbers)


def iter_operations(
    directory: pathlib.Path, numbers: list[int]
) -> Iterator[InsertOp | DeleteOp]:
    """Replay segments in order; only the last may carry a torn tail.

    Raises:
        StorageError: damage in any segment but the last — a torn tail
            there cannot be a crash artifact, so the history is corrupt.
    """
    for index, number in enumerate(numbers):
        path = directory / segment_name(number)
        scan = read_segment(path)
        clean = scan.truncate_at == path.stat().st_size
        if not clean and index != len(numbers) - 1:
            raise StorageError(
                f"{path}: damaged interior segment (valid prefix "
                f"{scan.truncate_at} of {path.stat().st_size} bytes)"
            )
        yield from scan.operations
