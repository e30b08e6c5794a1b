"""Binary append-only segment files — the segmented engine's WAL unit.

A seat's history is a numbered sequence of segment files
(``seg-00000001.zseg``, ``seg-00000002.zseg``, ...). Each file is::

    +------+---------+--------+--------+-----+
    | ZSEG | version | record | record | ... |
    +------+---------+--------+--------+-----+

and each record is **one accepted write batch**, framed with a LEB128
length and a CRC::

    varint(len(payload))  payload  crc32(payload) as 4 LE bytes
    payload = kind byte 1 + write_columns(pl_ids, element_ids,
                                          group_ids, share_ys)   (insert)
            | kind byte 2 + write_columns(pl_ids, element_ids)   (delete)

The columns are the wire codec's packed form
(:func:`repro.protocol.codec.write_columns`: a row count, then per
column one width byte and fixed-width big-endian values), so a batch
reaches disk without a Python pass per row and replays as columns. The
batch is the unit the paper's servers see (§5.4.1) and the unit of
atomicity: a record is whole or it is not there.

Only shares ever reach disk — the §5 share-only-on-disk guarantee holds
byte for byte through the binary layout.

Torn-tail discipline: a crash can truncate the *last* record of the
*last* segment mid-write. :func:`read_segment` therefore distinguishes
a clean tail (``truncate_at == file size``) from a torn one, and
:func:`repair_segment_tail` truncates the file back to its last whole
record on open, so sealed segments are always clean and corruption
anywhere else is a hard :class:`~repro.errors.StorageError` — damage in
the middle of the history can never be mistaken for a crash artifact.
A record whose CRC matches but whose payload does not parse (unknown
kind, bad columns, trailing bytes) is a format error, never a torn
tail. Version 1 files (one record per share) are refused by version.
"""

from __future__ import annotations

import os
import pathlib
import re
import zlib
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ProtocolError, StorageError
from repro.protocol.codec import (
    Reader,
    read_columns,
    write_columns,
    write_uint,
)

SEGMENT_MAGIC = b"ZSEG"
SEGMENT_VERSION = 2
HEADER_LEN = len(SEGMENT_MAGIC) + 1

KIND_INSERT = 1
KIND_DELETE = 2

#: Columns per record kind.
_WIDTH = {KIND_INSERT: 4, KIND_DELETE: 2}

_SEGMENT_NAME = re.compile(r"^seg-(\d{8})\.zseg$")


def segment_name(number: int) -> str:
    return f"seg-{number:08d}.zseg"


def segment_number(name: str) -> int | None:
    """The sequence number of a segment file name (None if not one)."""
    match = _SEGMENT_NAME.match(name)
    return int(match.group(1)) if match else None


def encode_block(kind: int, *columns: Sequence[int]) -> bytes:
    """One framed record holding a whole batch's aligned columns."""
    payload = bytearray((kind,))
    write_columns(payload, *columns)
    out = bytearray()
    write_uint(out, len(payload))
    out += payload
    out += zlib.crc32(payload).to_bytes(4, "little")
    return bytes(out)


@dataclass
class SegmentScan:
    """What one pass over a segment file found.

    Attributes:
        blocks: the decoded records as ``(kind, columns)``, in log order.
        truncate_at: byte offset of the end of the last whole, valid
            record (== file size when the tail is clean). Everything
            past it is a torn tail — or corruption, which is the
            caller's call to make based on whether this segment is the
            last of the live set.
    """

    blocks: list[tuple[int, list[list[int]]]]
    truncate_at: int


def _uvarint(data, pos: int) -> tuple[int, int]:
    """LEB128 decode at ``pos``. Raises IndexError past the end, which
    the caller treats as a torn tail."""
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
            materialized (``blocks`` comes back empty) — the cheap
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
        return SegmentScan(blocks=[], truncate_at=0)
    if data[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        raise StorageError(f"{path}: not a segment file (bad magic)")
    if data[len(SEGMENT_MAGIC)] != SEGMENT_VERSION:
        raise StorageError(
            f"{path}: unsupported segment version {data[len(SEGMENT_MAGIC)]}"
        )
    blocks: list[tuple[int, list[list[int]]]] = []
    size = len(data)
    pos = HEADER_LEN
    good_end = HEADER_LEN
    while pos < size:
        try:
            length, body_start = _uvarint(data, pos)
        except IndexError:
            break  # torn varint at the tail
        body_end = body_start + length
        if body_end + 4 > size:
            break  # torn tail: payload or CRC cut off
        payload = data[body_start:body_end]
        if zlib.crc32(payload) != int.from_bytes(
            data[body_end : body_end + 4], "little"
        ):
            break  # torn or corrupt record; caller judges which
        if decode:
            blocks.append(_decode_payload(payload, path))
        pos = body_end + 4
        good_end = pos
    return SegmentScan(blocks=blocks, truncate_at=good_end)


def _decode_payload(
    payload: bytes, path: str | pathlib.Path
) -> tuple[int, list[list[int]]]:
    # The CRC matched, so any failure here is a format problem, not rot.
    kind = payload[0] if payload else None
    if kind not in _WIDTH:
        raise StorageError(f"{path}: unknown record kind {kind}")
    reader = Reader(payload, 1)
    try:
        columns = read_columns(reader, _WIDTH[kind])
        reader.done()
    except ProtocolError as exc:
        raise StorageError(f"{path}: undecodable record: {exc}") from exc
    return kind, columns


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


def iter_blocks(
    directory: pathlib.Path, numbers: list[int]
) -> Iterator[tuple[int, list[list[int]]]]:
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
        yield from scan.blocks
