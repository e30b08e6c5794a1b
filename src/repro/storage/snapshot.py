"""Immutable snapshot files — the segmented engine's bulk-load format.

A snapshot is the full live state at a compaction point, so recovery
loads it wholesale and replays only the segment suffix written since.
Layout (``snap-00000007.zsnap``, numbered by the first segment the
snapshot does *not* cover)::

    +------+---------+-------------+--------------------+-----+-----+
    | ZSNP | version | varint list | varint pl_id       | ... | CRC |
    |      |         | count       | + column block     |     |     |
    +------+---------+-------------+--------------------+-----+-----+

Each non-empty list is its ID followed by one
:func:`~repro.protocol.codec.write_columns` block of its
:class:`~repro.server.index_server.SeatList` columns ``(element_ids,
group_ids, share_ys)`` as stored — the packed column form the wire and
the segment log use. Lists are in increasing ID order and rows in the
seat's row order, so a recovered seat answers in its peers' order. A
trailing CRC32 over everything after the magic+version seals the file:
a snapshot either loads exactly or is rejected — the manifest only ever
names one that was fsynced before the pointer swap. Version 1 images
(fixed-width row-major records) are refused by version.

As everywhere else on disk: shares only, never secrets (§5).
"""

from __future__ import annotations

import os
import pathlib
import zlib

from repro.errors import ProtocolError, StorageError
from repro.protocol.codec import (
    Reader,
    read_columns,
    write_columns,
    write_uint,
)
from repro.server.index_server import SeatList
from repro.storage.manifest import fsync_dir

SNAPSHOT_MAGIC = b"ZSNP"
SNAPSHOT_VERSION = 2
_PREFIX_LEN = len(SNAPSHOT_MAGIC) + 1  # CRC covers everything after this


def snapshot_bytes(store: dict[int, SeatList]) -> tuple[bytes, int]:
    """Encode one store state as a complete, CRC-sealed snapshot image.

    Returns ``(image, record_count)``. The image is the exact byte
    sequence :func:`write_snapshot` puts on disk, so the same sealed
    format serves both the durable file and the wire (snapshot-shipping
    rebalance and anti-entropy repair move these bytes inside an
    ``AdoptSnapshotRequest``; the receiver's CRC check is therefore end
    to end, disk or socket alike). Empty lists are left out.
    """
    lists = [pl_id for pl_id in sorted(store) if store[pl_id]]
    body = bytearray()
    write_uint(body, len(lists))
    count = 0
    for pl_id in lists:
        plist = store[pl_id]
        write_uint(body, pl_id)
        write_columns(body, *plist.columns)
        count += len(plist)
    image = bytearray(SNAPSHOT_MAGIC)
    image.append(SNAPSHOT_VERSION)
    image += body
    image += zlib.crc32(body).to_bytes(4, "little")
    return bytes(image), count


def write_snapshot(
    path: str | pathlib.Path, store: dict[int, SeatList]
) -> int:
    """Write one snapshot atomically; returns the records written.

    The bytes go to ``<path>.tmp`` first, are fsynced, and only then
    renamed over ``path`` — a crash mid-write leaves a ``.tmp`` orphan
    the engine deletes on next open, never a half-snapshot under the
    real name. The directory is fsynced before returning: POSIX does
    not order the durability of two renames, so without this barrier a
    crash could persist the *manifest* swap that names this snapshot
    while the snapshot's own rename never reached disk — a pointer to
    a missing file, which recovery rightly refuses to guess around.
    """
    path = pathlib.Path(path)
    image, count = snapshot_bytes(store)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(image)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)
    return count


def parse_snapshot_bytes(
    data: bytes, source: str = "<wire>"
) -> dict[int, SeatList]:
    """Parse one sealed snapshot image into ``pl_id -> SeatList``, each
    list owning the columns it was read into, rows in image order.

    ``source`` only labels error messages (a file path, or the default
    ``"<wire>"`` for shipped images).

    Raises:
        StorageError: bad magic/version, CRC mismatch, truncation or a
            body that does not parse — a snapshot image is sealed, so
            any damage (disk rot or a torn wire frame) must stop loudly
            rather than load a silently shortened index. So are list
            IDs that do not strictly increase and an element ID repeated
            within a list, which no writer emits.
    """
    if len(data) < _PREFIX_LEN + 1 + 4:
        raise StorageError(f"{source}: snapshot truncated")
    if data[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise StorageError(f"{source}: not a snapshot file (bad magic)")
    if data[len(SNAPSHOT_MAGIC)] != SNAPSHOT_VERSION:
        raise StorageError(
            f"{source}: unsupported snapshot version "
            f"{data[len(SNAPSHOT_MAGIC)]}"
        )
    body = data[_PREFIX_LEN:-4]
    if zlib.crc32(body) != int.from_bytes(data[-4:], "little"):
        raise StorageError(f"{source}: snapshot CRC mismatch")
    reader = Reader(body)
    store: dict[int, SeatList] = {}
    previous = -1
    try:
        for _ in range(reader.uint()):
            pl_id = reader.uint()
            if pl_id <= previous:
                raise StorageError(f"{source}: list {pl_id} out of order")
            previous = pl_id
            plist = SeatList(*read_columns(reader, 3))
            if len(plist.row_of) != len(plist):
                raise StorageError(f"{source}: list {pl_id}: repeated element")
            store[pl_id] = plist
        reader.done()
    except ProtocolError as exc:
        raise StorageError(f"{source}: undecodable snapshot: {exc}") from exc
    return store


def load_snapshot(path: str | pathlib.Path) -> dict[int, SeatList]:
    """Load one snapshot file as ``pl_id -> SeatList``.

    Raises:
        StorageError: any damage — a manifest-named snapshot is sealed,
            so a failed validation means the disk lied and recovery must
            stop loudly rather than serve a silently shortened index.
    """
    return parse_snapshot_bytes(
        pathlib.Path(path).read_bytes(), source=str(path)
    )
