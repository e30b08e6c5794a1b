"""Immutable snapshot files — the segmented engine's bulk-load format.

A snapshot is the full live state at a compaction point, so recovery
loads it wholesale and replays only the segment suffix written since.
Layout (``snap-00000007.zsnap``, numbered by the first segment the
snapshot does *not* cover)::

    +------+---------+--------------+-------+----------------+-----+
    | ZSNP | version | widths (4 B) | count |  packed records | CRC |
    +------+---------+--------------+-------+----------------+-----+

Records are **fixed-width big-endian integers** — pl_id, element_id,
group_id at ``id_width`` bytes each and the share at ``share_width``
bytes — rather than varints: recovery is the sole reason this file
exists, and decoding fixed strides beats walking LEB128 byte by byte
over a hundred thousand records. The writer pads both widths up to
struct-compatible sizes (1/2/4/8 bytes; shares wider than 8 bytes — the
default 64-bit+ prime needs 9 — are split into a high part + an 8-byte
low word), so loading is one ``struct.iter_unpack`` sweep at C speed; a
reader that meets widths it has no fast path for falls back to
``int.from_bytes``. The widths live in the header, the count is a
varint, and a trailing CRC32 over everything after the magic+version
seals the file: a snapshot either loads exactly or is rejected — there
is no such thing as a partially valid snapshot, because the manifest
only ever names one that was fsynced before the pointer swap.

As everywhere else on disk: shares only, never secrets (§5).
"""

from __future__ import annotations

import os
import pathlib
import struct
import zlib

from repro.errors import ProtocolError, StorageError
from repro.protocol.codec import Reader, write_uint
from repro.server.index_server import ShareRecord
from repro.storage.manifest import fsync_dir

SNAPSHOT_MAGIC = b"ZSNP"
SNAPSHOT_VERSION = 1
_PREFIX_LEN = len(SNAPSHOT_MAGIC) + 1  # CRC covers everything after this

#: struct format characters for the widths the writer emits.
_STRUCT_CHAR = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _pad_width(natural: int) -> int:
    """The smallest struct-decodable width >= ``natural`` (<= 8)."""
    for width in (1, 2, 4, 8):
        if natural <= width:
            return width
    return natural  # > 8: caller splits or falls back


def snapshot_bytes(
    store: dict[int, dict[int, ShareRecord]],
) -> tuple[bytes, int]:
    """Encode one store state as a complete, CRC-sealed snapshot image.

    Returns ``(image, record_count)``. The image is the exact byte
    sequence :func:`write_snapshot` puts on disk — magic, version,
    widths, count, packed records, trailing CRC32 — so the same sealed
    format serves both the durable file and the wire (snapshot-shipping
    rebalance and anti-entropy repair move these bytes inside an
    ``AdoptSnapshotRequest``; the receiver's CRC check is therefore end
    to end, disk or socket alike).
    """
    max_id = 1
    max_share = 1
    count = 0
    for pl_id, plist in store.items():
        if not plist:
            continue
        count += len(plist)
        # Element IDs are the keys; per-field C-level max() sweeps beat
        # one Python-level loop over records by a wide margin.
        max_id = max(max_id, pl_id, max(plist))
        max_id = max(max_id, max(r.group_id for r in plist.values()))
        max_share = max(max_share, max(r.share_y for r in plist.values()))
    id_width = _pad_width((max_id.bit_length() + 7) // 8)
    natural_share = (max_share.bit_length() + 7) // 8
    if natural_share <= 8:
        share_width = _pad_width(natural_share)
    elif natural_share <= 16:
        # High part padded to a struct width + an 8-byte low word.
        share_width = _pad_width(natural_share - 8) + 8
    else:  # pragma: no cover - shares beyond 128 bits
        share_width = natural_share
    body = bytearray()
    body.append(id_width)
    body.append(0)  # reserved
    body.append(0)  # reserved
    body.append(share_width)
    write_uint(body, count)
    id_char = _STRUCT_CHAR.get(id_width)
    if id_char and share_width in _STRUCT_CHAR:
        # One struct pack per record (the loader's iter_unpack twin).
        pack = struct.Struct(
            ">" + id_char * 3 + _STRUCT_CHAR[share_width]
        ).pack
        for pl_id in sorted(store):
            plist = store[pl_id]
            body += b"".join(
                pack(pl_id, element_id, record.group_id, record.share_y)
                for element_id, record in sorted(plist.items())
            )
    elif id_char and share_width > 8 and share_width - 8 in _STRUCT_CHAR:
        # Wide shares (the 64-bit+ prime): high part + 8-byte low word.
        pack = struct.Struct(
            ">" + id_char * 3 + _STRUCT_CHAR[share_width - 8] + "Q"
        ).pack
        low_mask = (1 << 64) - 1
        for pl_id in sorted(store):
            plist = store[pl_id]
            body += b"".join(
                pack(
                    pl_id,
                    element_id,
                    record.group_id,
                    record.share_y >> 64,
                    record.share_y & low_mask,
                )
                for element_id, record in sorted(plist.items())
            )
    else:  # pragma: no cover - widths with no struct fast path
        for pl_id in sorted(store):
            plist = store[pl_id]
            for element_id in sorted(plist):
                record = plist[element_id]
                body += pl_id.to_bytes(id_width, "big")
                body += record.element_id.to_bytes(id_width, "big")
                body += record.group_id.to_bytes(id_width, "big")
                body += record.share_y.to_bytes(share_width, "big")
    image = bytearray(SNAPSHOT_MAGIC)
    image.append(SNAPSHOT_VERSION)
    image += body
    image += zlib.crc32(body).to_bytes(4, "little")
    return bytes(image), count


def write_snapshot(
    path: str | pathlib.Path,
    store: dict[int, dict[int, ShareRecord]],
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
) -> dict[int, dict[int, ShareRecord]]:
    """Parse one sealed snapshot image into the in-memory store layout.

    ``source`` only labels error messages (a file path, or the default
    ``"<wire>"`` for shipped images).

    Raises:
        StorageError: bad magic/version, CRC mismatch, or truncation —
            a snapshot image is sealed, so any damage (disk rot or a
            torn wire frame) must stop loudly rather than load a
            silently shortened index.
    """
    path = source
    if len(data) < _PREFIX_LEN + 4 + 4:
        raise StorageError(f"{path}: snapshot truncated")
    if data[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise StorageError(f"{path}: not a snapshot file (bad magic)")
    if data[len(SNAPSHOT_MAGIC)] != SNAPSHOT_VERSION:
        raise StorageError(
            f"{path}: unsupported snapshot version "
            f"{data[len(SNAPSHOT_MAGIC)]}"
        )
    body = data[_PREFIX_LEN:-4]
    stored_crc = int.from_bytes(data[-4:], "little")
    if zlib.crc32(body) != stored_crc:
        raise StorageError(f"{path}: snapshot CRC mismatch")
    id_width = body[0]
    share_width = body[3]
    if id_width == 0 or share_width == 0:
        raise StorageError(f"{path}: zero field width in snapshot header")
    reader = Reader(body, 4)
    try:
        count = reader.uint()
    except ProtocolError as exc:
        raise StorageError(f"{path}: bad snapshot record count") from exc
    stride = 3 * id_width + share_width
    offset = reader.pos
    if offset + count * stride != len(body):
        raise StorageError(
            f"{path}: snapshot body is {len(body) - offset} bytes, "
            f"expected {count} x {stride}"
        )
    store: dict[int, dict[int, ShareRecord]] = {}
    records = body[offset:]
    id_char = _STRUCT_CHAR.get(id_width)
    if id_char and share_width in _STRUCT_CHAR:
        # One C-speed sweep: every field is a struct-native width.
        fmt = ">" + id_char * 3 + _STRUCT_CHAR[share_width]
        for pl_id, element_id, group_id, share_y in struct.iter_unpack(
            fmt, records
        ):
            plist = store.get(pl_id)
            if plist is None:
                plist = store[pl_id] = {}
            plist[element_id] = ShareRecord(
                element_id=element_id, group_id=group_id, share_y=share_y
            )
        return store
    if id_char and share_width > 8 and share_width - 8 in _STRUCT_CHAR:
        # Wide shares (the 64-bit+ prime): high part + 8-byte low word.
        fmt = ">" + id_char * 3 + _STRUCT_CHAR[share_width - 8] + "Q"
        for pl_id, element_id, group_id, hi, lo in struct.iter_unpack(
            fmt, records
        ):
            plist = store.get(pl_id)
            if plist is None:
                plist = store[pl_id] = {}
            plist[element_id] = ShareRecord(
                element_id=element_id,
                group_id=group_id,
                share_y=(hi << 64) | lo,
            )
        return store
    # Robustness fallback for widths this reader has no fast path for.
    view = memoryview(body)
    share_at = 3 * id_width
    for _ in range(count):
        row = view[offset : offset + stride]
        pl_id = int.from_bytes(row[:id_width], "big")
        element_id = int.from_bytes(row[id_width : 2 * id_width], "big")
        group_id = int.from_bytes(row[2 * id_width : share_at], "big")
        share_y = int.from_bytes(row[share_at:], "big")
        plist = store.get(pl_id)
        if plist is None:
            plist = store[pl_id] = {}
        plist[element_id] = ShareRecord(
            element_id=element_id, group_id=group_id, share_y=share_y
        )
        offset += stride
    return store


def load_snapshot(
    path: str | pathlib.Path,
) -> dict[int, dict[int, ShareRecord]]:
    """Load one snapshot file into the server's in-memory store layout.

    Raises:
        StorageError: any damage — a manifest-named snapshot is sealed,
            so a failed validation means the disk lied and recovery must
            stop loudly rather than serve a silently shortened index.
    """
    return parse_snapshot_bytes(
        pathlib.Path(path).read_bytes(), source=str(path)
    )
