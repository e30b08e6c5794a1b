"""The fsync'd manifest — the one pointer that defines a seat's state.

``MANIFEST`` in a seat's storage directory names the current snapshot
(or none) and the first live segment number. Everything else on disk is
derived state: recovery loads exactly the named snapshot, replays
exactly the segments numbered ``first_segment`` and up, and treats any
other file — older segments, superseded or half-written snapshots,
``.tmp`` leftovers — as garbage to delete. Because the manifest is
replaced atomically (temp file, fsync, ``os.replace``, directory fsync)
a crash at *any* instant leaves either the old pointer or the new one,
never a torn in-between, which is the whole crash-consistency argument
of the engine in one sentence.

Format: one line, LEB128-framed would be overkill for three fields —
``ZSM1 <snapshot-name-or-dash> <first_segment> <crc32-of-the-fields>``.
The CRC rejects a torn manifest write on filesystems that do not make
``O_TRUNC``-free renames atomic.
"""

from __future__ import annotations

import os
import pathlib
import zlib
from dataclasses import dataclass

from repro.errors import StorageError

MANIFEST_NAME = "MANIFEST"
_MANIFEST_MAGIC = "ZSM1"


def fsync_dir(path: str | pathlib.Path) -> None:
    """fsync a directory so a rename/create inside it is durable.

    ``os.replace`` makes a swap atomic but not persistent: until the
    parent directory's metadata reaches disk, a crash can resurrect the
    old name. Platforms whose directory handles cannot be fsynced
    (Windows) are skipped — there the rename itself is the best
    available barrier.
    """
    try:
        dir_fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


@dataclass(frozen=True)
class Manifest:
    """The recovery pointer: which snapshot, which segment suffix.

    Attributes:
        snapshot: file name of the current snapshot inside the storage
            directory, or None before the first compaction.
        first_segment: the lowest segment number recovery must replay
            (segments below it are covered by the snapshot).
    """

    snapshot: str | None
    first_segment: int


def manifest_path(directory: str | pathlib.Path) -> pathlib.Path:
    return pathlib.Path(directory) / MANIFEST_NAME


def load_manifest(directory: str | pathlib.Path) -> Manifest | None:
    """Read a directory's manifest (None when the store is brand new).

    Raises:
        StorageError: the manifest exists but is garbage — wrong magic,
            wrong field count, or a CRC mismatch. A store whose pointer
            cannot be trusted must not guess at its own state.
    """
    path = manifest_path(directory)
    if not path.exists():
        return None
    text = path.read_text(encoding="ascii").strip()
    parts = text.split()
    if len(parts) != 4 or parts[0] != _MANIFEST_MAGIC:
        raise StorageError(f"{path}: malformed manifest {text!r}")
    fields = " ".join(parts[:3])
    try:
        stored_crc = int(parts[3])
        first_segment = int(parts[2])
    except ValueError as exc:
        raise StorageError(f"{path}: malformed manifest {text!r}") from exc
    if zlib.crc32(fields.encode("ascii")) != stored_crc:
        raise StorageError(f"{path}: manifest CRC mismatch")
    snapshot = None if parts[1] == "-" else parts[1]
    return Manifest(snapshot=snapshot, first_segment=first_segment)


def write_manifest(
    directory: str | pathlib.Path, manifest: Manifest
) -> None:
    """Atomically replace the manifest and make the swap durable."""
    directory = pathlib.Path(directory)
    fields = (
        f"{_MANIFEST_MAGIC} {manifest.snapshot or '-'} "
        f"{manifest.first_segment}"
    )
    crc = zlib.crc32(fields.encode("ascii"))
    tmp = directory / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="ascii") as handle:
        handle.write(f"{fields} {crc}\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, manifest_path(directory))
    fsync_dir(directory)
