"""The per-seat storage engine: :class:`SegmentedStore`.

"The element IDs help an index recover after failure" (§5.4.1): a seat
logs every accepted insert and delete keyed by ``(pl_id, element_id)``,
so replay is idempotent and order-tolerant. The store is a rotated
binary segment log (one CRC'd column block per accepted batch, so a
batch is on disk whole or not at all), immutable column-block
snapshots written by a **background compactor** while the seat keeps
serving, and a fsync'd manifest naming exactly one snapshot + segment
suffix. Recovery folds the suffix's blocks into the snapshot's lists
(:class:`SeatList`) as the live seat applied them, rows in its order;
compaction never blocks the write path for longer than one segment
rotation (a file close/open).

The store holds shares and public IDs only — nothing on disk is more
useful to a thief than a compromised server already is (§5).
"""

from __future__ import annotations

import pathlib
import shutil
import threading
from typing import Sequence

from repro.errors import StorageError
from repro.server.index_server import SeatList
from repro.storage.manifest import (
    MANIFEST_NAME,
    Manifest,
    fsync_dir,
    load_manifest,
    write_manifest,
)
from repro.storage.segment import (
    HEADER_LEN,
    KIND_DELETE,
    KIND_INSERT,
    SegmentWriter,
    encode_block,
    iter_blocks,
    repair_segment_tail,
    scan_segment_numbers,
    segment_name,
    segment_number,
)
from repro.storage.snapshot import load_snapshot, write_snapshot

#: Rotate the live segment once it crosses this size.
DEFAULT_SEGMENT_BYTES = 1 << 20

#: Kick the background compactor once this many sealed segments pile up.
DEFAULT_COMPACT_SEGMENTS = 4


def apply_block(
    state: dict[int, SeatList],
    kind: int,
    columns: list[list[int]],
) -> None:
    """Fold one logged batch (a segment record's columns) into a
    replayed store state as the live seat applied it. Re-inserting a
    held element replaces its row in place; deleting an absent one is a
    no-op."""
    if kind == KIND_INSERT:
        for pl_id, element_id, group_id, share_y in zip(*columns):
            plist = state.get(pl_id)
            if plist is None:
                plist = state[pl_id] = SeatList()
            plist.put(element_id, group_id, share_y)
    else:
        for pl_id, element_id in zip(*columns):
            plist = state.get(pl_id)
            if plist is not None:
                plist.remove(element_id)


def _snapshot_filename(first_segment: int) -> str:
    return f"snap-{first_segment:08d}.zsnap"


class SegmentedStore:
    """Segment-log + snapshot storage for one seat.

    Thread model: appends and lifecycle take ``_lock``; compactions
    serialize on ``_compact_gate`` and hold ``_lock`` only for the
    segment rotation at the start and the manifest swap at the end —
    the state rebuild and snapshot write run concurrently with live
    appends, which land in segments the snapshot does not cover
    (copy-on-write by construction: sealed segments are immutable).
    """

    def __init__(
        self,
        directory: str | pathlib.Path,
        *,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        compact_segments: int = DEFAULT_COMPACT_SEGMENTS,
        auto_compact: bool = True,
    ) -> None:
        """Open (creating or crash-recovering) one seat's storage directory.

        Opening is itself the first half of recovery: stale ``.tmp``
        files are deleted, files the manifest does not name (segments a
        finished compaction failed to GC, superseded or half-promoted
        snapshots) are removed, and a torn tail on the newest segment is
        truncated back to its last whole record — so by the time the
        constructor returns, the directory contains exactly one
        manifest-consistent state.

        Args:
            directory: the seat's storage directory (created if absent).
            segment_bytes: rotation threshold for the live segment.
            compact_segments: sealed-segment count that triggers the
                background compactor (when ``auto_compact``).
            auto_compact: kick compactions automatically on rotation;
                disable for deterministic tests / offline tooling.
        """
        if segment_bytes <= HEADER_LEN:
            raise StorageError(
                f"segment_bytes must exceed the {HEADER_LEN}-byte header"
            )
        self._dir = pathlib.Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._segment_bytes = segment_bytes
        self._compact_segments = max(1, compact_segments)
        self._auto_compact = auto_compact
        self._lock = threading.RLock()
        self._compact_gate = threading.Lock()
        self._compactor: threading.Thread | None = None
        self._closed = False
        #: Rows appended through this handle, and the record bytes
        #: (framing included) that carried them.
        self.records_appended = 0
        self.bytes_appended = 0
        #: The last background compaction failure, for the status surface
        #: (a daemon thread must never take the seat down with it).
        self.last_compaction_error: Exception | None = None
        #: Test seam: called with a label at each compaction crash point.
        self._crash_hook = None
        #: True while compact() itself rotates, so the rotation it
        #: performs cannot recursively kick a background compaction.
        self._suppress_auto = False

        # -- crash cleanup + open ------------------------------------------
        for stale in self._dir.glob("*.tmp"):
            stale.unlink(missing_ok=True)
        manifest = load_manifest(self._dir)
        if manifest is None:
            manifest = Manifest(snapshot=None, first_segment=1)
            write_manifest(self._dir, manifest)
        self._manifest = manifest
        if manifest.snapshot is not None and not (
            self._dir / manifest.snapshot
        ).exists():
            raise StorageError(
                f"{self._dir}: manifest names missing snapshot "
                f"{manifest.snapshot!r}"
            )
        for name in list(p.name for p in self._dir.iterdir()):
            number = segment_number(name)
            if number is not None and number < manifest.first_segment:
                (self._dir / name).unlink(missing_ok=True)
            elif name.endswith(".zsnap") and name != manifest.snapshot:
                (self._dir / name).unlink(missing_ok=True)
        numbers = scan_segment_numbers(self._dir)
        if numbers:
            repair_segment_tail(self._dir / segment_name(numbers[-1]))
            live = numbers[-1]
        else:
            live = manifest.first_segment
        self._writer = SegmentWriter(self._dir / segment_name(live), live)
        if self._writer.tell() >= self._segment_bytes:
            self._rotate_locked()
        fsync_dir(self._dir)

    # -- writing ----------------------------------------------------------

    def append_inserts(
        self,
        pl_ids: Sequence[int],
        element_ids: Sequence[int],
        group_ids: Sequence[int],
        share_ys: Sequence[int],
    ) -> int:
        """Log one accepted insert batch's aligned columns as one record
        (one fsync)."""
        return self._append(
            KIND_INSERT, (pl_ids, element_ids, group_ids, share_ys)
        )

    def append_deletes(
        self, pl_ids: Sequence[int], element_ids: Sequence[int]
    ) -> int:
        """Log one accepted delete batch's aligned columns as one record
        (one fsync)."""
        return self._append(KIND_DELETE, (pl_ids, element_ids))

    def _append(self, kind: int, columns) -> int:
        count = len(columns[0])
        if count == 0:
            return 0
        record = encode_block(kind, *columns)
        with self._lock:
            self._ensure_open()
            self._writer.append(record)
            self.records_appended += count
            self.bytes_appended += len(record)
            if self._writer.tell() >= self._segment_bytes:
                self._rotate_locked()
        return count

    def _rotate_locked(self) -> None:
        """Seal the live segment and start the next (lock held)."""
        sealed = self._writer
        sealed.close()
        nxt = sealed.number + 1
        self._writer = SegmentWriter(self._dir / segment_name(nxt), nxt)
        fsync_dir(self._dir)
        if (
            self._auto_compact
            and nxt - self._manifest.first_segment >= self._compact_segments
        ):
            self._start_background_compaction_locked()

    # -- recovery ----------------------------------------------------------

    def replay(self) -> dict[int, SeatList]:
        """Rebuild the store state: snapshot + segment-suffix replay.

        Returns the non-empty lists as ``pl_id -> SeatList``, the
        layout :meth:`IndexServer.bulk_load` installs.

        Raises:
            StorageError: a manifest-named snapshot fails validation, or
                any segment but the newest is damaged — inconsistency
                recovery must refuse to paper over.
        """
        with self._lock:
            manifest = self._manifest
            numbers = [
                n
                for n in scan_segment_numbers(self._dir)
                if n >= manifest.first_segment
            ]
            state = self._fold(manifest.snapshot, numbers)
        return {pl_id: plist for pl_id, plist in state.items() if plist}

    def _fold(self, snapshot: str | None, numbers: list[int]) -> dict:
        """A snapshot's lists with the named segments' blocks folded in."""
        state = {} if snapshot is None else load_snapshot(self._dir / snapshot)
        for kind, columns in iter_blocks(self._dir, numbers):
            apply_block(state, kind, columns)
        return state

    # -- compaction --------------------------------------------------------

    def compact(self) -> int:
        """Write a snapshot of everything sealed so far; returns its size.

        Rotation aside (a file close/open under the lock), the seat
        keeps serving throughout: the state rebuild reads only sealed,
        immutable files and the previous snapshot, concurrent appends
        land in segments the new snapshot does not claim to cover, and
        the manifest swap at the end is the single atomic commit point.
        After the swap, superseded segments and the old snapshot are
        garbage-collected.
        """
        with self._compact_gate:
            with self._lock:
                self._ensure_open()
                base = self._manifest
                if self._writer.tell() > HEADER_LEN:
                    self._suppress_auto = True
                    try:
                        self._rotate_locked()
                    finally:
                        self._suppress_auto = False
                elif (
                    self._writer.number == base.first_segment
                    and base.snapshot is not None
                ):
                    return 0  # nothing sealed since the last snapshot
                new_first = self._writer.number
                sealed = [
                    n
                    for n in scan_segment_numbers(self._dir)
                    if base.first_segment <= n < new_first
                ]
            # -- the slow part runs without the lock ----------------------
            self._hook("compact-start")
            state = self._fold(base.snapshot, sealed)
            self._hook("state-built")
            new_name = _snapshot_filename(new_first)
            count = write_snapshot(self._dir / new_name, state)
            self._hook("snapshot-written")
            with self._lock:
                new_manifest = Manifest(
                    snapshot=new_name, first_segment=new_first
                )
                write_manifest(self._dir, new_manifest)
                self._manifest = new_manifest
            self._hook("manifest-swapped")
            for number in sealed:
                (self._dir / segment_name(number)).unlink(missing_ok=True)
            if base.snapshot is not None and base.snapshot != new_name:
                (self._dir / base.snapshot).unlink(missing_ok=True)
            fsync_dir(self._dir)
            self._hook("gc-done")
            return count

    def _start_background_compaction_locked(self) -> None:
        if self._suppress_auto or self._closed:
            return
        if self._compactor is not None and self._compactor.is_alive():
            return
        self._compactor = threading.Thread(
            target=self._background_compact,
            name=f"zerber-compactor-{self._dir.name}",
            daemon=True,
        )
        self._compactor.start()

    def _background_compact(self) -> None:
        try:
            self.compact()
        except Exception as exc:  # noqa: BLE001 - surfaced via status()
            self.last_compaction_error = exc

    def wait_for_compaction(self) -> None:
        """Block until any in-flight background compaction finishes."""
        compactor = self._compactor
        if compactor is not None:
            compactor.join()

    def _hook(self, label: str) -> None:
        if self._crash_hook is not None:
            self._crash_hook(label)

    # -- lifecycle ---------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._closed:
            raise StorageError(f"{self._dir}: store is closed")

    def close(self) -> None:
        """Flush, reap the compactor thread, release the handles."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.wait_for_compaction()
        with self._lock:
            self._writer.close()

    def destroy(self) -> None:
        """Close and delete the whole storage directory (orphan cleanup:
        a retired seat's segments must not outlive it)."""
        self.close()
        shutil.rmtree(self._dir, ignore_errors=True)

    # -- operator surface --------------------------------------------------

    def disk_bytes(self) -> int:
        """Bytes the directory currently occupies."""
        total = 0
        for entry in self._dir.iterdir():
            try:
                total += entry.stat().st_size
            except OSError:
                continue
        return total

    def status(self) -> dict:
        """Operator snapshot (``repro storage status`` renders this)."""
        with self._lock:
            numbers = [
                n
                for n in scan_segment_numbers(self._dir)
                if n >= self._manifest.first_segment
            ]
            return {
                "path": str(self._dir),
                "records_appended": self.records_appended,
                "bytes_appended": self.bytes_appended,
                "disk_bytes": self.disk_bytes(),
                "snapshot": self._manifest.snapshot,
                "first_segment": self._manifest.first_segment,
                "live_segment": self._writer.number,
                "segments": len(numbers),
                "compacting": self._compactor is not None
                and self._compactor.is_alive(),
                "last_compaction_error": (
                    repr(self.last_compaction_error)
                    if self.last_compaction_error is not None
                    else None
                ),
            }


def refuse_flat_wals(directory: str | pathlib.Path) -> None:
    """Refuse a WAL directory that holds flat-engine ``*.wal`` seat files.

    The line-per-record flat engine is gone and nothing reads its files.
    Opening such a directory as segmented seats would create empty
    stores beside the files that hold the data and silently serve an
    empty index, so every opener checks first — before it creates or
    touches anything.

    Raises:
        StorageError: naming every ``*.wal`` file in ``directory``.
    """
    directory = pathlib.Path(directory)
    legacy = sorted(p.name for p in directory.glob("*.wal"))
    if legacy:
        raise StorageError(
            f"{directory} holds seat files of the removed flat engine "
            f"({', '.join(legacy)}); they cannot be read"
        )


def discover_stores(
    directory: str | pathlib.Path,
) -> list[tuple[str, pathlib.Path]]:
    """Find every seat store under a WAL directory.

    Returns ``(seat_name, path)`` pairs, one per subdirectory containing
    a ``MANIFEST``, sorted by seat name.

    Raises:
        StorageError: the directory holds flat-engine ``*.wal`` files
            (see :func:`refuse_flat_wals`).
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    refuse_flat_wals(directory)
    return [
        (entry.name, entry)
        for entry in sorted(directory.iterdir())
        if entry.is_dir() and (entry / MANIFEST_NAME).exists()
    ]
