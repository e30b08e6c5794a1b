"""Durable storage for index servers (paper §5.4.1).

"The element IDs help an index recover after failure" — this module makes
that sentence concrete. Each server can attach a :class:`PostingLog`, an
append-only write-ahead log of insert/delete records keyed by
``(pl_id, element_id)``. Because element IDs are globally unique within
their posting list, replaying the log is idempotent and order-tolerant
past the last checkpoint, which is exactly why Zerber gives elements
stable public IDs instead of positional addresses.

Format: one record per line —

    I <pl_id> <element_id> <group_id> <share_y>
    D <pl_id> <element_id>
    C <snapshot line count>          (checkpoint marker)

Shares are integers in Z_p; the log never stores anything but shares, so
a stolen disk is exactly as useless as a compromised server (§5).

This flat line-per-record layout is the ``storage="flat"`` engine of the
cluster; large stores should prefer the binary segment + snapshot engine
in :mod:`repro.storage`, which recovers from a snapshot plus a short
segment suffix instead of replaying the entire history.
"""

from __future__ import annotations

import os
import pathlib
from typing import Iterable

from repro.errors import CheckpointMismatchError, IndexServerError
from repro.server.index_server import (
    DeleteOp,
    InsertOp,
    ShareRecord,
    insert_columns,
)


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


class PostingLog:
    """Append-only WAL + snapshot persistence for one server's store."""

    #: Engine tag (the segmented engine answers ``"segmented"``).
    engine = "flat"

    def __init__(self, path: str | pathlib.Path) -> None:
        """Args:
        path: the log file; created empty if absent.

        A stale ``.compact`` temp file left by a compaction that crashed
        before its atomic rename is deleted here: the real log is still
        the authoritative copy, and the orphan would otherwise sit on
        disk forever (and get clobbered mid-write by the next
        compaction, confusing forensics).
        """
        self._path = pathlib.Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._path.with_suffix(".compact").unlink(missing_ok=True)
        self._handle = open(self._path, "a", encoding="ascii")
        self.records_appended = 0

    # -- writing ------------------------------------------------------------

    def append_inserts(self, operations: Iterable[InsertOp]) -> int:
        """Log one accepted insert batch (call after ACL checks pass)."""
        columns = insert_columns(operations)
        count = len(columns[0])
        self._handle.writelines(
            f"I {pl_id} {element_id} {group_id} {share_y}\n"
            for pl_id, element_id, group_id, share_y in zip(*columns)
        )
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.records_appended += count
        return count

    def append_deletes(self, operations: Iterable[DeleteOp]) -> int:
        """Log accepted deletions."""
        count = 0
        for op in operations:
            self._handle.write(f"D {op.pl_id} {op.element_id}\n")
            count += 1
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.records_appended += count
        return count

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def destroy(self) -> None:
        """Close the log and delete its on-disk artifacts (orphan cleanup)."""
        self.close()
        self._path.unlink(missing_ok=True)
        self._path.with_suffix(".compact").unlink(missing_ok=True)

    # -- recovery -------------------------------------------------------------

    def replay(self) -> dict[int, dict[int, ShareRecord]]:
        """Rebuild the posting store from the log.

        Returns:
            pl_id -> {element_id -> ShareRecord}, the exact in-memory
            layout of :class:`~repro.server.index_server.IndexServer`.

        Raises:
            IndexServerError: on a corrupt record (torn writes at the
                tail are tolerated: a final partial line is skipped).
            CheckpointMismatchError: a ``C <count>`` checkpoint marker
                disagrees with the live-record count the replay
                reconstructed at that point — the history *before* the
                marker is damaged, which a torn tail can never explain.
        """
        store: dict[int, dict[int, ShareRecord]] = {}
        if not self._path.exists():
            return store
        live = 0
        with open(self._path, "r", encoding="ascii") as handle:
            lines = handle.readlines()
        for line_no, line in enumerate(lines):
            if not line.endswith("\n"):
                if line_no == len(lines) - 1:
                    break  # torn tail write: discard
                raise IndexServerError(f"corrupt log line {line_no}")
            parts = line.split()
            if not parts:
                continue
            kind = parts[0]
            try:
                if kind == "I":
                    pl_id, element_id, group_id, share_y = map(int, parts[1:])
                    store.setdefault(pl_id, {})[element_id] = ShareRecord(
                        element_id=element_id,
                        group_id=group_id,
                        share_y=share_y,
                    )
                    live += 1
                elif kind == "D":
                    pl_id, element_id = map(int, parts[1:])
                    if store.get(pl_id, {}).pop(element_id, None) is not None:
                        live -= 1
                elif kind == "C":
                    (expected,) = map(int, parts[1:])
                    if live != expected:
                        raise CheckpointMismatchError(
                            f"checkpoint at line {line_no} claims "
                            f"{expected} live records, replay "
                            f"reconstructed {live}"
                        )
                else:
                    raise ValueError(kind)
            except CheckpointMismatchError:
                raise
            except (ValueError, IndexError) as exc:
                raise IndexServerError(
                    f"corrupt log record at line {line_no}: {line!r}"
                ) from exc
        return store

    def compact(
        self, store: dict[int, dict[int, ShareRecord]] | None = None
    ) -> int:
        """Rewrite the log as a snapshot of the live store.

        Args:
            store: the state to snapshot; defaults to this log's own
                :meth:`replay` so the engine-agnostic ``compact()``
                facade works without a handle on the server.

        Returns the number of records written. The old log is atomically
        replaced (write to a temp file, fsync, rename, fsync the
        directory — without the directory fsync a crash after the rename
        could resurrect the uncompacted log *and* the temp file).
        """
        if store is None:
            store = self.replay()
        tmp_path = self._path.with_suffix(".compact")
        count = 0
        with open(tmp_path, "w", encoding="ascii") as tmp:
            for pl_id in sorted(store):
                for element_id in sorted(store[pl_id]):
                    record = store[pl_id][element_id]
                    tmp.write(
                        f"I {pl_id} {record.element_id} "
                        f"{record.group_id} {record.share_y}\n"
                    )
                    count += 1
            tmp.write(f"C {count}\n")
            tmp.flush()
            os.fsync(tmp.fileno())
        self.close()
        os.replace(tmp_path, self._path)
        fsync_dir(self._path.parent)
        self._handle = open(self._path, "a", encoding="ascii")
        return count

    # -- operator surface ------------------------------------------------------

    def disk_bytes(self) -> int:
        """Bytes the log currently occupies on disk."""
        try:
            return self._path.stat().st_size
        except OSError:
            return 0

    def status(self) -> dict:
        """Operator snapshot (``repro storage status`` renders this)."""
        return {
            "engine": self.engine,
            "path": str(self._path),
            "records_appended": self.records_appended,
            "disk_bytes": self.disk_bytes(),
        }


def attach_log(server, log: PostingLog) -> None:
    """Wire a :class:`PostingLog` into a live IndexServer.

    Thin shim over the first-class hook
    (:meth:`~repro.server.index_server.IndexServer.attach_store`); every
    accepted mutation is logged *after* validation succeeds, so rejected
    batches never hit disk. Kept for callers of the original
    monkey-patching API.
    """
    server.attach_store(log)
    server.posting_log = log


def recover_server(server, log: PostingLog) -> int:
    """Load a replayed store into a fresh IndexServer; returns element count.

    The server must be empty (recovery happens before it serves
    traffic); the load goes through the public
    :meth:`~repro.server.index_server.IndexServer.bulk_load` API.
    """
    return server.bulk_load(log.replay())
