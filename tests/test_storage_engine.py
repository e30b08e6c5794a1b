"""Unit suite for the segmented storage engine (`repro.storage`).

Covers the facade contract both engines share, the segment/snapshot/
manifest mechanics, background compaction running concurrently with
appends, flat-WAL migration, and the persistence-hook satellites on
:class:`IndexServer` and :class:`PostingLog` (checkpoint validation,
stale temp cleanup, directory-fsync'd compaction).
"""

from __future__ import annotations

import threading
import zlib

import pytest

from repro.errors import (
    CheckpointMismatchError,
    IndexServerError,
    StorageError,
)
from repro.server.auth import AuthService
from repro.server.groups import GroupDirectory
from repro.server.index_server import (
    DeleteOp,
    IndexServer,
    InsertOp,
    RecordView,
    insert_columns,
)
from repro.server.persistence import PostingLog
from repro.storage import (
    SegmentedStore,
    discover_stores,
    load_manifest,
    migrate_flat_wal,
    open_seat_store,
)
from repro.storage.segment import (
    HEADER_LEN,
    encode_op_frames,
    scan_segment_numbers,
    segment_name,
)


def ins(pl, eid, share=111, group=1):
    return InsertOp(pl_id=pl, element_id=eid, group_id=group, share_y=share)


def apply_ops(ops):
    """Reference interpretation of an op stream (the replay oracle)."""
    state: dict[int, dict[int, object]] = {}
    for op in ops:
        if isinstance(op, InsertOp):
            state.setdefault(op.pl_id, {})[op.element_id] = op
        else:
            state.get(op.pl_id, {}).pop(op.element_id, None)
    return {
        pl: {eid: (rec.group_id, rec.share_y) for eid, rec in plist.items()}
        for pl, plist in state.items()
    }


def simplify(replayed):
    """Replayed ShareRecords -> comparable {pl: {eid: (gid, share)}}."""
    return {
        pl: {
            eid: (rec.group_id, rec.share_y) for eid, rec in plist.items()
        }
        for pl, plist in replayed.items()
        if plist
    }


class TestSegmentedStoreBasics:
    def test_round_trip_inserts_and_deletes(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        ops = [ins(0, i, share=1000 + i) for i in range(10)]
        ops += [DeleteOp(pl_id=0, element_id=i) for i in range(4)]
        ops += [ins(7, 1, share=5, group=3)]
        store.append_inserts(o for o in ops if isinstance(o, InsertOp))
        store.append_deletes(o for o in ops if isinstance(o, DeleteOp))
        replayed = store.replay()
        assert set(replayed[0]) == set(range(4, 10))
        assert replayed[7][1].group_id == 3
        assert store.records_appended == len(ops)
        store.close()

    def test_rotation_spreads_history_over_segments(self, tmp_path):
        store = SegmentedStore(
            tmp_path / "seat", segment_bytes=128, auto_compact=False
        )
        for i in range(40):
            store.append_inserts([ins(0, i)])
        numbers = scan_segment_numbers(tmp_path / "seat")
        assert len(numbers) > 1
        assert set(store.replay()[0]) == set(range(40))
        store.close()

    def test_reopen_continues_the_history(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.append_inserts([ins(0, 1), ins(0, 2)])
        store.close()
        again = SegmentedStore(tmp_path / "seat", auto_compact=False)
        again.append_deletes([DeleteOp(pl_id=0, element_id=1)])
        again.append_inserts([ins(0, 3)])
        assert set(again.replay()[0]) == {2, 3}
        again.close()

    def test_closed_store_rejects_appends(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.close()
        with pytest.raises(StorageError):
            store.append_inserts([ins(0, 1)])
        store.close()  # idempotent

    def test_destroy_removes_the_directory(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.append_inserts([ins(0, 1)])
        store.destroy()
        assert not (tmp_path / "seat").exists()

    def test_empty_append_batches_are_noops(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert store.append_inserts([]) == 0
        assert store.append_deletes([]) == 0
        assert store.records_appended == 0
        store.close()


class TestColumnAppends:
    """``append_inserts`` takes a batch as columns or as ops and writes
    the record format the per-op encoder defines, byte for byte."""

    OPS = [
        ins(3, 70000, share=2**64 + 12, group=2),
        ins(0, 9, share=300),
        ins(3, 4, share=0, group=2),
        ins(2**31, 2**32 - 1, share=2**64),
    ]
    #: The first three records as the parent commit's log holds them.
    PINNED = bytes.fromhex(
        "100103f0a204028c80808080808080800273c366250601000901ac0272c5e8ea"
        "0501030402001dbbc8dc"
    )

    @staticmethod
    def _leb128(value: int) -> bytes:
        out = bytearray()
        while True:
            value, low = value >> 7, value & 0x7F
            out.append(low | (0x80 if value else 0))
            if not value:
                return bytes(out)

    def _reference(self) -> bytes:
        """The record format written out by hand, one op at a time:
        varint length, kind byte 1 + four varints, CRC32 of the payload."""
        out = b""
        for op in self.OPS:
            payload = b"\x01" + b"".join(
                map(
                    self._leb128,
                    (op.pl_id, op.element_id, op.group_id, op.share_y),
                )
            )
            out += self._leb128(len(payload)) + payload
            out += zlib.crc32(payload).to_bytes(4, "little")
        assert out == encode_op_frames(self.OPS)  # the wire twin agrees
        return out

    @pytest.mark.parametrize(
        "batch",
        [
            lambda ops: RecordView(InsertOp, *insert_columns(ops)),
            tuple,
            iter,
        ],
        ids=["view", "ops", "generator"],
    )
    def test_segment_bytes_match_the_per_op_reference(self, tmp_path, batch):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert store.append_inserts(batch(self.OPS)) == len(self.OPS)
        store.close()
        written = (tmp_path / "seat" / segment_name(1)).read_bytes()
        assert written[HEADER_LEN:] == self._reference()
        assert written[HEADER_LEN:].startswith(self.PINNED)
        reopened = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert simplify(reopened.replay()) == apply_ops(self.OPS)
        reopened.close()

    def test_flat_log_lines_match_from_columns_and_from_ops(self, tmp_path):
        logs = []
        for name, batch in (
            ("view", RecordView(InsertOp, *insert_columns(self.OPS))),
            ("ops", tuple(self.OPS)),
        ):
            log = PostingLog(tmp_path / f"{name}.wal")
            assert log.append_inserts(batch) == len(self.OPS)
            log.close()
            logs.append((tmp_path / f"{name}.wal").read_bytes())
        assert logs[0] == logs[1]
        assert logs[0].splitlines()[0] == b"I 3 70000 2 18446744073709551628"


class TestCompaction:
    def test_compact_snapshots_and_garbage_collects(self, tmp_path):
        store = SegmentedStore(
            tmp_path / "seat", segment_bytes=128, auto_compact=False
        )
        for i in range(30):
            store.append_inserts([ins(0, i)])
        store.append_deletes([DeleteOp(pl_id=0, element_id=i) for i in range(25)])
        before = store.replay()
        segments_before = scan_segment_numbers(tmp_path / "seat")
        written = store.compact()
        assert written == 5
        manifest = load_manifest(tmp_path / "seat")
        assert manifest.snapshot is not None
        assert manifest.first_segment > segments_before[0]
        # Old segments are gone; only the live suffix remains.
        remaining = scan_segment_numbers(tmp_path / "seat")
        assert remaining == [manifest.first_segment]
        assert simplify(store.replay()) == simplify(before)
        store.close()

    def test_appends_after_compaction_land_in_the_suffix(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.append_inserts([ins(0, 1)])
        store.compact()
        store.append_inserts([ins(0, 2)])
        store.close()
        again = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert set(again.replay()[0]) == {1, 2}
        again.close()

    def test_double_compact_is_a_noop(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.append_inserts([ins(0, i) for i in range(5)])
        assert store.compact() == 5
        assert store.compact() == 0
        store.close()

    def test_recovery_reads_snapshot_plus_suffix_only(self, tmp_path):
        """After compaction, replay must not depend on the old segments
        (they are deleted) — the snapshot carries the prefix."""
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.append_inserts([ins(3, i, share=i * 7) for i in range(50)])
        store.compact()
        store.append_deletes([DeleteOp(pl_id=3, element_id=0)])
        store.close()
        fresh = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert set(fresh.replay()[3]) == set(range(1, 50))
        fresh.close()

    def test_background_compaction_triggers_and_serves_appends(
        self, tmp_path
    ):
        store = SegmentedStore(
            tmp_path / "seat", segment_bytes=256, compact_segments=2
        )
        for i in range(200):
            store.append_inserts([ins(0, i)])
        store.wait_for_compaction()
        assert store.last_compaction_error is None
        status = store.status()
        assert status["snapshot"] is not None  # the compactor really ran
        assert set(store.replay()[0]) == set(range(200))
        store.close()

    def test_concurrent_appends_during_explicit_compaction(self, tmp_path):
        """The copy-on-write claim: a writer thread keeps appending while
        compact() runs; nothing is lost on either side."""
        store = SegmentedStore(
            tmp_path / "seat", segment_bytes=512, auto_compact=False
        )
        store.append_inserts([ins(0, i) for i in range(500)])
        stop = threading.Event()
        written = []

        def writer():
            i = 1000
            while not stop.is_set():
                store.append_inserts([ins(1, i)])
                written.append(i)
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(3):
                store.compact()
        finally:
            stop.set()
            thread.join()
        replayed = store.replay()
        assert set(replayed[0]) == set(range(500))
        assert set(replayed[1]) == set(written)
        store.close()


class TestEngineSelection:
    def test_open_seat_store_flat(self, tmp_path):
        store = open_seat_store(tmp_path / "s.wal", engine="flat")
        assert isinstance(store, PostingLog)
        assert store.engine == "flat"
        store.close()

    def test_open_seat_store_segmented(self, tmp_path):
        store = open_seat_store(tmp_path / "s", engine="segmented")
        assert isinstance(store, SegmentedStore)
        store.close()

    def test_unknown_engine_raises(self, tmp_path):
        with pytest.raises(StorageError):
            open_seat_store(tmp_path / "s", engine="lsm-tree")

    def test_flat_engine_rejects_options(self, tmp_path):
        with pytest.raises(StorageError):
            open_seat_store(tmp_path / "s.wal", engine="flat", segment_bytes=4)

    def test_discover_stores_finds_both_engines(self, tmp_path):
        open_seat_store(tmp_path / "a.wal", engine="flat").close()
        open_seat_store(tmp_path / "b", engine="segmented").close()
        (tmp_path / "noise").mkdir()  # no MANIFEST: not a store
        found = discover_stores(tmp_path)
        assert [(name, engine) for name, engine, _ in found] == [
            ("a", "flat"),
            ("b", "segmented"),
        ]


class TestMigration:
    def test_flat_wal_migrates_byte_for_byte(self, tmp_path):
        log = PostingLog(tmp_path / "seat.wal")
        log.append_inserts([ins(0, i, share=i * i) for i in range(40)])
        log.append_deletes([DeleteOp(pl_id=0, element_id=i) for i in range(10)])
        log.append_inserts([ins(5, 1, share=9, group=2)])
        expected = simplify(log.replay())
        log.close()
        count = migrate_flat_wal(tmp_path / "seat.wal")
        assert count == 31
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert simplify(store.replay()) == expected
        # The migrated store opens from a snapshot, not a full history.
        assert store.status()["snapshot"] is not None
        store.close()
        assert (tmp_path / "seat.wal").exists()  # kept by default

    def test_migrate_can_delete_the_source(self, tmp_path):
        log = PostingLog(tmp_path / "seat.wal")
        log.append_inserts([ins(0, 1)])
        log.close()
        migrate_flat_wal(tmp_path / "seat.wal", delete_source=True)
        assert not (tmp_path / "seat.wal").exists()

    def test_migrate_missing_source_raises(self, tmp_path):
        with pytest.raises(StorageError):
            migrate_flat_wal(tmp_path / "ghost.wal")

    def test_migrate_refuses_nonempty_destination(self, tmp_path):
        log = PostingLog(tmp_path / "seat.wal")
        log.append_inserts([ins(0, 1)])
        log.close()
        dest = SegmentedStore(tmp_path / "dest", auto_compact=False)
        dest.append_inserts([ins(9, 9)])
        dest.close()
        with pytest.raises(StorageError):
            migrate_flat_wal(tmp_path / "seat.wal", tmp_path / "dest")

    def test_crashed_migration_staging_is_not_a_store(self, tmp_path):
        """A migration builds in a .migrating staging dir and commits by
        rename — a crashed attempt must not be discoverable as a store,
        and a re-run must sweep it and succeed."""
        log = PostingLog(tmp_path / "seat.wal")
        log.append_inserts([ins(0, i) for i in range(6)])
        log.close()
        # Simulate the crash artifact: a staging dir with a manifest.
        staging = tmp_path / "seat.migrating"
        stale = SegmentedStore(staging, auto_compact=False)
        stale.append_inserts([ins(0, 0)])  # half-ingested
        stale.close()
        found = discover_stores(tmp_path)
        assert [(n, e) for n, e, _ in found] == [("seat", "flat")]
        count = migrate_flat_wal(tmp_path / "seat.wal")
        assert count == 6
        assert not staging.exists()
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert set(store.replay()[0]) == set(range(6))
        store.close()

    def test_migrated_store_accepts_new_appends(self, tmp_path):
        log = PostingLog(tmp_path / "seat.wal")
        log.append_inserts([ins(0, 1)])
        log.close()
        migrate_flat_wal(tmp_path / "seat.wal")
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.append_inserts([ins(0, 2)])
        assert set(store.replay()[0]) == {1, 2}
        store.close()


class TestSlotRestartOptions:
    def test_restart_round_trips_storage_options(self, tmp_path):
        """A seat attached with custom engine options must come back
        with the same options after a kill/restart — a seat configured
        ``auto_compact=False`` must not restart into a compacting one."""
        from repro.cluster.coordinator import (
            ClusterCoordinator,
            Pod,
            ServerSlot,
            attach_wal_to_slot,
        )
        from repro.secretsharing.field import DEFAULT_PRIME, PrimeField
        from repro.secretsharing.shamir import ShamirScheme

        scheme = ShamirScheme(k=2, n=3, field=PrimeField(DEFAULT_PRIME))
        auth = AuthService()
        groups = GroupDirectory()
        slots = [
            ServerSlot(
                pod_index=0,
                slot_index=i,
                server=IndexServer(
                    f"p0-s{i}",
                    x_coordinate=scheme.x_of(i),
                    auth=auth,
                    groups=groups,
                ),
            )
            for i in range(3)
        ]
        pod = Pod(index=0, name="p0", slots=slots)
        store = attach_wal_to_slot(
            slots[1],
            tmp_path / "p0-s1",
            engine="segmented",
            auto_compact=False,
            segment_bytes=4096,
        )
        store.append_inserts([ins(0, 1)])
        coordinator = ClusterCoordinator(
            scheme=scheme, pods=[pod], auth=auth, groups=groups, share_bytes=9
        )
        coordinator.kill_server(0, 1)
        restarted = coordinator.restart_server(0, 1)
        assert restarted.num_elements == 1
        reopened = slots[1].log
        assert reopened._auto_compact is False
        assert reopened._segment_bytes == 4096
        reopened.close()


# -- persistence satellites: checkpoint validation, temp cleanup ------------


class TestFlatSatellites:
    def test_checkpoint_marker_is_validated(self, tmp_path):
        path = tmp_path / "bad.wal"
        path.write_text("I 0 1 1 42\nI 0 2 1 43\nC 5\n")
        with pytest.raises(CheckpointMismatchError):
            PostingLog(path).replay()

    def test_checkpoint_counts_live_records_not_lines(self, tmp_path):
        """Deletes before the marker reduce the live count it asserts."""
        path = tmp_path / "ok.wal"
        path.write_text("I 0 1 1 42\nI 0 2 1 43\nD 0 1\nC 1\nI 0 9 1 4\n")
        replayed = PostingLog(path).replay()
        assert set(replayed[0]) == {2, 9}

    def test_compact_writes_a_marker_replay_accepts(self, tmp_path):
        log = PostingLog(tmp_path / "seat.wal")
        log.append_inserts([ins(0, i) for i in range(8)])
        log.append_deletes([DeleteOp(pl_id=0, element_id=0)])
        log.compact()
        log.append_inserts([ins(0, 100)])
        assert set(log.replay()[0]) == {1, 2, 3, 4, 5, 6, 7, 100}
        log.close()

    def test_stale_compact_temp_is_cleaned_on_open(self, tmp_path):
        (tmp_path / "seat.compact").write_text("I 0 9 9 9\n")
        log = PostingLog(tmp_path / "seat.wal")
        assert not (tmp_path / "seat.compact").exists()
        log.close()

    def test_compact_defaults_to_its_own_replay(self, tmp_path):
        log = PostingLog(tmp_path / "seat.wal")
        log.append_inserts([ins(0, i) for i in range(6)])
        log.append_deletes([DeleteOp(pl_id=0, element_id=5)])
        assert log.compact() == 5
        assert set(log.replay()[0]) == {0, 1, 2, 3, 4}
        log.close()

    def test_flat_destroy_removes_the_file(self, tmp_path):
        log = PostingLog(tmp_path / "seat.wal")
        log.append_inserts([ins(0, 1)])
        log.destroy()
        assert not (tmp_path / "seat.wal").exists()


# -- the first-class IndexServer persistence hook ---------------------------


@pytest.fixture()
def hooked_server(tmp_path):
    auth = AuthService()
    groups = GroupDirectory()
    groups.create_group(1, coordinator="alice")
    cred = auth.register_user("alice")
    token = auth.issue_token("alice", cred)
    server = IndexServer("s0", x_coordinate=5, auth=auth, groups=groups)
    store = SegmentedStore(tmp_path / "s0", auto_compact=False)
    server.attach_store(store)
    return server, token, store


class TestPersistenceHook:
    def test_double_attach_raises(self, hooked_server, tmp_path):
        server, _token, _store = hooked_server
        with pytest.raises(IndexServerError):
            server.attach_store(
                SegmentedStore(tmp_path / "other", auto_compact=False)
            )

    def test_detach_returns_the_store_and_stops_logging(
        self, hooked_server
    ):
        server, token, store = hooked_server
        assert server.detach_store() is store
        assert server.persistence is None
        server.insert_batch(token, [ins(0, 1)])
        assert store.replay() == {}
        store.close()

    def test_accepted_mutations_reach_the_store(self, hooked_server):
        server, token, store = hooked_server
        server.insert_batch(token, [ins(0, 1), ins(0, 2)])
        server.delete(token, [DeleteOp(pl_id=0, element_id=1)])
        assert set(store.replay()[0]) == {2}
        store.close()

    def test_rejected_batches_never_hit_disk(self, hooked_server):
        server, token, store = hooked_server
        bad = InsertOp(pl_id=0, element_id=1, group_id=99, share_y=1)
        with pytest.raises(Exception):
            server.insert_batch(token, [bad])
        assert store.replay() == {}
        store.close()

    def test_rejected_insert_batch_is_atomic(self, hooked_server):
        """A batch that fails mid-way (duplicate element after valid
        ops) must leave memory AND disk untouched — a partial apply
        that never reached the WAL would vanish on restart."""
        server, token, store = hooked_server
        server.insert_batch(token, [ins(0, 7)])
        with pytest.raises(IndexServerError):
            server.insert_batch(token, [ins(0, 8), ins(0, 7)])
        with pytest.raises(IndexServerError):
            server.insert_batch(token, [ins(1, 5), ins(1, 5)])  # in-batch dup
        assert server.num_elements == 1
        assert set(store.replay()[0]) == {7}
        store.close()

    def test_rejected_delete_batch_is_atomic(self, hooked_server, tmp_path):
        """ACLs are validated for the whole delete batch before any
        record is removed, so memory and WAL cannot diverge."""
        from repro.server.index_server import ShareRecord

        server, token, store = hooked_server
        server.insert_batch(token, [ins(0, 1)])
        # A foreign-group record adopted via replication (the ACL the
        # delete below must trip over).
        server.adopt_posting_list(
            0, [ShareRecord(element_id=2, group_id=99, share_y=5)]
        )
        from repro.errors import AccessDeniedError

        with pytest.raises(AccessDeniedError):
            server.delete(
                token,
                [DeleteOp(pl_id=0, element_id=1), DeleteOp(pl_id=0, element_id=2)],
            )
        # Nothing was removed — not even the op the caller was allowed.
        assert {r.element_id for r in server.export_posting_list(0)} == {1, 2}
        assert set(store.replay()[0]) == {1, 2}
        store.close()

    def test_adopt_and_drop_are_logged(self, hooked_server):
        from repro.server.index_server import ShareRecord

        server, _token, store = hooked_server
        server.adopt_posting_list(
            4, [ShareRecord(element_id=1, group_id=1, share_y=77)]
        )
        assert store.replay()[4][1].share_y == 77
        server.drop_posting_list(4)
        assert store.replay() == {} or not store.replay().get(4)
        store.close()

    def test_bulk_load_requires_empty_server(self, hooked_server):
        server, token, _store = hooked_server
        server.insert_batch(token, [ins(0, 1)])
        with pytest.raises(IndexServerError):
            server.bulk_load({0: {}})

    def test_bulk_load_round_trips_a_replay(self, hooked_server, tmp_path):
        server, token, store = hooked_server
        server.insert_batch(token, [ins(0, 1), ins(2, 3, share=9)])
        replayed = store.replay()
        fresh = IndexServer(
            "s0b", x_coordinate=5, auth=AuthService(), groups=GroupDirectory()
        )
        assert fresh.bulk_load(replayed) == 2
        view = fresh.compromise()
        assert view.merged_list_lengths() == {0: 1, 2: 1}
        store.close()
