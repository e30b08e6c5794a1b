"""Unit suite for the segmented storage engine (`repro.storage`).

Covers the store's append/replay/compact/close contract, the segment/
snapshot/manifest mechanics, background compaction running concurrently
with appends, the typed refusal of a directory the removed flat engine
wrote, and the persistence hook on :class:`IndexServer`.
"""

from __future__ import annotations

import threading
import tracemalloc
import uuid
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    as_columns,
    leb128,
    list_rows,
    make_documents,
    segment_record,
    state_rows,
)
from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment, ServerSlot
from repro.core.mapping_table import MappingTable
from repro.errors import ClusterError, IndexServerError, StorageError
from repro.server.auth import AuthService, AuthToken
from repro.server.groups import GroupDirectory
from repro.server.index_server import IndexServer, SeatList
from repro.observability.metrics import SampleView
from repro.observability.service import METRICS_ENDPOINT
from repro.protocol.codec import decode_message, encode_message, write_columns
from repro.protocol.messages import (
    AdoptSnapshotRequest,
    InsertBatchRequest,
    MetricsDumpRequest,
)
from repro.protocol.service import IndexServerService
from repro.storage import (
    Manifest,
    SegmentedStore,
    discover_stores,
    load_manifest,
    write_manifest,
)
from repro.storage.segment import (
    HEADER_LEN,
    KIND_DELETE,
    KIND_INSERT,
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    iter_blocks,
    scan_segment_numbers,
    segment_name,
)
from repro.storage.snapshot import (
    SNAPSHOT_VERSION,
    parse_snapshot_bytes,
    snapshot_bytes,
)


def ins(pl, eid, share=111, group=1):
    """One insert row: ``(pl_id, element_id, group_id, share_y)``."""
    return (pl, eid, group, share)


def apply_ops(ops):
    """Reference interpretation of a row stream (the replay oracle): a
    four-field row inserts, a ``(pl_id, element_id)`` row deletes."""
    state: dict[int, dict[int, tuple[int, int]]] = {}
    for pl, eid, *record in ops:
        if record:
            state.setdefault(pl, {})[eid] = tuple(record)
        else:
            state.get(pl, {}).pop(eid, None)
    return state


class TestSegmentedStoreBasics:
    def test_round_trip_inserts_and_deletes(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        ops = [ins(0, i, share=1000 + i) for i in range(10)]
        ops += [(0, i) for i in range(4)]
        ops += [ins(7, 1, share=5, group=3)]
        store.append_inserts(*as_columns(o for o in ops if len(o) == 4))
        store.append_deletes(*as_columns((o for o in ops if len(o) == 2), 2))
        replayed = store.replay()
        assert set(replayed[0].element_ids) == set(range(4, 10))
        assert list_rows(replayed[7]) == {1: (3, 5)}
        assert store.records_appended == len(ops)
        store.close()

    def test_rotation_spreads_history_over_segments(self, tmp_path):
        store = SegmentedStore(
            tmp_path / "seat", segment_bytes=128, auto_compact=False
        )
        for i in range(40):
            store.append_inserts(*as_columns([ins(0, i)]))
        numbers = scan_segment_numbers(tmp_path / "seat")
        assert len(numbers) > 1
        assert set(store.replay()[0].element_ids) == set(range(40))
        store.close()

    def test_reopen_continues_the_history(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.append_inserts(*as_columns([ins(0, 1), ins(0, 2)]))
        store.close()
        again = SegmentedStore(tmp_path / "seat", auto_compact=False)
        again.append_deletes([0], [1])
        again.append_inserts(*as_columns([ins(0, 3)]))
        assert set(again.replay()[0].element_ids) == {2, 3}
        again.close()

    def test_closed_store_rejects_appends(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.close()
        with pytest.raises(StorageError):
            store.append_inserts(*as_columns([ins(0, 1)]))
        store.close()  # idempotent

    def test_destroy_removes_the_directory(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.append_inserts(*as_columns([ins(0, 1)]))
        store.destroy()
        assert not (tmp_path / "seat").exists()

    def test_empty_append_batches_are_noops(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert store.append_inserts([], [], [], []) == 0
        assert store.append_deletes([], []) == 0
        assert store.records_appended == 0
        store.close()


def _decoded_columns(ops):
    """An insert batch's columns as a seat gets them over a socket."""
    token = AuthToken("alice", 0, 1, b"")
    frame = encode_message(InsertBatchRequest(token, *as_columns(ops)))
    message = decode_message(frame)
    return (
        message.pl_ids,
        message.element_ids,
        message.group_ids,
        message.share_ys,
    )


class TestColumnAppends:
    """``append_inserts`` takes a batch's columns as any sequences — as
    the owner builds them, transposed from rows, or decoded off the
    wire — and writes it as one record of the hand-written reference
    format, byte for byte."""

    OPS = [
        ins(3, 70000, share=2**64 + 12, group=2),
        ins(0, 9, share=300),
        ins(3, 4, share=0, group=2),
        ins(2**31, 2**32 - 1, share=2**64),
    ]
    #: The batch's record as the version 2 log holds it.
    PINNED = bytes.fromhex(
        "4e0104040000000300000000000000038000000004000111700000000900000004"
        "ffffffff01020102010901000000000000000c00000000000000012c0000000000"
        "00000000010000000000000000a18809ee"
    )

    @pytest.mark.parametrize(
        "columns",
        [as_columns, lambda ops: tuple(zip(*ops)), _decoded_columns],
        ids=["lists", "tuples", "decoded"],
    )
    def test_segment_bytes_match_the_per_op_reference(self, tmp_path, columns):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert store.append_inserts(*columns(self.OPS)) == len(self.OPS)
        store.close()
        written = (tmp_path / "seat" / segment_name(1)).read_bytes()
        reference = segment_record(KIND_INSERT, *as_columns(self.OPS))
        assert written[HEADER_LEN:] == reference == self.PINNED
        assert store.bytes_appended == len(reference)
        reopened = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert state_rows(reopened.replay()) == apply_ops(self.OPS)
        reopened.close()

    def test_a_delete_batch_is_one_two_column_record(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert store.append_deletes((3, 0), (70000, 9)) == 2
        store.close()
        written = (tmp_path / "seat" / segment_name(1)).read_bytes()
        assert written[HEADER_LEN:] == segment_record(
            KIND_DELETE, [3, 0], [70000, 9]
        )


_IDS = st.sampled_from(
    [0, 1, 127, 128, 255, 256, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1]
) | st.integers(0, 2**20)
_SHARES = st.sampled_from([0, 1, 2**64 - 1, 2**64 + 12]) | st.integers(
    0, 2**64 + 12
)


class TestBlockFormat:
    """The version 2 segment and snapshot formats: column blocks that
    replay like the op-by-op model, and typed refusals of everything
    else."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_replay_matches_the_op_model(self, tmp_path, data):
        directory = tmp_path / uuid.uuid4().hex
        store = SegmentedStore(
            directory, segment_bytes=256, auto_compact=False
        )
        ops: list = []
        keys: list[tuple[int, int]] = []
        for _ in range(data.draw(st.integers(0, 8), label="batches")):
            size = data.draw(st.sampled_from([0, 1, 2, 7]), label="rows")
            if keys and data.draw(st.booleans(), label="delete"):
                batch = [
                    data.draw(st.sampled_from(keys)) for _ in range(size)
                ]
                store.append_deletes(*as_columns(batch, 2))
            else:
                rows = data.draw(
                    st.lists(
                        st.tuples(_IDS, _IDS, _IDS, _SHARES),
                        min_size=size,
                        max_size=size,
                    )
                )
                batch = rows
                store.append_inserts(*as_columns(batch))
                keys += [(pl, eid) for pl, eid, _group, _share in batch]
            ops += batch
            if data.draw(st.booleans(), label="compact"):
                store.compact()
        if data.draw(st.booleans(), label="reopen"):
            store.close()
            store = SegmentedStore(directory, auto_compact=False)
        state = {pl: recs for pl, recs in store.replay().items() if recs}
        store.close()
        expected = {pl: recs for pl, recs in apply_ops(ops).items() if recs}
        assert state_rows(state) == expected
        image, count = snapshot_bytes(state)
        assert count == sum(map(len, state.values()))
        assert parse_snapshot_bytes(image) == state

    def test_a_version_1_segment_is_refused_by_version(self, tmp_path):
        SegmentedStore(tmp_path / "seat", auto_compact=False).close()
        payload = bytes((KIND_INSERT, 0, 1, 1, 42))  # v1: four varints
        (tmp_path / "seat" / segment_name(1)).write_bytes(
            SEGMENT_MAGIC
            + bytes((1, len(payload)))
            + payload
            + zlib.crc32(payload).to_bytes(4, "little")
        )
        with pytest.raises(StorageError, match="segment version 1"):
            SegmentedStore(tmp_path / "seat", auto_compact=False)

    def test_a_version_1_snapshot_is_refused_by_version(self, tmp_path):
        # v1: four width bytes, a record count, fixed-width records.
        body = bytes((1, 0, 0, 1, 1, 0, 1, 1, 42))
        image = b"ZSNP\x01" + body + zlib.crc32(body).to_bytes(4, "little")
        with pytest.raises(StorageError, match="snapshot version 1"):
            parse_snapshot_bytes(image)
        directory = tmp_path / "seat"
        SegmentedStore(directory, auto_compact=False).close()
        (directory / "snap-00000001.zsnap").write_bytes(image)
        write_manifest(
            directory,
            Manifest(snapshot="snap-00000001.zsnap", first_segment=1),
        )
        store = SegmentedStore(directory, auto_compact=False)
        with pytest.raises(StorageError, match="snapshot version 1"):
            store.replay()
        store.close()

    @staticmethod
    def _peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            with pytest.raises(StorageError):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_a_block_claiming_2_40_rows_is_refused_before_allocating(
        self, tmp_path
    ):
        directory = tmp_path / "seat"
        SegmentedStore(directory, auto_compact=False).close()
        payload = bytes((KIND_INSERT,)) + leb128(2**40) + bytes((8,) * 17)
        (directory / segment_name(1)).write_bytes(
            SEGMENT_MAGIC
            + bytes((SEGMENT_VERSION,))
            + leb128(len(payload))
            + payload
            + zlib.crc32(payload).to_bytes(4, "little")
        )
        store = SegmentedStore(directory, auto_compact=False)
        assert self._peak_bytes(store.replay) < 1 << 20
        store.close()
        body = leb128(1) + leb128(5) + leb128(2**40) + bytes((8,) * 17)
        image = (
            b"ZSNP"
            + bytes((SNAPSHOT_VERSION,))
            + body
            + zlib.crc32(body).to_bytes(4, "little")
        )
        assert self._peak_bytes(lambda: parse_snapshot_bytes(image)) < 1 << 20

    @pytest.mark.parametrize(
        "payload",
        [
            bytes((7, 0)),  # unknown kind
            bytes((KIND_DELETE, 1, 1, 5)),  # second column missing
            bytes((KIND_DELETE, 1, 1, 5, 1, 6, 0)),  # trailing byte
        ],
        ids=["unknown-kind", "short-columns", "trailing-bytes"],
    )
    def test_a_crc_valid_bad_payload_is_an_error_not_a_torn_tail(
        self, tmp_path, payload
    ):
        directory = tmp_path / "seat"
        store = SegmentedStore(directory, auto_compact=False)
        store.append_inserts(*as_columns([ins(0, 1)]))
        store.close()
        with open(directory / segment_name(1), "ab") as handle:
            handle.write(
                leb128(len(payload))
                + payload
                + zlib.crc32(payload).to_bytes(4, "little")
            )
        with pytest.raises(StorageError):
            SegmentedStore(directory, auto_compact=False).replay()

    def test_bytes_per_appended_row_on_a_small_corpus(self, tmp_path):
        """Operators read the log's bytes per posting from MetricsDump."""
        documents = make_documents(num_docs=32)
        cluster = ClusterDeployment(
            MappingTable({}, num_lists=8),
            num_pods=1,
            batch_policy=BatchPolicy(min_documents=16),
            wal_dir=tmp_path,
            seed=77,
        )
        with cluster:
            for g in {d.group_id for d in documents}:
                cluster.create_group(g, coordinator=f"owner{g}")
            for document in documents:
                cluster.share_document(f"owner{document.group_id}", document)
            cluster.flush_all()
            view = SampleView(
                cluster.transport.call(
                    src="operator",
                    dst=METRICS_ENDPOINT,
                    request=MetricsDumpRequest(),
                ).samples
            )
            for slot in cluster.pods[0].slots:
                status = slot.log.status()
                assert status["records_appended"] > 0
                rows = status["records_appended"]
                assert status["bytes_appended"] <= 16 * rows
                assert view.value(
                    "zerber_storage_bytes_appended", server=slot.server_id
                ) == status["bytes_appended"]


class TestCompaction:
    def test_compact_snapshots_and_garbage_collects(self, tmp_path):
        store = SegmentedStore(
            tmp_path / "seat", segment_bytes=128, auto_compact=False
        )
        for i in range(30):
            store.append_inserts(*as_columns([ins(0, i)]))
        store.append_deletes(*as_columns([(0, i) for i in range(25)], 2))
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
        assert state_rows(store.replay()) == state_rows(before)
        store.close()

    def test_appends_after_compaction_land_in_the_suffix(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.append_inserts(*as_columns([ins(0, 1)]))
        store.compact()
        store.append_inserts(*as_columns([ins(0, 2)]))
        store.close()
        again = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert set(again.replay()[0].element_ids) == {1, 2}
        again.close()

    def test_double_compact_is_a_noop(self, tmp_path):
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.append_inserts(*as_columns([ins(0, i) for i in range(5)]))
        assert store.compact() == 5
        assert store.compact() == 0
        store.close()

    def test_recovery_reads_snapshot_plus_suffix_only(self, tmp_path):
        """After compaction, replay must not depend on the old segments
        (they are deleted) — the snapshot carries the prefix."""
        store = SegmentedStore(tmp_path / "seat", auto_compact=False)
        store.append_inserts(
            *as_columns([ins(3, i, share=i * 7) for i in range(50)])
        )
        store.compact()
        store.append_deletes([3], [0])
        store.close()
        fresh = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert set(fresh.replay()[3].element_ids) == set(range(1, 50))
        fresh.close()

    def test_background_compaction_triggers_and_serves_appends(
        self, tmp_path
    ):
        store = SegmentedStore(
            tmp_path / "seat", segment_bytes=256, compact_segments=2
        )
        for i in range(200):
            store.append_inserts(*as_columns([ins(0, i)]))
        store.wait_for_compaction()
        assert store.last_compaction_error is None
        status = store.status()
        assert status["snapshot"] is not None  # the compactor really ran
        assert set(store.replay()[0].element_ids) == set(range(200))
        store.close()

    def test_concurrent_appends_during_explicit_compaction(self, tmp_path):
        """The copy-on-write claim: a writer thread keeps appending while
        compact() runs; nothing is lost on either side."""
        store = SegmentedStore(
            tmp_path / "seat", segment_bytes=512, auto_compact=False
        )
        store.append_inserts(*as_columns([ins(0, i) for i in range(500)]))
        stop = threading.Event()
        written = []

        def writer():
            i = 1000
            while not stop.is_set():
                store.append_inserts(*as_columns([ins(1, i)]))
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
        assert set(replayed[0].element_ids) == set(range(500))
        assert set(replayed[1].element_ids) == set(written)
        store.close()


class TestEngineSelection:
    """One engine: ``storage=`` accepts only ``"segmented"``, and a
    directory the removed flat engine wrote is refused untouched."""

    @staticmethod
    def _deploy(**kwargs):
        return ClusterDeployment(
            MappingTable({}, num_lists=4),
            num_pods=1,
            **kwargs,
        )

    def test_unknown_engine_raises(self, tmp_path):
        with pytest.raises(ClusterError):
            self._deploy(wal_dir=tmp_path, storage="lsm-tree")
        assert list(tmp_path.iterdir()) == []

    def test_flat_engine_is_rejected(self, tmp_path):
        with pytest.raises(ClusterError, match="segmented"):
            self._deploy(wal_dir=tmp_path, storage="flat")
        assert list(tmp_path.iterdir()) == []

    def test_deployment_opens_a_segmented_store_per_seat(self, tmp_path):
        with self._deploy(wal_dir=tmp_path) as cluster:
            for slot in cluster.pods[0].slots:
                assert isinstance(slot.log, SegmentedStore)
                assert slot.wal_path == tmp_path / slot.server_id

    def test_discover_stores_finds_segmented_seats(self, tmp_path):
        SegmentedStore(tmp_path / "b", auto_compact=False).close()
        SegmentedStore(tmp_path / "a", auto_compact=False).close()
        (tmp_path / "noise").mkdir()  # no MANIFEST: not a store
        assert discover_stores(tmp_path) == [
            ("a", tmp_path / "a"),
            ("b", tmp_path / "b"),
        ]
        assert discover_stores(tmp_path / "absent") == []


def _flat_era_dir(directory):
    """A ``wal_dir`` as the removed flat engine left it."""
    directory.mkdir()
    for slot in range(3):
        (directory / f"pod0-server-{slot}.wal").write_text(
            f"I {slot} 1 0 42\n"
        )
    return directory


def _listing(directory):
    """Every path under ``directory`` with its bytes (None for dirs)."""
    return {
        str(path.relative_to(directory)): (
            None if path.is_dir() else path.read_bytes()
        )
        for path in sorted(directory.rglob("*"))
    }


class TestFlatEraRefusal:
    def test_deployment_refuses_a_flat_era_wal_dir(self, tmp_path):
        wal_dir = _flat_era_dir(tmp_path / "wals")
        before = _listing(wal_dir)
        with pytest.raises(StorageError) as excinfo:
            TestEngineSelection._deploy(wal_dir=wal_dir)
        for name in before:
            assert name in str(excinfo.value)
        assert _listing(wal_dir) == before

    def test_add_pod_refuses_a_flat_era_wal_dir(self, tmp_path):
        wal_dir = tmp_path / "wals"
        with TestEngineSelection._deploy(wal_dir=wal_dir) as cluster:
            (wal_dir / "pod9-server-0.wal").write_text("I 0 1 0 42\n")
            before = _listing(wal_dir)
            with pytest.raises(StorageError, match="pod9-server-0.wal"):
                cluster.add_pod()
            assert _listing(wal_dir) == before
            assert len(cluster.pods) == 1

    def test_discover_stores_refuses_a_flat_era_dir(self, tmp_path):
        wal_dir = _flat_era_dir(tmp_path / "wals")
        before = _listing(wal_dir)
        with pytest.raises(StorageError, match="pod0-server-0.wal"):
            discover_stores(wal_dir)
        assert _listing(wal_dir) == before


class TestSlotRestartOptions:
    def test_restart_round_trips_storage_options(self, tmp_path):
        """A seat attached with custom engine options must come back
        with the same options after a kill/restart — a seat configured
        ``auto_compact=False`` must not restart into a compacting one."""
        from repro.cluster import ClusterDeployment, attach_wal_to_slot
        from repro.core.mapping_table import MappingTable

        cluster = ClusterDeployment(
            MappingTable({}, num_lists=4), num_pods=1, k=2, n=3
        )
        slot = cluster.pods[0].slots[1]
        store = attach_wal_to_slot(
            slot,
            tmp_path / "p0-s1",
            auto_compact=False,
            segment_bytes=4096,
        )
        store.append_inserts(*as_columns([ins(0, 1)]))
        crashed = slot.server
        cluster.kill_server(0, 1)
        restarted = cluster.restart_server(0, 1)
        assert restarted.num_elements == 1
        # The fresh seat is rebuilt from the crashed one, not from
        # anchors the deployment keeps.
        assert restarted is not crashed
        assert (restarted.server_id, restarted.x_coordinate) == (
            crashed.server_id,
            crashed.x_coordinate,
        )
        assert restarted.share_bytes == crashed.share_bytes
        reopened = slot.log
        assert reopened._auto_compact is False
        assert reopened._segment_bytes == 4096
        cluster.close()


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
        server.insert_batch(token, *as_columns([ins(0, 1)]))
        assert store.replay() == {}
        store.close()

    def test_accepted_mutations_reach_the_store(self, hooked_server):
        server, token, store = hooked_server
        server.insert_batch(token, *as_columns([ins(0, 1), ins(0, 2)]))
        server.delete(token, [0], [1])
        assert set(store.replay()[0].element_ids) == {2}
        store.close()

    def test_rejected_batches_never_hit_disk(self, hooked_server):
        server, token, store = hooked_server
        bad = ins(0, 1, share=1, group=99)
        with pytest.raises(Exception):
            server.insert_batch(token, *as_columns([bad]))
        assert store.replay() == {}
        store.close()

    def test_rejected_insert_batch_is_atomic(self, hooked_server):
        """A batch that fails mid-way (duplicate element after valid
        ops) must leave memory AND disk untouched — a partial apply
        that never reached the WAL would vanish on restart."""
        server, token, store = hooked_server
        server.insert_batch(token, *as_columns([ins(0, 7)]))
        with pytest.raises(IndexServerError):
            server.insert_batch(token, *as_columns([ins(0, 8), ins(0, 7)]))
        with pytest.raises(IndexServerError):
            # A duplicate inside the batch.
            server.insert_batch(token, *as_columns([ins(1, 5), ins(1, 5)]))
        assert server.num_elements == 1
        assert set(store.replay()[0].element_ids) == {7}
        store.close()

    def test_rejected_delete_batch_is_atomic(self, hooked_server, tmp_path):
        """ACLs are validated for the whole delete batch before any
        record is removed, so memory and WAL cannot diverge."""
        server, token, store = hooked_server
        server.insert_batch(token, *as_columns([ins(0, 1)]))
        # A foreign-group record adopted via replication (the ACL the
        # delete below must trip over).
        server.adopt_posting_list(0, [2], [99], [5])
        from repro.errors import AccessDeniedError

        with pytest.raises(AccessDeniedError):
            server.delete(token, [0, 0], [1, 2])
        # Nothing was removed — not even the op the caller was allowed.
        assert {r.element_id for r in server.export_posting_list(0)} == {1, 2}
        assert set(store.replay()[0].element_ids) == {1, 2}
        store.close()

    def test_adopt_and_drop_are_logged(self, hooked_server):
        server, _token, store = hooked_server
        assert server.adopt_posting_list(4, [1, 1], [1, 2], [77, 78]) == 1
        assert server.adopt_posting_list(4, [1], [1], [77]) == 0
        assert list_rows(store.replay()[4]) == {1: (1, 77)}
        assert store.records_appended == 1
        assert server.drop_posting_list(4) == 1
        assert server.drop_posting_list(4) == 0
        assert store.replay() == {}
        assert store.records_appended == 2
        store.close()

    def test_bulk_load_requires_empty_server(self, hooked_server):
        server, token, _store = hooked_server
        server.insert_batch(token, *as_columns([ins(0, 1)]))
        with pytest.raises(IndexServerError):
            server.bulk_load({0: SeatList()})

    def test_bulk_load_round_trips_a_replay(self, hooked_server, tmp_path):
        server, token, store = hooked_server
        server.insert_batch(
            token, *as_columns([ins(0, 1), ins(2, 3, share=9)])
        )
        replayed = store.replay()
        fresh = IndexServer(
            "s0b", x_coordinate=5, auth=AuthService(), groups=GroupDirectory()
        )
        assert fresh.bulk_load(replayed) == 2
        view = fresh.compromise()
        assert view.merged_list_lengths() == {0: 1, 2: 1}
        assert fresh.export_posting_list(2) == server.export_posting_list(2)
        store.close()


# -- rows in the live seat's order, through every recovery path ---------------


def _recovered(directory) -> IndexServer:
    """A fresh seat bulk-loaded from the store at ``directory``."""
    store = SegmentedStore(directory, auto_compact=False)
    try:
        seat = IndexServer(
            "s0r", x_coordinate=5, auth=AuthService(), groups=GroupDirectory()
        )
        seat.bulk_load(store.replay())
    finally:
        store.close()
    return seat


class TestRecoveredRowOrder:
    """A delete moves a list's last row into the hole, so row order is a
    function of the operations applied, and peers that applied the same
    ones answer in the same order (the client's aligned join). A seat
    rebuilt from its log, or from a snapshot plus the segment suffix,
    must hold the rows in that order too — not sorted by element ID."""

    def test_segment_replay_keeps_the_live_order(self, hooked_server, tmp_path):
        server, token, store = hooked_server
        server.insert_batch(
            token, *as_columns([ins(0, e) for e in (1, 2, 3, 4)])
        )
        server.delete(token, [0], [1])
        (live,) = server.get_posting_lists(token, [0])
        assert live.element_ids == [4, 2, 3]
        assert store.replay()[0].element_ids == [4, 2, 3]
        store.close()
        recovered = _recovered(tmp_path / "s0")
        assert recovered.export_posting_list(0) == server.export_posting_list(0)

    def test_compaction_keeps_the_live_order(self, hooked_server, tmp_path):
        server, token, store = hooked_server
        server.insert_batch(
            token, *as_columns([ins(0, e) for e in (1, 3, 7, 9)])
        )
        server.delete(token, [0], [1])
        assert store.compact() == 3
        server.insert_batch(token, *as_columns([ins(0, 1)]))
        (live,) = server.get_posting_lists(token, [0])
        assert live.element_ids == [9, 3, 7, 1]
        assert store.replay()[0].element_ids == [9, 3, 7, 1]
        store.close()
        recovered = _recovered(tmp_path / "s0")
        assert recovered.export_posting_list(0) == server.export_posting_list(0)


class TestSnapshotRefusals:
    """A CRC-valid image that repeats a list, lists them out of order, or
    repeats an element ID within a list is refused, naming the list —
    on the file path and on the wire path alike. Loading one would keep
    one share of a repeated element and silently drop the rest."""

    @staticmethod
    def _image(*lists) -> bytes:
        """A sealed image of ``(pl_id, element_ids)`` lists, written
        by hand in the order given."""
        body = bytearray(leb128(len(lists)))
        for pl_id, element_ids in lists:
            body += leb128(pl_id)
            write_columns(
                body,
                element_ids,
                [1] * len(element_ids),
                [10 + row for row in range(len(element_ids))],
            )
        crc = zlib.crc32(bytes(body)).to_bytes(4, "little")
        return b"ZSNP" + bytes((SNAPSHOT_VERSION,)) + bytes(body) + crc

    CASES = {
        "repeated-list": ((7, [5]), (7, [6])),
        "decreasing-lists": ((8, [5]), (7, [6])),
        "repeated-element": ((7, [5, 6, 5]),),
        "both": ((7, [5, 5]), (7, [5, 5])),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_file_path_refuses_the_image(self, tmp_path, case):
        image = self._image(*self.CASES[case])
        with pytest.raises(StorageError, match="list 7"):
            parse_snapshot_bytes(image)
        directory = tmp_path / "seat"
        SegmentedStore(directory, auto_compact=False).close()
        (directory / "snap-00000001.zsnap").write_bytes(image)
        write_manifest(
            directory,
            Manifest(snapshot="snap-00000001.zsnap", first_segment=1),
        )
        store = SegmentedStore(directory, auto_compact=False)
        with pytest.raises(StorageError, match="list 7"):
            store.replay()
        store.close()

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_wire_path_refuses_the_image(self, hooked_server, case):
        server, token, store = hooked_server
        server.insert_batch(token, *as_columns([ins(7, 1), ins(8, 2)]))
        before = [server.export_posting_list(pl) for pl in (7, 8)]
        appended = store.records_appended
        with pytest.raises(StorageError, match="list 7"):
            server.ingest_snapshot((7, 8), self._image(*self.CASES[case]))
        assert [server.export_posting_list(pl) for pl in (7, 8)] == before
        assert store.records_appended == appended
        store.close()

    def test_a_well_formed_image_still_loads(self):
        loaded = parse_snapshot_bytes(self._image((3, [9, 2]), (7, [5])))
        assert loaded == {
            3: SeatList([9, 2], [1, 1], [10, 11]),
            7: SeatList([5], [1], [10]),
        }


def _blocks(directory) -> list:
    """Every ``(kind, columns)`` block in a seat's live segments."""
    return list(iter_blocks(directory, scan_segment_numbers(directory)))


class TestSnapshotShipmentLogging:
    def test_one_shipment_is_two_log_blocks(self, hooked_server, tmp_path):
        """An adopted shipment of N lists the seat already holds is one
        delete block (every row it drops) and one insert block (every
        row it loads) — not a drop and an adopt per list — and a replay
        after it equals the live seat, rows in order."""
        server, token, store = hooked_server
        source = IndexServer(
            "src", x_coordinate=5, auth=AuthService(), groups=GroupDirectory()
        )
        pl_ids = (0, 3, 5, 6)
        server.insert_batch(
            token,
            *as_columns(
                [ins(pl, e, share=e) for pl in pl_ids for e in (1, 2, 3)]
            ),
        )
        server.delete(token, [3], [1])
        for pl in pl_ids[:3]:  # list 6 ships absent: the seat's copy dies
            source.adopt_posting_list(
                pl, [9, 2, 4, 7], [1, 1, 1, 1], [pl, pl + 1, pl + 2, pl + 3]
            )
        image, count = source.export_snapshot(pl_ids)
        directory = tmp_path / "s0"
        blocks = len(_blocks(directory))
        appended = store.records_appended
        dropped = server.num_elements
        seat = ServerSlot(pod_index=0, slot_index=0, server=server)
        response = IndexServerService(seat).handle(
            AdoptSnapshotRequest(pl_ids=pl_ids, snapshot=image)
        )
        assert response.count == count == 12
        assert store.records_appended == appended + dropped + count
        assert [kind for kind, _columns in _blocks(directory)[blocks:]] == [
            KIND_DELETE,
            KIND_INSERT,
        ]
        assert not server.export_posting_list(6)
        for pl in pl_ids:
            assert server.export_posting_list(
                pl
            ) == source.export_posting_list(pl)
        replayed = store.replay()
        assert replayed == {
            pl: server._store[pl] for pl in pl_ids if server._store.get(pl)
        }
        store.close()
