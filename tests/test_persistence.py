"""Tests for durable index-server persistence (§5.4.1 recovery).

A server logs every accepted mutation into its attached
:class:`SegmentedStore`; a fresh server recovers with
``bulk_load(store.replay())``. The cluster classes at the bottom extend
the story to whole-cluster failure injection: servers die mid-workload,
restart from their seat stores, and the replayed cluster must answer
exactly like before — and like a healthy single fleet.
"""

from __future__ import annotations

import random
import zlib

import pytest

from helpers import as_columns
from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.core.mapping_table import MappingTable
from repro.core.zerber_index import ZerberDeployment
from repro.corpus.document import Document
from repro.errors import IndexServerError, StorageError
from repro.server.auth import AuthService
from repro.server.groups import GroupDirectory
from repro.server.index_server import IndexServer
from repro.storage import SegmentedStore
from repro.storage.segment import (
    HEADER_LEN,
    SEGMENT_MAGIC,
    SEGMENT_VERSION,
    segment_name,
)


@pytest.fixture()
def env(tmp_path):
    auth = AuthService()
    groups = GroupDirectory()
    groups.create_group(1, coordinator="alice")
    cred = auth.register_user("alice")
    token = auth.issue_token("alice", cred)
    server = IndexServer("s0", x_coordinate=5, auth=auth, groups=groups)
    log = SegmentedStore(tmp_path / "s0", auto_compact=False)
    server.attach_store(log)
    yield auth, groups, server, token, log, tmp_path
    log.close()


def open_store(path, **options):
    return SegmentedStore(path, auto_compact=False, **options)


def replay_store(path):
    """Open a seat store, replay it and close it again (a recovery)."""
    store = open_store(path)
    try:
        return store.replay()
    finally:
        store.close()


def op(pl, eid, share=111):
    """One insert row: ``(pl_id, element_id, group_id, share_y)``."""
    return (pl, eid, 1, share)


class TestLogging:
    def test_inserts_are_logged_and_replayable(self, env):
        _, _, server, token, log, _ = env
        server.insert_batch(token, *as_columns([op(0, 1), op(0, 2), op(3, 9)]))
        replayed = log.replay()
        assert set(replayed[0].element_ids) == {1, 2}
        assert list(replayed[3].share_ys) == [111]

    def test_deletes_are_logged(self, env):
        _, _, server, token, log, _ = env
        server.insert_batch(token, *as_columns([op(0, 1), op(0, 2)]))
        server.delete(token, [0], [1])
        replayed = log.replay()
        assert set(replayed[0].element_ids) == {2}

    def test_rejected_batches_never_hit_disk(self, env):
        _, _, server, token, log, _ = env
        with pytest.raises(Exception):
            server.insert_batch(token, *as_columns([0], [1], [99], [1]))
        assert log.replay() == {}


class TestRecovery:
    def test_full_recovery_round_trip(self, env, tmp_path):
        auth, groups, server, token, log, _ = env
        server.insert_batch(token, *as_columns([op(0, 1), op(0, 2), op(7, 3)]))
        server.delete(token, [0], [2])
        # The box dies; a fresh server recovers from the log.
        log.close()
        recovered = IndexServer("s0b", x_coordinate=5, auth=auth, groups=groups)
        count = recovered.bulk_load(replay_store(tmp_path / "s0"))
        assert count == 2
        view = recovered.compromise()
        assert view.merged_list_lengths() == {0: 1, 7: 1}

    def test_recovery_requires_empty_server(self, env, tmp_path):
        auth, groups, server, token, log, _ = env
        server.insert_batch(token, *as_columns([op(0, 1)]))
        with pytest.raises(IndexServerError):
            server.bulk_load(replay_store(tmp_path / "other"))

    def test_torn_tail_write_is_tolerated(self, tmp_path):
        store = open_store(tmp_path / "torn")
        store.append_inserts(*as_columns([op(0, 1, 42)]))
        store.append_inserts(*as_columns([op(0, 2, 43)]))
        store.close()
        segment = tmp_path / "torn" / segment_name(1)
        segment.write_bytes(segment.read_bytes()[:-2])  # last CRC cut off
        replayed = replay_store(tmp_path / "torn")
        assert set(replayed[0].element_ids) == {1}

    def test_corrupt_interior_record_raises(self, tmp_path):
        store = open_store(tmp_path / "bad", segment_bytes=HEADER_LEN + 1)
        for eid in (1, 2, 3):
            # One sealed segment each.
            store.append_inserts(*as_columns([op(0, eid)]))
        store.close()
        first = tmp_path / "bad" / segment_name(1)
        data = bytearray(first.read_bytes())
        data[HEADER_LEN + 2] ^= 0xFF  # inside the first record's payload
        first.write_bytes(bytes(data))
        with pytest.raises(StorageError):
            replay_store(tmp_path / "bad")

    def test_corrupt_field_raises(self, tmp_path):
        """A CRC-valid record of an unknown kind is a format error, not
        a torn tail to skip."""
        open_store(tmp_path / "bad2").close()
        payload = bytes((9, 0, 1))
        (tmp_path / "bad2" / segment_name(1)).write_bytes(
            SEGMENT_MAGIC
            + bytes((SEGMENT_VERSION, len(payload)))
            + payload
            + zlib.crc32(payload).to_bytes(4, "little")
        )
        with pytest.raises(StorageError):
            replay_store(tmp_path / "bad2")

    def test_empty_log_replays_empty(self, tmp_path):
        assert replay_store(tmp_path / "fresh") == {}


class TestCompaction:
    def test_compact_shrinks_and_preserves(self, env, tmp_path):
        _, _, server, token, log, _ = env
        server.insert_batch(
            token, *as_columns([op(0, i) for i in range(1, 21)])
        )
        server.delete(token, [0] * 15, list(range(1, 16)))
        before = log.disk_bytes()
        written = log.compact()
        after = log.disk_bytes()
        assert written == 5
        assert after < before
        replayed = log.replay()
        assert set(replayed[0].element_ids) == {16, 17, 18, 19, 20}

    def test_appends_after_compaction_work(self, env):
        _, _, server, token, log, _ = env
        server.insert_batch(token, *as_columns([op(0, 1)]))
        log.compact()
        server.insert_batch(token, *as_columns([op(0, 2)]))
        replayed = log.replay()
        assert set(replayed[0].element_ids) == {1, 2}


# -- cluster-wide failure injection + WAL recovery ---------------------------


def _make_documents(count, seed):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(18)]
    documents = []
    for doc_id in range(count):
        terms = rng.sample(vocab, rng.randint(2, 5))
        counts = {t: rng.randint(1, 3) for t in terms}
        documents.append(
            Document(
                doc_id=doc_id,
                host=f"host{doc_id % 2}",
                group_id=doc_id % 2,
                term_counts=counts,
                length=sum(counts.values()),
                text=" ".join(sorted(counts)),
            )
        )
    return documents


def _index(deployment, documents):
    for g in (0, 1):
        deployment.create_group(g, coordinator=f"owner{g}")
    for document in documents:
        deployment.share_document(f"owner{document.group_id}", document)
    deployment.flush_all()


@pytest.fixture()
def wal_cluster(tmp_path):
    documents = _make_documents(14, seed=3)
    cluster = ClusterDeployment(
        MappingTable({}, num_lists=10),
        num_pods=2,
        k=2,
        n=3,
        batch_policy=BatchPolicy(min_documents=1),
        wal_dir=tmp_path / "wals",
        seed=55,
    )
    _index(cluster, documents)
    return documents, cluster


class TestClusterWalRecovery:
    def test_restart_replays_wal_into_a_fresh_server(self, wal_cluster):
        _, cluster = wal_cluster
        slot = cluster.pods[0].slots[1]
        old_server = slot.server
        elements_before = old_server.num_elements
        cluster.kill_server(0, 1)
        restarted = cluster.restart_server(0, 1)
        # A crash, not a pause: new object, same identity, same data.
        assert restarted is not old_server
        assert restarted.server_id == old_server.server_id
        assert restarted.x_coordinate == old_server.x_coordinate
        assert restarted.num_elements == elements_before

    def test_mixed_workload_kill_restart_answers_identically(
        self, wal_cluster, tmp_path
    ):
        """Kill during inserts/searches, replay the WAL, same answers.

        The killed servers miss the mid-outage inserts, so after restart
        they answer short for those elements and the client escalates —
        the replayed cluster must still match both its own pre-restart
        answers and a healthy single-fleet twin indexing everything.
        """
        documents, cluster = wal_cluster
        queries = [["w0", "w3"], ["w1"], ["w2", "w5", "w7"]]
        cluster.kill_server(0, 0)
        cluster.kill_server(1, 2)
        late_docs = _make_documents(20, seed=8)[14:]
        for document in late_docs:
            cluster.share_document(
                f"owner{document.group_id}", document
            )
        cluster.flush_all()
        during = [
            cluster.searcher("owner0", use_cache=False).search(
                terms, top_k=6, fetch_snippets=False
            )
            for terms in queries
        ]
        cluster.restart_server(0, 0)
        cluster.restart_server(1, 2)
        after = [
            cluster.searcher("owner0", use_cache=False).search(
                terms, top_k=6, fetch_snippets=False
            )
            for terms in queries
        ]
        assert after == during
        single = ZerberDeployment(
            MappingTable({}, num_lists=10),
            k=2,
            n=3,
            batch_policy=BatchPolicy(min_documents=1),
            seed=55,
        )
        _index(single, documents + late_docs)
        expected = [
            single.searcher("owner0").search(
                terms, top_k=6, fetch_snippets=False
            )
            for terms in queries
        ]
        assert after == expected

    def test_a_restarted_seat_answers_in_its_pods_row_order(
        self, wal_cluster
    ):
        """Compact every seat, write and delete on, then crash one seat
        per pod: the seat rebuilt from snapshot + segment suffix answers
        every list in the same row order as its live pod peers (the
        client's aligned join), not in element-ID order."""
        documents, cluster = wal_cluster
        for document in documents[:4]:
            cluster.owner(f"owner{document.group_id}").delete_document(
                document.doc_id
            )
        for pod in cluster.pods:
            for slot in pod.slots:
                slot.log.compact()
        for document in _make_documents(20, seed=8)[14:]:
            cluster.share_document(f"owner{document.group_id}", document)
        cluster.flush_all()
        for document in documents[4:7]:
            cluster.owner(f"owner{document.group_id}").delete_document(
                document.doc_id
            )
        cluster.flush_all()
        token = cluster.enroll_user("auditor")
        for group_id, coordinator in ((0, "owner0"), (1, "owner1")):
            cluster.add_member(group_id, "auditor", actor=coordinator)
        pl_ids = range(10)
        reordered = 0
        for pod in cluster.pods:
            cluster.kill_server(pod.index, 1)
            restarted = cluster.restart_server(pod.index, 1)
            answers = restarted.get_posting_lists(token, pl_ids)
            for slot in (pod.slots[0], pod.slots[2]):
                peers = slot.server.get_posting_lists(token, pl_ids)
                assert [a.element_ids for a in answers] == [
                    p.element_ids for p in peers
                ]
            reordered += sum(
                a.element_ids != sorted(a.element_ids) for a in answers
            )
        assert reordered  # the deletes really moved rows

    def test_deletes_survive_recovery(self, wal_cluster):
        documents, cluster = wal_cluster
        target = documents[0]
        term = sorted(target.term_counts)[0]
        owner = cluster.owner(f"owner{target.group_id}")
        owner.delete_document(target.doc_id)
        for pod in cluster.pods:
            cluster.kill_server(pod.index, 0)
            cluster.restart_server(pod.index, 0)
        searcher = cluster.searcher(
            f"owner{target.group_id}", use_cache=False
        )
        hits = searcher.search([term], top_k=20, fetch_snippets=False)
        assert all(hit.doc_id != target.doc_id for hit in hits)

    def test_post_restart_writes_keep_logging(self, wal_cluster):
        """The re-attached WAL records writes accepted after recovery."""
        _, cluster = wal_cluster
        cluster.kill_server(0, 0)
        cluster.restart_server(0, 0)
        slot = cluster.pods[0].slots[0]
        appended_before = slot.log.records_appended
        extra = Document(
            doc_id=900,
            host="host0",
            group_id=0,
            term_counts={"w0": 1, "w1": 1, "w2": 1, "w3": 1},
            length=4,
        )
        cluster.share_document("owner0", extra)
        cluster.flush_all()
        if slot.log.records_appended == appended_before:
            # All four lists may hash to the other pod; force the point.
            pytest.skip("no list of the new document landed on pod 0")
        cluster.kill_server(0, 0)
        restarted = cluster.restart_server(0, 0)
        # The owner's shadow map names doc 900's exact (pl, element_id)
        # entries; the ones routed to pod 0 must survive the replay.
        pod0_entries = [
            entry
            for entry in cluster.owner("owner0").elements_of(900)
            if cluster.coordinator.pod_of(entry[0]).index == 0
        ]
        assert pod0_entries  # otherwise the earlier skip fired
        stored = {
            (pl, record.element_id)
            for pl, records in restarted.compromise().posting_store.items()
            for record in records
        }
        for entry in pod0_entries:
            assert entry in stored
