"""Tests for the document-owner client (§5.4.1, §7.2-§7.3)."""

from __future__ import annotations

import gc

import pytest

from repro.client.batching import BatchPolicy
from repro.core.posting import PackingSpec, PostingElement
from repro.corpus.document import Document
from repro.errors import PackingError
from repro.invindex.postings import Posting

from tests.helpers import deploy_corpus, owner_of_group
from repro.core.zerber_index import ZerberDeployment
from repro.core.mapping_table import MappingTable


def make_doc(doc_id: int, terms: dict[str, int], group: int = 0) -> Document:
    return Document(
        doc_id=doc_id,
        host="peer-a",
        group_id=group,
        term_counts=terms,
        length=sum(terms.values()),
        text=" ".join(terms),
    )


@pytest.fixture()
def deployment():
    table = MappingTable({}, num_lists=16)  # all terms hash-routed
    dep = ZerberDeployment(
        mapping_table=table, k=2, n=3, seed=1
    )
    dep.create_group(0, coordinator="alice")
    return dep


class TestSharing:
    def test_share_counts_distinct_terms(self, deployment):
        owner = deployment.owner("alice", BatchPolicy(min_documents=1))
        count = owner.share_document(make_doc(1, {"a": 2, "b": 1}))
        assert count == 2
        assert deployment.servers[0].num_elements == 2
        # All n servers hold the same element count (one share each).
        assert len({s.num_elements for s in deployment.servers}) == 1

    def test_shadow_map_tracks_elements(self, deployment):
        owner = deployment.owner("alice", BatchPolicy(min_documents=1))
        owner.share_document(make_doc(1, {"a": 1, "b": 1, "c": 1}))
        assert owner.shared_documents == [1]
        assert len(owner.elements_of(1)) == 3

    def test_shadow_map_entries_are_the_stored_id_pairs(self, deployment):
        """The shadow map keeps two id columns per document; what it
        hands out is still the (pl_id, element_id) pairs the servers
        hold, as copies."""
        owner = deployment.owner("alice", BatchPolicy(min_documents=1))
        owner.share_document(make_doc(1, {"a": 1, "b": 1, "c": 1}))
        owner.share_document(make_doc(2, {"a": 3}))
        stored = {
            (pl_id, record.element_id)
            for pl_id, records in (
                deployment.servers[0].compromise().posting_store.items()
            )
            for record in records
        }
        entries = owner.elements_of(1)
        assert len(set(entries)) == 3
        assert set(entries) | set(owner.elements_of(2)) == stored
        entries.clear()
        assert len(owner.elements_of(1)) == 3
        assert owner.elements_of(404) == []
        assert owner.delete_document(1) == 3
        assert owner.elements_of(1) == []
        assert deployment.servers[0].num_elements == 1

    def test_shared_document_is_served(self, deployment):
        owner = deployment.owner("alice", BatchPolicy(min_documents=1))
        owner.share_document(make_doc(1, {"alpha": 2}))
        assert len(owner.elements_of(1)) == 1
        assert all(s.num_elements == 1 for s in deployment.servers)
        assert owner.document(1).term_counts == {"alpha": 2}

    def test_reshare_replaces_old_elements(self, deployment):
        owner = deployment.owner("alice", BatchPolicy(min_documents=1))
        owner.share_document(make_doc(1, {"old": 1}))
        old_entries = owner.elements_of(1)
        owner.share_document(make_doc(1, {"new": 1, "newer": 1}))
        assert deployment.servers[0].num_elements == 2
        new_entries = owner.elements_of(1)
        assert len(new_entries) == 2
        assert not set(old_entries) & set(new_entries)

    def test_failed_reshare_keeps_old_version_served(self):
        """A re-share that cannot pack raises before the old version is
        withdrawn: the old elements stay on every server and in the
        owner's shadow map."""
        dep = ZerberDeployment(
            mapping_table=MappingTable({}, num_lists=16),
            k=2,
            n=3,
            seed=1,
            packing=PackingSpec(term_id_bits=4),
            batch_policy=BatchPolicy(min_documents=1),
        )
        dep.create_group(0, coordinator="alice")
        dep.share_document("alice", make_doc(1, {"t1": 1}))
        owner = dep.owner("alice")
        served = [hit.doc_id for hit in dep.search("alice", ["t1"])]
        assert served == [1]
        entries = owner.elements_of(1)
        wide = make_doc(1, {f"w{i}": 1 for i in range(20)})
        with pytest.raises(PackingError, match="term_id 16 exceeds"):
            dep.share_document("alice", wide)
        assert [hit.doc_id for hit in dep.search("alice", ["t1"])] == [1]
        assert all(s.num_elements == 1 for s in dep.servers)
        assert owner.shared_documents == [1]
        assert owner.elements_of(1) == entries
        assert owner.document(1).term_counts == {"t1": 1}

    def test_batching_defers_until_flush(self, deployment):
        owner = deployment.owner("alice", BatchPolicy(min_documents=10))
        owner.share_document(make_doc(1, {"a": 1}))
        assert deployment.servers[0].num_elements == 0
        assert owner.pending_documents == 1
        owner.flush_updates()
        assert deployment.servers[0].num_elements == 1

    def test_tick_triggers_age_flush(self, deployment):
        owner = deployment.owner(
            "alice", BatchPolicy(min_documents=10, max_age_ticks=2)
        )
        owner.share_document(make_doc(1, {"a": 1}))
        assert not owner.tick(1)
        assert owner.tick(1)
        assert deployment.servers[0].num_elements == 1


class TestRetainedObjects:
    def test_ingest_keeps_no_object_per_element(self, deployment):
        """Sharing and flushing documents leaves no PostingElement and no
        plaintext index Posting alive: what an ingest retains is id and
        share columns, never an object per element."""
        gc.collect()
        before = {
            id(obj)
            for obj in gc.get_objects()
            if isinstance(obj, (PostingElement, Posting))
        }
        owner = deployment.owner("alice", BatchPolicy(min_documents=8))
        for doc_id in range(50):
            owner.share_document(
                make_doc(doc_id, {f"t{doc_id % 7}": 2, f"u{doc_id}": 1})
            )
        owner.flush_updates()
        assert deployment.servers[0].num_elements == 100
        gc.collect()
        retained = [
            obj
            for obj in gc.get_objects()
            if isinstance(obj, (PostingElement, Posting))
            and id(obj) not in before
        ]
        assert retained == []


class TestDeletion:
    def test_delete_removes_everywhere(self, deployment):
        owner = deployment.owner("alice", BatchPolicy(min_documents=1))
        owner.share_document(make_doc(1, {"a": 1, "b": 1}))
        deleted = owner.delete_document(1)
        assert deleted == 2
        assert all(s.num_elements == 0 for s in deployment.servers)
        assert owner.shared_documents == []

    def test_delete_unknown_doc_is_noop(self, deployment):
        owner = deployment.owner("alice")
        assert owner.delete_document(99) == 0

    def test_delete_flushes_pending_inserts_first(self, deployment):
        owner = deployment.owner("alice", BatchPolicy(min_documents=10))
        owner.share_document(make_doc(1, {"a": 1}))
        owner.delete_document(1)  # must not orphan the pending insert
        assert all(s.num_elements == 0 for s in deployment.servers)


class TestBatchCorrelationSurface:
    def test_batched_updates_share_one_log_entry(self, small_corpus):
        deployment = deploy_corpus(
            small_corpus,
            batch_policy=BatchPolicy(min_documents=1000),
            num_lists=16,
        )
        view = deployment.servers[0].compromise()
        # One owner per group, each flushed once => one batch per owner.
        assert len(view.update_log) == len(small_corpus.group_ids())

    def test_unbatched_updates_expose_per_document_entries(self, small_corpus):
        deployment = deploy_corpus(
            small_corpus,
            batch_policy=BatchPolicy(min_documents=1),
            num_lists=16,
        )
        view = deployment.servers[0].compromise()
        assert len(view.update_log) == len(small_corpus)
