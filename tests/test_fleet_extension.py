"""Tests for dynamic fleet extension and Byzantine-share detection.

§5.1: "Shamir's secret sharing scheme allows dynamic extension of the
number n of servers without recalculating the existing secret shares, by
just selecting additional points on the polynomial curve."
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import ClusterDeployment
from repro.secretsharing.shamir import Share
from repro.server.index_server import ShareRecord

from tests.helpers import (
    deploy_corpus,
    owner_of_group,
    rewrite_stored_list,
    scored_oracle,
)


@pytest.fixture(scope="module")
def corpus():
    from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus

    return generate_corpus(
        SyntheticCorpusConfig(
            num_documents=24,
            vocabulary_size=400,
            num_groups=2,
            mean_document_length=40,
            seed=77,
        )
    )


def a_term(corpus, group=0):
    return sorted(corpus.documents_in_group(group)[0].term_counts)[0]


class TestAddServer:
    def test_new_server_carries_all_elements(self, corpus):
        deployment = deploy_corpus(corpus, num_lists=16)
        before = deployment.servers[0].num_elements
        new_server = deployment.add_server()
        assert deployment.scheme.n == 4
        assert len(deployment.servers) == 4
        assert new_server.num_elements == before

    def test_new_server_shares_join_old_ones(self, corpus):
        deployment = deploy_corpus(corpus, num_lists=16)
        deployment.add_server()
        term = a_term(corpus)
        user = owner_of_group(0)
        searcher = deployment.searcher(user)
        # Query using ALL four servers: old and new shares must join on
        # element IDs and reconstruct consistently.
        docs_all = {
            e.doc_id for e in searcher.fetch_elements([term], num_servers=4)
        }
        docs_old = {
            e.doc_id for e in searcher.fetch_elements([term], num_servers=2)
        }
        assert docs_all == docs_old
        truth = {
            d.doc_id
            for d in corpus.documents_in_group(0)
            if term in d.term_counts
        }
        assert docs_all == truth

    def test_reconstruction_from_new_server_pair(self, corpus):
        # The pair (old server 0, NEW server) must reconstruct correctly —
        # proving the new share lies on the original polynomial.
        deployment = deploy_corpus(corpus, num_lists=16)
        deployment.add_server()
        term = a_term(corpus)
        user = owner_of_group(0)
        token = deployment.enroll_user(user)
        pl_id = deployment.mapping_table.lookup(term)
        from repro.secretsharing.shamir import Share

        old = deployment.servers[0]
        new = deployment.servers[3]
        old_records = {
            r.element_id: r
            for r in old.get_posting_lists(token, [pl_id])[0].records
        }
        new_records = {
            r.element_id: r
            for r in new.get_posting_lists(token, [pl_id])[0].records
        }
        assert set(new_records) == set(old_records)
        checked = 0
        for element_id, old_record in old_records.items():
            shares = [
                Share(x=old.x_coordinate, y=old_record.share_y),
                Share(x=new.x_coordinate, y=new_records[element_id].share_y),
            ]
            secret = deployment.scheme.reconstruct(shares)
            element = deployment.codec.unpack(secret)  # must not raise
            assert element.doc_id >= 0
            checked += 1
        assert checked > 0

    def test_new_documents_reach_all_servers(self, corpus):
        deployment = deploy_corpus(corpus, num_lists=16)
        deployment.add_server()
        from repro.corpus.document import Document

        fresh = Document(
            doc_id=9_999,
            host="hostX",
            group_id=0,
            term_counts={"postextension": 2},
            length=2,
            text="postextension postextension",
        )
        deployment.share_document(owner_of_group(0), fresh)
        deployment.flush_all()
        counts = {s.num_elements for s in deployment.servers}
        assert len(counts) == 1  # every server got the new element

    def test_provisioning_reads_no_stale_seat(self, corpus):
        # Seat 0 sleeps through a write and comes back without it (no
        # store: a partition, not a crash); the ledger marks it stale.
        # The new seat must be interpolated from seats 1 and 2, or the
        # write's elements would reach it with one share short.
        deployment = deploy_corpus(corpus, num_lists=16)
        deployment.kill_server(0, 0)
        from repro.corpus.document import Document

        deployment.share_document(
            owner_of_group(0),
            Document(
                doc_id=9_998,
                host="hostX",
                group_id=0,
                term_counts={"whileasleep": 1, "budget": 2},
                length=3,
                text="whileasleep budget budget",
            ),
        )
        deployment.flush_all()
        deployment.restart_server(0, 0)
        assert deployment.coordinator.ledger.outstanding > 0
        new_server = deployment.add_server()
        assert new_server.num_elements == deployment.servers[1].num_elements
        assert new_server.num_elements > deployment.servers[0].num_elements

    def test_owner_detects_x_coordinate_mismatch(self, corpus):
        deployment = deploy_corpus(corpus, num_lists=16)
        deployment.add_server()
        owner = deployment.owner(owner_of_group(0))
        # Corrupt the new server's coordinate and retry provisioning.
        deployment.servers[3].x_coordinate = 12345
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            owner.provision_new_server(3)


class TestAddServerToEveryPod:
    @pytest.mark.parametrize("transport", ["in-process", "async-socket"])
    def test_replicated_cluster_extends_every_pod(self, corpus, transport):
        # §5.1 on the cluster shape: slot n joins each of three pods at
        # R = 2, and every owner provisions its own elements there,
        # over either transport.
        cluster = ClusterDeployment.bootstrap(
            corpus.term_probabilities(),
            num_lists=16,
            num_pods=3,
            replication_factor=2,
            k=2,
            n=3,
            seed=9,
            transport=transport,
        )
        with cluster:
            for group_id in corpus.group_ids():
                cluster.create_group(
                    group_id, coordinator=owner_of_group(group_id)
                )
            for document in corpus:
                owner = owner_of_group(document.group_id)
                cluster.share_document(owner, document)
            cluster.flush_all()
            new_servers = cluster.add_server()
            assert cluster.scheme.n == 4 and len(new_servers) == 3
            assert [pod.slots[3].server for pod in cluster.pods] == new_servers
            user = owner_of_group(0)
            searcher = cluster.searcher(user, verify_consistency=True)
            documents = corpus.documents_in_group(0)
            vocabulary = sorted({t for d in documents for t in d.term_counts})
            for terms in (vocabulary[:1], vocabulary[2:5], vocabulary[::25]):
                results = searcher.search(
                    terms, top_k=10, num_servers=4, fetch_snippets=False
                )
                expected = scored_oracle(
                    list(corpus), cluster.groups, user, terms, 10
                )
                assert [(r.doc_id, r.score.hex()) for r in results] == expected
                # All four seats of a pod answered, and agreed.
                assert searcher.last_diagnostics.inconsistent_elements == 0
            checked = 0
            for pod in cluster.pods:
                old, new = pod.slots[0].server, pod.slots[3].server
                for pl_id in range(cluster.mapping_table.num_lists):
                    old_ys = {
                        r.element_id: r.share_y
                        for r in old.export_posting_list(pl_id)
                    }
                    new_ys = {
                        r.element_id: r.share_y
                        for r in new.export_posting_list(pl_id)
                    }
                    assert new_ys.keys() == old_ys.keys()
                    for element_id, y in old_ys.items():
                        shares = [
                            Share(x=old.x_coordinate, y=y),
                            Share(x=new.x_coordinate, y=new_ys[element_id]),
                        ]
                        secret = cluster.scheme.reconstruct(shares)
                        assert cluster.codec.unpack(secret).doc_id >= 0
                        checked += 1
            # Every element of every replica: a quarter of all stored shares.
            assert checked == cluster.total_elements() // 4


class TestByzantineDetection:
    def _tamper(self, deployment, term, rng):
        """Flip one share on server 2 for every element of term's list."""
        pl_id = deployment.mapping_table.lookup(term)
        return rewrite_stored_list(
            deployment.servers[2],
            pl_id,
            lambda records: [
                ShareRecord(
                    element_id=record.element_id,
                    group_id=record.group_id,
                    share_y=(record.share_y + 1 + rng.randrange(1000))
                    % deployment.field.p,
                )
                for record in records
            ],
        )

    def test_lying_server_detected_at_k_plus_1(self, corpus):
        # m = k + 1 = 3 shares with one liar: detectable, NOT correctable
        # (error correction needs m >= k + 2e) — elements are dropped.
        deployment = deploy_corpus(corpus, num_lists=16, seed=5)
        term = a_term(corpus)
        tampered = self._tamper(deployment, term, random.Random(3))
        assert tampered > 0
        user = owner_of_group(0)
        verifying = deployment.searcher(user, verify_consistency=True)
        assert verifying.fetch_elements([term], num_servers=3) == []
        diag = verifying.last_diagnostics
        # Exact counts, pinned across the move to the columnar join:
        # all 21 readable elements of the list are caught and dropped.
        assert diag.elements_received == 21
        assert diag.inconsistent_elements == 21
        assert diag.recovered_elements == 0
        # An element the vote cannot decide is discarded, and counted so.
        assert (diag.elements_matched, diag.false_positives) == (0, 21)

    def test_lying_server_corrected_at_k_plus_2(self, corpus):
        # m = k + 2 = 4 shares with one liar: the true secret wins the
        # subset plurality and the result set equals the clean truth.
        deployment = deploy_corpus(corpus, num_lists=16, seed=5)
        deployment.add_server()  # 4th honest server
        term = a_term(corpus)
        tampered = self._tamper(deployment, term, random.Random(3))
        assert tampered > 0
        user = owner_of_group(0)
        verifying = deployment.searcher(user, verify_consistency=True)
        elements = verifying.fetch_elements([term], num_servers=4)
        diag = verifying.last_diagnostics
        assert diag.inconsistent_elements == 21  # pinned, as above
        assert diag.recovered_elements == 21
        assert (diag.elements_matched, diag.false_positives) == (12, 9)
        truth = {
            d.doc_id
            for d in corpus.documents_in_group(0)
            if term in d.term_counts
        }
        assert {e.doc_id for e in elements} == truth

    def test_lagging_first_server_is_covered_by_the_others(self, corpus):
        # Server 0 lost one element of the list: its column is short, so
        # the join leaves the aligned fast path, and the element must
        # still reconstruct from the columns of servers 1 and 2.
        deployment = deploy_corpus(corpus, num_lists=16, seed=5)
        term = a_term(corpus)
        searcher = deployment.searcher(owner_of_group(0))
        healthy = searcher.fetch_elements([term], num_servers=3)
        received = searcher.last_diagnostics.elements_received
        rewrite_stored_list(
            deployment.servers[0],
            deployment.mapping_table.lookup(term),
            lambda records: records[1:],
        )
        lagging = searcher.fetch_elements([term], num_servers=3)
        assert sorted(lagging, key=repr) == sorted(healthy, key=repr)
        assert searcher.last_diagnostics.elements_received == received
        # With only k servers asked, the element is short of k shares,
        # so the fetch escalates to server 2 and still reconstructs it.
        assert sorted(searcher.fetch_elements([term]), key=repr) == sorted(
            healthy, key=repr
        )
        assert searcher.last_diagnostics.elements_received == received
        assert searcher.last_cluster_diagnostics.escalations == 1

    def test_no_false_alarms_on_honest_fleet(self, corpus):
        deployment = deploy_corpus(corpus, num_lists=16, seed=6)
        term = a_term(corpus)
        user = owner_of_group(0)
        verifying = deployment.searcher(user, verify_consistency=True)
        elements = verifying.fetch_elements([term], num_servers=3)
        assert elements
        assert verifying.last_diagnostics.inconsistent_elements == 0

    def test_verification_needs_extra_shares(self, corpus):
        # Querying exactly k servers cannot cross-check; tampering goes
        # unnoticed (the documented limitation).
        deployment = deploy_corpus(corpus, num_lists=16, seed=7)
        term = a_term(corpus)
        self._tamper(deployment, term, random.Random(4))
        user = owner_of_group(0)
        verifying = deployment.searcher(user, verify_consistency=True)
        verifying.fetch_elements([term], num_servers=2)
        assert verifying.last_diagnostics.inconsistent_elements == 0
