"""Tests for the querying client (§5.4.2, Algorithm 2)."""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.core.mapping_table import MappingTable
from repro.core.posting import PostingElement
from repro.core.zerber_index import ZerberDeployment
from repro.corpus.document import Document
from repro.errors import ReproError
from repro.ranking.scores import CollectionStatistics

from tests.helpers import (
    deploy_corpus,
    make_cluster,
    make_documents,
    owner_of_group,
    unpack_by_term,
)


@pytest.fixture(scope="module")
def deployed(small_corpus_module):
    return small_corpus_module


@pytest.fixture(scope="module")
def small_corpus_module():
    from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus

    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_documents=40,
            vocabulary_size=600,
            num_groups=4,
            num_hosts=3,
            mean_document_length=60,
            seed=11,
        )
    )
    return corpus, deploy_corpus(corpus, num_lists=24)


def a_term_of_group(corpus, group_id: int) -> str:
    doc = corpus.documents_in_group(group_id)[0]
    return sorted(doc.term_counts)[0]


class TestFetchElements:
    def test_elements_match_accessible_truth(self, deployed):
        corpus, deployment = deployed
        term = a_term_of_group(corpus, 0)
        searcher = deployment.searcher(owner_of_group(0))
        elements = searcher.fetch_elements([term])
        truth = {
            d.doc_id
            for d in corpus.documents_in_group(0)
            if term in d.term_counts
        }
        assert {e.doc_id for e in elements} == truth

    def test_false_positives_are_filtered_and_counted(self, deployed):
        corpus, deployment = deployed
        term = a_term_of_group(corpus, 0)
        searcher = deployment.searcher(owner_of_group(0))
        searcher.fetch_elements([term])
        diag = searcher.last_diagnostics
        # Merged lists mean the response contains other terms' elements.
        assert diag.elements_received >= diag.elements_matched
        assert diag.false_positives == (
            diag.elements_received - diag.elements_matched
        )

    def test_unknown_term_returns_nothing(self, deployed):
        _, deployment = deployed
        searcher = deployment.searcher(owner_of_group(0))
        assert searcher.fetch_elements(["never-indexed-term"]) == []

    def test_empty_query(self, deployed):
        _, deployment = deployed
        searcher = deployment.searcher(owner_of_group(0))
        assert searcher.fetch_elements([]) == []

    def test_fewer_than_k_servers_rejected(self, deployed):
        corpus, deployment = deployed
        searcher = deployment.searcher(owner_of_group(0))
        with pytest.raises(ReproError):
            searcher.fetch_elements([a_term_of_group(corpus, 0)], num_servers=1)

    def test_querying_all_n_servers_works(self, deployed):
        corpus, deployment = deployed
        term = a_term_of_group(corpus, 0)
        searcher = deployment.searcher(owner_of_group(0))
        with_k = {e.doc_id for e in searcher.fetch_elements([term])}
        with_n = {
            e.doc_id
            for e in searcher.fetch_elements([term], num_servers=3)
        }
        assert with_k == with_n


class TestAccessControl:
    def test_non_member_sees_nothing(self, deployed):
        corpus, deployment = deployed
        term = a_term_of_group(corpus, 0)
        outsider = deployment.searcher("outsider-user")
        assert outsider.fetch_elements([term]) == []

    def test_cross_group_isolation(self, deployed):
        corpus, deployment = deployed
        # A term indexed by group 1 must be invisible to group 0's owner
        # unless it also occurs in group 0's documents.
        searcher = deployment.searcher(owner_of_group(0))
        group1_only_terms = set()
        vocab0 = set().union(
            *(set(d.term_counts) for d in corpus.documents_in_group(0))
        )
        for d in corpus.documents_in_group(1):
            group1_only_terms |= set(d.term_counts) - vocab0
        term = sorted(group1_only_terms)[0]
        assert searcher.fetch_elements([term]) == []

    def test_membership_grant_reveals_immediately(self, deployed):
        corpus, deployment = deployed
        term = a_term_of_group(corpus, 1)
        deployment.add_member(1, "temp-analyst", actor=owner_of_group(1))
        searcher = deployment.searcher("temp-analyst")
        assert searcher.fetch_elements([term])
        deployment.remove_member(1, "temp-analyst", actor=owner_of_group(1))
        assert searcher.fetch_elements([term]) == []


class TestSearch:
    def test_ranked_results_with_snippets(self, deployed):
        corpus, deployment = deployed
        term = a_term_of_group(corpus, 0)
        results = deployment.search(owner_of_group(0), [term], top_k=5)
        assert results
        assert all(r.snippet for r in results)
        assert all(r.host for r in results)
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_matched_terms_populated(self, deployed):
        corpus, deployment = deployed
        term = a_term_of_group(corpus, 0)
        results = deployment.search(owner_of_group(0), [term], top_k=3)
        assert all(term in r.matched_terms for r in results)

    def test_top_k_bounds_results(self, deployed):
        corpus, deployment = deployed
        term = a_term_of_group(corpus, 0)
        results = deployment.search(owner_of_group(0), [term], top_k=2)
        assert len(results) <= 2

    def test_one_shot_search_passes_searcher_keywords_on(self, deployed):
        """Both shapes' ``search`` share one signature: extra keywords
        configure the searcher, so the fleet's one-shot search answers
        like the searcher it names."""
        corpus, deployment = deployed
        term = a_term_of_group(corpus, 0)
        user = owner_of_group(0)
        expected = deployment.searcher(user, verify_consistency=True).search(
            [term]
        )
        assert expected
        assert (
            deployment.search(user, [term], verify_consistency=True)
            == expected
        )

    def test_snippets_can_be_disabled(self, deployed):
        corpus, deployment = deployed
        term = a_term_of_group(corpus, 0)
        searcher = deployment.searcher(owner_of_group(0))
        results = searcher.search([term], top_k=3, fetch_snippets=False)
        assert results and all(r.snippet == "" for r in results)


def _head_fetch_elements(searcher, terms):
    """``fetch_elements`` as it was before ``fetch_postings``: one
    element per survivor, in ``(pl_id, term_id)`` order."""
    dictionary = searcher._dictionary
    wanted = sorted(
        {dictionary.id_of(t) for t in terms if dictionary.id_of(t) is not None}
    )
    pl_ids = sorted({searcher._mapping.lookup(t) for t in terms})
    answers, _unresolved = searcher._fetch(pl_ids, searcher._scheme.k)
    secrets_of = searcher._reconstruct(answers)
    by_list = {
        pl_id: unpack_by_term(searcher._codec, secrets)
        for pl_id, secrets in secrets_of.items()
    }
    return [
        PostingElement(doc_id, term_id, tf)
        for pl_id in pl_ids
        for term_id in wanted
        for doc_id, tf in by_list[pl_id][0].get(term_id, ())
    ]


def _queries(corpus):
    vocabulary = sorted(
        {t for d in corpus.documents_in_group(0) for t in d.term_counts}
    )
    return [vocabulary[:1], vocabulary[3:6], vocabulary[::40], ["nope"]]


class TestColumnarRank:
    def test_fetch_elements_keeps_its_elements_and_order(self, deployed):
        corpus, deployment = deployed
        searcher = deployment.searcher(owner_of_group(0))
        for terms in _queries(corpus):
            elements = searcher.fetch_elements(terms)
            assert elements == _head_fetch_elements(searcher, terms)
            assert searcher.last_diagnostics.elements_matched == len(elements)

    def test_search_constructs_no_posting_element(self, deployed, monkeypatch):
        corpus, deployment = deployed
        cluster = make_cluster(make_documents(), l1_entries=8)
        built = []
        original = PostingElement.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        # Patched after the ingest, which packs one element per posting.
        monkeypatch.setattr(PostingElement, "__post_init__", counting)
        with cluster:
            cluster.add_member(0, "alice", actor="owner0")
            for searcher, terms in (
                (deployment.searcher(owner_of_group(0)), _queries(corpus)),
                (cluster.searcher("alice"), [["w1", "w3"], ["w5"]] * 2),
            ):
                for query in terms:
                    searcher.search(query, top_k=5, fetch_snippets=False)
            assert built == []
            elements = cluster.searcher("alice").fetch_elements(["w1", "w3"])
            assert elements and len(built) == len(elements)


#: Two owners index the same doc_id 7, in groups 0 and 1.
_SHARED_DOC_ID = [
    Document(doc_id=7, host="host0", group_id=0, length=4,
             term_counts={"alpha": 1, "beta": 3}),
    Document(doc_id=7, host="host1", group_id=1, length=4,
             term_counts={"alpha": 2, "beta": 1}),
    Document(doc_id=3, host="host0", group_id=0, length=3,
             term_counts={"alpha": 1, "gamma": 2}),
    Document(doc_id=5, host="host1", group_id=1, length=2,
             term_counts={"beta": 1, "gamma": 1}),
]


def _single_fleet(**kwargs):
    return ZerberDeployment(MappingTable({}, num_lists=2), seed=9, **kwargs)


def _cluster(**kwargs):
    return ClusterDeployment(
        MappingTable({}, num_lists=2), num_pods=2, seed=9, **kwargs
    )


@pytest.mark.parametrize("build", [_single_fleet, _cluster])
def test_a_doc_id_shared_by_two_owners_is_matched_and_counted_once(build):
    """The duplicate-doc_id rule: each term named once in
    ``matched_terms``, the doc counted once in df and N, and its tf the
    least of its rows in the term."""
    deployment = build(k=2, n=3,
                       batch_policy=BatchPolicy(min_documents=1))
    with deployment:
        for group_id in (0, 1):
            deployment.create_group(group_id, coordinator=f"owner{group_id}")
        for document in _SHARED_DOC_ID:
            deployment.share_document(f"owner{document.group_id}", document)
        deployment.flush_all()
        for group_id in (0, 1):
            deployment.add_member(group_id, "reader", actor=f"owner{group_id}")
        searcher = deployment.searcher("reader")
        terms = ["beta", "alpha"]
        results = searcher.search(terms, top_k=10, fetch_snippets=False)
        rows = defaultdict(list)
        for term_id, postings in searcher.fetch_postings(terms):
            rows[searcher._dictionary.term_of(term_id)] += postings
        assert [doc for doc, _ in rows["alpha"]].count(7) == 2
        hit = next(r for r in results if r.doc_id == 7)
        assert hit.matched_terms == ("alpha", "beta")
        statistics = CollectionStatistics(
            num_documents=3,
            document_frequencies={"alpha": 2, "beta": 2},
        )
        assert hit.score == sum(
            statistics.idf(t) * min(tf for doc, tf in rows[t] if doc == 7)
            for t in ("alpha", "beta")
        )
        assert {r.doc_id for r in results} == {3, 5, 7}
