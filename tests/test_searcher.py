"""Tests for the querying client (§5.4.2, Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.client.batching import BatchPolicy
from repro.corpus.document import Document
from repro.errors import ReproError

from tests.helpers import deploy_corpus, owner_of_group


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

    def test_snippets_can_be_disabled(self, deployed):
        corpus, deployment = deployed
        term = a_term_of_group(corpus, 0)
        searcher = deployment.searcher(owner_of_group(0))
        results = searcher.search([term], top_k=3, fetch_snippets=False)
        assert results and all(r.snippet == "" for r in results)
