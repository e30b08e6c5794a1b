"""Tests for personalized tf-idf and Fagin's Threshold Algorithm (§5.4.2)."""

from __future__ import annotations

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client.searcher import SearchClient
from repro.core.dictionary import TermDictionary
from repro.errors import RankingError
from repro.ranking.scores import CollectionStatistics, TfIdfScorer
from repro.ranking.threshold import (
    naive_top_k,
    term_tf_maps,
    threshold_top_k,
)


class TestCollectionStatistics:
    def test_from_postings(self):
        stats = CollectionStatistics.from_postings(
            {"a": [1, 2, 3], "b": [2, 2, 4]}
        )
        assert stats.num_documents == 4
        assert stats.document_frequencies["a"] == 3
        assert stats.document_frequencies["b"] == 2  # dedup within term

    def test_idf_decreases_with_df(self):
        stats = CollectionStatistics(
            num_documents=100, document_frequencies={"rare": 1, "common": 90}
        )
        assert stats.idf("rare") > stats.idf("common")

    def test_idf_of_unknown_term_is_highest(self):
        stats = CollectionStatistics(
            num_documents=10, document_frequencies={"a": 5}
        )
        assert stats.idf("unknown") > stats.idf("a")

    def test_idf_positive_even_when_term_everywhere(self):
        stats = CollectionStatistics(
            num_documents=10, document_frequencies={"a": 10}
        )
        assert stats.idf("a") > 0

    def test_validation(self):
        with pytest.raises(RankingError):
            CollectionStatistics(num_documents=-1, document_frequencies={})
        with pytest.raises(RankingError):
            CollectionStatistics(num_documents=1, document_frequencies={"a": -1})


class TestScorer:
    def test_weighted_sum(self):
        stats = CollectionStatistics(
            num_documents=10, document_frequencies={"a": 2, "b": 5}
        )
        scorer = TfIdfScorer(stats)
        expected = 0.5 * stats.idf("a") + 0.2 * stats.idf("b")
        assert scorer.score({"a": 0.5, "b": 0.2}) == pytest.approx(expected)

    def test_negative_tf_rejected(self):
        scorer = TfIdfScorer(
            CollectionStatistics(num_documents=1, document_frequencies={})
        )
        with pytest.raises(RankingError):
            scorer.score({"a": -0.1})


class TestThresholdAlgorithm:
    def test_simple_top_1(self):
        postings = {
            "a": [(1, 0.9), (2, 0.5)],
            "b": [(2, 0.8), (1, 0.1)],
        }
        hits = threshold_top_k(postings, {"a": 1.0, "b": 1.0}, k=1)
        # doc2: 0.5 + 0.8 = 1.3 beats doc1: 0.9 + 0.1 = 1.0
        assert [h.doc_id for h in hits] == [2]
        assert hits[0].score == pytest.approx(1.3)

    def test_matches_naive_oracle_on_fixed_case(self):
        postings = {
            "x": [(i, (i % 7 + 1) / 10) for i in range(30)],
            "y": [(i, (i % 5 + 1) / 10) for i in range(10, 40)],
            "z": [(i, (i % 3 + 1) / 10) for i in range(20, 50)],
        }
        weights = {"x": 2.0, "y": 0.5, "z": 1.0}
        for k in (1, 3, 10, 100):
            ta = threshold_top_k(postings, weights, k)
            oracle = naive_top_k(postings, weights, k)
            assert [h.doc_id for h in ta] == [h.doc_id for h in oracle]

    def test_k_larger_than_corpus(self):
        postings = {"a": [(1, 0.5)]}
        hits = threshold_top_k(postings, {"a": 1.0}, k=10)
        assert len(hits) == 1

    def test_empty_postings(self):
        assert threshold_top_k({}, {}, k=5) == []
        assert threshold_top_k({"a": []}, {"a": 1.0}, k=5) == []

    def test_invalid_k(self):
        with pytest.raises(RankingError):
            threshold_top_k({"a": [(1, 0.5)]}, {}, k=0)
        with pytest.raises(RankingError):
            naive_top_k({"a": [(1, 0.5)]}, {}, k=0)

    def test_negative_tf_rejected(self):
        with pytest.raises(RankingError):
            threshold_top_k({"a": [(1, -0.5)]}, {"a": 1.0}, k=1)

    def test_negative_weight_rejected(self):
        with pytest.raises(RankingError):
            threshold_top_k({"a": [(1, 0.5)]}, {"a": -1.0}, k=1)

    def test_deterministic_tie_break_by_doc_id(self):
        postings = {"a": [(5, 0.5), (3, 0.5), (9, 0.5)]}
        hits = threshold_top_k(postings, {"a": 1.0}, k=2)
        assert [h.doc_id for h in hits] == [3, 5]

    def test_missing_weight_defaults_to_one(self):
        postings = {"a": [(1, 0.5)]}
        hits = threshold_top_k(postings, {}, k=1)
        assert hits[0].score == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_terms=st.integers(min_value=1, max_value=5),
    num_docs=st.integers(min_value=1, max_value=60),
    k=st.integers(min_value=1, max_value=15),
)
def test_property_ta_equals_naive(seed, num_terms, num_docs, k):
    """Fagin's TA returns exactly the exhaustive top-K (scores and docs)."""
    rng = random.Random(seed)
    postings = {}
    for t in range(num_terms):
        docs = rng.sample(range(num_docs), rng.randint(1, num_docs))
        postings[f"t{t}"] = [
            (d, rng.randint(1, 100) / 100) for d in docs
        ]
    weights = {f"t{t}": rng.randint(1, 40) / 10 for t in range(num_terms)}
    ta = threshold_top_k(postings, weights, k)
    oracle = naive_top_k(postings, weights, k)
    assert [h.doc_id for h in ta] == [h.doc_id for h in oracle]
    for a, b in zip(ta, oracle):
        assert a.score == pytest.approx(b.score)


class TestThresholdInputs:
    def test_inputs_are_left_unmodified(self):
        postings = {
            "a": [(9, 0.5), (3, 0.25), (9, 0.75), (1, 0.5)],
            "b": ((4, 0.5), (2, 1.0)),
        }
        snapshot = {t: list(ps) for t, ps in postings.items()}
        lists = {t: ps for t, ps in postings.items()}
        weights = {"a": 1.5, "b": 0.5}
        threshold_top_k(postings, weights, k=3)
        assert {t: list(ps) for t, ps in postings.items()} == snapshot
        assert all(postings[t] is lists[t] for t in postings)
        assert weights == {"a": 1.5, "b": 0.5}

    def test_equal_tf_is_ordered_by_doc_id_in_any_input_order(self):
        rows = [(8, 0.5), (2, 0.5), (5, 0.5), (1, 0.25), (9, 0.75)]
        expected = [9, 2, 5, 8, 1]
        rng = random.Random(3)
        for _ in range(10):
            rng.shuffle(rows)
            hits = threshold_top_k({"a": list(rows)}, {"a": 1.0}, k=5)
            assert [h.doc_id for h in hits] == expected

    def test_tied_tfs_at_the_cut_return_the_least_doc_id(self):
        # A stable tf-descending sort meets doc 8 first when it arrives
        # first; stopping on a tie with the threshold would return it.
        for rows in ([(8, 0.5), (2, 0.5)], [(2, 0.5), (8, 0.5)]):
            hits = threshold_top_k({"a": rows}, {"a": 1.0}, k=1)
            assert [(h.doc_id, h.score) for h in hits] == [(2, 0.5)]

    def test_a_zero_weight_ties_every_document(self):
        # Every score is 0.0, so the least doc id wins, although doc 1
        # has the higher tf and is seen first.
        postings = {"delta": [(0, 0.0), (1, 0.25)]}
        hits = threshold_top_k(postings, {"delta": 0.0}, k=1)
        assert [(h.doc_id, h.score) for h in hits] == [(0, 0.0)]

    def test_term_tf_maps_keep_a_repeated_documents_least_tf(self):
        postings = {
            "a": [(9, 0.5), (3, 0.25), (9, 0.75), (1, 0.5), (9, 0.25)],
            "b": ((4, 0.5), (2, 1.0)),
            "c": [],
        }
        tf_of = term_tf_maps(postings)
        assert tf_of == {
            "a": {9: 0.25, 3: 0.25, 1: 0.5},
            "b": {4: 0.5, 2: 1.0},
            "c": {},
        }
        weights = {"a": 1.5, "b": 0.5}
        for k in (1, 2, 5):
            assert threshold_top_k(
                postings, weights, k, tf_of=tf_of
            ) == threshold_top_k(postings, weights, k)

    def test_naive_oracle_keeps_a_repeated_documents_least_tf_too(self):
        # Raw rows: doc 9 twice in "a", doc 4 twice in "b"; the oracle
        # scores 9 as 1.5 * 0.25 + 0.5 * 1.0, not with both rows of "a".
        postings = {
            "a": [(9, 0.75), (3, 0.5), (9, 0.25), (1, 0.5)],
            "b": [(4, 1.0), (9, 1.0), (4, 0.25)],
        }
        weights = {"a": 1.5, "b": 0.5}
        for k in (1, 2, 4, 10):
            naive = naive_top_k(postings, weights, k)
            ta = threshold_top_k(postings, weights, k)
            assert [(h.doc_id, h.score.hex()) for h in naive] == [
                (h.doc_id, h.score.hex()) for h in ta
            ]
        assert [(h.doc_id, h.score) for h in naive] == [
            (9, 0.875), (1, 0.75), (3, 0.75), (4, 0.125)
        ]

    def test_negative_tf_anywhere_in_the_list_is_rejected(self):
        for rows in ([(1, -0.5), (2, 0.5)], [(2, 0.5), (1, -0.5)]):
            with pytest.raises(RankingError):
                threshold_top_k({"a": rows}, {"a": 1.0}, k=1)


# -- the columnar rank stage against the pipeline it replaced ---------------

#: Term names whose sorted order differs from their dictionary id order.
_NAMES = ("delta", "alpha", "charlie", "bravo")


def _head_rank(found, term_of_id, top_k):
    """The rank stage of ``SearchClient.search`` before it went columnar,
    ranked by the exhaustive oracle: pairs regrouped per term, sorted by
    doc id, a set per term for the statistics, ``naive_top_k`` over the
    rows, ``matched`` over every posting (de-duplicated here)."""
    collected = defaultdict(list)
    for term_id, postings in found:
        for doc_id, tf in postings:
            collected[term_of_id[term_id]].append((doc_id, tf))
    postings_by_term = {t: sorted(collected[t]) for t in sorted(collected)}
    statistics = CollectionStatistics.from_postings(
        {t: [doc for doc, _ in ps] for t, ps in postings_by_term.items()}
    )
    scorer = TfIdfScorer(statistics)
    weights = {t: scorer.weight(t) for t in postings_by_term}
    hits = naive_top_k(postings_by_term, weights, top_k)
    matched = defaultdict(set)
    for term, postings in postings_by_term.items():
        for doc_id, _ in postings:
            matched[doc_id].add(term)
    return [
        (hit.doc_id, hit.score.hex(), tuple(sorted(matched[hit.doc_id])))
        for hit in hits
    ]


class _CannedSearcher(SearchClient):
    """A searcher whose fetch stage returns fixed term columns."""

    def __init__(self, dictionary, found):
        self._dictionary = dictionary
        self._snippets = None
        self._found = found

    def fetch_postings(self, terms, num_servers=None):
        return self._found


@st.composite
def _term_columns(draw):
    """``fetch_postings`` output: term-grouped ``(doc_id, tf)`` lists with
    doc ids shared across terms, repeated within a term (two owners of
    one doc id), tf ties, and a term split over two merged lists."""
    num_terms = draw(st.integers(min_value=1, max_value=4))
    docs = st.integers(min_value=0, max_value=24)
    tfs = st.integers(min_value=1, max_value=8).map(lambda q: q / 8)
    found = []
    for term_id in range(num_terms):
        rows = draw(st.lists(st.tuples(docs, tfs), min_size=1, max_size=40))
        cut = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        found += [(term_id, rows[:cut]), (term_id, rows[cut:])]
    found = [(term_id, rows) for term_id, rows in found if rows]
    return draw(st.permutations(found))


@settings(max_examples=300, deadline=None)
@given(found=_term_columns(), top_k=st.integers(min_value=1, max_value=50))
def test_property_columnar_rank_matches_the_head_pipeline(found, top_k):
    """``search`` on term columns is byte-identical to the pipeline it
    replaced, ranked exhaustively — same hits, same score bits, ties at
    the cut included — with ``matched_terms`` naming each term once, and
    the fetched columns left untouched."""
    dictionary = TermDictionary()
    dictionary.assign_all(_NAMES)
    term_of_id = {dictionary.id_of(t): t for t in _NAMES}
    snapshot = [(term_id, list(rows)) for term_id, rows in found]
    searcher = _CannedSearcher(dictionary, found)
    results = searcher.search(list(_NAMES), top_k=top_k)
    got = [(r.doc_id, r.score.hex(), r.matched_terms) for r in results]
    assert got == _head_rank(snapshot, term_of_id, top_k)
    assert found == snapshot


#: Rows of one term's list: few doc ids and a coarse tf grid, so a list
#: repeats documents, repeats whole rows and ties tfs across documents.
_TIED_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=12),
        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(
    postings=st.dictionaries(st.sampled_from(_NAMES), _TIED_ROWS, max_size=4),
    weights=st.dictionaries(
        st.sampled_from(_NAMES), st.sampled_from([0.0, 0.5, 1.0, 2.5])
    ),
    k=st.integers(min_value=1, max_value=15),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_ta_with_repeated_docs_and_tied_tfs(postings, weights, k, seed):
    """TA is exactly the exhaustive oracle over the same rows (a repeated
    document keeps its smaller tf in both): the same documents, ties at
    the cut included, and the same score bits, in any arrival order of
    the rows, with or without the caller's maps."""
    oracle = [
        (h.doc_id, h.score.hex()) for h in naive_top_k(postings, weights, k)
    ]
    rng = random.Random(seed)
    shuffled = {t: rng.sample(rows, len(rows)) for t, rows in postings.items()}
    for rows in (postings, shuffled):
        for tf_of in (None, term_tf_maps(rows)):
            hits = threshold_top_k(rows, weights, k, tf_of=tf_of)
            assert [(h.doc_id, h.score.hex()) for h in hits] == oracle
