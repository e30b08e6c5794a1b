"""Property test: Zerber answers == ideal-trusted-index answers (§2).

Hypothesis drives randomized corpora, group structures, memberships and
queries through both pipelines and asserts identical accessible result
sets. This is the paper's definition of functional correctness: "the ideal
indexing scheme's answer will be identical to that of a trusted centralized
ordinary inverted index that incorporates an access control list check".
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.plain_index import IdealTrustedIndex
from repro.client.batching import BatchPolicy
from repro.core.mapping_table import MappingTable
from repro.core.zerber_index import ZerberDeployment
from repro.corpus.document import Document


@st.composite
def scenario(draw):
    """A small random world: documents, groups, memberships, a query."""
    rng_seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = random.Random(rng_seed)
    num_groups = draw(st.integers(min_value=1, max_value=3))
    num_docs = draw(st.integers(min_value=1, max_value=10))
    vocab = [f"w{i}" for i in range(draw(st.integers(2, 15)))]
    documents = []
    for doc_id in range(num_docs):
        terms = rng.sample(vocab, rng.randint(1, min(4, len(vocab))))
        counts = {t: rng.randint(1, 3) for t in terms}
        documents.append(
            Document(
                doc_id=doc_id,
                host=f"h{doc_id % 2}",
                group_id=rng.randrange(num_groups),
                term_counts=counts,
                length=sum(counts.values()) + rng.randint(0, 3),
            )
        )
    # The querying user belongs to a random subset of groups.
    user_groups = [
        g for g in range(num_groups) if rng.random() < 0.6
    ]
    query = rng.sample(vocab, rng.randint(1, min(3, len(vocab))))
    num_lists = draw(st.integers(min_value=1, max_value=6))
    return documents, num_groups, user_groups, query, num_lists, rng_seed


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(scenario())
def test_property_zerber_equals_ideal(world):
    documents, num_groups, user_groups, query, num_lists, seed = world
    # All terms hash-routed into num_lists merged lists: exercises the
    # §6.4 path and arbitrary merging simultaneously.
    table = MappingTable({}, num_lists=num_lists)
    deployment = ZerberDeployment(
        mapping_table=table,
        k=2,
        n=3,
        batch_policy=BatchPolicy(min_documents=2),
        seed=seed,
    )
    ideal = IdealTrustedIndex(deployment.groups)
    for g in range(num_groups):
        deployment.create_group(g, coordinator=f"owner{g}")
    for document in documents:
        deployment.share_document(f"owner{document.group_id}", document)
        ideal.index_document(document)
    deployment.flush_all()
    for g in user_groups:
        deployment.add_member(g, "the-user", actor=f"owner{g}")
    searcher = deployment.searcher("the-user")
    zerber_docs = {e.doc_id for e in searcher.fetch_elements(query)}
    ideal_docs = ideal.matching_documents("the-user", query)
    assert zerber_docs == ideal_docs
    # Ranked order agrees up to 12-bit tf quantization: Zerber's ranking
    # must be a valid descending order of the *ideal* scores within the
    # quantization tolerance (exact ties may resolve either way).
    zerber_hits = searcher.search(query, top_k=5, fetch_snippets=False)
    ideal_hits = ideal.search("the-user", query, top_k=5)
    assert len(zerber_hits) == len(ideal_hits)
    if not ideal_hits:
        return
    ideal_all = ideal.search("the-user", query, top_k=10_000)
    ideal_score = {h.doc_id: h.score for h in ideal_all}
    # Worst-case per-document score error from tf quantization.
    tol = len(query) * 4.0 / 4095 + 1e-9
    for a, b in zip(zerber_hits, zerber_hits[1:]):
        assert ideal_score[a.doc_id] >= ideal_score[b.doc_id] - tol
    # Every document Zerber selected scores within tolerance of the k-th
    # ideal score, and vice versa — same top-K up to ties.
    kth_ideal = min(h.score for h in ideal_hits)
    for hit in zerber_hits:
        assert ideal_score[hit.doc_id] >= kth_ideal - tol
        assert hit.score == pytest.approx(ideal_score[hit.doc_id], abs=tol)
