"""Property: both deployment shapes rank exactly as the scored oracle.

The fleet and the cluster share one fetch, join, reconstruction, decode
and ranking path, so comparing them to each other pins topology
independence but not that path. :func:`helpers.scored_oracle` shares
none of it: §2's trusted centralized index with an ACL check, built
from the plaintext documents, its tfs quantized as the codec packs
them and ranked by :func:`~repro.ranking.threshold.naive_top_k`. Over
random worlds (:func:`helpers.make_world`), the paper's single fleet
and a two-pod cluster at replication 2 must both return its
``[(doc_id, score.hex())]`` exactly, scores compared to the last bit.

A small smoke pass runs in tier-1; the wide ``slow`` pass runs in
``scripts/ci.sh``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import K, N, make_world, scored_oracle
from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.core.mapping_table import MappingTable
from repro.core.zerber_index import ZerberDeployment

USER = "the-user"
TOP_K = 5


def _index(deployment, world):
    documents, num_groups, user_groups, *_ = world
    for group in range(num_groups):
        deployment.create_group(group, coordinator=f"owner{group}")
    for document in documents:
        deployment.share_document(f"owner{document.group_id}", document)
    deployment.flush_all()
    for group in user_groups:
        deployment.add_member(group, USER, actor=f"owner{group}")
    return deployment


def check_world(seed: int) -> None:
    world = make_world(seed)
    documents, _, _, queries, num_lists, _ = world
    table = MappingTable({}, num_lists=num_lists)
    common = dict(
        k=K, n=N, batch_policy=BatchPolicy(min_documents=2), seed=seed
    )
    fleet = _index(ZerberDeployment(table, **common), world)
    cluster = _index(
        ClusterDeployment(
            table, num_pods=2, replication_factor=2, **common
        ),
        world,
    )
    with fleet, cluster:
        for terms in queries:
            expected = scored_oracle(
                documents, fleet.groups, USER, terms, TOP_K
            )
            for shape in (fleet, cluster):
                results = shape.searcher(USER).search(
                    terms, top_k=TOP_K, fetch_snippets=False
                )
                got = [(r.doc_id, r.score.hex()) for r in results]
                assert got == expected, (type(shape).__name__, terms)


_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@settings(max_examples=25, **_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_both_shapes_equal_the_scored_oracle_smoke(seed):
    check_world(seed)


@pytest.mark.slow
@settings(max_examples=200, **_SETTINGS)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_both_shapes_equal_the_scored_oracle_wide(seed):
    check_world(seed)


def test_the_oracle_is_not_vacuous():
    # Over a fixed run of worlds the oracle ranks documents, breaks
    # ties and truncates at TOP_K, so the property compares real work.
    ranked = truncated = 0
    for seed in range(40):
        documents, num_groups, _, queries, _, _ = make_world(seed)

        class Everyone:
            @staticmethod
            def is_member(user, group):
                return True

        for terms in queries:
            hits = scored_oracle(documents, Everyone, USER, terms, TOP_K)
            ranked += bool(hits)
            truncated += len(hits) == TOP_K
    assert ranked > 40 and truncated > 5
