"""Property test: the tiered cache never changes an answer.

Hypothesis drives random interleavings of writes, membership changes
(the invalidation triggers), and reads against a fully cached cluster
(searcher-local L1 + shared L2 tier) and an identically seeded
uncached twin. Every read must be byte-identical across the two — a
cached read equals a read against a fresh fleet, no matter what
writes and invalidations raced it.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.core.mapping_table import MappingTable
from repro.corpus.document import Document

VOCAB = [f"w{i}" for i in range(10)]
NUM_GROUPS = 2
USER = "the-user"


@st.composite
def interleaving(draw):
    """A random op sequence over writes / membership flips / reads."""
    rng = random.Random(draw(st.integers(0, 2**20)))
    ops = []
    num_ops = draw(st.integers(min_value=3, max_value=10))
    next_doc_id = 100
    for _ in range(num_ops):
        kind = draw(st.sampled_from(["write", "membership", "read", "read"]))
        if kind == "write":
            # One to three documents released together: each owner's
            # share of them is one batch over several posting lists,
            # invalidated by one message and fenced list by list.
            documents = []
            for _ in range(rng.randint(1, 3)):
                terms = rng.sample(VOCAB, rng.randint(1, 3))
                documents.append(
                    (
                        next_doc_id,
                        rng.randrange(NUM_GROUPS),
                        {t: rng.randint(1, 3) for t in terms},
                    )
                )
                next_doc_id += 1
            ops.append(("write", documents))
        elif kind == "membership":
            ops.append(
                (
                    "membership",
                    rng.randrange(NUM_GROUPS),
                    rng.random() < 0.5,  # True: add, False: remove
                )
            )
        else:
            ops.append(("read", rng.sample(VOCAB, rng.randint(1, 2))))
    return ops, draw(st.integers(0, 2**10))


def _build(seed: int, cached: bool) -> ClusterDeployment:
    kwargs = {"cache_tier": "lru", "l1_entries": 16} if cached else {}
    cluster = ClusterDeployment(
        MappingTable({}, num_lists=6),
        num_pods=2,
        k=2,
        n=3,
        batch_policy=BatchPolicy(min_documents=4),  # flush_all releases
        seed=seed,
        **kwargs,
    )
    for g in range(NUM_GROUPS):
        cluster.create_group(g, coordinator=f"owner{g}")
    return cluster


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(interleaving())
def test_cached_reads_match_uncached_under_interleavings(scenario):
    ops, seed = scenario
    cached = _build(seed, cached=True)
    plain = _build(seed, cached=False)
    try:
        for cluster in (cached, plain):
            cluster.add_member(0, USER, actor="owner0")
        searcher = cached.searcher(USER)  # long-lived: carries the L1
        member = {0: True, 1: False}
        for op in ops:
            if op[0] == "write":
                for doc_id, group_id, counts in op[1]:
                    doc = Document(
                        doc_id=doc_id,
                        group_id=group_id,
                        host="host0",
                        term_counts=counts,
                        length=sum(counts.values()),
                        text=" ".join(sorted(counts)),
                    )
                    for cluster in (cached, plain):
                        cluster.share_document(f"owner{group_id}", doc)
                for cluster in (cached, plain):
                    cluster.flush_all()
            elif op[0] == "membership":
                _, group_id, join = op
                if join == member[group_id]:
                    continue
                member[group_id] = join
                for cluster in (cached, plain):
                    if join:
                        cluster.add_member(
                            group_id, USER, actor=f"owner{group_id}"
                        )
                    else:
                        cluster.remove_member(
                            group_id, USER, actor=f"owner{group_id}"
                        )
            else:
                _, terms = op
                got = searcher.search(terms, fetch_snippets=False)
                expected = plain.searcher(USER, use_cache=False).search(
                    terms, fetch_snippets=False
                )
                assert [(r.doc_id, r.score) for r in got] == [
                    (r.doc_id, r.score) for r in expected
                ], f"cached read diverged on {terms} after {ops}"
    finally:
        cached.close()
        plain.close()
