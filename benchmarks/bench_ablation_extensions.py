"""Ablations for the future-work extensions (§8 / DESIGN.md §1.3).

1. **Server-side top-K** (bucketized scores): response-size savings on
   long merged lists versus the information the public buckets leak.
2. **DHT distribution**: per-peer storage and confidentiality versus the
   full-replication deployment, plus join rebalancing cost.
3. **Fleet extension**: time to provision an (n+1)-th server from a live
   deployment (the §5.1 "additional points on the polynomial curve").
"""

from __future__ import annotations

import random

from benchmarks.conftest import emit, timed_pedantic
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus
from repro.extensions.dht import ConsistentHashRing, DHTPlacement
from repro.extensions.topk_server import (
    BucketedRecord,
    BucketedTopKStore,
    bucket_leakage_bits,
    bucket_of,
)

from tests.helpers import deploy_corpus


def test_ablation_topk_server(benchmark):
    rng = random.Random(21)
    store = BucketedTopKStore(num_buckets=8)
    # One long merged list: 5,000 elements with skewed tf.
    for element_id in range(5_000):
        tf = min(1.0, max(1e-4, rng.expovariate(12)))
        store.insert(
            0,
            BucketedRecord(
                element_id=element_id,
                group_id=1,
                share_y=rng.getrandbits(64),
                bucket=bucket_of(tf, 8),
            ),
        )
    groups = frozenset({1})
    full = store.lookup_pruned([0], groups, max_elements=5_000)
    pruned = benchmark.pedantic(
        lambda: store.lookup_pruned([0], groups, max_elements=100),
        rounds=5,
        iterations=1,
    )
    leak = bucket_leakage_bits(store.bucket_histogram(0))
    rows = [
        "Ablation: bucketized server-side top-K (future work, §8)",
        f"full response: {len(full)} elements",
        f"pruned response (budget 100): {len(pruned)} elements "
        f"({100 * len(pruned) / len(full):.1f}% of full)",
        f"bandwidth saved: {100 * (1 - len(pruned) / len(full)):.1f}%",
        f"cost: each element's public bucket leaks {leak:.2f} bits of tf "
        f"(vs 0 bits in plain Zerber, ~12 bits if tf were plaintext)",
    ]
    emit("ablation_topk_server", rows)
    assert len(pruned) < len(full) / 4
    assert 0 < leak <= 3.0
    # Pruned responses serve the highest buckets first.
    assert min(r.bucket for _, r in pruned) >= 0
    top_bucket = max(r.bucket for _, r in full)
    assert any(r.bucket == top_bucket for _, r in pruned)


def test_ablation_dht_distribution(benchmark, merges, probs, m_values):
    _, m = m_values[-1]
    merge = merges.merge("dfm", m)
    fleet_r = merge.resulting_r(probs)
    ring = ConsistentHashRing([f"peer{i:02d}" for i in range(16)])
    placement = benchmark.pedantic(
        lambda: DHTPlacement(
            ConsistentHashRing([f"peer{i:02d}" for i in range(16)]),
            merge,
            replicas=3,
        ),
        rounds=1,
        iterations=1,
    )
    loads = placement.load_distribution()
    peer_rs = {
        peer: placement.peer_confidentiality(peer, probs)
        for peer in list(loads)[:4]
    }
    moved = placement.rebalance_cost("peer-new")
    rows = [
        "Ablation: DHT-distributed posting lists (future work, §3/§8)",
        f"lists={merge.num_lists}, peers=16, replicas=3",
        f"per-peer load: min={min(loads.values())} max={max(loads.values())} "
        f"(full replication would be {merge.num_lists} each)",
        f"fleet r={fleet_r:.0f}; sample per-peer r: "
        + ", ".join(f"{peer}:{r:.0f}" for peer, r in peer_rs.items()),
        f"join of a 17th peer moved {moved} / {merge.num_lists} lists "
        f"(full replication would copy all {merge.num_lists})",
    ]
    emit("ablation_dht", rows)
    assert max(loads.values()) < merge.num_lists
    assert all(r <= fleet_r + 1e-9 for r in peer_rs.values())
    assert moved < merge.num_lists


def test_ablation_fleet_extension(benchmark):
    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_documents=40,
            vocabulary_size=700,
            num_groups=2,
            mean_document_length=40,
            seed=33,
        )
    )
    deployment = deploy_corpus(corpus, num_lists=24, seed=34)
    per_server = deployment.servers[0].num_elements

    new_server, seconds = timed_pedantic(benchmark, deployment.add_server)
    rows = [
        "Ablation: provisioning an (n+1)-th server (§5.1 dynamic extension)",
        f"elements re-pointed: {new_server.num_elements} "
        f"(= {per_server} per existing server)",
        f"wall time: {1000 * seconds:.0f} ms "
        f"({new_server.num_elements / seconds:.0f} elements/s) — "
        "no re-encryption, element IDs unchanged",
    ]
    emit("ablation_fleet_extension", rows)
    assert new_server.num_elements == per_server
