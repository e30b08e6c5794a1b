#!/usr/bin/env python3
"""Cluster tour: shard the index across pods, kill servers, keep answering.

Walks the sharded cluster engine end to end:

1. bootstrap a 3-pod cluster (each pod: 6 servers, any 3 reconstruct)
   over a synthetic corpus — merged posting lists are placed on pods by
   consistent hashing;
2. run batched multi-term queries: one lookup message per contacted
   server per query, not one per term;
3. watch the searcher's own L1 absorb a repeated query (zero messages);
4. kill one server in every pod — failover keeps every answer
   byte-identical;
5. kill down to exactly k in one pod, then past it — the pod degrades
   loudly instead of answering wrong;
6. restart and verify the fleet is whole again;
7. rebuild with replication_factor=2, kill an *entire pod* — answers
   unchanged; write while it is dead, restart it, and watch the owner
   re-provision the writes it missed.

Run:  PYTHONPATH=src python examples/cluster_tour.py
"""

from __future__ import annotations

from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus
from repro.errors import ClusterDegradedError

PODS, N, K = 3, 6, 3


def main() -> None:
    # 1. A corpus and a sharded deployment.
    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_documents=60, vocabulary_size=700, num_groups=2, seed=13
        )
    )
    cluster = ClusterDeployment.bootstrap(
        corpus.term_probabilities(),
        heuristic="dfm",
        num_lists=48,
        num_pods=PODS,
        k=K,
        n=N,
        batch_policy=BatchPolicy(min_documents=4),
        seed=13,
    )
    for g in corpus.group_ids():
        cluster.create_group(g, coordinator=f"owner{g}")
    for document in corpus:
        cluster.share_document(f"owner{document.group_id}", document)
    cluster.flush_all()
    shards = cluster.coordinator.shard_distribution(
        cluster.mapping_table.num_lists
    )
    print(f"{PODS} pods x {N} servers (k={K}); shard placement: {shards}")
    print(f"stored elements across the cluster: {cluster.total_elements()}")

    # 2. Batched multi-term query.
    doc = corpus.documents_in_group(0)[0]
    terms = sorted(doc.term_counts)[:3]
    searcher = cluster.searcher("owner0", l1_entries=16)
    results = searcher.search(terms, top_k=5)
    diagnostics = searcher.last_cluster_diagnostics
    print(f"\nowner0 queried {terms}: {len(results)} hits")
    print(f"  pods contacted: {diagnostics.pods_contacted}, "
          f"lookup messages: {diagnostics.lookup_messages} "
          "(one per server per query, not per term)")

    # 3. The searcher-local L1 absorbs the repeat.
    repeated = searcher.search(terms, top_k=5)
    diagnostics = searcher.last_cluster_diagnostics
    assert repeated == results
    assert diagnostics.l1_hits > 0 and diagnostics.lookup_messages == 0
    print(f"repeat query: {diagnostics.l1_hits} L1 hits, "
          f"{diagnostics.lookup_messages} messages — free")

    # 4. Kill one server per pod; answers must not move.
    for pod in cluster.pods:
        print(f"killed {cluster.kill_server(pod.index, pod.index)}")
    survivor = cluster.searcher("owner0", use_cache=False)
    degraded = survivor.search(terms, top_k=5)
    assert degraded == results
    print(f"after kills: identical results "
          f"({survivor.last_cluster_diagnostics.failovers} failovers)")

    # 5. Degrade pod 0 to exactly k, then past it.
    for slot_index in range(N):
        if len(cluster.pods[0].live_slots()) == K:
            break
        if cluster.pods[0].slots[slot_index].alive:
            cluster.kill_server(0, slot_index)
    at_k = cluster.searcher("owner0", use_cache=False).search(terms, top_k=5)
    assert at_k == results
    print(f"\npod0 down to exactly k={K} servers: still identical")
    victim = next(s for s in cluster.pods[0].slots if s.alive)
    cluster.kill_server(0, victim.slot_index)
    try:
        cluster.searcher("owner0", use_cache=False).search(terms, top_k=5)
        raise AssertionError("expected degradation")
    except ClusterDegradedError as exc:
        print(f"one more kill: {exc}")

    # 6. Restart everything; the fleet is whole again.
    for pod in cluster.pods:
        for slot in pod.slots:
            if not slot.alive:
                cluster.restart_server(pod.index, slot.slot_index)
    final = cluster.searcher("owner0", use_cache=False).search(terms, top_k=5)
    assert final == results
    print(f"\nall servers restarted: {PODS * N - len(cluster.dead_servers())}"
          f"/{PODS * N} live, answers unchanged")

    # 7. Replication: an entire pod can die without moving an answer.
    replicated = ClusterDeployment.bootstrap(
        corpus.term_probabilities(),
        heuristic="dfm",
        num_lists=48,
        num_pods=PODS,
        k=K,
        n=N,
        replication_factor=2,
        batch_policy=BatchPolicy(min_documents=4),
        seed=13,
    )
    for g in corpus.group_ids():
        replicated.create_group(g, coordinator=f"owner{g}")
    for document in corpus:
        replicated.share_document(f"owner{document.group_id}", document)
    replicated.flush_all()
    baseline = replicated.searcher("owner0", use_cache=False).search(
        terms, top_k=5
    )
    print(f"\nreplication_factor=2: every list on 2 pods "
          f"({replicated.total_elements()} stored elements, "
          "2x the single-replica footprint)")
    replicated.kill_pod(0)
    survivor = replicated.searcher("owner0", use_cache=False)
    assert survivor.search(terms, top_k=5) == baseline
    print("killed ALL of pod0: answers unchanged — rebalance-free pod loss")
    late = corpus.documents_in_group(0)[-1]
    replicated.share_document("owner0", late)
    replicated.flush_all()
    coordinator = replicated.coordinator
    print(f"re-shared a document with pod0 dead: "
          f"{coordinator.ledger.outstanding} write routes dropped "
          "(ledgered per seat)")
    replicated.restart_pod(0)
    repaired = replicated.reprovision_dropped_writes()
    assert coordinator.ledger.outstanding == 0
    assert replicated.searcher("owner0", use_cache=False).search(
        terms, top_k=5
    ) == baseline
    print(f"pod0 restarted; owner re-provisioned {repaired} missed "
          "operations — fleet whole again, answers unchanged — done.")


if __name__ == "__main__":
    main()
