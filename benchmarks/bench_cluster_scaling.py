"""Cluster scaling: queries-per-second and response bytes per query vs shards.

Sweeps the sharded cluster over pod counts and failure rates, measuring
the §7.3-style costs end to end, as the search diagnostics count them:

- **qps** — wall-clock queries per second through the full Algorithm 2
  pipeline (route, batch, fetch, reconstruct, rank);
- **response_bytes_per_query** — §7.3 share bytes the seats answered
  with per query (``SearchDiagnostics.response_bytes``; requests are
  not charged);
- **messages_per_query** — lookup messages per query
  (``ClusterDiagnostics.lookup_messages``), the number the batched
  fan-out exists to shrink.

A second sweep varies the **replication factor** (R = 1, 2, 3) and
measures what replication buys and costs: read throughput healthy and
with an entire pod dead, and storage amplification vs the R=1
footprint.

Every row lands in ``benchmarks/results/BENCH_cluster.json``
(schema v2: ``{"schema", "rows": [...], "replication_rows": [...]}``;
both tests merge into the same file) so later PRs can track the
trajectory.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_cluster_scaling.py``
"""

from __future__ import annotations

import json
import random
import time

import pytest

from benchmarks.conftest import RESULTS_DIR, emit, metrics_snapshot
from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus

N, K = 3, 2
NUM_QUERIES = 40
TERMS_PER_QUERY = 3


def _corpus():
    return generate_corpus(
        SyntheticCorpusConfig(
            num_documents=120,
            vocabulary_size=900,
            num_groups=2,
            seed=1723,
        )
    )


def _queries(corpus, rng):
    probabilities = corpus.term_probabilities()
    frequent = sorted(
        probabilities, key=lambda t: (-probabilities[t], t)
    )[:120]
    return [
        rng.sample(frequent, TERMS_PER_QUERY) for _ in range(NUM_QUERIES)
    ]


def _build_cluster(corpus, num_pods, kill_per_pod=0, replication_factor=1):
    cluster = ClusterDeployment.bootstrap(
        corpus.term_probabilities(),
        heuristic="dfm",
        num_lists=64,
        num_pods=num_pods,
        k=K,
        n=N,
        replication_factor=replication_factor,
        batch_policy=BatchPolicy(min_documents=8),
        seed=1723,
    )
    for g in corpus.group_ids():
        cluster.create_group(g, coordinator=f"owner{g}")
    for document in corpus:
        cluster.share_document(f"owner{document.group_id}", document)
    cluster.flush_all()
    for pod in cluster.pods:
        for slot_index in range(kill_per_pod):
            cluster.kill_server(pod.index, slot_index)
    return cluster


def _merge_results(update: dict) -> None:
    """Fold one test's rows into BENCH_cluster.json without clobbering
    the other test's section (either may run alone or first)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_cluster.json"
    payload = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError:
            payload = {}
    payload["schema"] = "zerber.bench_cluster.v2"
    payload.update(update)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _run_queries(cluster, queries, use_cache, batch_lookups):
    """Returns (qps, response_bytes_per_query, messages_per_query,
    results)."""
    searcher = cluster.searcher(
        "owner0", use_cache=use_cache, batch_lookups=batch_lookups
    )
    results = []
    response_bytes = messages = 0
    start = time.perf_counter()
    for terms in queries:
        results.append(
            searcher.search(terms, top_k=10, fetch_snippets=False)
        )
        response_bytes += searcher.last_diagnostics.response_bytes
        messages += searcher.last_cluster_diagnostics.lookup_messages
    elapsed = time.perf_counter() - start
    n = len(queries)
    return n / elapsed, response_bytes / n, messages / n, results


def test_cluster_scaling_sweep(benchmark):
    corpus = _corpus()
    queries = _queries(corpus, random.Random(42))
    rows = []
    baseline_results = None
    for num_pods in (1, 2, 4):
        for kill_per_pod in (0, N - K):
            cluster = _build_cluster(corpus, num_pods, kill_per_pod)
            for use_cache in (False, True):
                if use_cache:
                    # Warm pass over the same query set: cache absorbs it.
                    _run_queries(cluster, queries, True, True)
                qps, bpq, mpq, results = _run_queries(
                    cluster, queries, use_cache, batch_lookups=True
                )
                config = {
                    "pods": num_pods,
                    "n": N,
                    "k": K,
                    "killed_per_pod": kill_per_pod,
                    "batched": True,
                    "cache": use_cache,
                    "queries": NUM_QUERIES,
                    "terms_per_query": TERMS_PER_QUERY,
                }
                rows.append(
                    {
                        "config": config,
                        "qps": round(qps, 1),
                        "response_bytes_per_query": round(bpq, 1),
                        "messages_per_query": round(mpq, 2),
                        "metrics": metrics_snapshot(cluster),
                    }
                )
                if num_pods == 1 and kill_per_pod == 0 and not use_cache:
                    baseline_results = results
                elif not use_cache and kill_per_pod == 0:
                    # Sharding must never change answers.
                    assert results == baseline_results
    # One benchmarked reference pass for pytest-benchmark's ledger.
    reference = _build_cluster(corpus, 2, 0)
    benchmark.pedantic(
        lambda: _run_queries(reference, queries, False, True),
        rounds=1,
        iterations=1,
    )
    lines = [
        "cluster scaling: qps / response-bytes-per-query / "
        "messages-per-query "
        f"({NUM_QUERIES} queries x {TERMS_PER_QUERY} terms, n={N}, k={K})",
    ]
    for row in rows:
        config = row["config"]
        lines.append(
            f"pods={config['pods']} killed/pod={config['killed_per_pod']} "
            f"cache={'on ' if config['cache'] else 'off'}: "
            f"{row['qps']:8.1f} q/s  "
            f"{row['response_bytes_per_query']:9.1f} B/q  "
            f"{row['messages_per_query']:5.2f} msg/q"
        )
    emit("cluster_scaling", lines)
    _merge_results({"rows": rows})
    # Sanity floor: uncached queries really fetched shares.
    assert all(
        row["response_bytes_per_query"] > 0
        for row in rows
        if not row["config"]["cache"]
    )
    # Cached passes fetch (almost) nothing.
    for cached, cold in zip(rows[1::2], rows[0::2]):
        assert (
            cached["response_bytes_per_query"]
            <= cold["response_bytes_per_query"]
        )


def test_batched_lookups_beat_naive_fanout(benchmark):
    """The acceptance criterion: fewer lookup messages than per-term fan-out."""
    corpus = _corpus()
    queries = _queries(corpus, random.Random(43))
    cluster = _build_cluster(corpus, 2, 0)
    _, _, batched_mpq, batched_results = benchmark.pedantic(
        lambda: _run_queries(cluster, queries, False, True),
        rounds=1,
        iterations=1,
    )
    _, _, naive_mpq, naive_results = _run_queries(
        cluster, queries, False, False
    )
    emit(
        "cluster_batching",
        [
            "batched vs naive lookup fan-out (2 pods, n=3, k=2, "
            f"{TERMS_PER_QUERY}-term queries)",
            f"batched: {batched_mpq:.2f} lookup messages per query",
            f"naive:   {naive_mpq:.2f} lookup messages per query",
        ],
    )
    assert naive_results == batched_results
    assert batched_mpq < naive_mpq


def test_replication_factor_sweep(benchmark):
    """What replication buys (pod-loss survival) and costs (storage).

    R = 1, 2, 3 over a fixed 3-pod cluster: read qps healthy, read qps
    with one entire pod dead (only possible at R >= 2), and storage
    amplification vs the R=1 footprint. Results must stay byte-identical
    across every configuration that can answer at all.
    """
    corpus = _corpus()
    queries = _queries(corpus, random.Random(44))
    rows = []
    base_storage = None
    baseline_results = None
    for replication in (1, 2, 3):
        cluster = _build_cluster(
            corpus, num_pods=3, replication_factor=replication
        )
        storage = cluster.storage_bytes()
        if base_storage is None:
            base_storage = storage
        qps, bpq, _mpq, results = _run_queries(
            cluster, queries, use_cache=False, batch_lookups=True
        )
        if baseline_results is None:
            baseline_results = results
        else:
            assert results == baseline_results  # replication never changes answers
        row = {
            "replication": replication,
            "pods": 3,
            "n": N,
            "k": K,
            "queries": NUM_QUERIES,
            "qps": round(qps, 1),
            "response_bytes_per_query": round(bpq, 1),
            "storage_bytes": storage,
            "storage_amplification": round(storage / base_storage, 3),
            "qps_pod_down": None,
        }
        if replication >= 2:
            cluster.kill_pod(0)
            down_qps, _bpq, _mpq, down_results = _run_queries(
                cluster, queries, use_cache=False, batch_lookups=True
            )
            assert down_results == baseline_results  # pod loss is invisible
            row["qps_pod_down"] = round(down_qps, 1)
        rows.append(row)
    # One benchmarked reference pass for pytest-benchmark's ledger.
    reference = _build_cluster(corpus, 3, replication_factor=2)
    benchmark.pedantic(
        lambda: _run_queries(reference, queries, False, True),
        rounds=1,
        iterations=1,
    )
    lines = [
        "replication sweep (3 pods, n=%d, k=%d, %d queries): read qps / "
        "storage amplification / qps with one pod dead"
        % (N, K, NUM_QUERIES),
    ]
    for row in rows:
        pod_down = (
            f"{row['qps_pod_down']:8.1f} q/s"
            if row["qps_pod_down"] is not None
            else "   (dies)"
        )
        lines.append(
            f"R={row['replication']}: {row['qps']:8.1f} q/s  "
            f"x{row['storage_amplification']:.2f} storage  "
            f"pod-down: {pod_down}"
        )
    emit("cluster_replication", lines)
    _merge_results({"replication_rows": rows})
    # Storage really amplifies ~linearly with R.
    assert rows[1]["storage_amplification"] == pytest.approx(2.0, rel=0.05)
    assert rows[2]["storage_amplification"] == pytest.approx(3.0, rel=0.05)