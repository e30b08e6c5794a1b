"""Transport backends head to head: in-process vs loopback TCP (ISSUE 4).

The wire-protocol redesign must not give back the PR 3 read-path win:
the in-process transport adds one message-object hop per lookup, so its
uncached throughput has to stay within a whisker of the pre-protocol
~620 qps baseline recorded in ``BENCH_cluster.json``. The async-socket
backend pays for real frames (encode, TCP round-trip, decode) and buys
process isolation; this bench records what that costs, single-threaded
and with a client-side thread pool overlapping round-trips with
reconstruction CPU ("batch").

Rows land in ``benchmarks/results/BENCH_transport.json``:

- ``in_process`` / ``async_socket``: uncached qps, sequential
  ("single") and 8-way concurrent ("batch"), plus cached qps — one
  searcher whose L1 holds every merged list (this file measures the
  per-call cost; ``bench_load.py`` drives the socket backend open
  loop);
- ``baseline_uncached_qps``: the single-pod uncached number read from
  BENCH_cluster.json, for the within-10% acceptance check.

The CI gate runs this file; the in-process assertion is a generous
*ratio* (no absolute numbers, so a loaded machine cannot flake it) —
the recorded JSON carries the exact figures.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_transport.py``
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor

from benchmarks.conftest import RESULTS_DIR, emit, metrics_snapshot
from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus

N, K = 3, 2
NUM_LISTS = 64
NUM_QUERIES = 40
TERMS_PER_QUERY = 3
BATCH_WORKERS = 8

#: The in-process transport must retain at least this fraction of the
#: recorded pre-protocol baseline. The acceptance target is 0.9; the CI
#: gate uses a margin loose enough to never trip on scheduler noise
#: while still catching a real regression (a constant-factor slowdown
#: in the dispatch path shows up as 2-3x, not 25%).
GATE_RETAINED_FRACTION = 0.75


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


def _build(corpus, transport):
    cluster = ClusterDeployment.bootstrap(
        corpus.term_probabilities(),
        heuristic="dfm",
        num_lists=NUM_LISTS,
        num_pods=1,
        k=K,
        n=N,
        batch_policy=BatchPolicy(min_documents=8),
        seed=1723,
        transport=transport,
    )
    for g in corpus.group_ids():
        cluster.create_group(g, coordinator=f"owner{g}")
    for document in corpus:
        cluster.share_document(f"owner{document.group_id}", document)
    cluster.flush_all()
    return cluster


#: Timed passes per measurement; the best one is reported. Scheduler
#: noise on a loaded CI box only ever *slows* a pass, so max-of-N is
#: the low-variance estimator of what the code can actually do.
PASSES = 3


def _qps_sequential(cluster, queries, use_cache):
    # The cached row's L1 has room for every merged list.
    searcher = cluster.searcher(
        "owner0",
        use_cache=use_cache,
        l1_entries=NUM_LISTS if use_cache else 0,
    )
    if use_cache:  # warm pass the L1 absorbs
        for terms in queries:
            searcher.search(terms, top_k=10, fetch_snippets=False)
    best = 0.0
    results = None
    for _ in range(PASSES):
        start = time.perf_counter()
        pass_results = [
            searcher.search(terms, top_k=10, fetch_snippets=False)
            for terms in queries
        ]
        elapsed = time.perf_counter() - start
        best = max(best, len(queries) / elapsed)
        if results is None:
            results = pass_results
        else:
            assert pass_results == results  # determinism across passes
    return best, results


def _qps_batch(cluster, queries):
    """Client-side thread pool: overlaps round-trips with CPU work.

    One searcher per worker (searchers keep per-query diagnostics, so
    they are not shared across threads); each worker drains its slice
    of the query batch, and over async-socket every worker's calls
    share the one multiplexed connection.
    """
    searchers = [
        cluster.searcher("owner0", use_cache=False)
        for _ in range(BATCH_WORKERS)
    ]

    def run_slice(index):
        out = []
        for terms in queries[index::BATCH_WORKERS]:
            out.append(
                searchers[index].search(terms, top_k=10, fetch_snippets=False)
            )
        return out

    best = 0.0
    slices = None
    with ThreadPoolExecutor(max_workers=BATCH_WORKERS) as pool:
        for _ in range(PASSES):
            start = time.perf_counter()
            slices = list(pool.map(run_slice, range(BATCH_WORKERS)))
            elapsed = time.perf_counter() - start
            best = max(best, len(queries) / elapsed)
    # Fold the strided slices back into query order (slice w holds
    # queries w, w + BATCH_WORKERS, ...).
    results: list = [None] * len(queries)
    for worker, piece in enumerate(slices):
        for position, result in enumerate(piece):
            results[worker + position * BATCH_WORKERS] = result
    return best, results


def _baseline_uncached_qps():
    """The recorded single-pod uncached qps (None when absent)."""
    path = RESULTS_DIR / "BENCH_cluster.json"
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError:
        return None
    for row in payload.get("rows", ()):
        config = row.get("config", {})
        if config.get("pods") == 1 and config.get("killed_per_pod") == 0:
            return row.get("qps")
    return None


def test_transport_benchmark():
    corpus = _corpus()
    queries = _queries(corpus, random.Random(42))
    rows = {}
    reference_results = None
    for transport in ("in-process", "async-socket"):
        with _build(corpus, transport) as cluster:
            single_qps, results = _qps_sequential(
                cluster, queries, use_cache=False
            )
            if reference_results is None:
                reference_results = results
            else:
                # The redesign's standing invariant, re-checked where
                # the numbers are produced: both transports return
                # byte-identical rankings.
                assert results == reference_results
            batch_qps, batch_results = _qps_batch(cluster, queries)
            assert batch_results == reference_results
            cached_qps, _ = _qps_sequential(cluster, queries, use_cache=True)
            rows[transport.replace("-", "_")] = {
                "uncached_qps_single": round(single_qps, 1),
                "uncached_qps_batch": round(batch_qps, 1),
                "cached_qps": round(cached_qps, 1),
                "metrics": metrics_snapshot(cluster),
            }
    baseline = _baseline_uncached_qps()
    payload = {
        "schema": "zerber.bench_transport.v1",
        "config": {
            "pods": 1,
            "n": N,
            "k": K,
            "queries": NUM_QUERIES,
            "terms_per_query": TERMS_PER_QUERY,
            "batch_workers": BATCH_WORKERS,
        },
        "baseline_uncached_qps": baseline,
        **rows,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_transport.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    in_process = rows["in_process"]["uncached_qps_single"]
    async_qps = rows["async_socket"]["uncached_qps_single"]
    lines = [
        "transport backends, 1 pod x 3 servers (k=2), uncached unless noted",
        f"  {'backend':>10}  {'single q/s':>10}  {'batch q/s':>10}  "
        f"{'cached q/s':>10}",
        *(
            f"  {name:>10}  {row['uncached_qps_single']:10.1f}  "
            f"{row['uncached_qps_batch']:10.1f}  {row['cached_qps']:10.1f}"
            for name, row in rows.items()
        ),
        f"  single-pod baseline (BENCH_cluster.json): "
        f"{baseline if baseline is not None else 'n/a'} q/s",
    ]
    emit("transport_backends", lines)
    # The gate: the message-based API must not give back the read-path
    # win. Ratio against the recorded baseline, measured on the same
    # machine that recorded it.
    if baseline:
        assert in_process >= GATE_RETAINED_FRACTION * baseline, (
            f"in-process transport regressed: {in_process:.1f} qps vs "
            f"baseline {baseline:.1f} (must retain "
            f">= {GATE_RETAINED_FRACTION:.0%})"
        )
    # Sanity, not speed: the socket backend must actually answer.
    assert async_qps > 0
