"""The tiered cache under a Zipf query workload: hit rates, qps, bytes.

A Zipf-shaped query log (the paper's own workload model, §7.4.3 — query
frequencies track document ranks) is replayed three times against the
same deterministic cluster scenario:

- ``uncached``: every query pays the full fleet fan-out and Lagrange
  reconstruction (``use_cache=False``);
- ``lru`` / ``tinylfu``: the tiered cache subsystem is on — a small
  searcher-local L1 of reconstructed postings in front of a small
  shared L2 cache tier running that admission/eviction policy. Both
  tiers are deliberately sized *below* the number of merged lists so
  the policies actually have to choose what to keep. They are the only
  read caches, so every hit is attributable to the subsystem under
  test.

Every query's results are digested and the cached replays must be
byte-identical to the uncached baseline — a cache that changes answers
is not a cache. Rows land in ``benchmarks/results/BENCH_cache.json``:
per mode the best-of-``PASSES`` qps, L1/L2 hit counts, the L1 hit rate
(hits per posting list looked up — a query asks for one or two lists,
so a per-query ratio can exceed 1), and response bytes on the wire
(cached modes record ``bytes_saved`` vs the baseline). The acceptance
gate requires cached qps >= 1.5x uncached.

The query log is seed-pinned (``QUERY_SEED``) through
:class:`repro.corpus.zipf.ZipfSampler`, and the cluster seed is fixed,
so every run replays the identical workload — BENCH_cache.json is
reproducible bit-for-bit across machines.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_cache.py``
"""

from __future__ import annotations

import hashlib
import json
import random
import time

from benchmarks.conftest import RESULTS_DIR, emit, metrics_snapshot
from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.core.mapping_table import MappingTable
from repro.corpus.document import Document
from repro.corpus.zipf import ZipfSampler
from repro.observability import SampleView

#: Corpus shape: enough distinct terms that the merged lists have a
#: clear hot/cold split under Zipf ranks.
VOCAB = 120
NUM_DOCS = 60
NUM_LISTS = 24
NUM_GROUPS = 2
#: Replayed queries per pass (1-2 terms each, Zipf-ranked).
NUM_QUERIES = 300
#: Both cache tiers are smaller than NUM_LISTS: policies must choose.
L1_ENTRIES = 16
L2_ENTRIES = 16
#: Timing passes per mode; best-of (noise only ever slows a pass). A
#: pass is ~50 ms, short enough for one noisy neighbour to sink it: at
#: three passes the 1.5x gate read 1.39x in one CI run (1.70-1.88x in
#: six runs at five).
PASSES = 5
#: Seed pins for bit-for-bit reproducible BENCH_cache.json runs.
CORPUS_SEED = 0x5EED
QUERY_SEED = 0xCAC4E
CLUSTER_SEED = 77

#: The acceptance bar, set just under the measurement. In-process a
#: hit saves only fan-out + reconstruction, and since the columnar read
#: path made exactly those cheap the ratio reads 1.7-1.8x (it was 3.3x
#: when reconstruction was per-element Python). Not lower than 1.5: a
#: 25% hit-path regression must still fail.
GATE_MIN_SPEEDUP = 1.5


def _make_documents() -> list[Document]:
    rng = random.Random(CORPUS_SEED)
    vocab = [f"t{i}" for i in range(VOCAB)]
    sampler = ZipfSampler(VOCAB, exponent=1.0)
    documents = []
    for doc_id in range(NUM_DOCS):
        # Zipf-weighted term selection so document frequencies follow
        # the paper's distribution too, not just query frequencies.
        ranks = {sampler.sample(rng) for _ in range(8)}
        counts = {vocab[r]: rng.randint(1, 3) for r in ranks}
        documents.append(
            Document(
                doc_id=doc_id,
                host=f"host{doc_id % 2}",
                group_id=doc_id % NUM_GROUPS,
                term_counts=counts,
                length=sum(counts.values()),
                text=" ".join(sorted(counts)),
            )
        )
    return documents


def _make_queries() -> list[list[str]]:
    """The seed-pinned Zipf query log every mode replays verbatim."""
    rng = random.Random(QUERY_SEED)
    sampler = ZipfSampler(VOCAB, exponent=1.0)
    queries = []
    for _ in range(NUM_QUERIES):
        terms = [f"t{sampler.sample(rng)}"]
        if rng.random() < 0.3:
            second = f"t{sampler.sample(rng)}"
            if second not in terms:
                terms.append(second)
        queries.append(terms)
    return queries


def _build_cluster(documents, cached: bool, policy: str) -> ClusterDeployment:
    kwargs = {}
    if cached:
        kwargs = {
            "cache_tier": policy,
            "cache_tier_entries": L2_ENTRIES,
            "l1_entries": L1_ENTRIES,
        }
    cluster = ClusterDeployment(
        MappingTable({}, num_lists=NUM_LISTS),
        num_pods=2,
        k=2,
        n=3,
        batch_policy=BatchPolicy(min_documents=1),
        seed=CLUSTER_SEED,
        **kwargs,
    )
    for g in range(NUM_GROUPS):
        cluster.create_group(g, coordinator=f"owner{g}")
    for document in documents:
        cluster.share_document(f"owner{document.group_id}", document)
    cluster.flush_all()
    for g in range(NUM_GROUPS):
        cluster.add_member(g, "the-user", actor=f"owner{g}")
    return cluster


def _run_mode(documents, queries, cached: bool, policy: str = "lru"):
    """Replay the log; return (row, per-query digests) for one mode."""
    best_qps = 0.0
    row = {}
    digests = []
    for _ in range(PASSES):
        cluster = _build_cluster(documents, cached, policy)
        try:
            searcher = cluster.searcher("the-user", use_cache=cached)
            digests = []
            l1_hits = l2_hits = lists_looked_up = 0
            response_bytes = 0
            start = time.perf_counter()
            for terms in queries:
                results = cluster_results = searcher.search(
                    terms, top_k=10, fetch_snippets=False
                )
                diag = searcher.last_cluster_diagnostics
                l1_hits += diag.l1_hits
                l2_hits += diag.l2_hits
                lists_looked_up += (
                    searcher.last_diagnostics.posting_lists_requested
                )
                response_bytes += searcher.last_diagnostics.response_bytes
                digests.append(
                    hashlib.sha256(
                        repr(
                            [(r.doc_id, r.score) for r in cluster_results]
                        ).encode()
                    ).hexdigest()
                )
            elapsed = time.perf_counter() - start
            qps = len(queries) / elapsed
            if qps > best_qps:
                best_qps = qps
            row = {
                "qps": round(best_qps, 1),
                "l1_hits": l1_hits,
                "l2_hits": l2_hits,
                "lists_looked_up": lists_looked_up,
                "l1_hit_rate": round(l1_hits / lists_looked_up, 3),
                "response_bytes": response_bytes,
            }
            if cached:
                view = SampleView(cluster.metrics.samples())
                row["l2_stats"] = {
                    "policy": view.label_values(
                        "zerber_cache_tier_info", "policy"
                    )[0],
                    **{
                        key: int(view.value(f"zerber_cache_tier_{key}"))
                        for key in (
                            "entries", "capacity", "hits", "misses",
                            "evictions", "invalidations", "rejections",
                        )
                    },
                }
            row["metrics"] = metrics_snapshot(cluster)
        finally:
            cluster.close()
    return row, digests


def test_cache_benchmark():
    documents = _make_documents()
    queries = _make_queries()

    rows = {}
    rows["uncached"], baseline_digests = _run_mode(
        documents, queries, cached=False
    )
    all_digests = {"uncached": baseline_digests}
    for policy in ("lru", "tinylfu"):
        rows[policy], all_digests[policy] = _run_mode(
            documents, queries, cached=True, policy=policy
        )
        rows[policy]["bytes_saved"] = (
            rows["uncached"]["response_bytes"]
            - rows[policy]["response_bytes"]
        )
        rows[policy]["speedup"] = round(
            rows[policy]["qps"] / max(rows["uncached"]["qps"], 1e-9), 2
        )

    # A faster cache that changes answers is worthless: every cached
    # replay must be byte-identical to the uncached baseline per query.
    for policy in ("lru", "tinylfu"):
        assert all_digests[policy] == baseline_digests, (
            f"{policy}: cached results diverged from the uncached "
            "baseline"
        )

    # A hit rate outside [0, 1] is a bug in the bench, not a result.
    for name, row in rows.items():
        recorded = [row["l1_hit_rate"], *row["metrics"]["hit_rates"].values()]
        assert all(
            0.0 <= rate <= 1.0 for rate in recorded if rate is not None
        ), (name, recorded)

    payload = {
        "schema": "zerber.bench_cache.v1",
        "config": {
            "vocab": VOCAB,
            "num_docs": NUM_DOCS,
            "num_lists": NUM_LISTS,
            "num_queries": NUM_QUERIES,
            "l1_entries": L1_ENTRIES,
            "l2_entries": L2_ENTRIES,
            "passes": PASSES,
            "corpus_seed": CORPUS_SEED,
            "query_seed": QUERY_SEED,
            "cluster_seed": CLUSTER_SEED,
        },
        **rows,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_cache.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    emit(
        "cache_tiers",
        [
            f"Zipf query log ({NUM_QUERIES} queries over {VOCAB} terms, "
            f"exponent 1.0) against {NUM_LISTS} merged lists; "
            f"L1={L1_ENTRIES}, L2={L2_ENTRIES} entries",
            f"  {'mode':>10}  {'qps':>8}  {'L1 rate':>8}  {'L2 hits':>8}  "
            f"{'wire bytes':>12}  {'speedup':>8}",
            *(
                f"  {name:>10}  {row['qps']:8.1f}  "
                f"{row.get('l1_hit_rate', 0.0):8.3f}  "
                f"{row.get('l2_hits', 0):8d}  "
                f"{row['response_bytes']:10d} B  "
                f"{row.get('speedup', 1.0):7.2f}x"
                for name, row in rows.items()
            ),
            f"  gate: cached qps >= {GATE_MIN_SPEEDUP:.1f}x uncached, "
            "byte-identical results",
        ],
    )
    for policy in ("lru", "tinylfu"):
        assert rows[policy]["speedup"] >= GATE_MIN_SPEEDUP, (
            f"{policy}: cached qps only {rows[policy]['speedup']:.2f}x "
            f"the uncached baseline (acceptance requires >= "
            f"{GATE_MIN_SPEEDUP}x)"
        )
