"""End-to-end pipeline benchmarks on a live 3-server deployment.

Not a paper table — the operational numbers a downstream adopter asks
first: document indexing throughput (tokenize → pack → split → distribute)
and full query latency (fetch → join → reconstruct → filter → rank →
snippets), with the insert batches each seat logged and the response
bytes each query fetched printed alongside.
"""

from __future__ import annotations

from benchmarks.conftest import emit, timed_pedantic
from repro.client.batching import BatchPolicy
from repro.core.zerber_index import ZerberDeployment
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus


def build(seed=99):
    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_documents=80,
            vocabulary_size=1_500,
            num_groups=4,
            mean_document_length=60,
            seed=seed,
        )
    )
    probs = corpus.term_probabilities()
    deployment = ZerberDeployment.bootstrap(
        probs,
        heuristic="dfm",
        num_lists=64,
        k=2,
        n=3,
        batch_policy=BatchPolicy(min_documents=8),
        seed=seed,
    )
    for g in corpus.group_ids():
        deployment.create_group(g, coordinator=f"owner{g}")
    return corpus, deployment


def test_e2e_index_throughput(benchmark):
    corpus, deployment = build()
    documents = list(corpus)

    def index_all():
        for document in documents:
            deployment.share_document(f"owner{document.group_id}", document)
        deployment.flush_all()
        return deployment.servers[0].num_elements

    elements, seconds = timed_pedantic(benchmark, index_all)
    batches_per_seat = {
        server.server_id: len(server.compromise().update_log)
        for server in deployment.servers
    }
    rows = [
        "E2E indexing: 80 documents -> 3 servers (k=2, 8-doc batches)",
        f"elements per server: {elements}",
        f"wall time: {seconds:.2f} s "
        f"({len(documents) / seconds:.1f} docs/s, "
        f"{elements / seconds:.0f} elements/s)",
        "insert batches per seat (its update_log): "
        + ", ".join(f"{s} {n}" for s, n in sorted(batches_per_seat.items())),
    ]
    emit("e2e_index_throughput", rows)
    assert elements > 0


def test_e2e_query_latency(benchmark):
    corpus, deployment = build(seed=101)
    for document in corpus:
        deployment.share_document(f"owner{document.group_id}", document)
    deployment.flush_all()
    doc = corpus.documents_in_group(0)[0]
    terms = sorted(doc.term_counts)[:2]
    searcher = deployment.searcher("owner0")

    def run_query():
        return searcher.search(terms, top_k=10)

    results, seconds = timed_pedantic(benchmark, run_query, rounds=5)
    diag = searcher.last_diagnostics
    rows = [
        f"E2E query latency: 2-term query, top-10 with snippets",
        f"latency: {1000 * seconds:.1f} ms",
        f"hits: {len(results)}; elements received {diag.elements_received}, "
        f"false positives filtered {diag.false_positives}",
        f"lookup response bytes (per query, k=2 servers): "
        f"{diag.response_bytes}",
    ]
    emit("e2e_query_latency", rows)
    assert results
    assert all(r.snippet for r in results)
