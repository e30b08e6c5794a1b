"""§7.2 storage overhead.

Paper: Zerber elements carry a term encoding and a global element ID,
"which increases element size by about 50%. ... each Zerber index server
uses about 50% more space than an ordinary inverted index. Since Zerber
replicates the index on n servers, the total index space required is
1.5 n times more."

We verify the factors both analytically (from the PackingSpec) and
empirically against a live 3-server deployment's byte counters.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.analysis.storage import storage_report
from repro.client.batching import BatchPolicy
from repro.core.mapping_table import MappingTable
from repro.core.zerber_index import ZerberDeployment
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus


def test_sec72_storage_overhead(benchmark):
    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_documents=60, vocabulary_size=900, num_groups=3, seed=6
        )
    )
    table = MappingTable({}, num_lists=64)
    deployment = ZerberDeployment(
        mapping_table=table,
        k=2,
        n=3,
        batch_policy=BatchPolicy(min_documents=1000),
        seed=8,
    )
    for g in corpus.group_ids():
        deployment.create_group(g, coordinator=f"owner{g}")

    def index_all():
        for document in corpus:
            deployment.share_document(f"owner{document.group_id}", document)
        deployment.flush_all()
        return deployment.total_elements()

    total_elements = benchmark.pedantic(index_all, rounds=1, iterations=1)
    per_server = deployment.servers[0].num_elements
    report = storage_report(per_server, num_servers=3)
    live_fleet_bytes = deployment.storage_bytes()
    rows = [
        "§7.2 storage overhead",
        f"posting elements per server: {per_server} "
        f"(= ordinary index element count)",
        f"analytic: plain element {report.plain_element_bits} bits, "
        f"zerber element {report.zerber_element_bits} bits "
        f"-> per-server overhead x{report.per_server_overhead:.2f} "
        f"(paper: ~1.5)",
        f"analytic fleet overhead: x{report.total_overhead:.2f} "
        f"(paper: ~1.5 n = 4.5 for n=3)",
        f"live fleet storage: {live_fleet_bytes} bytes over 3 servers vs "
        f"{report.plain_index_bytes} bytes for the single plain index "
        f"-> x{live_fleet_bytes / report.plain_index_bytes:.2f}",
    ]
    emit("sec72_storage", rows)

    # Every server holds the same element count (one share each).
    assert {s.num_elements for s in deployment.servers} == {per_server}
    assert total_elements == 3 * per_server
    assert report.per_server_overhead == pytest.approx(1.5)
    assert report.total_overhead == pytest.approx(4.5)
    # The live wire encoding carries the posting-list id, the ACL group
    # id, and the 65-bit field share per record, so it lands above the
    # paper's analytic 4.5x (which counts only secret + element id).
    assert 4.5 < live_fleet_bytes / report.plain_index_bytes < 9.0
