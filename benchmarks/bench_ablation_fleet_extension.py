"""Ablation: provisioning an (n+1)-th server from a live deployment,
the §5.1 "additional points on the polynomial curve" (see
``docs/ARCHITECTURE.md``, fleet extension).
"""

from __future__ import annotations

from benchmarks.conftest import emit, timed_pedantic
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus

from tests.helpers import deploy_corpus


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
