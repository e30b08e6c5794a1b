"""§7.1 security guarantees, made executable.

Three attack drills against a live 3-server deployment:

1. statistical attack from one compromised server — the measured
   probability amplification must respect the merge's formula-(7) r;
2. update-watching correlation attack — unbatched owners leak document
   co-occurrence with precision 1.0, batched owners dilute it
   ("Inserting elements from several documents in one batch makes it
   hard for Alice to guess which terms co-occur");
3. k-1 collusion — pooled shares from k-1 servers reconstruct nothing
   and are statistically uniform.
"""

from __future__ import annotations

import random

from benchmarks.conftest import emit
from repro.attacks.adversary import BackgroundKnowledge
from repro.attacks.collusion import share_uniformity_pvalue
from repro.attacks.correlation import CorrelationAttack
from repro.attacks.statistical import StatisticalAttack
from repro.client.batching import BatchPolicy
from repro.core.zerber_index import ZerberDeployment
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus


def build_deployment(batch_docs: int, seed: int = 77):
    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_documents=60,
            vocabulary_size=900,
            num_groups=3,
            mean_document_length=40,
            seed=seed,
        )
    )
    probs = corpus.term_probabilities()
    deployment = ZerberDeployment.bootstrap(
        probs,
        heuristic="dfm",
        num_lists=48,
        k=2,
        n=3,
        batch_policy=BatchPolicy(min_documents=batch_docs),
        seed=seed,
    )
    for g in corpus.group_ids():
        deployment.create_group(g, coordinator=f"owner{g}")
    for document in corpus:
        deployment.share_document(f"owner{document.group_id}", document)
    deployment.flush_all()
    return corpus, deployment


def element_doc_truth(corpus, deployment):
    truth = {}
    for g in corpus.group_ids():
        owner = deployment.owner(f"owner{g}")
        for doc_id in owner.shared_documents:
            for _pl, element_id in owner.elements_of(doc_id):
                truth[element_id] = doc_id
    return truth


def test_sec71_statistical_attack(benchmark):
    corpus, deployment = build_deployment(batch_docs=1000)
    probs = corpus.term_probabilities()
    merge = deployment.merge_result
    view = deployment.servers[0].compromise()
    members = {i: list(ms) for i, ms in enumerate(merge.lists)}
    attack = StatisticalAttack(view, members, BackgroundKnowledge(probs))
    report = benchmark.pedantic(
        lambda: attack.report(corpus.document_frequencies()),
        rounds=3,
        iterations=1,
    )
    r = merge.resulting_r(probs)
    rows = [
        "§7.1 statistical attack from one compromised server",
        f"configured r (formula 7): {r:.1f}",
        f"measured max amplification: {report.max_amplification:.1f}",
        f"measured mean amplification: {report.mean_amplification:.1f}",
        f"adversary's DF-estimate mean relative error: "
        f"{100 * report.df_estimate_error:.1f}% "
        "(0% would be the unmerged index's total leak)",
    ]
    emit("sec71_statistical", rows)
    assert report.max_amplification <= r * (1 + 1e-9)


def test_sec71_correlation_vs_batching(benchmark):
    rows = ["§7.1 correlation attack vs batch size (precision of "
            "same-document pair guesses)"]
    precisions = {}
    for batch_docs in (1, 4, 12, 1000):
        corpus, deployment = build_deployment(batch_docs=batch_docs)
        truth = element_doc_truth(corpus, deployment)
        attack = CorrelationAttack(deployment.servers[0].compromise())
        report = attack.score(truth)
        precisions[batch_docs] = report.precision
        label = "unbatched" if batch_docs == 1 else f"{batch_docs}-doc batches"
        rows.append(
            f"  {label:>16}: precision={report.precision:.3f} "
            f"recall={report.recall:.3f} "
            f"({report.guessed_pairs} pairs guessed)"
        )
    emit("sec71_correlation", rows)
    assert precisions[1] == 1.0, "unbatched updates leak exactly"
    assert precisions[4] < 1.0
    assert precisions[12] < precisions[4]
    assert precisions[1000] < 0.1

    corpus, deployment = build_deployment(batch_docs=12)
    truth = element_doc_truth(corpus, deployment)

    def run_attack():
        return CorrelationAttack(
            deployment.servers[0].compromise()
        ).score(truth)

    benchmark.pedantic(run_attack, rounds=3, iterations=1)


def test_sec71_collusion_below_k(benchmark):
    _, deployment = build_deployment(batch_docs=1000)
    view = deployment.servers[0].compromise()
    ys = [
        record.share_y
        for records in view.posting_store.values()
        for record in records
    ]
    p_value = benchmark.pedantic(
        lambda: share_uniformity_pvalue(ys, deployment.field, num_buckets=16),
        rounds=3,
        iterations=1,
    )
    rows = [
        "§7.1 collusion below k: one server's share values (k=2, n=3)",
        f"shares examined: {len(ys)}",
        f"chi-squared uniformity p-value: {p_value:.3f} "
        "(high = indistinguishable from random field elements)",
    ]
    emit("sec71_collusion", rows)
    assert p_value > 1e-3
