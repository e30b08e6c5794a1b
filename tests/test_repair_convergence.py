"""Hypothesis property: repair always converges, whatever the history.

Random interleavings of writes, deletes, seat kills, seat restarts, and
anti-entropy sweeps are run against a replicated cluster. Afterwards —
every seat restarted, sweeps (plus the documented owner-reprovisioning
fallback for gaps with no trusted source) run to quiescence — the
staleness ledger must be empty and the cluster's answers byte-identical
to a fresh single fleet that replayed the same shares and deletes with
no failures at all.

A small unmarked smoke version runs in tier-1; the wide ``slow`` sweep
runs in ``scripts/ci.sh``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import make_cluster, make_documents, make_single_fleet, metric
from repro.corpus.document import Document

VOCAB = [f"w{i}" for i in range(16)]
NUM_PODS = 2
N, K = 4, 2  # each pod tolerates n - k = 2 dead seats


def run_interleaving(data, max_actions: int) -> None:
    documents = make_documents(num_docs=8, num_groups=1)
    cluster = make_cluster(
        documents, num_pods=NUM_PODS, replication_factor=2, k=K, n=N
    )
    coordinator = cluster.coordinator
    # The replay journal the fresh single fleet will consume.
    journal: list[tuple[str, object]] = [("share", d) for d in documents]
    live_docs = [d.doc_id for d in documents]
    next_doc_id = 1000
    dead: set[tuple[int, int]] = set()

    def dead_in_pod(pod_index: int) -> int:
        return sum(1 for p, _ in dead if p == pod_index)

    num_actions = data.draw(
        st.integers(min_value=3, max_value=max_actions), label="num_actions"
    )
    for _ in range(num_actions):
        choices = ["write", "sweep"]
        if live_docs:
            choices.append("delete")
        killable = [
            (p, s)
            for p in range(NUM_PODS)
            for s in range(N)
            if (p, s) not in dead and dead_in_pod(p) < N - K
        ]
        if killable:
            choices.append("kill")
        if dead:
            choices.append("restart")
        action = data.draw(st.sampled_from(choices), label="action")
        if action == "write":
            terms = data.draw(
                st.lists(
                    st.sampled_from(VOCAB),
                    min_size=1,
                    max_size=4,
                    unique=True,
                ),
                label="terms",
            )
            doc = Document(
                doc_id=next_doc_id,
                host="host0",
                group_id=0,
                term_counts={t: 1 for t in terms},
                length=len(terms),
                text=" ".join(sorted(terms)),
            )
            next_doc_id += 1
            cluster.share_document("owner0", doc)
            cluster.flush_all()
            journal.append(("share", doc))
            live_docs.append(doc.doc_id)
        elif action == "delete":
            doc_id = data.draw(st.sampled_from(live_docs), label="victim")
            cluster.owner("owner0").delete_document(doc_id)
            journal.append(("delete", doc_id))
            live_docs.remove(doc_id)
        elif action == "kill":
            pod, slot = data.draw(st.sampled_from(killable), label="kill")
            cluster.kill_server(pod, slot)
            dead.add((pod, slot))
        elif action == "restart":
            pod, slot = data.draw(
                st.sampled_from(sorted(dead)), label="restart"
            )
            cluster.restart_server(pod, slot)
            dead.discard((pod, slot))
        else:
            cluster.repair_sweep()

    # Quiesce: everything restarts, then repair runs dry. Gaps with no
    # trusted same-slot source (both replicas of a slot slept through
    # the same write) fall back to owner re-provisioning, exactly as
    # documented.
    for pod, slot in sorted(dead):
        cluster.restart_server(pod, slot)
    for _ in range(30):
        if coordinator.outstanding_write_routes == 0:
            break
        if cluster.repair_sweep().healed_seats == 0:
            cluster.reprovision_dropped_writes()
    assert coordinator.outstanding_write_routes == 0
    assert metric(cluster, "zerber_repair_pending_entries") == 0

    # A fresh single fleet replays the same journal with no failures.
    single = make_single_fleet([], k=K, n=N)
    single.create_group(0, coordinator="owner0")
    for kind, payload in journal:
        if kind == "share":
            single.share_document("owner0", payload)
            single.flush_all()
        else:
            single.owner("owner0").delete_document(payload)
    queries = [VOCAB[:3], VOCAB[5:8], VOCAB[10:14], ["never-indexed"]]
    for terms in queries:
        fresh = cluster.searcher("owner0", use_cache=False)
        assert (
            fresh.search(terms, top_k=10, fetch_snippets=False)
            == single.searcher("owner0").search(
                terms, top_k=10, fetch_snippets=False
            )
        ), terms


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)
@given(data=st.data())
def test_random_interleavings_converge_smoke(data):
    run_interleaving(data, max_actions=10)


@pytest.mark.slow
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)
@given(data=st.data())
def test_random_interleavings_converge_wide(data):
    run_interleaving(data, max_actions=30)
