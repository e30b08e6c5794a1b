"""Pipelined fetch rounds and latency-aware replica choice.

A fetch round asks its seats in waves, each wave one
``Transport.call_many``: over async-socket a wave is one write, so its
lookups run in parallel; in process ``call_many`` runs one call at a
time. The two must answer byte-identically, with the same diagnostics
counts, the same response bytes, and the same lists asked of every
seat, as each seat's own query log records them. The EWMA replica
ranking must prefer measurably faster pods, fall back to load counters
on ties, count only lookups a pod served (never an L1 hit), and time
each pod of a round on its own.
"""

from __future__ import annotations

import random

from helpers import make_cluster, make_documents
from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.cluster.coordinator import READ_LATENCY_BUCKET_S
from repro.core.mapping_table import MappingTable
from repro.corpus.document import Document
from repro.observability.metrics import SampleView
from repro.resilience.faults import FaultPlan


NUM_LISTS = 24


def _cluster(
    num_pods=3, replication_factor=2, seed=47, transport="in-process"
):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(60)]
    cluster = ClusterDeployment(
        MappingTable({}, num_lists=NUM_LISTS),
        num_pods=num_pods,
        k=2,
        n=3,
        batch_policy=BatchPolicy(min_documents=1),
        replication_factor=replication_factor,
        seed=seed,
        transport=transport,
    )
    cluster.create_group(0, coordinator="owner0")
    for doc_id in range(25):
        terms = rng.sample(vocab, rng.randint(2, 7))
        counts = {t: rng.randint(1, 3) for t in terms}
        cluster.share_document(
            "owner0",
            Document(
                doc_id=doc_id,
                host="host0",
                group_id=0,
                term_counts=counts,
                length=sum(counts.values()),
                text=" ".join(sorted(counts)),
            ),
        )
    cluster.flush_all()
    queries = [
        rng.sample(vocab, 4) for _ in range(12)
    ]
    return cluster, queries


def _shared_counts(searcher):
    """Diagnostics both transports must agree on: all but the hedge
    counts, which only a pipelining transport can move."""
    d = searcher.last_cluster_diagnostics
    return {
        "pods_contacted": d.pods_contacted,
        "lookup_messages": d.lookup_messages,
        "l1_hits": d.l1_hits,
        "failovers": d.failovers,
        "escalations": d.escalations,
        "pod_failovers": d.pod_failovers,
    }


def _lists_asked(cluster):
    """Per seat, every list its lookups asked for, from the seat's own
    query log, in the order they were asked."""
    return {
        slot.server_id: [
            pl_ids for _user, pl_ids in slot.server.compromise().query_log
        ]
        for pod in cluster.pods
        for slot in pod.slots
    }


class TestParallelFanoutEquivalence:
    def test_parallel_matches_sequential_byte_for_byte(self):
        """Same answers, same counts, same response bytes and the same
        lists asked of every seat over async-socket (one write a wave)
        as in process (one call at a time) — pipelining changes when
        lookups leave, never what they carry. R=1 pins every list to
        one pod so replica choice cannot diverge between the runs; the
        second pass, with a seat dead in every pod, adds a failover
        wave."""
        sequential_cluster, queries = _cluster(replication_factor=1)
        pipelined_cluster, _ = _cluster(
            replication_factor=1, transport="async-socket"
        )
        with pipelined_cluster:
            pipelined = pipelined_cluster.searcher("owner0", use_cache=False)
            sequential = sequential_cluster.searcher(
                "owner0", use_cache=False
            )
            saw_multi_pod_round = False
            for dead_seats in (False, True):
                if dead_seats:
                    for cluster in (pipelined_cluster, sequential_cluster):
                        for pod in cluster.pods:
                            cluster.kill_server(pod.index, 0)
                for terms in queries:
                    assert pipelined.search(
                        terms, top_k=10, fetch_snippets=False
                    ) == sequential.search(
                        terms, top_k=10, fetch_snippets=False
                    )
                    assert _shared_counts(pipelined) == _shared_counts(
                        sequential
                    )
                    assert (
                        pipelined.last_diagnostics.response_bytes
                        == sequential.last_diagnostics.response_bytes
                    )
                    diag = pipelined.last_cluster_diagnostics
                    assert diag.lookup_messages == (
                        2 * diag.pods_contacted + diag.failovers
                    )
                    assert (diag.failovers > 0) == (
                        dead_seats and diag.pods_contacted > 0
                    )
                    saw_multi_pod_round |= diag.pods_contacted > 1
            # The test only proves something if multi-pod rounds happened.
            assert saw_multi_pod_round
            assert _lists_asked(pipelined_cluster) == _lists_asked(
                sequential_cluster
            )

    def test_parallel_replicated_with_pod_dead_stays_identical(self):
        """R=2 with a whole pod dead: the pipelined ladder over
        async-socket still answers byte-identically to a healthy
        in-process cluster."""
        healthy_cluster, queries = _cluster(replication_factor=2)
        degraded_cluster, _ = _cluster(
            replication_factor=2, transport="async-socket"
        )
        with degraded_cluster:
            degraded_cluster.kill_pod(0)
            healthy = healthy_cluster.searcher("owner0", use_cache=False)
            degraded = degraded_cluster.searcher("owner0", use_cache=False)
            for terms in queries:
                assert degraded.search(
                    terms, top_k=10, fetch_snippets=False
                ) == healthy.search(terms, top_k=10, fetch_snippets=False)

    def test_parallel_cache_hits_match_sequential(self):
        sequential_cluster, queries = _cluster(replication_factor=1)
        pipelined_cluster, _ = _cluster(
            replication_factor=1, transport="async-socket"
        )
        with pipelined_cluster:
            pipelined = pipelined_cluster.searcher(
                "owner0", l1_entries=NUM_LISTS
            )
            sequential = sequential_cluster.searcher(
                "owner0", l1_entries=NUM_LISTS
            )
            for _warm in range(2):
                for terms in queries:
                    assert pipelined.search(
                        terms, top_k=10, fetch_snippets=False
                    ) == sequential.search(
                        terms, top_k=10, fetch_snippets=False
                    )
                    assert _shared_counts(pipelined) == _shared_counts(
                        sequential
                    )
            assert pipelined.last_cluster_diagnostics.l1_hits > 0


class TestLatencyAwareReplicaChoice:
    def test_ewma_prefers_measurably_faster_pod(self):
        cluster, _queries = _cluster(replication_factor=2)
        coordinator = cluster.coordinator
        pl_id = 0
        first, second = coordinator.pods_of(pl_id)
        # The first replica turns measurably slow (many buckets worse).
        slow = 50 * READ_LATENCY_BUCKET_S
        for _ in range(5):
            coordinator.note_pod_read(first.name, 1, latency_s=slow)
            coordinator.note_pod_read(second.name, 1, latency_s=slow / 50)
        assert coordinator.read_replicas(pl_id)[0] is second
        # The slow pod recovers; EWMA converges back and the ranking
        # falls to the load counters again.
        for _ in range(40):
            coordinator.note_pod_read(first.name, 1, latency_s=slow / 50)
        ranked = coordinator.read_replicas(pl_id)
        assert {p.name for p in ranked[:2]} == {first.name, second.name}

    def test_jitter_within_a_bucket_never_flips_ranking(self):
        cluster, _queries = _cluster(replication_factor=2)
        coordinator = cluster.coordinator
        pl_id = 3
        first, second = coordinator.pods_of(pl_id)
        # Sub-bucket noise: both pods land in bucket 0, so the ring
        # order (via equal load) decides, deterministically.
        coordinator.note_pod_read(
            first.name, 1, latency_s=0.4 * READ_LATENCY_BUCKET_S
        )
        coordinator.note_pod_read(
            second.name, 1, latency_s=0.1 * READ_LATENCY_BUCKET_S
        )
        assert coordinator.read_replicas(pl_id)[0] is first

    def test_l1_hits_charge_no_pod(self):
        """A pass the L1 answers whole sends no lookup, so no pod's
        read load moves: the load counts only lookups a pod served."""
        cluster, queries = _cluster(replication_factor=2)
        searcher = cluster.searcher("owner0", l1_entries=NUM_LISTS)
        for terms in queries:
            searcher.search(terms, top_k=10, fetch_snippets=False)

        def read_load():
            view = SampleView(cluster.metrics.samples())
            return view.by_label("zerber_pod_read_load", "pod")

        before = read_load()
        assert sum(before.values()) > 0
        l1_hits = 0
        for terms in queries:
            searcher.search(terms, top_k=10, fetch_snippets=False)
            diag = searcher.last_cluster_diagnostics
            assert diag.lookup_messages == 0
            l1_hits += diag.l1_hits
        assert l1_hits > 0
        assert read_load() == before

    def test_a_stalled_pod_is_charged_its_own_stall(self):
        """R=2 over async-socket, every answer of pod0's seats held back
        server-side (the socket server's fault seam). A pipelined round
        asking both pods charges pod0 its stall and pod1 only its own
        answers, so the ranking turns to pod1. Charging every pod the
        round's wall time (pod1 would then carry pod0's stall) or ~0
        (the post-processing alone) fails here."""
        documents = make_documents()
        vocabulary = sorted({t for d in documents for t in d.term_counts})
        cluster = make_cluster(
            documents, replication_factor=2, transport="async-socket"
        )
        with cluster:
            coordinator = cluster.coordinator
            stalled, healthy = coordinator.pods
            plan = FaultPlan(
                seed=0xC41,
                latency_rate=1.0,
                latency_s=0.05,
                endpoints=[slot.server_id for slot in stalled.slots],
            )
            cluster.socket_server._fault_plan = plan
            searcher = cluster.searcher("owner0", use_cache=False)
            searcher.search(vocabulary, fetch_snippets=False)
            assert searcher.last_cluster_diagnostics.pods_contacted == 2
            for _ in range(4):
                searcher.search(vocabulary[:6], fetch_snippets=False)
            assert plan.injected["latency"] > 0
            latency = coordinator.pod_read_latency
            assert (
                latency[stalled.name]
                >= latency[healthy.name] + READ_LATENCY_BUCKET_S
            )
            # Per list, pod1 never waited anything like pod0's stall.
            assert latency[healthy.name] < plan.latency_s / 8
            for pl_id in range(8):
                assert coordinator.read_replicas(pl_id)[0] is healthy


def test_response_bytes_match_in_process_and_over_the_socket():
    """``SearchDiagnostics.response_bytes`` counts every lookup's
    response on every transport: the same queries at the same seed read
    the same bytes in process as over async-socket."""
    documents = make_documents(num_docs=16, seed=11)
    vocabulary = sorted({t for d in documents for t in d.term_counts})
    rng = random.Random(5)
    queries = [rng.sample(vocabulary, rng.randint(1, 4)) for _ in range(8)]
    observed = {}
    for transport in ("in-process", "async-socket"):
        with make_cluster(documents, transport=transport) as cluster:
            searcher = cluster.searcher("owner0", use_cache=False)
            observed[transport] = []
            for terms in queries:
                hits = searcher.search(terms, fetch_snippets=False)
                observed[transport].append(
                    (hits, searcher.last_diagnostics.response_bytes)
                )
    assert observed["in-process"] == observed["async-socket"]
    assert all(size > 0 for _hits, size in observed["in-process"])
