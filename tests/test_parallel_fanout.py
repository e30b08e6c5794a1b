"""Pipelined fetch rounds and latency-aware replica choice.

A fetch round puts every pod's first-choice seat lookups on the wire
together (``Transport.call_many``), so its lookups run in parallel;
``batch_lookups=False`` is the sequential per-list path that sends one
message per list, one at a time. The two must answer byte-identically,
with the same diagnostics counts (bar the message count the per-list
path multiplies by design) and the same response bytes on the network
ledger. The EWMA replica ranking must prefer measurably faster pods,
fall back to load counters on ties, charge cache hits to the pod whose
fetch produced the entry, and time each pod of a round on its own.
"""

from __future__ import annotations

import random
import threading

from helpers import make_cluster, make_documents
from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.cluster.coordinator import READ_LATENCY_BUCKET_S
from repro.core.mapping_table import MappingTable
from repro.corpus.document import Document
from repro.resilience.faults import FaultPlan, FaultyTransport
from repro.server.transport import SimulatedNetwork


NUM_LISTS = 24


def _cluster(num_pods=3, replication_factor=2, seed=47, use_network=True):
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(60)]
    cluster = ClusterDeployment(
        MappingTable({}, num_lists=NUM_LISTS),
        num_pods=num_pods,
        k=2,
        n=3,
        use_network=use_network,
        batch_policy=BatchPolicy(min_documents=1),
        replication_factor=replication_factor,
        seed=seed,
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
    """Diagnostics both paths must agree on: all but the message count,
    which the per-list path multiplies by design."""
    d = searcher.last_cluster_diagnostics
    return {
        "pods_contacted": d.pods_contacted,
        "l1_hits": d.l1_hits,
        "failovers": d.failovers,
        "escalations": d.escalations,
        "pod_failovers": d.pod_failovers,
    }


def _response_bytes(cluster):
    """Ledger bytes the seats sent back."""
    return sum(
        size
        for (src, _dst), size in cluster.network.stats.bytes_by_link.items()
        if "-server-" in src
    )


class TestParallelFanoutEquivalence:
    def test_parallel_matches_sequential_byte_for_byte(self):
        """Same answers, same counts, same response bytes on the wire —
        pipelining changes when lookups leave, never what they carry.
        R=1 pins every list to one pod so replica choice cannot diverge
        between the runs, and one message goes to each of the k
        first-choice seats of every contacted pod."""
        pipelined_cluster, queries = _cluster(replication_factor=1)
        per_list_cluster, _ = _cluster(replication_factor=1)
        pipelined = pipelined_cluster.searcher("owner0", use_cache=False)
        per_list = per_list_cluster.searcher(
            "owner0", use_cache=False, batch_lookups=False
        )
        saw_multi_pod_round = False
        for terms in queries:
            assert pipelined.search(
                terms, top_k=10, fetch_snippets=False
            ) == per_list.search(terms, top_k=10, fetch_snippets=False)
            assert _shared_counts(pipelined) == _shared_counts(per_list)
            assert (
                pipelined.last_diagnostics.response_bytes
                == per_list.last_diagnostics.response_bytes
            )
            diag = pipelined.last_cluster_diagnostics
            assert diag.lookup_messages == 2 * diag.pods_contacted
            saw_multi_pod_round |= diag.pods_contacted > 1
        # The test only proves something if multi-pod rounds happened.
        assert saw_multi_pod_round
        assert _response_bytes(pipelined_cluster) == _response_bytes(
            per_list_cluster
        )

    def test_parallel_replicated_with_pod_dead_stays_identical(self):
        """R=2 with a whole pod dead: the pipelined ladder still answers
        byte-identically to a healthy per-list cluster."""
        healthy_cluster, queries = _cluster(replication_factor=2)
        degraded_cluster, _ = _cluster(replication_factor=2)
        degraded_cluster.kill_pod(0)
        healthy = healthy_cluster.searcher(
            "owner0", use_cache=False, batch_lookups=False
        )
        degraded = degraded_cluster.searcher("owner0", use_cache=False)
        for terms in queries:
            assert degraded.search(
                terms, top_k=10, fetch_snippets=False
            ) == healthy.search(terms, top_k=10, fetch_snippets=False)

    def test_parallel_cache_hits_match_sequential(self):
        pipelined_cluster, queries = _cluster(replication_factor=1)
        per_list_cluster, _ = _cluster(replication_factor=1)
        pipelined = pipelined_cluster.searcher("owner0", l1_entries=NUM_LISTS)
        per_list = per_list_cluster.searcher(
            "owner0", batch_lookups=False, l1_entries=NUM_LISTS
        )
        for _warm in range(2):
            for terms in queries:
                assert pipelined.search(
                    terms, top_k=10, fetch_snippets=False
                ) == per_list.search(terms, top_k=10, fetch_snippets=False)
                assert _shared_counts(pipelined) == _shared_counts(per_list)
        assert pipelined.last_cluster_diagnostics.l1_hits > 0


class TestNetworkLedger:
    def test_network_ledger_is_race_safe(self):
        """Hammer one SimulatedNetwork from many threads (hedged legs
        share it); the byte/message ledger must not lose an increment."""
        net = SimulatedNetwork()
        net.register("sink", lambda kind, message: message)
        calls_per_thread, num_threads = 50, 8

        def blast(thread_id):
            for i in range(calls_per_thread):
                net.call(
                    src=f"t{thread_id}",
                    dst="sink",
                    kind="lookup",
                    message=i,
                    request_bytes=10,
                    response_bytes_of=lambda _r: 7,
                )

        threads = [
            threading.Thread(target=blast, args=(t,))
            for t in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total_messages = num_threads * calls_per_thread
        assert net.stats.messages_by_kind["lookup"] == total_messages
        assert net.stats.bytes_by_kind["lookup"] == total_messages * 17


class TestLatencyAwareReplicaChoice:
    def test_ewma_prefers_measurably_faster_pod(self):
        cluster, _queries = _cluster(replication_factor=2, use_network=False)
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
        cluster, _queries = _cluster(replication_factor=2, use_network=False)
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

    def test_cache_hits_charge_the_origin_pod(self):
        cluster, _queries = _cluster(replication_factor=2, use_network=False)
        coordinator = cluster.coordinator
        pl_id = 5
        first, second = coordinator.pods_of(pl_id)
        coordinator.note_pod_read(first.name, 1, pl_ids=[pl_id])
        coordinator.note_pod_read(second.name, 1)
        # Tied on load (1 each) and latency (none): ring order wins.
        assert coordinator.read_replicas(pl_id)[0] is first
        # L1 / L2 hits served from first's fetch count as its traffic.
        for _ in range(3):
            coordinator.note_cache_read(pl_id)
        assert coordinator.pod_cache_reads[first.name] == 3
        assert coordinator.read_replicas(pl_id)[0] is second

    def test_end_to_end_cache_hits_feed_accounting(self):
        cluster, queries = _cluster(replication_factor=2)
        searcher = cluster.searcher("owner0", l1_entries=NUM_LISTS)
        for _warm in range(2):
            for terms in queries:
                searcher.search(terms, top_k=10, fetch_snippets=False)
        assert searcher.last_cluster_diagnostics.l1_hits > 0
        assert sum(cluster.coordinator.pod_cache_reads.values()) > 0

    def test_a_stalled_pod_is_charged_its_own_stall(self):
        """R=2 over async-socket, every lookup to pod0's seats delayed
        client-side. A round asking both pods charges pod0 its stall and
        pod1 only its own answers, so the ranking turns to pod1.
        Charging every pod the round's wall time (pod1 would then carry
        pod0's stall) or ~0 (the post-processing alone) fails here."""
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
            searcher = cluster.searcher(
                "owner0",
                use_cache=False,
                transport=FaultyTransport(cluster.transport, plan),
            )
            searcher.search(vocabulary, fetch_snippets=False)
            assert searcher.last_cluster_diagnostics.pods_contacted == 2
            for _ in range(4):
                searcher.search(vocabulary[:6], fetch_snippets=False)
            latency = coordinator.pod_read_latency
            assert (
                latency[stalled.name]
                >= latency[healthy.name] + READ_LATENCY_BUCKET_S
            )
            # Per list, pod1 never waited anything like pod0's stall.
            assert latency[healthy.name] < plan.latency_s / 8
            for pl_id in range(8):
                assert coordinator.read_replicas(pl_id)[0] is healthy
