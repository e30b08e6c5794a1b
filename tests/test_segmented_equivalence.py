"""Segmented-storage equivalence gate (the ISSUE 5 acceptance contract).

The standing invariant — the cluster answers byte-identical to the
paper's single fleet — must be completely indifferent to the storage
engine underneath: the same seeded worlds as the cluster equivalence
suite run here with a ``wal_dir`` (every seat persisting to a binary
segment + snapshot directory), through the full failure drills:
seats killed and **restarted from snapshot + segment-suffix recovery**,
whole pods dead at replication_factor=2, compactions forced mid-
workload, and one world crossing loopback TCP. ``scripts/ci.sh`` runs
this file as its own gate.
"""

from __future__ import annotations

import random

import pytest

from test_cluster_equivalence import K, N, build_twins, make_world

# Disk traffic per world is ~n x pods x fsyncs, so the gate trades
# corpus count for full-drill coverage, like the socket gate does.
SEEDS = (201, 207, 213, 219)


def _storage_kwargs(tmp_path, **extra):
    return dict(wal_dir=tmp_path / "stores", **extra)


@pytest.mark.parametrize("seed", SEEDS)
def test_segmented_cluster_equals_single_fleet_healthy(seed, tmp_path):
    world = make_world(seed)
    single, cluster = build_twins(
        world, seed, **_storage_kwargs(tmp_path)
    )
    with cluster:
        for terms in world[3]:
            expected = single.search("the-user", terms, top_k=5)
            assert cluster.search("the-user", terms, top_k=5) == expected


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_segmented_seat_kill_restart_recovers_from_snapshot(
    seed, tmp_path
):
    """Seats die and restart from their segmented stores mid-workload —
    with a compaction forced between the writes and the crash, so the
    recovery path is genuinely snapshot + suffix, not a full replay."""
    world = make_world(seed)
    single, cluster = build_twins(
        world, seed, **_storage_kwargs(tmp_path)
    )
    with cluster:
        rng = random.Random(seed * 31)
        victims = [
            (pod.index, rng.randrange(N)) for pod in cluster.pods
        ]
        # Force a compaction on every victim seat before it dies: the
        # restart below must load the snapshot and replay the suffix.
        for pod_index, slot_index in victims:
            slot = cluster.pods[pod_index].slots[slot_index]
            slot.log.compact()
            assert slot.log.status()["snapshot"] is not None
        for pod_index, slot_index in victims:
            cluster.kill_server(pod_index, slot_index)
        for terms in world[3]:
            searcher = cluster.searcher("the-user", use_cache=False)
            assert (
                searcher.search(terms, top_k=5, fetch_snippets=False)
                == single.searcher("the-user").search(
                    terms, top_k=5, fetch_snippets=False
                )
            )
        for pod_index, slot_index in victims:
            before = cluster.pods[pod_index].slots[slot_index].server
            restarted = cluster.restart_server(pod_index, slot_index)
            assert restarted is not before  # a crash, not a pause
        for terms in world[3]:
            searcher = cluster.searcher("the-user", use_cache=False)
            assert (
                searcher.search(terms, top_k=5, fetch_snippets=False)
                == single.searcher("the-user").search(
                    terms, top_k=5, fetch_snippets=False
                )
            )


@pytest.mark.parametrize("seed", SEEDS[1:3])
def test_segmented_whole_pod_dead_and_restarted(seed, tmp_path):
    """replication_factor=2 with segmented stores: kill a pod, verify,
    restart every seat from its store, re-provision, verify again."""
    world = make_world(seed)
    documents = world[0]
    half = len(documents) // 2
    single, cluster = build_twins(
        world,
        seed,
        index_through=half,
        replication_factor=2,
        **_storage_kwargs(tmp_path),
    )
    with cluster:
        victim = random.Random(seed * 13).randrange(len(cluster.pods))
        cluster.kill_pod(victim)
        for document in documents[half:]:
            cluster.share_document(f"owner{document.group_id}", document)
        cluster.flush_all()

        def assert_identical():
            for terms in world[3]:
                searcher = cluster.searcher("the-user", use_cache=False)
                assert (
                    searcher.search(terms, top_k=5, fetch_snippets=False)
                    == single.searcher("the-user").search(
                        terms, top_k=5, fetch_snippets=False
                    )
                )

        assert_identical()  # pod dead
        cluster.restart_pod(victim)
        assert_identical()  # pod back but stale
        cluster.reprovision_dropped_writes()
        assert cluster.coordinator.ledger.outstanding == 0
        assert_identical()  # repaired


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_segmented_over_loopback_tcp(seed, tmp_path):
    """One world through both redesign seams at once: segmented seat
    stores under the async-socket transport, with n - k seats dead per
    pod."""
    world = make_world(seed)
    single, cluster = build_twins(
        world, seed, **_storage_kwargs(tmp_path, transport="async-socket")
    )
    with cluster:
        rng = random.Random(seed * 31)
        for pod in cluster.pods:
            for slot_index in rng.sample(range(N), N - K):
                cluster.kill_server(pod.index, slot_index)
        for terms in world[3]:
            searcher = cluster.searcher("the-user", use_cache=False)
            assert (
                searcher.search(terms, top_k=5, fetch_snippets=False)
                == single.searcher("the-user").search(
                    terms, top_k=5, fetch_snippets=False
                )
            )


def test_segmented_restart_preserves_deletes(tmp_path):
    """A deleted document must stay deleted through snapshot recovery
    (the tombstone-equivalent path: deletes live in the suffix)."""
    seed = SEEDS[0]
    world = make_world(seed)
    documents = world[0]
    single, cluster = build_twins(
        world, seed, **_storage_kwargs(tmp_path)
    )
    with cluster:
        target = documents[0]
        term = sorted(target.term_counts)[0]
        owner = cluster.owner(f"owner{target.group_id}")
        owner.delete_document(target.doc_id)
        for pod in cluster.pods:
            slot = pod.slots[0]
            slot.log.compact()
            cluster.kill_server(pod.index, 0)
            cluster.restart_server(pod.index, 0)
        searcher = cluster.searcher(
            f"owner{target.group_id}", use_cache=False
        )
        hits = searcher.search([term], top_k=20, fetch_snippets=False)
        assert all(hit.doc_id != target.doc_id for hit in hits)
