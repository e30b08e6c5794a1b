"""Property suite: the sharded cluster is indistinguishable from one fleet.

The cluster layer (pods, consistent-hash sharding, batched lookups,
failover) is pure mechanism — it must never change an
answer. Over dozens of seeded random corpora, group structures and
queries, the cluster must return **byte-identical** ranked results to
the single fleet (the same shape at one pod) of the same k/n,
including while up to n - k servers per pod are dead, including when
servers die *mid-run* (so late writes miss them entirely).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import K, N, build_twins, kill_one_per_pod, make_world

SEEDS = range(100, 124)  # 24 corpora >= the required 20


@pytest.mark.parametrize("seed", SEEDS)
def test_cluster_equals_single_fleet_healthy_and_degraded(seed):
    world = make_world(seed)
    single, cluster = build_twins(world, seed)
    queries = world[3]
    for terms in queries:
        expected = single.search("the-user", terms, top_k=5)
        assert cluster.search("the-user", terms, top_k=5) == expected
    # Any one server per pod goes down: answers must not change, whether
    # served from the pre-kill cache or refetched with failover.
    kill_one_per_pod(cluster, random.Random(seed * 31))
    for terms in queries:
        expected = single.search("the-user", terms, top_k=5)
        assert cluster.search("the-user", terms, top_k=5) == expected
        fresh = cluster.searcher("the-user", use_cache=False)
        assert (
            fresh.search(terms, top_k=5, fetch_snippets=False)
            == single.searcher("the-user").search(
                terms, top_k=5, fetch_snippets=False
            )
        )


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_cluster_equals_single_fleet_with_max_failures_in_one_pod(seed):
    """A whole pod may lose n - k servers and still answer identically."""
    world = make_world(seed)
    single, cluster = build_twins(world, seed)
    for slot_index in range(N - K):
        cluster.kill_server(0, slot_index)
    for terms in world[3]:
        searcher = cluster.searcher("the-user", use_cache=False)
        assert (
            searcher.search(terms, top_k=5, fetch_snippets=False)
            == single.searcher("the-user").search(
                terms, top_k=5, fetch_snippets=False
            )
        )


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_cluster_equals_single_fleet_killed_mid_run(seed):
    """Servers die mid-workload; later inserts miss them; answers hold.

    Documents shared after the kill only reach the n - 1 live servers of
    their pod — still >= k shares, so every element reconstructs and the
    degraded cluster must keep matching the healthy single fleet.
    """
    world = make_world(seed)
    documents = world[0]
    half = len(documents) // 2
    single, cluster = build_twins(world, seed, index_through=half)
    kill_one_per_pod(cluster, random.Random(seed * 17))
    for document in documents[half:]:
        cluster.share_document(f"owner{document.group_id}", document)
    cluster.flush_all()
    for terms in world[3]:
        searcher = cluster.searcher("the-user", use_cache=False)
        assert (
            searcher.search(terms, top_k=5, fetch_snippets=False)
            == single.searcher("the-user").search(
                terms, top_k=5, fetch_snippets=False
            )
        )


@pytest.mark.parametrize("seed", SEEDS[::3])
def test_cluster_equals_single_fleet_whole_pod_dead(seed):
    """replication_factor=2: an entire pod dies, answers must not move.

    The acceptance invariant of the replication layer — pod loss is
    rebalance-free: surviving replicas hold identical slot-aligned
    shares, so every query stays byte-identical, cached or fresh.
    """
    world = make_world(seed)
    single, cluster = build_twins(world, seed, replication_factor=2)
    victim = random.Random(seed * 13).randrange(len(cluster.pods))
    cluster.kill_pod(victim)
    for terms in world[3]:
        expected = single.search("the-user", terms, top_k=5)
        assert cluster.search("the-user", terms, top_k=5) == expected
        fresh = cluster.searcher("the-user", use_cache=False)
        assert (
            fresh.search(terms, top_k=5, fetch_snippets=False)
            == single.searcher("the-user").search(
                terms, top_k=5, fetch_snippets=False
            )
        )


@pytest.mark.parametrize("seed", SEEDS[1::3])
def test_cluster_equals_single_fleet_pod_killed_mid_run(seed):
    """A pod dies mid-workload, misses writes, restarts stale, is repaired.

    Three checkpoints, all byte-identical to the single fleet:
    1. the pod is dead and late writes only reached its replica;
    2. the pod restarted but is stale — the staleness ledger must keep
       reads on the complete replica (a stale pod would silently omit
       the elements it never saw);
    3. owners re-provisioned the missed writes — any replica serves.
    """
    world = make_world(seed)
    documents = world[0]
    half = len(documents) // 2
    single, cluster = build_twins(
        world, seed, index_through=half, replication_factor=2
    )
    victim = random.Random(seed * 19).randrange(len(cluster.pods))
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

    assert_identical()  # 1. pod dead
    cluster.restart_pod(victim)
    assert_identical()  # 2. pod back but stale
    cluster.reprovision_dropped_writes()
    assert cluster.coordinator.ledger.outstanding == 0
    assert_identical()  # 3. repaired
    # After repair the other replica may die outright: the previously
    # stale pod must now carry every answer alone.
    survivors = [p.index for p in cluster.pods if p.index != victim]
    if len(cluster.pods) >= 2:
        other = random.Random(seed * 23).choice(survivors)
        cluster.kill_pod(other)
        assert_identical()


@pytest.mark.parametrize("seed", SEEDS[::4])
def test_cached_and_naive_paths_agree(seed):
    """An L1 fill, an L1 hit and an uncached fetch return the same bytes
    as the single fleet."""
    world = make_world(seed)
    single, cluster = build_twins(world, seed)
    for terms in world[3]:
        expected = single.searcher("the-user").search(
            terms, top_k=5, fetch_snippets=False
        )
        cached = cluster.searcher("the-user", l1_entries=world[4])
        first = cached.search(terms, top_k=5, fetch_snippets=False)
        second = cached.search(terms, top_k=5, fetch_snippets=False)
        assert cached.last_cluster_diagnostics.lookup_messages == 0
        uncached = cluster.searcher("the-user", use_cache=False).search(
            terms, top_k=5, fetch_snippets=False
        )
        assert first == expected
        assert second == expected
        assert uncached == expected


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    kill_seed=st.integers(min_value=0, max_value=2**10),
)
def test_property_cluster_equivalence(seed, kill_seed):
    """Hypothesis sweep over worlds x kill patterns (beyond the 24 seeds)."""
    world = make_world(seed)
    single, cluster = build_twins(world, seed)
    rng = random.Random(kill_seed)
    # A random legal kill pattern: up to n - k servers per pod.
    for pod in cluster.pods:
        for slot_index in rng.sample(range(N), rng.randint(0, N - K)):
            cluster.kill_server(pod.index, slot_index)
    for terms in world[3]:
        searcher = cluster.searcher("the-user", use_cache=False)
        assert (
            searcher.search(terms, top_k=5, fetch_snippets=False)
            == single.searcher("the-user").search(
                terms, top_k=5, fetch_snippets=False
            )
        )
