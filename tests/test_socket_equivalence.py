"""Socket-transport equivalence gate (loopback TCP).

The standing invariant — the cluster answers byte-identical to the
paper's single fleet — must hold when every lookup, insert, and
failover fetch crosses a real TCP socket as correlated protocol frames
(``AsyncSocketServer``, packed encodings) instead of a function call.
Same seeded worlds as the cluster equivalence suite, same drills:
healthy, n−k seats dead per pod, a whole pod dead at
replication_factor=2, and servers killed/restarted between queries
mid-run. ``scripts/ci.sh`` runs this file as its own gate.
"""

from __future__ import annotations

import random

import pytest

from helpers import K, N, build_twins, make_world

# A subset of the equivalence seeds: every query crosses TCP dozens of
# times, so the socket gate trades corpus count for real-frame coverage.
SOCKET_SEEDS = (101, 107, 113, 119)

#: The real-TCP backend every drill runs over.
TRANSPORTS = ("async-socket",)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("seed", SOCKET_SEEDS)
def test_socket_cluster_equals_single_fleet_healthy(seed, transport):
    world = make_world(seed)
    single, cluster = build_twins(world, seed, transport=transport)
    with cluster:
        for terms in world[3]:
            expected = single.search("the-user", terms, top_k=5)
            assert cluster.search("the-user", terms, top_k=5) == expected


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("seed", SOCKET_SEEDS[:2])
def test_socket_cluster_equals_single_fleet_with_nk_seats_dead(
    seed, transport
):
    """Up to n − k seats dead in every pod; TCP answers must not move."""
    world = make_world(seed)
    single, cluster = build_twins(world, seed, transport=transport)
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
            assert searcher.last_cluster_diagnostics.failovers >= 0


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("seed", SOCKET_SEEDS[1:3])
def test_socket_cluster_equals_single_fleet_whole_pod_dead(seed, transport):
    """replication_factor=2 over TCP: kill an entire pod mid-life."""
    world = make_world(seed)
    single, cluster = build_twins(
        world, seed, replication_factor=2, transport=transport
    )
    with cluster:
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


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_socket_writes_survive_pod_death_and_repair(transport):
    """The kill-pod CLI drill's core loop, but across real sockets:
    write with a pod dead, restart it stale, re-provision, verify."""
    seed = SOCKET_SEEDS[0]
    world = make_world(seed)
    documents = world[0]
    half = len(documents) // 2
    single, cluster = build_twins(
        world, seed, index_through=half, replication_factor=2,
        transport=transport,
    )
    with cluster:
        victim = random.Random(seed * 19).randrange(len(cluster.pods))
        cluster.kill_pod(victim)
        for document in documents[half:]:
            cluster.share_document(f"owner{document.group_id}", document)
        cluster.flush_all()
        cluster.restart_pod(victim)
        cluster.reprovision_dropped_writes()
        assert cluster.coordinator.outstanding_write_routes == 0
        for terms in world[3]:
            searcher = cluster.searcher("the-user", use_cache=False)
            assert (
                searcher.search(terms, top_k=5, fetch_snippets=False)
                == single.searcher("the-user").search(
                    terms, top_k=5, fetch_snippets=False
                )
            )


@pytest.mark.parametrize("transport", ("in-process", "async-socket"))
def test_mid_query_server_restarts_keep_answers_identical(transport):
    """Kill and restart servers *between queries* on a live cluster:
    every backend must keep answering byte-identically to the single
    fleet throughout — before, with a seat down, and after its
    restart."""
    seed = SOCKET_SEEDS[2]
    world = make_world(seed)
    single, cluster = build_twins(world, seed, transport=transport)
    queries = world[3]
    with cluster:
        rng = random.Random(seed * 7)
        for round_index in range(3):
            pod = rng.randrange(len(cluster.pods))
            slot = rng.randrange(N)
            cluster.kill_server(pod, slot)
            for terms in queries:
                searcher = cluster.searcher("the-user", use_cache=False)
                assert (
                    searcher.search(terms, top_k=5, fetch_snippets=False)
                    == single.searcher("the-user").search(
                        terms, top_k=5, fetch_snippets=False
                    )
                ), (transport, round_index, terms, "seat down")
            cluster.restart_server(pod, slot)
            for terms in queries:
                searcher = cluster.searcher("the-user", use_cache=False)
                assert (
                    searcher.search(terms, top_k=5, fetch_snippets=False)
                    == single.searcher("the-user").search(
                        terms, top_k=5, fetch_snippets=False
                    )
                ), (transport, round_index, terms, "seat restarted")
