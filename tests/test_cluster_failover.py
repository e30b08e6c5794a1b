"""Failure drills for the sharded cluster: kills, failover, escalation.

Covers the operational properties the equivalence suite assumes: a pod
answers with any k live servers, degrades loudly below k, counts the
writes its dead seats miss, recovers via restart, and sends one lookup
message per contacted seat, however many lists the query needs there.
With ``replication_factor >= 2`` the same drills extend to whole pods:
kill-pod/restart-pod lifecycle, per-replica dropped-write accounting,
replica read failover, and owner-side re-provisioning of the writes a
dead seat missed.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    lookups_logged,
    make_cluster,
    make_documents,
    make_single_fleet,
)
from repro.client.batching import BatchPolicy
from repro.cluster.clients import ClusterSearchClient
from repro.core.mapping_table import MappingTable
from repro.core.zerber_index import ZerberDeployment
from repro.corpus.document import Document
from repro.errors import (
    AccessDeniedError,
    ClusterDegradedError,
    ClusterError,
    TransportError,
)
from repro.resilience.faults import FaultPlan, FaultyTransport
from repro.server.index_server import PostingListResponse


class TestKillRestartLifecycle:
    def test_kill_and_restart_bookkeeping(self):
        cluster = make_cluster(make_documents())
        downed = cluster.kill_server(0, 1)
        assert downed == "pod0-server-1"
        assert downed in cluster.coordinator.dead_servers()
        with pytest.raises(ClusterError):
            cluster.kill_server(0, 1)  # already down
        cluster.restart_server(0, 1)
        assert not cluster.coordinator.dead_servers()
        with pytest.raises(ClusterError):
            cluster.restart_server(0, 1)  # not down

    def test_unknown_pod_or_slot_rejected(self):
        cluster = make_cluster(make_documents())
        with pytest.raises(ClusterError):
            cluster.kill_server(9, 0)
        with pytest.raises(ClusterError):
            cluster.kill_server(0, 9)

    def test_restart_without_wal_keeps_memory(self):
        """No WAL -> the seat kept its in-memory store (a partition)."""
        cluster = make_cluster(make_documents())
        before = cluster.pods[0].slots[2].server.num_elements
        cluster.kill_server(0, 2)
        server = cluster.restart_server(0, 2)
        assert server.num_elements == before


class TestDegradation:
    def test_pod_below_k_refuses_lookups(self):
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=1, k=2, n=3)
        cluster.kill_server(0, 0)
        cluster.kill_server(0, 1)  # 1 live < k=2
        searcher = cluster.searcher("owner0", use_cache=False)
        with pytest.raises(ClusterDegradedError):
            searcher.search(
                sorted(documents[0].term_counts)[:1],
                fetch_snippets=False,
            )

    def test_pod_below_k_refuses_writes(self):
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=1, k=2, n=3)
        cluster.kill_server(0, 0)
        cluster.kill_server(0, 1)
        with pytest.raises(ClusterDegradedError):
            cluster.share_document("owner0", make_documents(seed=9)[0])
            cluster.flush_all()

    def test_dead_seats_drop_writes_and_count_them(self):
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=1, k=2, n=3)
        cluster.kill_server(0, 1)
        assert cluster.coordinator.dropped_write_routes == 0
        extra = Document(
            doc_id=500,
            host="host0",
            group_id=0,
            term_counts={"w1": 2, "w2": 1},
            length=3,
        )
        cluster.share_document("owner0", extra)
        cluster.flush_all()
        # One skipped route per distinct list routed while the seat was
        # down (the two terms land in two lists here).
        assert cluster.coordinator.dropped_write_routes == 2
        # The dead server holds nothing new; its peers do.
        dead = cluster.pods[0].slots[1].server
        live = cluster.pods[0].slots[0].server
        assert live.num_elements == dead.num_elements + 2


class TestFailoverAndEscalation:
    def test_failover_over_dead_servers(self):
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=2, k=2, n=4)
        terms = sorted(documents[0].term_counts)[:2]
        healthy = cluster.searcher("owner0", use_cache=False)
        expected = healthy.search(terms, top_k=5, fetch_snippets=False)
        for pod in cluster.pods:
            cluster.kill_server(pod.index, 0)
            cluster.kill_server(pod.index, 1)  # n - k = 2 per pod
        degraded = cluster.searcher("owner0", use_cache=False)
        assert degraded.search(
            terms, top_k=5, fetch_snippets=False
        ) == expected
        assert degraded.last_cluster_diagnostics.failovers >= 2

    def test_stale_restarted_server_is_routed_around(self):
        """A seat that missed writes is never asked about those lists.

        The staleness ledger knows exactly which seats slept through
        which lists, so the fetch excludes them up front — the late
        document comes back whole from the complete peers, with no
        escalation round needed.
        """
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=1, k=2, n=3)
        single = ZerberDeployment(
            MappingTable({}, num_lists=8),
            k=2,
            n=3,
            batch_policy=BatchPolicy(min_documents=1),
            seed=77,
        )
        single.create_group(0, coordinator="owner0")
        single.create_group(1, coordinator="owner1")
        for document in documents:
            single.share_document(f"owner{document.group_id}", document)
        late = Document(
            doc_id=600,
            host="host0",
            group_id=0,
            term_counts={"w0": 3, "w3": 1},
            length=4,
        )
        cluster.kill_server(0, 0)
        cluster.share_document("owner0", late)
        cluster.flush_all()
        single.share_document("owner0", late)
        single.flush_all()
        cluster.restart_server(0, 0)  # stale: missed `late`'s elements
        searcher = cluster.searcher("owner0", use_cache=False)
        results = searcher.search(["w0", "w3"], top_k=10,
                                  fetch_snippets=False)
        expected = single.searcher("owner0").search(
            ["w0", "w3"], top_k=10, fetch_snippets=False
        )
        assert results == expected
        assert any(hit.doc_id == 600 for hit in results)
        assert searcher.last_cluster_diagnostics.escalations == 0
        # Re-provisioning clears the ledger; the seat serves again.
        assert cluster.reprovision_dropped_writes() > 0
        searcher = cluster.searcher("owner0", use_cache=False)
        assert searcher.search(["w0", "w3"], top_k=10,
                               fetch_snippets=False) == expected

    def test_untracked_share_loss_triggers_escalation(self):
        """Share loss the ledger cannot see (disk rot) still self-heals.

        One seat silently loses a posting list — no kill, no dropped
        route, nothing ledgered. Its short answer leaves elements below
        k shares; the shortfall escalation must top them up from the
        remaining live seats instead of dropping the elements.
        """
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=1, k=2, n=3)
        term = sorted(documents[0].term_counts)[0]
        pl_id = cluster.mapping_table.lookup(term)
        healthy = cluster.searcher("owner0", use_cache=False).search(
            [term], top_k=10, fetch_snippets=False
        )
        assert healthy
        lost = cluster.pods[0].slots[0].server.drop_posting_list(pl_id)
        assert lost  # the seat really held shares of the list
        searcher = cluster.searcher("owner0", use_cache=False)
        results = searcher.search([term], top_k=10, fetch_snippets=False)
        assert results == healthy
        assert searcher.last_cluster_diagnostics.escalations >= 1


class TestPodLifecycle:
    def test_kill_and_restart_pod_bookkeeping(self):
        cluster = make_cluster(make_documents(), num_pods=2,
                               replication_factor=2)
        downed = cluster.kill_pod(0)
        assert downed == [f"pod0-server-{i}" for i in range(4)]
        assert set(downed) == set(cluster.coordinator.dead_servers())
        with pytest.raises(ClusterError):
            cluster.kill_pod(0)  # already fully down
        restarted = cluster.restart_pod(0)
        assert len(restarted) == 4
        assert not cluster.coordinator.dead_servers()
        with pytest.raises(ClusterError):
            cluster.restart_pod(0)  # nothing dead

    def test_kill_pod_finishes_a_partially_dead_pod(self):
        cluster = make_cluster(make_documents(), num_pods=2,
                               replication_factor=2)
        cluster.kill_server(1, 2)
        downed = cluster.kill_pod(1)
        assert "pod1-server-2" not in downed  # already down
        assert len(downed) == 3
        assert len(cluster.coordinator.dead_servers()) == 4

    def test_replication_factor_validated(self):
        for bad in (0, 3):
            with pytest.raises(ClusterError):
                make_cluster(make_documents(), num_pods=2,
                             replication_factor=bad)


class TestReplicaFailover:
    def test_whole_pod_loss_keeps_answers_identical(self):
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=2, replication_factor=2)
        terms = sorted(documents[0].term_counts)[:3]
        expected = cluster.searcher("owner0", use_cache=False).search(
            terms, top_k=5, fetch_snippets=False
        )
        for pod_index in (0, 1):
            cluster.kill_pod(pod_index)
            survivor = cluster.searcher("owner0", use_cache=False)
            assert survivor.search(
                terms, top_k=5, fetch_snippets=False
            ) == expected
            cluster.restart_pod(pod_index)

    def test_every_list_is_hosted_by_replication_factor_pods(self):
        cluster = make_cluster(make_documents(), num_pods=3, num_lists=12,
                               replication_factor=2)
        coordinator = cluster.coordinator
        for pl_id in range(12):
            replicas = coordinator.pods_of(pl_id)
            assert len(replicas) == 2
            assert len({pod.name for pod in replicas}) == 2
        shards = coordinator.shard_distribution(12)
        assert sum(shards.values()) == 12 * 2

    def test_replicas_store_identical_slot_aligned_shares(self):
        """Slot s of every replica pod holds byte-equal share records."""
        cluster = make_cluster(make_documents(), num_pods=2, num_lists=8,
                               replication_factor=2)
        for pl_id in range(8):
            pods = cluster.coordinator.pods_of(pl_id)
            for slot_index in range(cluster.scheme.n):
                exports = [
                    sorted(
                        pod.slots[slot_index].server.export_posting_list(
                            pl_id
                        ),
                        key=lambda record: record.element_id,
                    )
                    for pod in pods
                ]
                assert exports[0] == exports[1]

    def test_writes_with_a_dead_pod_count_per_replica(self):
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=2, replication_factor=2)
        cluster.kill_pod(1)
        extra = Document(
            doc_id=700,
            host="host0",
            group_id=0,
            term_counts={"w1": 2, "w2": 1},
            length=3,
        )
        cluster.share_document("owner0", extra)
        cluster.flush_all()
        coordinator = cluster.coordinator
        # The two terms land in two lists; the dead pod missed all
        # n = 4 seats of each -> 8 dropped routes, all charged to pod1.
        assert coordinator.dropped_write_routes == 8
        assert coordinator.dropped_write_routes_by_pod == {"pod1": 8}
        assert coordinator.outstanding_write_routes == 8

    def test_stale_replica_never_resurrects_deleted_documents(self):
        """A missed delete must not come back — degrade loudly instead.

        pod0 sleeps through a delete and restarts with the shares still
        in memory; then the complete replica drops below k. The stale
        seats are excluded per list, so the cluster refuses the query
        rather than serving the deleted document from stale shares.
        """
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=2, replication_factor=2)
        target = documents[0]
        term = sorted(target.term_counts)[0]
        cluster.kill_pod(0)
        cluster.owner(f"owner{target.group_id}").delete_document(
            target.doc_id
        )
        cluster.restart_pod(0)  # no WAL: memory kept, delete missed
        searcher = cluster.searcher("owner0", use_cache=False)
        results = searcher.search([term], top_k=10, fetch_snippets=False)
        assert all(hit.doc_id != target.doc_id for hit in results)
        # The complete replica degrades below k: stale shares must not
        # quietly stand in for it.
        for slot_index in range(3):  # 1 live < k=2 remains in pod1
            cluster.kill_server(1, slot_index)
        fresh = cluster.searcher("owner0", use_cache=False)
        with pytest.raises(ClusterDegradedError):
            fresh.search([term], top_k=10, fetch_snippets=False)
        # Repair heals everything: restart + re-provision, all seats
        # trusted again, the deleted document stays gone.
        for slot_index in range(3):
            cluster.restart_server(1, slot_index)
        assert cluster.reprovision_dropped_writes() > 0
        healed = cluster.searcher("owner0", use_cache=False)
        assert healed.search(
            [term], top_k=10, fetch_snippets=False
        ) == results

    def test_stale_replica_is_not_preferred_after_restart(self):
        """A pod that slept through writes must not serve them short.

        There is no share-shortfall signal for an element a whole pod
        never saw, so the staleness ledger has to steer reads to the
        complete replica until owners re-provision.
        """
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=2, replication_factor=2)
        terms = sorted(documents[0].term_counts)[:2]
        late = Document(
            doc_id=800,
            host="host0",
            group_id=0,
            term_counts={terms[0]: 3},
            length=3,
        )
        cluster.kill_pod(0)
        cluster.share_document("owner0", late)
        cluster.flush_all()
        cluster.restart_pod(0)  # stale: missed `late` entirely
        for _ in range(6):  # repeat queries; load must not flip reads
            searcher = cluster.searcher("owner0", use_cache=False)
            results = searcher.search(terms, top_k=10,
                                      fetch_snippets=False)
            assert any(hit.doc_id == 800 for hit in results)


def _share_counts(slot_map):
    """Shares per element, as the slot map holds them."""
    return Counter(
        chain.from_iterable(r.element_ids for r in slot_map.values())
    )


def _tally_merge(slot_map, share_counts, slot_index, response):
    """The per-element tally ``_merge_response`` kept before the
    shortfall was derived from the slot map: the reference decision."""
    existing = slot_map.get(slot_index)
    if existing is None:
        slot_map[slot_index] = response
        extra_ids = response.element_ids
    else:
        known = set(existing.element_ids)
        extra = [row for row in zip(*response.columns) if row[0] not in known]
        if not extra:
            return
        extra_ids = [row[0] for row in extra]
        rows = sorted([*zip(*existing.columns), *extra])
        slot_map[slot_index] = PostingListResponse(
            existing.pl_id, *map(list, zip(*rows))
        )
    for element_id in extra_ids:
        share_counts[element_id] = share_counts.get(element_id, 0) + 1


class TestMergeResponse:
    """``_merge_response`` folds replica answers per slot on columns."""

    @staticmethod
    def _response(rows):
        return PostingListResponse(9, *map(list, zip(*rows))) if rows else (
            PostingListResponse(9, [], [], [])
        )

    def test_first_answer_is_kept_as_is_and_counted(self):
        slot_map = {}
        first = self._response([(30, 1, 300), (10, 1, 100)])
        ClusterSearchClient._merge_response(slot_map, 0, first)
        assert slot_map[0] is first  # arrival order, no copy
        assert _share_counts(slot_map) == {30: 1, 10: 1}

    def test_union_fills_gaps_sorted_by_element_id(self):
        slot_map = {}
        short = self._response([(30, 1, 300), (10, 1, 100)])
        fuller = self._response(
            [(40, 2, 400), (10, 1, 100), (20, 2, 200), (30, 1, 300)]
        )
        ClusterSearchClient._merge_response(slot_map, 0, short)
        ClusterSearchClient._merge_response(slot_map, 0, fuller)
        merged = slot_map[0]
        assert merged.pl_id == 9
        assert merged.element_ids == [10, 20, 30, 40]
        assert merged.group_ids == [1, 2, 1, 2]
        assert merged.share_ys == [100, 200, 300, 400]
        # Only the gap-fillers count as new shares; the inputs are intact.
        assert _share_counts(slot_map) == {30: 1, 10: 1, 40: 1, 20: 1}
        assert short.element_ids == [30, 10] and len(fuller.records) == 4

    def test_a_replica_with_nothing_new_changes_nothing(self):
        slot_map = {}
        first = self._response([(30, 1, 300), (10, 1, 100)])
        ClusterSearchClient._merge_response(slot_map, 0, first)
        for again in (self._response([(10, 1, 100)]), self._response([])):
            ClusterSearchClient._merge_response(slot_map, 0, again)
        assert slot_map[0] is first
        assert _share_counts(slot_map) == {30: 1, 10: 1}
        # Another slot's share of the same elements counts separately.
        ClusterSearchClient._merge_response(slot_map, 1, first)
        assert _share_counts(slot_map) == {30: 2, 10: 2}

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        k=st.integers(min_value=1, max_value=4),
    )
    def test_shortfall_decisions_match_the_per_element_tally(self, seed, k):
        """Over random slot maps — aligned, missing, extra and permuted
        ids, replica gap-fills of a slot — the slot-map-derived
        shortfall decides exactly what the old per-element tally did,
        after every merge."""
        rng = random.Random(seed)
        universe = rng.sample(range(1, 60), rng.randint(0, 12))
        slot_map, tally_map, tally = {}, {}, {}
        for _ in range(rng.randint(1, 8)):
            ids = list(universe)
            shape = rng.choice(("aligned", "missing", "extra", "permuted"))
            if shape == "missing" and ids:
                ids = rng.sample(ids, rng.randint(0, len(ids)))
            elif shape == "extra":
                ids += rng.sample(range(60, 80), 2)  # ids no seat had
            elif shape == "permuted":
                rng.shuffle(ids)
            response = self._response([(i, 1, i * 7) for i in ids])
            slot = rng.randrange(6)  # a repeat slot is a replica gap-fill
            ClusterSearchClient._merge_response(slot_map, slot, response)
            _tally_merge(tally_map, tally, slot, response)
            assert slot_map == tally_map
            assert ClusterSearchClient._share_shortfall(slot_map, k) == (
                bool(tally) and min(tally.values()) < k
            )
            assert _share_counts(slot_map) == tally


class TestReprovisioning:
    def test_reprovision_after_stale_wal_restart(self, tmp_path):
        """The ROADMAP gap: a restarted seat gets its missed writes back."""
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=1, k=2, n=3,
                               wal_dir=tmp_path)
        cluster.kill_server(0, 1)
        extra = Document(
            doc_id=900,
            host="host0",
            group_id=0,
            term_counts={"w0": 2, "w5": 1},
            length=3,
        )
        cluster.share_document("owner0", extra)
        cluster.flush_all()
        assert cluster.coordinator.outstanding_write_routes == 2
        cluster.restart_server(0, 1)  # WAL replay misses `extra`
        stale = cluster.pods[0].slots[1].server
        peer = cluster.pods[0].slots[0].server
        assert stale.num_elements == peer.num_elements - 2
        redelivered = cluster.reprovision_dropped_writes()
        assert redelivered == 2
        assert cluster.coordinator.outstanding_write_routes == 0
        # The seat (a fresh object after the WAL restart) caught up...
        assert cluster.pods[0].slots[1].server.num_elements == (
            peer.num_elements
        )
        # ...and the repair went through the WAL wrapper, so a second
        # crash-restart keeps the re-provisioned elements too.
        cluster.kill_server(0, 1)
        cluster.restart_server(0, 1)
        assert cluster.pods[0].slots[1].server.num_elements == (
            peer.num_elements
        )
        # No escalation needed anymore: every seat answers in full.
        searcher = cluster.searcher("owner0", use_cache=False)
        searcher.search(["w0", "w5"], top_k=10, fetch_snippets=False)
        assert searcher.last_cluster_diagnostics.escalations == 0

    def test_reprovision_skips_seats_still_dead(self):
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=1, k=2, n=3)
        cluster.kill_server(0, 2)
        extra = Document(
            doc_id=901, host="host0", group_id=0,
            term_counts={"w1": 1}, length=1,
        )
        cluster.share_document("owner0", extra)
        cluster.flush_all()
        owner = cluster.owner("owner0")
        assert owner.undelivered_operations == 1
        assert cluster.reprovision_dropped_writes() == 0  # seat still dead
        assert owner.undelivered_operations == 1  # ledger kept
        cluster.restart_server(0, 2)
        assert cluster.reprovision_dropped_writes() == 1
        assert owner.undelivered_operations == 0

    def test_missed_delete_is_replayed_not_resurrected(self):
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=1, k=2, n=3)
        target = documents[0]
        elements = len(target.term_counts)
        cluster.kill_server(0, 0)
        cluster.owner(f"owner{target.group_id}").delete_document(
            target.doc_id
        )
        stale = cluster.pods[0].slots[0].server
        live = cluster.pods[0].slots[1].server
        assert stale.num_elements == live.num_elements + elements
        cluster.restart_server(0, 0)
        assert cluster.reprovision_dropped_writes() == elements
        assert stale.num_elements == live.num_elements

    def test_insert_then_delete_while_dead_cancels_out(self):
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=1, k=2, n=3)
        cluster.kill_server(0, 1)
        extra = Document(
            doc_id=902, host="host0", group_id=0,
            term_counts={"w2": 1, "w3": 1}, length=2,
        )
        cluster.share_document("owner0", extra)
        cluster.flush_all()
        cluster.owner("owner0").delete_document(902)
        cluster.restart_server(0, 1)
        # Both sides of the pair died in the ledger: nothing to deliver.
        assert cluster.reprovision_dropped_writes() == 0
        assert cluster.owner("owner0").undelivered_operations == 0
        stale = cluster.pods[0].slots[1].server
        live = cluster.pods[0].slots[0].server
        assert stale.num_elements == live.num_elements


def _failing_seat_owner(cluster, seat: str):
    """owner0, its transport failing the next call to ``seat`` once."""
    owner = cluster.owner("owner0")
    plan = FaultPlan(seed=3, reset_rate=1.0, endpoints={seat}, max_faults=1)
    owner._transport = FaultyTransport(cluster.transport, plan)
    return owner


def _assert_pods_agree_row_for_row(cluster, num_lists=8):
    for pod in cluster.pods:
        for pl_id in range(num_lists):
            rows = [
                [
                    (record.element_id, record.group_id)
                    for record in slot.server.export_posting_list(pl_id)
                ]
                for slot in pod.slots
            ]
            assert all(seat == rows[0] for seat in rows), (pod.name, pl_id)


class TestSeatFailingMidRound:
    """A seat that fails its message of a write round misses only that
    message: every other seat takes the round, and the miss is ledgered
    for re-provisioning like a dead seat's dropped route."""

    SEAT = "pod0-server-1"

    def test_failed_insert_is_ledgered_and_reprovisioned(self):
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=2, replication_factor=2)
        owner = _failing_seat_owner(cluster, self.SEAT)
        extra = Document(
            doc_id=910, host="host0", group_id=0,
            term_counts={"w1": 2, "w4": 1, "w9": 3}, length=6,
        )
        flushes = cluster.coordinator.metrics.histogram(
            "zerber_index_flush_seconds"
        )
        batches, timed = owner.batches_flushed, flushes.snapshot()[2]
        with pytest.raises(TransportError):
            owner.share_document(extra)
            owner.flush_updates()
        # The batch was released (every other seat took it): it is
        # counted and its round timed although the round raised.
        assert owner.batches_flushed == batches + 1
        assert flushes.snapshot()[2] == timed + 1
        lists = {cluster.mapping_table.lookup(t) for t in extra.term_counts}
        failed = cluster.pods[0].slot(1).server
        peer = cluster.pods[0].slot(0).server
        # Every other seat took the batch; the failed one owes it all.
        others = {
            slot.server.num_elements
            for pod in cluster.pods
            for slot in pod.slots
            if slot.server is not failed
        }
        assert others == {peer.num_elements}
        assert peer.num_elements == failed.num_elements + 3
        assert owner.undelivered_operations == 3
        coordinator = cluster.coordinator
        assert coordinator.outstanding_write_routes == len(lists)
        assert all(
            coordinator.incomplete_seats("pod0", pl_id) == {self.SEAT}
            for pl_id in lists
        )
        assert cluster.reprovision_dropped_writes() == 3
        assert coordinator.outstanding_write_routes == 0
        _assert_pods_agree_row_for_row(cluster)
        single = make_single_fleet([*documents, extra], k=2, n=4)
        for terms in (["w1", "w4"], ["w9"], ["w0", "w1", "w2"]):
            assert cluster.searcher("owner0", use_cache=False).search(
                terms, top_k=10, fetch_snippets=False
            ) == single.searcher("owner0").search(
                terms, top_k=10, fetch_snippets=False
            )

    def test_failed_delete_is_ledgered_and_reprovisioned(self):
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=2, replication_factor=2)
        owner = _failing_seat_owner(cluster, self.SEAT)
        target = documents[0]
        with pytest.raises(TransportError):
            owner.delete_document(target.doc_id)
        # The failed seat owes its deletes: the owner has withdrawn the
        # document either way.
        assert owner.document(target.doc_id) is None
        assert target.doc_id not in owner.shared_documents
        failed = cluster.pods[0].slot(1).server
        peer = cluster.pods[0].slot(0).server
        assert failed.num_elements == peer.num_elements + len(
            target.term_counts
        )
        assert cluster.reprovision_dropped_writes() == len(target.term_counts)
        _assert_pods_agree_row_for_row(cluster)
        single = make_single_fleet(documents[1:], k=2, n=4)
        terms = sorted(target.term_counts)
        assert cluster.searcher("owner0", use_cache=False).search(
            terms, top_k=10, fetch_snippets=False
        ) == single.searcher("owner0").search(
            terms, top_k=10, fetch_snippets=False
        )

    def test_a_refused_round_is_not_ledgered(self):
        """A refusal every seat makes alike (here: a non-member's ACL)
        is raised as it is and owes no seat anything."""
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=2, replication_factor=2)
        outsider = cluster.owner("owner1")
        stray = Document(
            doc_id=911, host="host1", group_id=0,
            term_counts={"w3": 1}, length=1,
        )
        before = cluster.coordinator.total_elements()
        with pytest.raises(AccessDeniedError):
            outsider.share_document(stray)
            outsider.flush_updates()
        assert outsider.undelivered_operations == 0
        assert cluster.coordinator.outstanding_write_routes == 0
        assert cluster.coordinator.total_elements() == before


class TestBatchedLookups:
    def test_batching_reduces_lookup_messages(self):
        """Acceptance: a query that needs several lists of one pod sends
        one lookup message to each of k seats, carrying every list —
        counted by the seats' own query logs."""
        documents = make_documents(num_docs=16, vocab_size=30)
        cluster = make_cluster(
            documents, num_pods=1, k=2, n=3, num_lists=16
        )
        # A query whose terms land in several merged lists of one pod.
        terms = sorted(
            {t for d in documents for t in d.term_counts}
        )[:6]
        before = lookups_logged(cluster)
        batched = cluster.searcher("owner0", use_cache=False)
        batched.search(terms, top_k=5, fetch_snippets=False)
        requested = batched.last_diagnostics.posting_lists_requested
        assert requested > 1
        assert lookups_logged(cluster) - before == 2  # k = 2 seats
        assert batched.last_cluster_diagnostics.lookup_messages == 2
        logs = [
            slot.server.compromise().query_log
            for slot in cluster.pods[0].slots
        ]
        assert sorted(len(log) for log in logs) == [0, 1, 1]
        assert all(
            len(pl_ids) == requested for log in logs for _u, pl_ids in log
        )

    def test_cache_hits_send_zero_messages(self):
        documents = make_documents()
        cluster = make_cluster(documents)
        terms = sorted(documents[0].term_counts)[:2]
        searcher = cluster.searcher("owner0", l1_entries=8)
        searcher.search(terms, top_k=5, fetch_snippets=False)
        before = lookups_logged(cluster)
        searcher.search(terms, top_k=5, fetch_snippets=False)
        assert lookups_logged(cluster) == before
        assert searcher.last_diagnostics.response_bytes == 0
        assert searcher.last_cluster_diagnostics.lookup_messages == 0
        assert searcher.last_cluster_diagnostics.l1_hits > 0
