"""Fault-injection drill suite for the anti-entropy repair path.

The coordinator's repair sweep must converge the staleness ledger to
empty — and the cluster's answers to byte-identity with the paper's
single fleet — after every drill in the operator's nightmare file:

* the owner never returns (no re-provisioning; the sweep is the only
  cure),
* the elected source seat dies mid-ship,
* a snapshot frame tears in flight,
* owners keep writing while the sweep heals the same lists,
* an owner's re-provisioning races the sweep on the same ledger entry.

The in-process drills run in tier-1; the same drills over loopback TCP
carry the ``drill`` marker and run in the CI anti-entropy gate
(``scripts/ci.sh``).
"""

from __future__ import annotations

import threading
import time

import pytest

from helpers import make_cluster, make_documents, make_single_fleet, metric
from repro.corpus.document import Document
from repro.errors import (
    ClusterError,
    StorageError,
    TransportError,
)
from repro.protocol.async_transport import _parse_frames
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.messages import (
    AdoptSnapshotRequest,
    ShipSnapshotRequest,
    SnapshotResponse,
)
from repro.protocol.transport import frame_bytes


def make_extra(doc_id=900, terms=("w1", "w2", "w7")):
    counts = {t: 2 for t in terms}
    return Document(
        doc_id=doc_id,
        host="host0",
        group_id=0,
        term_counts=counts,
        length=sum(counts.values()),
        text=" ".join(sorted(counts)),
    )


def make_twins(documents, **cluster_kwargs):
    """A replicated 2-pod cluster and the single fleet over ``documents``."""
    cluster = make_cluster(
        documents, num_pods=2, replication_factor=2, k=2, n=4,
        **cluster_kwargs,
    )
    single = make_single_fleet(documents, k=2, n=4)
    return single, cluster


def assert_byte_identical(cluster, single, queries, context=""):
    for terms in queries:
        fresh = cluster.searcher("owner0", use_cache=False)
        assert (
            fresh.search(terms, top_k=10, fetch_snippets=False)
            == single.searcher("owner0").search(
                terms, top_k=10, fetch_snippets=False
            )
        ), (context, terms)


def drill_queries(documents):
    vocab = sorted({t for d in documents for t in d.term_counts})
    return [vocab[:3], vocab[3:6], ["w1", "w2", "w7"], ["never-indexed"]]


class FlakyTransport:
    """Proxy that fails the first ``fail_ships`` snapshot ships.

    ``mangle`` instead corrupts the shipped image's trailing CRC byte —
    the torn-frame-in-flight drill — so the *adopt* side rejects it.
    """

    def __init__(self, inner, fail_ships=0, mangle_ships=0):
        self.inner = inner
        self.fail_ships = fail_ships
        self.mangle_ships = mangle_ships

    def call(self, src, dst, request):
        if isinstance(request, ShipSnapshotRequest) and self.fail_ships > 0:
            self.fail_ships -= 1
            raise TransportError("source seat died mid-ship (drill)")
        response = self.inner.call(src=src, dst=dst, request=request)
        if isinstance(request, ShipSnapshotRequest) and self.mangle_ships > 0:
            self.mangle_ships -= 1
            torn = bytearray(response.snapshot)
            torn[-1] ^= 0xFF
            return SnapshotResponse(
                snapshot=bytes(torn), record_count=response.record_count
            )
        return response

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestNewMessageCodec:
    """The three snapshot-shipping messages survive the wire."""

    MESSAGES = (
        ShipSnapshotRequest(pl_ids=(0, 3, 17)),
        ShipSnapshotRequest(pl_ids=()),
        AdoptSnapshotRequest(pl_ids=(5,), snapshot=b"ZSNP-image-bytes"),
        AdoptSnapshotRequest(pl_ids=(1, 2), snapshot=b"\x00\xff" * 64),
        SnapshotResponse(snapshot=b"", record_count=0),
        SnapshotResponse(snapshot=bytes(range(256)), record_count=12345),
    )

    @pytest.mark.parametrize("framed", (False, True))
    @pytest.mark.parametrize(
        "message", MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_round_trip(self, message, framed):
        """Through the codec alone, and (``framed``) inside a correlated
        wire frame parsed back the way a socket reader does."""
        blob = encode_message(message)
        if framed:
            buffer = bytearray(frame_bytes(blob, 7))
            assert _parse_frames(buffer) == [(7, blob)]
            assert not buffer
        assert decode_message(blob) == message


class TestOwnerNeverReturnsDrill:
    """The founding drill: dropped writes heal with no owner involved."""

    def run_drill(self, **cluster_kwargs):
        documents = make_documents()
        single, cluster = make_twins(documents, **cluster_kwargs)
        with cluster:
            coordinator = cluster.coordinator
            extra = make_extra()
            cluster.kill_server(0, 1)
            cluster.share_document("owner0", extra)
            cluster.flush_all()
            single.share_document("owner0", extra)
            single.flush_all()
            dropped = coordinator.outstanding_write_routes
            assert dropped > 0
            cluster.restart_server(0, 1)
            # The owner never re-provisions: only the sweep runs.
            stats = cluster.repair_sweep()
            assert stats.healed_seats > 0
            assert stats.repaired_routes == dropped
            assert stats.shipped_bytes > 0
            assert coordinator.outstanding_write_routes == 0
            assert metric(cluster, "zerber_repair_pending_entries") == 0
            assert (
                metric(cluster, "zerber_repair_healed_seats")
                == stats.healed_seats
            )
            assert_byte_identical(
                cluster, single, drill_queries(documents + [extra]),
                context="after sweep-only repair",
            )
            # The healed seat answers alone: kill the source replica.
            cluster.kill_pod(1)
            assert_byte_identical(
                cluster, single, drill_queries(documents + [extra]),
                context="healed replica serving alone",
            )

    def test_in_process(self):
        self.run_drill()

    @pytest.mark.drill
    def test_over_the_wire(self):
        self.run_drill(transport="async-socket")

    def test_missed_delete_healed_by_sweep(self):
        """A stale seat that slept through a delete is *replaced*, not
        merged — the deleted document must not resurface."""
        documents = make_documents()
        single, cluster = make_twins(documents)
        target = documents[0]
        cluster.kill_server(0, 1)
        cluster.owner("owner0").delete_document(target.doc_id)
        single.owner("owner0").delete_document(target.doc_id)
        cluster.restart_server(0, 1)
        stats = cluster.repair_sweep()
        assert stats.healed_seats > 0
        assert cluster.coordinator.outstanding_write_routes == 0
        assert_byte_identical(
            cluster, single, drill_queries(documents),
            context="missed delete healed",
        )
        # The stale seat itself must have dropped the deleted elements.
        healed = cluster.pods[0].slots[1].server
        peer = cluster.pods[0].slots[0].server
        assert healed.num_elements == peer.num_elements

    def test_reprovision_cannot_resurrect_a_withdrawn_element(self):
        """Found by the convergence property test: a seat misses a
        write, restarts, and *then* the owner withdraws that document
        while the seat is live. The live delete no-ops on the seat (it
        never received the insert), so the owner's backlog replay must
        cancel the insert/delete pair — not adopt the withdrawn
        element back onto a seat every healthy replica forgot."""
        documents = make_documents()
        single, cluster = make_twins(documents)
        extra = make_extra()
        cluster.kill_server(0, 1)
        cluster.share_document("owner0", extra)
        cluster.flush_all()
        single.share_document("owner0", extra)
        single.flush_all()
        cluster.restart_server(0, 1)  # restarts *before* any repair
        cluster.owner("owner0").delete_document(extra.doc_id)
        single.owner("owner0").delete_document(extra.doc_id)
        cluster.reprovision_dropped_writes()
        for _ in range(8):
            if cluster.coordinator.outstanding_write_routes == 0:
                break
            cluster.repair_sweep()
        assert cluster.coordinator.outstanding_write_routes == 0
        assert metric(cluster, "zerber_repair_pending_entries") == 0
        healed = cluster.pods[0].slots[1].server
        peer = cluster.pods[0].slots[0].server
        assert healed.num_elements == peer.num_elements
        assert_byte_identical(
            cluster, single, drill_queries(documents + [extra]),
            context="withdrawn element stayed withdrawn",
        )

    def test_r1_cluster_has_no_source_and_says_so(self):
        """Without a replica there is no trusted source: the sweep
        leaves the entry for owner re-provisioning instead of guessing."""
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=1, k=2, n=3)
        cluster.kill_server(0, 1)
        cluster.share_document("owner0", make_extra())
        cluster.flush_all()
        cluster.restart_server(0, 1)
        before = cluster.coordinator.outstanding_write_routes
        stats = cluster.repair_sweep()
        assert stats.healed_seats == 0
        assert stats.skipped_no_source > 0
        assert cluster.coordinator.outstanding_write_routes == before
        # The owner path still works afterwards.
        assert cluster.reprovision_dropped_writes() > 0
        assert cluster.coordinator.outstanding_write_routes == 0

    def test_dead_seat_waits_for_restart(self):
        documents = make_documents()
        single, cluster = make_twins(documents)
        cluster.kill_server(0, 1)
        cluster.share_document("owner0", make_extra())
        cluster.flush_all()
        stats = cluster.repair_sweep()  # seat still down: nothing to heal
        assert stats.healed_seats == 0
        assert stats.skipped_dead_seat > 0
        cluster.restart_server(0, 1)
        assert cluster.repair_sweep().healed_seats > 0
        assert cluster.coordinator.outstanding_write_routes == 0

    def test_repair_budget_rate_limits_the_sweep(self):
        documents = make_documents()
        single, cluster = make_twins(documents)
        cluster.kill_server(0, 1)
        # Several documents land in several lists: multiple ledger seats.
        for doc_id, terms in (
            (910, ("w0", "w3")), (911, ("w5", "w9")), (912, ("w11", "w14")),
        ):
            cluster.share_document("owner0", make_extra(doc_id, terms))
        cluster.flush_all()
        cluster.restart_server(0, 1)
        first = cluster.repair_sweep(budget=1)
        assert first.healed_seats == 1
        assert first.budget_exhausted
        assert cluster.coordinator.outstanding_write_routes > 0
        total = 1
        while cluster.coordinator.outstanding_write_routes:
            swept = cluster.repair_sweep(budget=1)
            assert swept.healed_seats == 1
            total += 1
            assert total < 50  # must converge
        assert metric(cluster, "zerber_repair_pending_entries") == 0


class TestSourceDiesMidShip:
    def test_midflight_failure_is_counted_and_retried(self):
        documents = make_documents()
        single, cluster = make_twins(documents)
        coordinator = cluster.coordinator
        extra = make_extra()
        cluster.kill_server(0, 1)
        cluster.share_document("owner0", extra)
        cluster.flush_all()
        single.share_document("owner0", extra)
        single.flush_all()
        cluster.restart_server(0, 1)
        dropped = coordinator.outstanding_write_routes
        real = coordinator.transport
        coordinator.transport = FlakyTransport(real, fail_ships=10**9)
        try:
            stats = cluster.repair_sweep()
            assert stats.healed_seats == 0
            assert stats.failed > 0
            assert coordinator.outstanding_write_routes == dropped
        finally:
            coordinator.transport = real
        # The source is back: the next sweep re-elects and converges.
        retry = cluster.repair_sweep()
        assert retry.healed_seats > 0
        assert coordinator.outstanding_write_routes == 0
        assert_byte_identical(
            cluster, single, drill_queries(documents + [extra]),
            context="after mid-ship failure retry",
        )

    def test_source_actually_dead_skips_until_restart(self):
        """Kill the only trusted same-slot source: the sweep must not
        heal from a wrong-slot seat (wrong Shamir x-coordinate)."""
        documents = make_documents()
        single, cluster = make_twins(documents)
        coordinator = cluster.coordinator
        extra = make_extra()
        cluster.kill_server(0, 1)
        cluster.share_document("owner0", extra)
        cluster.flush_all()
        single.share_document("owner0", extra)
        single.flush_all()
        cluster.restart_server(0, 1)
        cluster.kill_server(1, 1)  # pod1 slot 1: the only trusted source
        stats = cluster.repair_sweep()
        assert stats.healed_seats == 0
        assert stats.skipped_no_source > 0
        cluster.restart_server(1, 1)
        assert cluster.repair_sweep().healed_seats > 0
        assert coordinator.outstanding_write_routes == 0
        assert_byte_identical(
            cluster, single, drill_queries(documents + [extra]),
            context="after source restart",
        )

    def test_repair_thread_backs_off_and_converges(self):
        """The background sweep survives a failing source and heals once
        the failure clears — the flap must not crash the thread."""
        documents = make_documents()
        single, cluster = make_twins(documents)
        coordinator = cluster.coordinator
        extra = make_extra()
        cluster.kill_server(0, 1)
        cluster.share_document("owner0", extra)
        cluster.flush_all()
        single.share_document("owner0", extra)
        single.flush_all()
        cluster.restart_server(0, 1)
        real = coordinator.transport
        flaky = FlakyTransport(real, fail_ships=3)
        coordinator.transport = flaky
        try:
            coordinator.start_repair_thread(interval_s=0.005)
            deadline = time.monotonic() + 10.0
            while (
                coordinator.outstanding_write_routes
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
        finally:
            coordinator.stop_repair_thread()
            coordinator.transport = real
        assert flaky.fail_ships == 0  # the drill actually fired
        assert coordinator.repair_failures >= 1
        assert coordinator.outstanding_write_routes == 0
        assert_byte_identical(
            cluster, single, drill_queries(documents + [extra]),
            context="background thread through flapping source",
        )


class TestTornSnapshotFrame:
    def pick_seats(self, cluster):
        source = cluster.pods[0].slots[0].server
        target = cluster.pods[1].slots[0].server
        return source, target

    def nonempty_lists(self, server):
        return tuple(
            pl_id for pl_id in range(8)
            if server.export_posting_list(pl_id)
        )

    def test_torn_image_rejected_with_no_partial_state(self):
        cluster = make_cluster(
            make_documents(), num_pods=2, replication_factor=2
        )
        source, target = self.pick_seats(cluster)
        pl_ids = self.nonempty_lists(source)
        image, count = source.export_snapshot(pl_ids)
        assert count > 0
        torn = image[:-1] + bytes((image[-1] ^ 0xFF,))
        before = {
            pl_id: sorted(
                target.export_posting_list(pl_id),
                key=lambda r: r.element_id,
            )
            for pl_id in pl_ids
        }
        with pytest.raises(StorageError):
            target.ingest_snapshot(pl_ids, torn)
        after = {
            pl_id: sorted(
                target.export_posting_list(pl_id),
                key=lambda r: r.element_id,
            )
            for pl_id in pl_ids
        }
        assert after == before  # validation precedes any mutation

    def test_smuggled_list_rejected(self):
        """An image naming a list outside ``pl_ids`` is a protocol
        violation, not a merge."""
        cluster = make_cluster(
            make_documents(), num_pods=2, replication_factor=2
        )
        source, target = self.pick_seats(cluster)
        pl_ids = self.nonempty_lists(source)
        image, _ = source.export_snapshot(pl_ids)
        with pytest.raises(StorageError):
            target.ingest_snapshot(pl_ids[:1], image)  # image too wide

    def test_torn_in_flight_heal_is_retried(self):
        """A heal whose image tears on the wire counts as failed and the
        ledger entry survives for the next sweep."""
        documents = make_documents()
        single, cluster = make_twins(documents)
        coordinator = cluster.coordinator
        extra = make_extra()
        cluster.kill_server(0, 1)
        cluster.share_document("owner0", extra)
        cluster.flush_all()
        single.share_document("owner0", extra)
        single.flush_all()
        cluster.restart_server(0, 1)
        real = coordinator.transport
        coordinator.transport = FlakyTransport(real, mangle_ships=10**9)
        try:
            stats = cluster.repair_sweep()
            assert stats.healed_seats == 0
            assert stats.failed > 0
            assert coordinator.outstanding_write_routes > 0
        finally:
            coordinator.transport = real
        assert cluster.repair_sweep().healed_seats > 0
        assert coordinator.outstanding_write_routes == 0
        assert_byte_identical(
            cluster, single, drill_queries(documents + [extra]),
            context="after torn-frame retry",
        )


class TestRepairVsConcurrentWrites:
    def test_background_sweep_races_live_writes(self):
        """Owners keep writing while the repair thread heals: the
        repair mutex must serialize heals against route+deliver spans,
        so nothing is lost on either side."""
        documents = make_documents()
        single, cluster = make_twins(documents)
        coordinator = cluster.coordinator
        first = make_extra(920, ("w0", "w4", "w8"))
        cluster.kill_server(0, 1)
        cluster.share_document("owner0", first)
        cluster.flush_all()
        single.share_document("owner0", first)
        single.flush_all()
        cluster.restart_server(0, 1)
        coordinator.start_repair_thread(interval_s=0.001)
        try:
            # Live writes land on the same lists the sweep is healing.
            for doc_id in range(921, 933):
                extra = make_extra(
                    doc_id, (f"w{doc_id % 16}", f"w{(doc_id + 5) % 16}")
                )
                cluster.share_document("owner0", extra)
                cluster.flush_all()
                single.share_document("owner0", extra)
                single.flush_all()
                documents = documents + [extra]
            deadline = time.monotonic() + 10.0
            while (
                coordinator.outstanding_write_routes
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
        finally:
            coordinator.stop_repair_thread()
        assert coordinator.outstanding_write_routes == 0
        assert metric(cluster, "zerber_repair_pending_entries") == 0
        assert_byte_identical(
            cluster, single, drill_queries(documents + [first]),
            context="writes racing the repair thread",
        )

    def test_reprovision_races_sweep_on_same_entry(self):
        """The satellite regression: an owner's re-provisioning and a
        sweep hitting the same ledger entry concurrently must credit
        each dropped route exactly once and lose no data."""
        for trial in range(4):
            documents = make_documents(seed=5 + trial)
            single, cluster = make_twins(documents)
            coordinator = cluster.coordinator
            extra = make_extra(940 + trial, ("w2", "w6", "w10"))
            cluster.kill_server(0, 1)
            cluster.share_document("owner0", extra)
            cluster.flush_all()
            single.share_document("owner0", extra)
            single.flush_all()
            cluster.restart_server(0, 1)
            start = threading.Barrier(2)
            errors = []

            def run(fn):
                try:
                    start.wait(timeout=5)
                    fn()
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [
                threading.Thread(
                    target=run, args=(cluster.reprovision_dropped_writes,)
                ),
                threading.Thread(target=run, args=(cluster.repair_sweep,)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            # Exactly-once crediting: outstanding is zero, not negative.
            assert coordinator.outstanding_write_routes == 0
            assert coordinator.repaired_write_routes == (
                coordinator.dropped_write_routes
            )
            assert_byte_identical(
                cluster, single, drill_queries(documents + [extra]),
                context=f"reprovision-vs-sweep trial {trial}",
            )


class TestSnapshotShippingRebalance:
    def test_add_pod_ships_snapshots_and_matches_legacy(self):
        """Snapshot shipping is the only transfer mode: a join moves
        exactly the lists the new pod now owns, copies every share of
        them onto it, and answers like the single fleet."""
        documents = make_documents()
        cluster = make_cluster(documents, num_pods=2, num_lists=8)
        single = make_single_fleet(documents, k=2, n=4)
        stats = cluster.add_pod()
        joined = cluster.pods[-1]
        assert stats.snapshot_ships > 0
        assert stats.shipped_bytes > 0
        assert stats.moved_lists == sum(
            joined in cluster.coordinator.pods_of(pl_id) for pl_id in range(8)
        )
        assert stats.moved_lists > 0
        assert stats.copied_elements == sum(
            slot.server.num_elements for slot in joined.slots
        )
        assert cluster.coordinator.outstanding_write_routes == 0
        assert_byte_identical(
            cluster, single, drill_queries(documents), "after add_pod"
        )

    def test_add_then_retire_round_trip_stays_byte_identical(self):
        documents = make_documents()
        single, cluster = make_twins(documents)
        queries = drill_queries(documents)
        grown = cluster.add_pod()
        assert grown.snapshot_ships > 0
        assert_byte_identical(cluster, single, queries, "after add_pod")
        shrunk = cluster.retire_pod(0)
        assert shrunk.action == "leave"
        assert cluster.coordinator.outstanding_write_routes == 0
        assert_byte_identical(cluster, single, queries, "after retire_pod")

    def test_rebalance_with_dead_seat_ledgers_the_gap_for_the_sweep(self):
        """A dead destination seat cannot adopt its shipment: the gap
        lands in the staleness ledger and the sweep closes it later."""
        documents = make_documents()
        single, cluster = make_twins(documents)
        cluster.kill_server(0, 2)
        stats = cluster.add_pod()
        # The dead seat is only one of two source candidates (the other
        # replica's slot 2 covers it), so the rebalance may succeed in
        # full — the invariant is that any gap it could not transfer is
        # ledgered, and a restart + sweep converges either way.
        cluster.restart_server(0, 2)
        while cluster.coordinator.outstanding_write_routes:
            if cluster.repair_sweep().healed_seats == 0:
                break
        assert cluster.coordinator.outstanding_write_routes == 0
        assert_byte_identical(
            cluster, single, drill_queries(documents),
            context="rebalance with a dead seat, then sweep",
        )
        assert stats.moved_lists >= 0

    def test_ship_empty_posting_list_kills_stale_copy(self):
        """Shipping a list the source does not hold is the idiom for
        'your copy is dead data': the receiver drops it and loads
        nothing."""
        cluster = make_cluster(make_documents(), num_pods=2,
                               replication_factor=2)
        source = cluster.pods[0].slots[0].server
        target = cluster.pods[1].slots[0].server
        empty_pl = 7919  # never mapped
        assert not source.export_posting_list(empty_pl)
        # Give the receiver a stale record for the list first.
        target.adopt_posting_list(empty_pl, [123456], [0], [9])
        assert target.export_posting_list(empty_pl)
        image, count = source.export_snapshot((empty_pl,))
        assert count == 0
        remaining = target.ingest_snapshot((empty_pl,), image)
        assert remaining == 0
        assert not target.export_posting_list(empty_pl)

    def test_stale_receiver_data_dropped_before_adopt(self):
        cluster = make_cluster(make_documents(), num_pods=2,
                               replication_factor=2)
        source = cluster.pods[0].slots[0].server
        target = cluster.pods[1].slots[0].server
        pl_ids = tuple(
            pl_id for pl_id in range(8)
            if source.export_posting_list(pl_id)
        )
        # Poison the receiver with a record the source never had.
        target.adopt_posting_list(pl_ids[0], [999999], [0], [1])
        image, count = source.export_snapshot(pl_ids)
        loaded = target.ingest_snapshot(pl_ids, image)
        assert loaded == count
        for pl_id in pl_ids:
            # The image keeps the source's row order, so the healed seat
            # answers in its peer's order.
            assert target.export_posting_list(
                pl_id
            ) == source.export_posting_list(pl_id)


class TestRepairThreadLifecycle:
    def test_double_start_rejected_and_stop_idempotent(self):
        cluster = make_cluster(make_documents(), num_pods=2,
                               replication_factor=2)
        coordinator = cluster.coordinator
        coordinator.start_repair_thread(interval_s=0.01)
        with pytest.raises(ClusterError):
            coordinator.start_repair_thread(interval_s=0.01)
        coordinator.stop_repair_thread()
        coordinator.stop_repair_thread()  # idempotent
        coordinator.start_repair_thread(interval_s=0.01)  # restartable
        coordinator.stop_repair_thread()

    def test_deployment_kwarg_spins_the_thread_and_close_stops_it(self):
        documents = make_documents()
        single = make_single_fleet(documents, k=2, n=4)
        cluster = make_cluster(
            documents, num_pods=2, replication_factor=2, k=2, n=4,
            anti_entropy_interval_s=0.005,
        )
        with cluster:
            coordinator = cluster.coordinator
            assert metric(cluster, "zerber_repair_thread_running") == 1
            extra = make_extra()
            cluster.kill_server(0, 1)
            cluster.share_document("owner0", extra)
            cluster.flush_all()
            single.share_document("owner0", extra)
            single.flush_all()
            cluster.restart_server(0, 1)
            deadline = time.monotonic() + 10.0
            while (
                coordinator.outstanding_write_routes
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
            assert coordinator.outstanding_write_routes == 0
            assert_byte_identical(
                cluster, single, drill_queries(documents + [extra]),
                context="hands-off background healing",
            )
        assert metric(cluster, "zerber_repair_thread_running") == 0
