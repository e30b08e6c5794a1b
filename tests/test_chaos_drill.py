"""Deterministic chaos drills: seeded faults, byte-identical-or-typed.

The acceptance invariant: under *any* seeded fault schedule — latency
spikes, connection resets, dropped frames, duplicated frames,
slow-seat stalls, storage crashes — every query either returns results
byte-identical to a clean run or raises a typed
:class:`~repro.errors.ReproError`. Never silently wrong, never hung.

Every drill sets its :class:`FaultPlan` on the one fault seam, the
endpoint registry (``cluster.registry.fault_plan``), so a drill over
async-socket meets its faults on the server, under the pipelined waves
and hedges queries take. Determinism is the point: every plan is
seeded, so a failing schedule replays exactly, and a fixed seed plus
sequential dispatch replays the same injection pattern run after run.
"""

import pytest

from helpers import make_cluster, make_documents

from repro.errors import ReproError
from repro.resilience import FaultPlan
from repro.storage import SegmentedStore

QUERIES = (
    ["w1"],
    ["w2", "w3"],
    ["w0", "w5"],
    ["w4"],
    ["w7", "w9"],
    ["w10", "w11", "w12"],
    ["w6"],
    ["w13", "w2"],
)


def clean_baseline(cluster):
    """Expected results per query from an unfaulted searcher."""
    searcher = cluster.searcher("owner0", use_cache=False)
    return [
        searcher.search(terms, fetch_snippets=False) for terms in QUERIES
    ]


def run_drill(cluster, plan, rounds=3, budget_s=None, **searcher_kwargs):
    """Query with ``plan`` on the cluster's fault seam; classify every
    outcome.

    The plan is set only while the drill queries: the seam strikes
    every request that reaches a seat, the clean baseline's and the
    owners' too. Returns (outcomes, results, hedged): ``outcomes[i]``
    is ``"ok"`` or the typed error class name; ``results[i]`` is the
    result list for ok outcomes, None otherwise; ``hedged`` sums the
    hedged fetches of the ok searches.
    """
    searcher_kwargs.setdefault("use_cache", False)
    searcher = cluster.searcher("owner0", **searcher_kwargs)
    outcomes, results = [], []
    hedged = 0
    cluster.registry.fault_plan = plan
    try:
        for _ in range(rounds):
            for terms in QUERIES:
                try:
                    outcome = searcher.search(
                        terms, fetch_snippets=False, budget_s=budget_s
                    )
                except ReproError as exc:
                    outcomes.append(type(exc).__name__)
                    results.append(None)
                except BaseException as exc:  # noqa: BLE001 - the invariant
                    pytest.fail(
                        f"untyped failure escaped the drill: "
                        f"{type(exc).__name__}: {exc}"
                    )
                else:
                    outcomes.append("ok")
                    results.append(outcome)
                    diagnostics = searcher.last_cluster_diagnostics
                    hedged += diagnostics.hedged_fetches
    finally:
        cluster.registry.fault_plan = None
    return outcomes, results, hedged


def assert_identical_or_typed(cluster, outcomes, results):
    """Every ok result must match the clean baseline bitwise."""
    expected = clean_baseline(cluster)
    num_queries = len(QUERIES)
    ok = 0
    for index, (outcome, result) in enumerate(zip(outcomes, results)):
        if outcome == "ok":
            assert result == expected[index % num_queries], (
                f"query {index} diverged under faults"
            )
            ok += 1
    return ok


class TestInProcessChaos:
    def test_drops_and_resets_with_replicas(self):
        cluster = make_cluster(
            make_documents(num_docs=10), num_pods=2, replication_factor=2
        )
        with cluster:
            plan = FaultPlan(seed=0xC405, drop_rate=0.08, reset_rate=0.08)
            outcomes, results, _hedged = run_drill(cluster, plan)
            ok = assert_identical_or_typed(cluster, outcomes, results)
            assert plan.total_injected() > 0
            # R=2 plus the failover ladder should absorb most faults.
            assert ok > len(outcomes) // 2

    def test_heavy_resets_fail_typed_never_wrong(self):
        cluster = make_cluster(
            make_documents(num_docs=10), num_pods=2, replication_factor=1
        )
        with cluster:
            plan = FaultPlan(seed=0xC406, reset_rate=0.45)
            outcomes, results, _hedged = run_drill(cluster, plan)
            assert_identical_or_typed(cluster, outcomes, results)
            assert plan.injected["reset"] > 0
            # Heavy unreplicated resets must produce *some* typed
            # errors — and every one of them a ReproError subclass
            # (run_drill fails the test on anything untyped).
            assert any(outcome != "ok" for outcome in outcomes)

    def test_duplicated_frames_are_idempotent_for_reads(self):
        cluster = make_cluster(
            make_documents(num_docs=10), num_pods=2, replication_factor=1
        )
        with cluster:
            plan = FaultPlan(seed=0xC407, duplicate_rate=0.5)
            outcomes, results, _hedged = run_drill(cluster, plan)
            ok = assert_identical_or_typed(cluster, outcomes, results)
            assert ok == len(outcomes)  # duplication never corrupts
            assert plan.injected["duplicate"] > 0

    def test_latency_spikes_change_nothing(self):
        cluster = make_cluster(
            make_documents(num_docs=10), num_pods=2, replication_factor=1
        )
        with cluster:
            plan = FaultPlan(
                seed=0xC408, latency_rate=0.4, latency_s=0.002
            )
            outcomes, results, _hedged = run_drill(cluster, plan)
            ok = assert_identical_or_typed(cluster, outcomes, results)
            assert ok == len(outcomes)
            assert plan.injected["latency"] > 0

    def test_seeded_schedule_replays_identically(self):
        documents = make_documents(num_docs=10)
        first = make_cluster(documents, num_pods=2, replication_factor=1)
        second = make_cluster(documents, num_pods=2, replication_factor=1)
        with first, second:
            plan_a = FaultPlan(seed=0xC409, reset_rate=0.3)
            plan_b = FaultPlan(seed=0xC409, reset_rate=0.3)
            outcomes_a, _, _ = run_drill(first, plan_a)
            outcomes_b, _, _ = run_drill(second, plan_b)
            assert outcomes_a == outcomes_b
            assert plan_a.injected == plan_b.injected


#: A dropped frame never answers: over the socket each drill search
#: runs under this budget, so a drop costs at most this much.
WIRE_BUDGET_S = 0.25


class TestWireChaos:
    @pytest.mark.parametrize("transport", ["async-socket"])
    def test_faulty_wire_stays_identical_or_typed(self, transport):
        cluster = make_cluster(
            make_documents(num_docs=10),
            num_pods=2,
            replication_factor=2,
            transport=transport,
        )
        with cluster:
            plan = FaultPlan(
                seed=0xC40A,
                drop_rate=0.06,
                reset_rate=0.06,
                latency_rate=0.1,
                latency_s=0.001,
            )
            outcomes, results, _hedged = run_drill(
                cluster, plan, budget_s=WIRE_BUDGET_S
            )
            ok = assert_identical_or_typed(cluster, outcomes, results)
            assert plan.total_injected() > 0
            assert ok > len(outcomes) // 2

    def test_every_fault_kind_meets_hedged_waves(self):
        """R = 2 over async-socket with hedged reads: all five kinds
        strike the seats under the waves and backups queries send."""
        cluster = make_cluster(
            make_documents(num_docs=10),
            num_pods=2,
            replication_factor=2,
            transport="async-socket",
        )
        with cluster:
            plan = FaultPlan(
                seed=0xC40F,
                latency_rate=0.08,
                latency_s=0.002,
                stall_rate=0.08,
                stall_s=0.05,
                reset_rate=0.06,
                drop_rate=0.06,
                duplicate_rate=0.1,
            )
            outcomes, results, hedged = run_drill(
                cluster,
                plan,
                budget_s=WIRE_BUDGET_S,
                hedge_after_s=0.005,
            )
            assert_identical_or_typed(cluster, outcomes, results)
            assert all(count > 0 for count in plan.injected.values()), (
                plan.injected
            )
            assert hedged > 0
            assert cluster.transport._pending == {}


class TestSlowSeatStalls:
    def test_stalled_pod_with_hedging_stays_identical(self, monkeypatch):
        """Hedging races legs inside the socket's pipelined round, so the
        stall is server-side: the seam holds back pod0's answers on the
        server loop, and the hedged backups read the untouched replica.
        The race must never change bytes."""
        cluster = make_cluster(
            make_documents(num_docs=10),
            num_pods=2,
            replication_factor=2,
            transport="async-socket",
        )
        with cluster:
            expected = clean_baseline(cluster)
            stalled = frozenset(
                slot.server_id for slot in cluster.pods[0].slots
            )
            plan = FaultPlan(
                seed=0xC40B,
                stall_rate=0.5,
                stall_s=0.03,
                endpoints=stalled,
            )
            cluster.registry.fault_plan = plan
            # Pin pod0 first, so the latency ranking cannot route every
            # round around the stall and leave it untested.
            coordinator = cluster.coordinator
            ranked = coordinator.read_replicas
            monkeypatch.setattr(
                coordinator,
                "read_replicas",
                lambda pl_id: sorted(ranked(pl_id), key=lambda p: p.index),
            )
            searcher = cluster.searcher(
                "owner0",
                use_cache=False,
                hedge_after_s=0.005,
            )
            hedged = 0
            for _round in range(2):
                for terms, want in zip(QUERIES, expected):
                    got = searcher.search(terms, fetch_snippets=False)
                    assert got == want
                    hedged += searcher.last_cluster_diagnostics.hedged_fetches
            assert plan.injected["stall"] > 0
            assert hedged > 0

    def test_endpoint_filter_spares_other_seats(self):
        cluster = make_cluster(
            make_documents(num_docs=6), num_pods=2, replication_factor=1
        )
        with cluster:
            plan = FaultPlan(
                seed=0xC40C,
                reset_rate=1.0,
                endpoints=frozenset({"nonexistent-server"}),
            )
            outcomes, results, _hedged = run_drill(cluster, plan, rounds=1)
            ok = assert_identical_or_typed(cluster, outcomes, results)
            assert ok == len(outcomes)  # nothing targeted, nothing hurt
            assert plan.total_injected() == 0


class _InjectedCrash(BaseException):
    """BaseException so no engine-side except can swallow it."""


class TestStorageChaos:
    def test_crash_hook_of_a_seeded_plan_loses_nothing(self, tmp_path):
        rows = range(24)
        store = SegmentedStore(
            tmp_path / "seat", segment_bytes=128, auto_compact=False
        )
        store.append_inserts(
            [index % 3 for index in rows],
            list(rows),
            [index % 2 for index in rows],
            [1000 + index for index in rows],
        )
        expected = store.replay()
        plan = FaultPlan(seed=0xC40D)
        store._crash_hook = plan.storage_crash_hook(
            crash_rate=1.0, crash_exception=_InjectedCrash
        )
        with pytest.raises(_InjectedCrash):
            store.compact()
        store._crash_hook = None
        store.close()
        recovered = SegmentedStore(tmp_path / "seat", auto_compact=False)
        assert recovered.replay() == expected
        recovered.close()

    def test_zero_crash_rate_never_fires(self, tmp_path):
        store = SegmentedStore(
            tmp_path / "seat", segment_bytes=128, auto_compact=False
        )
        store.append_inserts([0] * 8, list(range(8)), [0] * 8, list(range(8)))
        plan = FaultPlan(seed=0xC40E)
        store._crash_hook = plan.storage_crash_hook(
            crash_rate=0.0, crash_exception=_InjectedCrash
        )
        expected = store.replay()
        store.compact()
        assert store.replay() == expected
        store.close()
