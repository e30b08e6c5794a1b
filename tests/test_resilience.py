"""PR 8 resilience primitives: deadlines, retry, breakers, admission,
drain, hedged reads.

Every test here is deterministic — seeded jitter, injected clocks,
zero-or-generous budgets — because the whole point of the resilience
layer is that failure handling is *reproducible*.
"""

import math
import threading
import time

import pytest

from helpers import make_cluster, make_documents, metric

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ReproError,
    TransportError,
)
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.messages import ErrorResponse, ServerStatusRequest
from repro.protocol.service import raise_for_error
from repro.protocol.transport import (
    DEADLINE_FLAG,
    _LEN,
    _pack_request,
    _unpack_envelope,
    handle_request_payload,
)
from repro.resilience import (
    AdmissionController,
    FaultPlan,
    CircuitBreaker,
    BreakerRegistry,
    Deadline,
    RetryPolicy,
    current_deadline,
    deadline_scope,
    is_retryable,
)


class TestRetryPolicy:
    def test_jitter_schedule_is_deterministic_per_seed(self):
        a = RetryPolicy(seed=11)
        b = RetryPolicy(seed=11)
        assert [a.backoff_s(i) for i in range(5)] == [
            b.backoff_s(i) for i in range(5)
        ]
        c = RetryPolicy(seed=12)
        assert [a.backoff_s(i) for i in range(5)] != [
            c.backoff_s(i) for i in range(5)
        ]

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            base_backoff_s=0.01,
            multiplier=2.0,
            max_backoff_s=0.05,
            jitter=0.0,
        )
        assert policy.backoff_s(0) == pytest.approx(0.01)
        assert policy.backoff_s(1) == pytest.approx(0.02)
        assert policy.backoff_s(2) == pytest.approx(0.04)
        assert policy.backoff_s(3) == pytest.approx(0.05)  # capped
        assert policy.backoff_s(9) == pytest.approx(0.05)

    def test_classification_reads_the_error_taxonomy(self):
        assert not is_retryable(ReproError("terminal"))
        assert not is_retryable(DeadlineExceededError("too late"))
        assert is_retryable(OverloadedError("shed"))
        error = TransportError("broken pipe")
        assert not is_retryable(error)  # writes fail fast by default
        error.retryable = True  # the read-safe instance override
        assert is_retryable(error)

    def test_run_retries_retryable_until_success(self):
        sleeps = []
        policy = RetryPolicy(max_attempts=3, sleep=sleeps.append)
        calls = []

        def attempt(index):
            calls.append(index)
            if index < 2:
                raise OverloadedError("shed")
            return "answer"

        assert policy.run(attempt) == "answer"
        assert calls == [0, 1, 2]
        assert len(sleeps) == 2

    def test_run_raises_terminal_errors_immediately(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda _s: None)
        calls = []

        def attempt(index):
            calls.append(index)
            raise TransportError("write may have been applied")

        with pytest.raises(TransportError):
            policy.run(attempt)
        assert calls == [0]

    def test_run_exhausts_attempts_then_reraises(self):
        policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None)
        calls = []

        def attempt(index):
            calls.append(index)
            raise OverloadedError("still shedding")

        with pytest.raises(OverloadedError):
            policy.run(attempt)
        assert calls == [0, 1, 2]

    def test_backoff_that_outsleeps_the_deadline_raises_typed(self):
        policy = RetryPolicy(
            base_backoff_s=10.0, jitter=0.0, sleep=lambda _s: None
        )
        with deadline_scope(budget_s=0.05):
            with pytest.raises(DeadlineExceededError):
                policy.pause_before_retry(0)


class TestDeadlines:
    def test_scope_sets_and_restores_the_ambient_deadline(self):
        assert current_deadline() is None
        with deadline_scope(budget_s=10.0) as deadline:
            assert current_deadline() is deadline
            assert 0 < deadline.remaining_s() <= 10.0
        assert current_deadline() is None

    def test_nested_scopes_only_tighten(self):
        with deadline_scope(budget_s=0.2) as outer:
            with deadline_scope(budget_s=60.0):
                # The outer (closer) expiry stays in force.
                assert current_deadline().expires_at == outer.expires_at
            with deadline_scope(budget_s=0.001):
                assert current_deadline().expires_at < outer.expires_at
            assert current_deadline() is outer

    def test_scopes_are_per_thread(self):
        seen = []
        with deadline_scope(budget_s=10.0):
            thread = threading.Thread(
                target=lambda: seen.append(current_deadline())
            )
            thread.start()
            thread.join()
        assert seen == [None]

    def test_deadline_free_frames_keep_the_classic_layout(self):
        request = ServerStatusRequest()
        payload = _pack_request("pod0-server-0", request)
        name = b"pod0-server-0"
        assert payload.startswith(_LEN.pack(len(name)) + name)
        dst, budget_us, wire_trace, offset = _unpack_envelope(payload)
        assert dst == "pod0-server-0"
        decoded = decode_message(payload[offset:])
        assert isinstance(decoded, ServerStatusRequest)
        assert budget_us is None
        assert wire_trace is None

    def test_budget_rides_the_wire_and_round_trips(self):
        payload = _pack_request(
            "pod0-server-0", ServerStatusRequest(), budget_us=250_000
        )
        word = _LEN.unpack_from(payload)[0]
        assert word & DEADLINE_FLAG
        dst, budget_us, _trace, _offset = _unpack_envelope(payload)
        assert dst == "pod0-server-0"
        assert budget_us == 250_000

    def test_classic_parser_sees_an_absurd_name_length(self):
        # A peer that predates DEADLINE_FLAG reads the flagged length
        # word verbatim: 0x4000_0000 + 13 bytes of "name" it can never
        # receive — the frame is rejected as truncated, not misparsed.
        payload = _pack_request(
            "pod0-server-0", ServerStatusRequest(), budget_us=1
        )
        word = _LEN.unpack_from(payload)[0]
        assert word > 0x4000_0000
        assert word - DEADLINE_FLAG == len(b"pod0-server-0")

    def test_truncated_budget_is_a_typed_protocol_error(self):
        payload = _pack_request(
            "pod0-server-0", ServerStatusRequest(), budget_us=1
        )
        truncated = payload[: _LEN.size + len(b"pod0-server-0") + 2]
        with pytest.raises(ProtocolError):
            _unpack_envelope(truncated)

    def test_expired_budget_is_rejected_before_dispatch(self):
        cluster = make_cluster(make_documents(num_docs=4))
        with cluster:
            server_id = cluster.pods[0].slots[0].server_id
            payload = _pack_request(
                server_id, ServerStatusRequest(), budget_us=0
            )
            response = decode_message(
                handle_request_payload(cluster.registry, payload)
            )
            assert isinstance(response, ErrorResponse)
            assert response.error == "DeadlineExceededError"
            with pytest.raises(DeadlineExceededError):
                raise_for_error(response)

    def test_generous_budget_dispatches_normally(self):
        cluster = make_cluster(make_documents(num_docs=4))
        with cluster:
            server_id = cluster.pods[0].slots[0].server_id
            payload = _pack_request(
                server_id, ServerStatusRequest(), budget_us=10_000_000
            )
            response = decode_message(
                handle_request_payload(cluster.registry, payload)
            )
            assert not isinstance(response, ErrorResponse)
            assert response.server_id == server_id

    def test_search_budget_zero_raises_typed_not_hangs(self):
        cluster = make_cluster(make_documents(num_docs=4))
        with cluster:
            searcher = cluster.searcher("owner0")
            with pytest.raises(DeadlineExceededError):
                searcher.search(["w1"], budget_s=0.0)

    @pytest.mark.parametrize("budget_s", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("transport", ["in-process", "async-socket"])
    def test_a_non_finite_budget_is_refused_before_any_request(
        self, transport, budget_s, monkeypatch
    ):
        """NaN never expires and inf has no wire budget: both are a
        typed error raised before a single message leaves."""
        cluster = make_cluster(
            make_documents(num_docs=4), transport=transport
        )
        with cluster:
            searcher = cluster.searcher("owner0", use_cache=False)
            sent = []
            for name in ("call", "call_many"):
                real = getattr(searcher._transport, name)
                monkeypatch.setattr(
                    searcher._transport,
                    name,
                    lambda *a, _real=real, **kw: sent.append(a) or _real(
                        *a, **kw
                    ),
                )
            with pytest.raises(ReproError, match="budget_s") as raised:
                searcher.search(["w1"], budget_s=budget_s)
            assert not isinstance(raised.value, DeadlineExceededError)
            assert sent == []
            assert current_deadline() is None
            searcher.search(["w1"], budget_s=30.0)
            assert sent

    @pytest.mark.parametrize("transport", ["async-socket"])
    def test_search_budget_over_the_wire(self, transport):
        cluster = make_cluster(
            make_documents(num_docs=4), transport=transport
        )
        with cluster:
            # use_cache=False: a cache hit legitimately answers
            # without any fetch, which would dodge the deadline check
            # this test exists to exercise.
            searcher = cluster.searcher("owner0", use_cache=False)
            baseline = searcher.search(["w1"], fetch_snippets=False)
            budgeted = searcher.search(
                ["w1"], fetch_snippets=False, budget_s=30.0
            )
            assert budgeted == baseline
            with pytest.raises(DeadlineExceededError):
                searcher.search(
                    ["w1"], fetch_snippets=False, budget_s=0.0
                )


class TestCircuitBreaker:
    def make_breaker(self, **kwargs):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(clock=lambda: clock["now"], **kwargs)
        return breaker, clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _clock = self.make_breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.deprioritize() is True

    def test_success_resets_the_consecutive_count(self):
        breaker, _clock = self.make_breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_cooldown_releases_exactly_one_probe(self):
        breaker, clock = self.make_breaker(
            failure_threshold=1, cooldown_s=1.0
        )
        breaker.record_failure()
        assert breaker.deprioritize() is True
        clock["now"] = 1.5
        assert breaker.state == "half-open"
        assert breaker.deprioritize() is False  # the probe
        assert breaker.deprioritize() is True  # everyone else waits

    def test_probe_success_closes(self):
        breaker, clock = self.make_breaker(
            failure_threshold=1, cooldown_s=1.0
        )
        breaker.record_failure()
        clock["now"] = 1.5
        breaker.deprioritize()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.deprioritize() is False

    def test_probe_failure_reopens_with_doubled_cooldown(self):
        breaker, clock = self.make_breaker(
            failure_threshold=1, cooldown_s=1.0, max_cooldown_s=3.0
        )
        breaker.record_failure()
        clock["now"] = 1.5
        breaker.deprioritize()
        breaker.record_failure()  # probe failed
        assert breaker.snapshot()["cooldown_s"] == pytest.approx(2.0)
        # Still inside the doubled cooldown at +1.9s.
        clock["now"] = 1.5 + 1.9
        assert breaker.deprioritize() is True
        # Next failed probe caps at max_cooldown_s.
        clock["now"] = 1.5 + 2.5
        breaker.deprioritize()
        breaker.record_failure()
        assert breaker.snapshot()["cooldown_s"] == pytest.approx(3.0)

    def test_registry_defaults_unobserved_pods_to_healthy(self):
        registry = BreakerRegistry()
        assert registry.deprioritize("pod7") is False
        assert registry.snapshot() == {}
        registry.record_failure("pod7")
        assert "pod7" in registry.snapshot()
        registry.forget("pod7")
        assert registry.snapshot() == {}

    def test_open_pod_is_deprioritized_in_replica_ranking(self):
        documents = make_documents(num_docs=8)
        cluster = make_cluster(
            documents, num_pods=2, replication_factor=2
        )
        with cluster:
            coordinator = cluster.coordinator
            searcher = cluster.searcher("owner0", use_cache=False)
            expected = searcher.search(["w1"], fetch_snippets=False)
            cluster.kill_pod(0)
            # Breakers learn from *attempted* legs only; pin the dead
            # pod to the front of the ranking so every query attempts
            # it (normally EWMA ranking would route around it before
            # the breaker ever saw three failures).
            original = coordinator.read_replicas
            coordinator.read_replicas = lambda pl_id: sorted(
                original(pl_id), key=lambda pod: pod.name
            )
            try:
                for _ in range(4):
                    assert (
                        searcher.search(["w1"], fetch_snippets=False)
                        == expected
                    )
            finally:
                coordinator.read_replicas = original
            assert coordinator.breakers.of("pod0").state == "open"
            # The open pod ranks behind the live one for every list it
            # still nominally replicates.
            for pl_id in range(cluster.mapping_table.num_lists):
                pods = coordinator.read_replicas(pl_id)
                if len(pods) == 2:
                    assert pods[0].name == "pod1"
            cluster.restart_pod(0)
            coordinator.read_replicas = lambda pl_id: sorted(
                original(pl_id), key=lambda pod: pod.name
            )
            try:
                assert (
                    searcher.search(["w1"], fetch_snippets=False)
                    == expected
                )
            finally:
                coordinator.read_replicas = original
            assert coordinator.breakers.of("pod0").state == "closed"


    def test_a_pod_that_loses_the_ranking_keeps_its_probe(self):
        """Ranking reads a breaker; only a leg claims its half-open
        probe. A recovered pod that loses the ranking on load is sent
        no leg, so its probe stays unclaimed: once its load ranks it
        first it serves again, and its breaker closes."""
        now = {"s": 0.0}
        cluster = make_cluster(
            make_documents(num_docs=8),
            num_pods=2,
            replication_factor=2,
            clock=lambda: now["s"],
        )
        with cluster:
            coordinator = cluster.coordinator
            searcher = cluster.searcher("owner0", use_cache=False)
            expected = searcher.search(["w1"], fetch_snippets=False)
            for _ in range(3):
                coordinator.breakers.record_failure("pod0")
            now["s"] += 5.0  # past the cooldown: one probe is due
            load = coordinator.pod_read_load
            coordinator.note_pod_read("pod0", 40 - load.get("pod0", 0))
            served = load["pod0"]
            for _ in range(60):
                assert searcher.search(["w1"], fetch_snippets=False) == (
                    expected
                )
            assert load["pod1"] > served
            assert load["pod0"] > served  # it ranked first and served
            assert coordinator.breakers.of("pod0").state == "closed"


class TestAdmissionControl:
    def test_bounded_gate_sheds_and_counts(self):
        gate = AdmissionController(max_pending=2)
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()
        stats = gate.stats()
        assert stats["admitted"] == 3
        assert stats["shed"] == 1
        assert stats["peak_depth"] == 2
        assert stats["max_pending"] == 2

    def test_admit_raises_the_typed_retryable_error(self):
        gate = AdmissionController(max_pending=1)
        gate.try_acquire()
        with pytest.raises(OverloadedError) as excinfo:
            gate.admit("server 's0'")
        assert excinfo.value.retryable

    def test_overload_travels_the_wire_as_retryable(self):
        cluster = make_cluster(make_documents(num_docs=4))
        with cluster:
            server_id = cluster.pods[0].slots[0].server_id
            gate = AdmissionController(max_pending=1)
            gate.try_acquire()
            payload = _pack_request(server_id, ServerStatusRequest())
            response = decode_message(
                handle_request_payload(
                    cluster.registry, payload, admission=gate
                )
            )
            assert isinstance(response, ErrorResponse)
            assert response.error == "OverloadedError"
            with pytest.raises(OverloadedError) as excinfo:
                raise_for_error(response)
            assert excinfo.value.retryable

    def test_deployment_snapshot_surfaces_admission(self):
        cluster = make_cluster(
            make_documents(num_docs=4),
            transport="async-socket",
            admission_max_pending=64,
        )
        with cluster:
            searcher = cluster.searcher("owner0")
            searcher.search(["w1"], fetch_snippets=False)
            assert metric(cluster, "zerber_admission_max_pending") == 64
            assert metric(cluster, "zerber_admission_admitted") > 0
            assert metric(cluster, "zerber_admission_shed") == 0


class TestRepairBackoff:
    def test_backoff_is_exposed_while_running_and_cleared_after(self):
        cluster = make_cluster(make_documents(num_docs=4))
        with cluster:
            assert cluster.repair_backoff_s is None
            assert metric(cluster, "zerber_repair_backoff_seconds") == 0
            cluster.start_repair_thread(interval_s=0.01)
            try:
                assert metric(cluster, "zerber_repair_thread_running") == 1
                assert cluster.repair_backoff_s is not None
                assert metric(cluster, "zerber_repair_backoff_seconds") >= 0.01
            finally:
                cluster.stop_repair_thread()
            assert metric(cluster, "zerber_repair_thread_running") == 0
            assert cluster.repair_backoff_s is None

    def test_jitter_draws_are_seed_deterministic(self):
        from random import Random

        a = [Random(0xA17E).random() for _ in range(4)]
        b = [Random(0xA17E).random() for _ in range(4)]
        assert a == b


class TestGracefulDrain:
    @pytest.mark.parametrize("transport", ["async-socket"])
    def test_idle_server_drains_cleanly(self, transport):
        cluster = make_cluster(
            make_documents(num_docs=4), transport=transport
        )
        with cluster:
            searcher = cluster.searcher("owner0")
            searcher.search(["w1"], fetch_snippets=False)
            server = cluster.socket_server
            assert server.drain(timeout_s=2.0) is True
            assert server.drain_aborted is False

    def test_slow_in_flight_request_aborts_the_drain(self):
        """A handler still running when the drain budget is spent holds
        the server's loop, so the drain cannot finish: it must report
        the abort within the budget plus a second, not wait the handler
        out and call it clean (``repro serve`` exits nonzero on it)."""
        from repro.protocol.async_transport import (
            AsyncSocketServer,
            AsyncSocketTransport,
        )
        from repro.protocol.messages import EndpointsResponse
        from repro.protocol.transport import InProcessTransport

        entered = threading.Event()
        release = threading.Event()

        class _StallService:
            def handle(self, request):
                entered.set()
                release.wait(5.0)
                return EndpointsResponse(names=("slow",))

        registry = InProcessTransport()
        registry.register("slow", _StallService())
        server = AsyncSocketServer(registry)
        client = AsyncSocketTransport(server.address)

        def stuck_call():
            try:
                client.call("t", "slow", ServerStatusRequest())
            except ReproError:
                pass

        thread = threading.Thread(target=stuck_call)
        try:
            thread.start()
            assert entered.wait(2.0)  # the handler holds the loop
            started = time.monotonic()
            assert server.drain(timeout_s=0.2) is False
            assert time.monotonic() - started < 1.2
            assert server.drain_aborted is True
        finally:
            release.set()
            client.close()
            server.close()
            thread.join(5.0)
        assert not thread.is_alive()


class TestHedgedReads:
    """Hedging rides the pipelined round, so it needs the async socket;
    stalls come from the registry's ``fault_plan`` seam, acted out on
    the socket server."""

    def test_hedged_search_stays_byte_identical(self):
        documents = make_documents(num_docs=10)
        plain = make_cluster(documents, num_pods=2, replication_factor=2)
        hedged = make_cluster(
            documents,
            num_pods=2,
            replication_factor=2,
            transport="async-socket",
        )
        with plain, hedged:
            baseline = plain.searcher("owner0", use_cache=False)
            # hedge_after_s=0 sends every backup right behind its
            # primary — the maximally racy configuration.
            racy = hedged.searcher(
                "owner0",
                hedge_after_s=0.0,
                use_cache=False,
            )
            for terms in (["w1"], ["w2", "w3"], ["w0", "w5"]):
                assert racy.search(
                    terms, fetch_snippets=False
                ) == baseline.search(terms, fetch_snippets=False)
                diag = racy.last_cluster_diagnostics
                assert diag.hedged_fetches > 0

    def test_a_stalled_pod_loses_to_its_backup(self):
        documents = make_documents(num_docs=10)
        cluster = make_cluster(
            documents,
            num_pods=2,
            replication_factor=2,
            transport="async-socket",
        )
        with cluster:
            expected = cluster.searcher("owner0", use_cache=False).search(
                ["w1"], fetch_snippets=False
            )
            pl_id = cluster.mapping_table.lookup("w1")
            slow, fast = cluster.coordinator.read_replicas(pl_id)
            cluster.registry.fault_plan = FaultPlan(
                seed=3,
                stall_rate=1.0,
                stall_s=1.0,
                endpoints=[slot.server_id for slot in slow.slots],
            )
            searcher = cluster.searcher(
                "owner0",
                hedge_after_s=0.02,
                use_cache=False,
            )
            started = time.monotonic()
            assert searcher.search(["w1"], fetch_snippets=False) == expected
            assert time.monotonic() - started < 0.5
            diag = searcher.last_cluster_diagnostics
            assert (diag.hedged_fetches, diag.hedge_wins) == (1, 1)
            # Only the backup answered; the stalled pod was abandoned.
            assert diag.pods_contacted == 1
            breaker = cluster.coordinator.breakers.of(slow.name)
            assert breaker.snapshot()["failures"] == 0

    def test_hedge_needs_a_second_replica(self):
        documents = make_documents(num_docs=6)
        cluster = make_cluster(
            documents,
            num_pods=2,
            replication_factor=1,
            transport="async-socket",
        )
        with cluster:
            searcher = cluster.searcher(
                "owner0",
                hedge_after_s=0.0,
                use_cache=False,
            )
            plain = cluster.searcher("owner0", use_cache=False)
            assert searcher.search(
                ["w1"], fetch_snippets=False
            ) == plain.search(["w1"], fetch_snippets=False)
            # R=1: no pod holds a full backup, so no hedge ever fires.
            assert searcher.last_cluster_diagnostics.hedged_fetches == 0

    def test_hedging_in_process_is_a_no_op(self):
        """In process every lookup settles before any delay passes, so
        a hedging searcher sends no backup and answers identically."""
        documents = make_documents(num_docs=10)
        cluster = make_cluster(documents, num_pods=2, replication_factor=2)
        with cluster:
            plain = cluster.searcher("owner0", use_cache=False)
            hedged = cluster.searcher(
                "owner0",
                hedge_after_s=0.0,
                use_cache=False,
            )
            for terms in (["w1"], ["w2", "w3"], ["w0", "w5"]):
                assert hedged.search(
                    terms, fetch_snippets=False
                ) == plain.search(terms, fetch_snippets=False)
                diag = hedged.last_cluster_diagnostics
                assert (diag.hedged_fetches, diag.hedge_wins) == (0, 0)

    def test_a_negative_hedge_delay_is_refused(self):
        """So are NaN, which would never hedge, and inf, a second way of
        saying None: each is refused when the searcher is built."""
        cluster = make_cluster(make_documents(num_docs=2))
        with cluster:
            for delay in (-1, math.nan, math.inf):
                with pytest.raises(ReproError, match="hedge_after_s"):
                    cluster.searcher("owner0", hedge_after_s=delay)


def test_decode_message_roundtrip_still_clean():
    # The resilience wire changes must not disturb message encoding.
    request = ServerStatusRequest()
    assert isinstance(
        decode_message(encode_message(request)), ServerStatusRequest
    )
