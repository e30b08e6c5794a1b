"""Observability layer: registry, tracing, wire flags, dashboards.

Four verification fronts:

- the metrics registry under concurrency — totals never lost, quantile
  estimates monotone, collectors pulled at dump time;
- the trace context and span buffer — passive, bounded, no-op when no
  trace is active;
- the ``TRACE_FLAG`` envelope — round-trips with and without a budget,
  and a classic peer rejects flagged frames instead of misparsing them;
- end to end — trace ids propagate across both transports, a
  traced async-socket search decomposes ≥ 95 % of its wall time into
  named stages with byte-identical results tracing on or off, and the
  ``MetricsDump`` endpoint plus the `cluster top`/`status` CLI render
  live registry data.
"""

from __future__ import annotations

import threading
import time

import pytest

from helpers import make_cluster, make_documents

from repro.cli import _fetch_metrics_view, _pod_status_lines
from repro.cli import main as cli_main
from repro.client.batching import BatchPolicy
from repro.observability.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    SampleView,
    parse_labels,
    render_prometheus,
)
from repro.observability.service import METRICS_ENDPOINT
from repro.observability.tracing import (
    MAX_HOP,
    SpanBuffer,
    TraceContext,
    current_trace,
    global_spans,
    new_trace_id,
    record_span,
    span,
    trace_scope,
)
from repro.errors import ProtocolError
from repro.protocol.codec import decode_message
from repro.protocol.messages import (
    MetricsDumpRequest,
    MetricsDumpResponse,
    ServerStatusRequest,
)
from repro.protocol.transport import (
    _LEN,
    _pack_request,
    _unpack_envelope,
    DEADLINE_FLAG,
    TRACE_FLAG,
)

#: Every transport backend the deployment supports.
TRANSPORTS = ("in-process", "async-socket")


class TestMetricsInstruments:
    def test_concurrent_counter_updates_are_never_lost(self):
        counter = Counter()
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(5000)]
            )
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8 * 5000

    def test_counters_only_go_up(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_concurrent_histogram_totals_are_exact(self):
        histogram = Histogram()
        per_thread = 2000

        def worker(offset):
            for i in range(per_thread):
                histogram.observe((offset + i % 7) * 1e-4)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counts, total_sum, count = histogram.snapshot()
        assert count == 8 * per_thread
        assert sum(counts) == count
        expected = sum(
            (t + i % 7) * 1e-4 for t in range(8) for i in range(per_thread)
        )
        assert total_sum == pytest.approx(expected)

    def test_quantiles_monotone_while_writers_run(self):
        """p50 <= p95 <= p99 on every snapshot, even mid-write."""
        histogram = Histogram()
        stop = threading.Event()

        def writer():
            value = 1e-4
            while not stop.is_set():
                histogram.observe(value)
                value = value * 1.1 if value < 1.0 else 1e-4

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                p = histogram.percentiles()
                assert p["p50"] <= p["p95"] <= p["p99"]
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_quantile_bounds_and_empty(self):
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        assert histogram.quantile(0.5) == 0.0  # empty
        for value in (0.5, 1.5, 3.0, 9.0):
            histogram.observe(value)
        assert histogram.quantile(1.0) == 4.0  # overflow clamps


class TestMetricsRegistry:
    def test_same_name_and_labels_return_the_same_handle(self):
        registry = MetricsRegistry()
        a = registry.counter("reqs", pod="p0")
        b = registry.counter("reqs", pod="p0")
        assert a is b
        assert registry.counter("reqs", pod="p1") is not a

    def test_kind_conflicts_raise(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.histogram("x")
        with pytest.raises(TypeError):
            registry.histogram("x", pod="p0")  # name owns the kind

    def test_collectors_run_at_dump_time(self):
        """A collector's series are read at dump time, merged in name
        order with the stored instruments, and never stored: a series
        leaves the dump with its subject."""
        registry = MetricsRegistry()
        registry.counter("a_total").inc()
        registry.counter("z_total").inc()
        pulls = []
        pods = ["p0", "p1"]

        def collect():
            pulls.append(1)
            for pod in pods:
                yield "pulled", {"pod": pod}, 42

        registry.add_collector(collect)
        assert not pulls
        samples = registry.samples()
        assert pulls == [1]
        assert [(s.name, s.labels) for s in samples] == [
            ("a_total", ""),
            ("pulled", 'pod="p0"'),
            ("pulled", 'pod="p1"'),
            ("z_total", ""),
        ]
        assert SampleView(samples).value("pulled", pod="p1") == 42.0
        pods.remove("p1")
        view = SampleView(registry.samples())
        assert view.label_values("pulled", "pod") == ["p0"]

    def test_histograms_explode_into_buckets_and_quantiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", pod="p0")
        for value in (1e-4, 2e-4, 1e-3, 1e-2):
            histogram.observe(value)
        samples = registry.samples()
        buckets = [
            s for s in samples
            if s.name == "lat_bucket"
        ]
        # Cumulative counts never decrease, +Inf equals the count.
        values = [s.value for s in buckets]
        assert values == sorted(values)
        assert values[-1] == 4
        view = SampleView(samples)
        assert view.value("lat_count", pod="p0") == 4
        p50 = view.value("lat", pod="p0", quantile="0.5")
        p99 = view.value("lat", pod="p0", quantile="0.99")
        assert 0 < p50 <= p99

    def test_prometheus_rendering_and_label_parsing(self):
        registry = MetricsRegistry()
        registry.counter("frames", transport="socket").inc(3)
        text = render_prometheus(registry.samples())
        assert 'frames{transport="socket"} 3\n' == text
        assert parse_labels('a="1",b="x"') == {"a": "1", "b": "x"}
        assert parse_labels("") == {}

    def test_sample_view_accepts_wire_triples(self):
        view = SampleView(
            [
                ("up", 'pod="p0"', 1.0),
                ("up", 'pod="p1"', 0.0),
                ("total", "", 7.0),
            ]
        )
        assert view.value("total") == 7.0
        assert view.value("up", pod="p1") == 0.0
        assert view.value("missing", 5.0) == 5.0
        assert view.label_values("up", "pod") == ["p0", "p1"]
        assert view.by_label("up", "pod") == {"p0": 1.0, "p1": 0.0}


class TestTracing:
    def test_span_is_a_noop_without_a_trace(self):
        buffer = SpanBuffer()
        assert current_trace() is None
        with span("stage", buffer=buffer):
            pass
        record_span("stage", start_s=0.0, duration_s=1.0, buffer=buffer)
        assert len(buffer) == 0

    def test_spans_record_under_a_scope_and_dump_by_trace(self):
        buffer = SpanBuffer()
        trace_id = new_trace_id()
        with trace_scope(trace_id=trace_id):
            with span("outer", buffer=buffer):
                with span("inner", buffer=buffer) as handle:
                    handle.wire_bytes = 128
        spans = buffer.spans_for(trace_id)
        assert [s.stage for s in spans] == ["outer", "inner"]
        assert spans[1].wire_bytes == 128
        assert spans[0].duration_s >= spans[1].duration_s
        assert "inner" in buffer.dump(trace_id)

    def test_spans_record_even_when_the_stage_raises(self):
        buffer = SpanBuffer()
        trace_id = new_trace_id()
        with pytest.raises(RuntimeError):
            with trace_scope(trace_id=trace_id):
                with span("failing", buffer=buffer):
                    raise RuntimeError("boom")
        assert [s.stage for s in buffer.spans_for(trace_id)] == ["failing"]

    def test_buffer_is_bounded(self):
        buffer = SpanBuffer(capacity=4)
        trace = TraceContext(trace_id=1)
        for i in range(10):
            record_span(
                f"s{i}", start_s=float(i), duration_s=0.0,
                trace=trace, buffer=buffer,
            )
        assert len(buffer) == 4
        assert buffer.dropped > 0
        assert [s.stage for s in buffer.spans_for(1)] == [
            "s6", "s7", "s8", "s9",
        ]

    def test_scopes_nest_and_restore(self):
        with trace_scope(trace_id=7) as outer:
            assert current_trace() is outer
            with trace_scope(trace=TraceContext(9, hop=2)) as inner:
                assert current_trace() is inner
            assert current_trace() is outer
        assert current_trace() is None

    def test_hop_counter_saturates_at_the_wire_maximum(self):
        assert TraceContext(1, hop=3).next_hop().hop == 4
        assert TraceContext(1, hop=MAX_HOP).next_hop().hop == MAX_HOP


class TestTraceWire:
    def test_trace_rides_the_wire_and_round_trips(self):
        payload = _pack_request(
            "pod0-server-0", ServerStatusRequest(), trace=(0xABCD, 3)
        )
        word = _LEN.unpack_from(payload)[0]
        assert word & TRACE_FLAG
        dst, budget_us, wire_trace, offset = _unpack_envelope(payload)
        assert dst == "pod0-server-0"
        request = decode_message(payload[offset:])
        assert isinstance(request, ServerStatusRequest)
        assert budget_us is None
        assert wire_trace == (0xABCD, 3)

    def test_trace_and_budget_share_the_envelope(self):
        payload = _pack_request(
            "pod0-server-0",
            ServerStatusRequest(),
            budget_us=250_000,
            trace=(1 << 60, 1),
        )
        word = _LEN.unpack_from(payload)[0]
        assert word & TRACE_FLAG and word & DEADLINE_FLAG
        _dst, budget_us, wire_trace, _offset = _unpack_envelope(payload)
        assert budget_us == 250_000
        assert wire_trace == (1 << 60, 1)

    def test_classic_parser_sees_an_absurd_name_length(self):
        # A peer that predates TRACE_FLAG reads the flagged length word
        # verbatim: 0x2000_0000 + 13 bytes of "name" it can never
        # receive — the frame is rejected as truncated, not misparsed.
        payload = _pack_request(
            "pod0-server-0", ServerStatusRequest(), trace=(5, 0)
        )
        word = _LEN.unpack_from(payload)[0]
        assert word > 0x2000_0000
        assert word - TRACE_FLAG == len(b"pod0-server-0")

    def test_truncated_trace_is_a_typed_protocol_error(self):
        payload = _pack_request(
            "pod0-server-0", ServerStatusRequest(), trace=(5, 0)
        )
        truncated = payload[: _LEN.size + len(b"pod0-server-0") + 4]
        with pytest.raises(ProtocolError):
            _unpack_envelope(truncated)


def _query_terms(documents):
    return sorted(documents[0].term_counts)[:2]


class TestEndToEnd:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_metrics_dump_reaches_every_transport(self, transport):
        documents = make_documents()
        cluster = make_cluster(documents, transport=transport)
        with cluster:
            searcher = cluster.searcher("owner0")
            searcher.search(_query_terms(documents), top_k=5)
            response = cluster.transport.call(
                src="operator",
                dst=METRICS_ENDPOINT,
                request=MetricsDumpRequest(),
            )
            assert isinstance(response, MetricsDumpResponse)
            view = SampleView(response.samples)
            assert view.value("zerber_num_lists") == 8
            assert view.value("zerber_search_queries_total") >= 1
            assert view.label_values("zerber_pod_live_seats", "pod") == [
                "pod0", "pod1",
            ]
            if transport != "in-process":
                label = transport
                frames = view.value(
                    "zerber_server_frames_total", transport=label
                )
                request_bytes = view.value(
                    "zerber_server_request_bytes_total", transport=label
                )
                assert frames and frames >= 1
                assert request_bytes and request_bytes > frames

    def test_seat_snapshot_counters_reach_metrics_dump_over_the_socket(self):
        documents = make_documents()
        cluster = make_cluster(documents, transport="async-socket")
        with cluster:
            searcher = cluster.searcher("owner0", use_cache=False)

            def dump():
                return SampleView(
                    cluster.transport.call(
                        src="operator",
                        dst=METRICS_ENDPOINT,
                        request=MetricsDumpRequest(),
                    ).samples
                )

            views = []
            for _ in range(3):
                searcher.search(_query_terms(documents), top_k=5)
                views.append(dump())
            seats = [slot for pod in cluster.pods for slot in pod.slots]
            for slot in seats:
                server = slot.server
                for key in ("snapshot_builds", "snapshot_reads"):
                    assert views[-1].value(
                        f"zerber_server_{key}", server=slot.server_id
                    ) == getattr(server, key)

            def total(view, key):
                return sum(
                    view.value(f"zerber_server_{key}", server=slot.server_id)
                    for slot in seats
                )

            # No write between the searches: the second keeps the
            # snapshots, the third copies nothing.
            builds = [total(v, "snapshot_builds") for v in views]
            reads = [total(v, "snapshot_reads") for v in views]
            assert 0 < builds[0] < builds[1] == builds[2]
            assert builds[0] == reads[0] < reads[1] < reads[2]

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_trace_id_propagates_across_the_transport(self, transport):
        documents = make_documents()
        cluster = make_cluster(documents, transport=transport)
        with cluster:
            terms = _query_terms(documents)
            searcher = cluster.searcher("owner0", use_cache=False)
            baseline = searcher.search(terms, top_k=5)
            trace_id = new_trace_id()
            traced = searcher.search(terms, top_k=5, trace_id=trace_id)
            # Tracing is passive: results are byte-identical on/off.
            assert traced == baseline
            spans = global_spans().spans_for(trace_id)
            stages = [s.stage for s in spans]
            assert "search" in stages
            assert any(s.startswith("fetch:pod") for s in stages)
            if transport != "in-process":
                # The id crossed real TCP: the server restored it from
                # the frame and recorded dispatch spans at hop >= 1.
                server_spans = [
                    s for s in spans if s.stage.startswith("server:")
                ]
                assert server_spans
                assert all(s.hop >= 1 for s in server_spans)

    def test_async_socket_trace_decomposes_wall_time(self):
        """The acceptance drill: one traced search over async-socket
        yields spans covering >= 95 % of measured wall time, broken
        into named stages."""
        documents = make_documents(num_docs=16)
        cluster = make_cluster(documents, transport="async-socket")
        with cluster:
            terms = _query_terms(documents)
            searcher = cluster.searcher("owner0", use_cache=False)
            searcher.search(terms, top_k=5)  # warm code paths
            trace_id = new_trace_id()
            started = time.perf_counter()
            traced = searcher.search(terms, top_k=5, trace_id=trace_id)
            wall_s = time.perf_counter() - started
            plain = searcher.search(terms, top_k=5)
            assert traced == plain
            spans = global_spans().spans_for(trace_id)
            search_spans = [s for s in spans if s.stage == "search"]
            assert len(search_spans) == 1
            assert search_spans[0].duration_s >= 0.95 * wall_s
            stages = {s.stage for s in spans}
            assert {
                "search", "fetch-elements", "reconstruct", "unpack", "rank"
            } <= stages
            assert any(s.startswith("fetch:pod") for s in stages)
            assert any(s.startswith("server:") for s in stages)
            assert any(s.startswith("call:") for s in stages)
            # The wire spans carry their response byte counts.
            assert any(
                s.wire_bytes > 0
                for s in spans
                if s.stage.startswith("fetch:")
            )


    def test_async_socket_trace_splits_codec_from_wire(self):
        """Every ``call:<dst>`` round trip is flanked by a client
        ``encode`` and ``decode`` span and mirrored by a server
        ``decode`` / ``encode`` pair, each tagged with its frame bytes
        — so a trace dump separates codec time from wire wait."""
        documents = make_documents(num_docs=16)
        cluster = make_cluster(documents, transport="async-socket")
        with cluster:
            terms = _query_terms(documents)
            searcher = cluster.searcher("owner0", use_cache=False)
            plain = searcher.search(terms, top_k=5)
            trace_id = new_trace_id()
            assert searcher.search(terms, top_k=5, trace_id=trace_id) == plain
            spans = global_spans().spans_for(trace_id)
            calls = [s for s in spans if s.stage.startswith("call:")]
            assert calls

            def frame_bytes(stage, server_side):
                found = [
                    s.wire_bytes
                    for s in spans
                    if s.stage == stage and (s.hop >= 1) == server_side
                ]
                assert len(found) == len(calls) and all(found)
                return sum(found)

            # Each end decoded exactly the frame the other encoded, and a
            # call span's bytes are the two frames the client handled.
            assert frame_bytes("encode", True) == frame_bytes("decode", False)
            assert frame_bytes("encode", False) == frame_bytes("decode", True)
            assert sum(s.wire_bytes for s in calls) == frame_bytes(
                "encode", False
            ) + frame_bytes("decode", False)
            # Untraced calls record nothing.
            before = len(global_spans())
            assert searcher.search(terms, top_k=5) == plain
            assert len(global_spans()) == before


class TestSearchMetrics:
    """``search`` and ``fetch_elements`` both fetch through
    ``fetch_postings``, so each call counts exactly one query."""

    @pytest.mark.parametrize("metrics_on", [True, False])
    def test_each_entry_point_counts_one_query(self, metrics_on):
        documents = make_documents()
        cluster = make_cluster(documents)
        with cluster:
            if not metrics_on:
                cluster.coordinator.metrics = None
            terms = _query_terms(documents)
            searcher = cluster.searcher("owner0")
            calls = [
                lambda: searcher.search(terms, top_k=5),
                lambda: searcher.fetch_elements(terms),
                lambda: searcher.search(terms, top_k=5, fetch_snippets=False),
                lambda: searcher.fetch_elements(terms),
            ]
            for done, call in enumerate(calls, start=1):
                assert call()
                view = SampleView(cluster.metrics.samples())
                queries = view.value("zerber_search_queries_total")
                latencies = view.value("zerber_search_latency_seconds_count")
                if metrics_on:
                    assert queries == latencies == done
                else:
                    assert queries is None and latencies is None


class TestIndexMetrics:
    """The write side of the registry: totals pulled from the owners at
    dump time, one flush-time observation per released batch."""

    def _ingest(self, metrics_on: bool):
        documents = make_documents(num_docs=14, num_groups=3)
        cluster = make_cluster(documents[:0])
        if not metrics_on:
            cluster.coordinator.metrics = None
        for group_id in range(3):
            cluster.create_group(group_id, coordinator=f"owner{group_id}")
            cluster.owner(
                f"owner{group_id}", batch_policy=BatchPolicy(min_documents=3)
            )
        returned = [
            cluster.share_document(f"owner{d.group_id}", d) for d in documents
        ]
        # Re-sharing withdraws and shares again: one more document.
        returned.append(cluster.share_document("owner0", documents[0]))
        cluster.flush_all()
        return cluster, documents, returned

    def test_totals_equal_what_share_document_returned(self):
        cluster, _documents, returned = self._ingest(metrics_on=True)
        with cluster:
            view = SampleView(cluster.metrics.samples())
            assert view.value("zerber_index_documents_total") == len(returned)
            assert view.value("zerber_index_elements_total") == sum(returned)
            batches = sum(
                cluster.owner(f"owner{g}").batches_flushed for g in range(3)
            )
            assert 3 <= batches < len(returned)
            assert view.value("zerber_index_batches_total") == batches
            # One observation per flush, not per document or element.
            assert view.value("zerber_index_flush_seconds_count") == batches
            assert view.value("zerber_index_flush_seconds", quantile="0.5") > 0

    def test_results_are_byte_identical_with_metrics_off(self):
        on, documents, returned_on = self._ingest(metrics_on=True)
        off, _documents, returned_off = self._ingest(metrics_on=False)
        with on, off:
            assert returned_on == returned_off
            assert _seat_rows(on) == _seat_rows(off)
            for cluster in (on, off):
                cluster.add_member(0, "reader", actor="owner0")
            terms = _query_terms(documents)
            assert [
                (r.doc_id, r.score) for r in on.search("reader", terms)
            ] == [(r.doc_id, r.score) for r in off.search("reader", terms)]
            view = SampleView(off.metrics.samples())
            # Totals are pulled from the owners either way; only the
            # hot-path histogram goes quiet.
            assert view.value("zerber_index_documents_total") == len(returned_off)
            assert view.value("zerber_index_flush_seconds_count") is None


def _seat_rows(cluster):
    return [
        (slot.server_id, pl_id, slot.server.export_posting_list(pl_id))
        for pod in cluster.coordinator.pods
        for slot in pod.slots
        for pl_id in range(8)
    ]


class TestInjectableClock:
    def test_fetch_latency_accounting_uses_the_injected_clock(self):
        """A frozen clock yields exactly-zero EWMAs — impossible with
        the real clock — proving the read path times fetches with the
        injected source, without a single sleep."""
        documents = make_documents()
        cluster = make_cluster(documents, clock=lambda: 100.0)
        with cluster:
            searcher = cluster.searcher("owner0", use_cache=False)
            searcher.search(_query_terms(documents), top_k=5)
            view = SampleView(cluster.metrics.samples())
            loads = view.by_label("zerber_pod_read_load", "pod")
            read_pods = [pod for pod, load in loads.items() if load > 0]
            assert read_pods
            for pod in read_pods:
                assert cluster.coordinator.pod_read_latency[pod] == 0.0
                assert view.value(
                    "zerber_pod_read_latency_ewma_seconds", pod=pod
                ) == 0.0

    def test_breakers_share_the_injected_clock(self):
        """Cooldown expiry driven by advancing a fake clock, no sleeps."""
        documents = make_documents(num_docs=4)
        now = [100.0]
        cluster = make_cluster(documents, clock=lambda: now[0])
        with cluster:
            breakers = cluster.coordinator.breakers
            for _ in range(3):
                breakers.record_failure("pod0")
            assert breakers.of("pod0").state == "open"
            now[0] += 1.0  # default cooldown_s elapses instantly
            assert breakers.of("pod0").state == "half-open"


class TestDashboards:
    def test_cluster_top_renders_live_registry_data(self, capsys):
        code = cli_main(
            [
                "cluster", "top", "--pods", "2", "--documents", "16",
                "--iterations", "2", "--interval", "0.05",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "repro cluster top · frame 2/2" in out
        # Top indexes nothing: every frame's rate is a delta between two
        # dumps, the first frame's against a baseline taken before it.
        assert out.count("index: 16 documents (0.0 docs/s)") == 2
        assert "flush p50" in out and "flush p50 0.00ms" not in out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "pod0" in out and "pod1" in out
        assert "breakers:" in out
        assert "anti-entropy:" in out

    def test_a_retired_pod_leaves_the_dump(self, tmp_path):
        """Collector series are never stored, so retiring a pod takes its
        pod, seat, breaker, read-snapshot and storage series out of the
        dump, and the status view counts the live pods only."""
        cluster = make_cluster(
            make_documents(), num_pods=3, replication_factor=2,
            wal_dir=tmp_path,
        )
        with cluster:
            cluster.coordinator.breakers.record_failure("pod2")

            def naming_pod2(view):
                return {s.name for s in view.samples if "pod2" in s.labels}

            # No query has run: every series naming pod2 is collected.
            collected = naming_pod2(_fetch_metrics_view(cluster))
            assert {
                "zerber_pod_live_seats",
                "zerber_seat_alive",
                "zerber_breaker_state",
                "zerber_server_snapshot_reads",
                "zerber_storage_segments",
            } <= collected
            cluster.retire_pod(2)
            view = _fetch_metrics_view(cluster)
            assert not naming_pod2(view) & collected
            rows = _pod_status_lines(view)
            assert [row.split(":")[0].strip() for row in rows] == [
                "pod0", "pod1",
            ]

    def test_cluster_status_renders_from_the_metrics_dump(self, capsys):
        code = cli_main(
            [
                "cluster", "status", "--pods", "2", "--documents", "16",
                "--kill", "1:0", "--l1-entries", "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cluster: 2 pods" in out
        assert "seats live" in out
        assert "dead: pod1-server-0" in out
        assert "L1 (searcher-local" in out

    def test_cache_status_renders_from_the_metrics_dump(self, capsys):
        code = cli_main(
            [
                "cache", "status", "--pods", "2", "--documents", "16",
                "--cache-tier", "lru", "--l1-entries", "64",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "L1 (searcher-local" in out
        assert "L2 (shared tier, LRU)" in out
        assert "hit rate" in out
