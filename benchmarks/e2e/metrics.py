"""The benchmark's metrics: declared once, computed from a run's results.

``END_TO_END`` and ``PER_LAYER`` are what ``BENCHMARK.json`` lists (a
test keeps them equal). Timings are at reference speed (see
``kernel.py``) unless the name says ``raw``; counts are exact.
"""

from __future__ import annotations

import statistics

from benchmarks.e2e.harness import percentile
from repro.observability.metrics import SampleView

#: name, unit, better, bound (share of the parent's median it may lose)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("query_qps", "1/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("index_docs_per_s", "1/s", "higher", 0.25),
    ("response_bytes_per_query", "B", "lower", 0.15),
    ("stored_bytes_per_posting", "B", "lower", 0.02),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: name, unit, better
PER_LAYER = (
    ("client.search_self_us", "us", "lower"),
    ("client.fetch_elements_self_us", "us", "lower"),
    ("client.elements_joined_per_query", "count", "lower"),
    ("client.false_positive_share", "share", "lower"),
    ("client.share_document_self_us_per_doc", "us", "lower"),
    ("client.elements_per_doc", "count", "lower"),
    ("client.flush_us_per_batch", "us", "lower"),
    ("secretsharing.reconstruct_us", "us", "lower"),
    ("secretsharing.reconstruct_ns_per_element", "ns", "lower"),
    ("secretsharing.split_us_per_doc", "us", "lower"),
    ("core.unpack_us", "us", "lower"),
    ("core.unpack_calls_per_query", "count", "lower"),
    ("core.pack_us_per_doc", "us", "lower"),
    ("ranking.topk_us", "us", "lower"),
    ("cluster.route_us", "us", "lower"),
    ("cluster.pods_contacted_per_query", "count", "lower"),
    ("cluster.lookup_messages_per_query", "count", "lower"),
    ("cluster.write_route_us_per_doc", "us", "lower"),
    ("cluster.write_messages_per_doc", "count", "lower"),
    ("cluster.invalidations_per_doc", "count", "lower"),
    ("cluster.rebalance_lists_moved", "count", "lower"),
    ("cluster.rebalance_wire_bytes", "B", "lower"),
    ("protocol.encode_us", "us", "lower"),
    ("protocol.decode_us", "us", "lower"),
    ("protocol.frames_per_query", "count", "lower"),
    ("protocol.wire_bytes_per_query", "B", "lower"),
    ("protocol.transport_wait_us", "us", "lower"),
    ("server.handle_self_us", "us", "lower"),
    ("server.get_lists_us", "us", "lower"),
    ("server.records_returned_per_query", "count", "lower"),
    ("server.insert_batch_us_per_doc", "us", "lower"),
    ("cachetier.l1_hit_share", "share", "higher"),
    ("cachetier.l2_hit_share", "share", "higher"),
    ("cachetier.l1_get_us", "us", "lower"),
    ("cachetier.l2_get_us", "us", "lower"),
    ("cachetier.l2_put_us", "us", "lower"),
    ("cachetier.evictions", "count", "lower"),
    ("cachetier.invalidations", "count", "lower"),
    ("storage.append_us_per_doc", "us", "lower"),
    ("storage.fsyncs_per_doc", "count", "lower"),
    ("storage.bytes_written_per_posting", "B", "lower"),
    ("storage.compactions", "count", "lower"),
    ("storage.compact_busy_s", "s", "lower"),
    ("storage.replay_ms_per_seat", "ms", "lower"),
    ("storage.snapshot_encode_ms", "ms", "lower"),
    ("storage.snapshot_parse_ms", "ms", "lower"),
    ("ops.recover_s", "s", "lower"),
    ("ops.rebalance_s", "s", "lower"),
    ("ops.compaction_wait_s", "s", "lower"),
    ("ops.delete_ms_per_doc", "ms", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.hedges", "count", "lower"),
    ("resilience.failovers", "count", "lower"),
    ("resilience.sheds", "count", "lower"),
    ("harness.speed_factor_median", "ratio", "higher"),
    ("harness.speed_factor_min", "ratio", "higher"),
    ("harness.speed_factor_max", "ratio", "higher"),
    ("harness.kernel_time_share", "share", "lower"),
    ("harness.fsync_wait_share", "share", "lower"),
    ("harness.raw_query_qps", "1/s", "higher"),
    ("harness.raw_query_p50_ms", "ms", "lower"),
    ("harness.query_p99_ms", "ms", "lower"),
    ("harness.query_samples", "count", "higher"),
    ("harness.raw_setup_s", "s", "lower"),
    ("harness.query_cpu_ms", "ms", "lower"),
    ("harness.full_gc_per_1k_queries", "count", "lower"),
    ("harness.trace_overhead_ratio", "ratio", "lower"),
    ("harness.span_coverage_share", "share", "higher"),
    ("harness.counter_mismatches", "count", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(run, results: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Every end-to-end metric, and the sample count behind each."""
    sizes = run.sizes
    setups = results["setups"]
    phases = results["phases"]
    stats = results["stats"]
    latencies = [value for phase in phases for value in phase.values]
    if run.workload.mixed:
        # Steady-state writes: the bursts between reads, caches warm,
        # invalidation live, each burst's final flush included. The
        # median burst, because one burst in ten absorbs a full
        # collection or a compaction and triples.
        written = results["cycles"] * sizes.cycle_writes
        index_rate = _ratio(
            sizes.cycle_writes,
            statistics.median(chunk[0] for chunk in results["write"].chunks),
        )
    else:
        # A read-only workload writes only while it is set up.
        written = len(setups)
        index_rate = statistics.median(
            _ratio(sizes.num_documents, sum(sum(c) for c in phase.chunks[1:]))
            for phase in setups
        )
    values = {
        "setup_s": statistics.median(phase.total for phase in setups),
        "query_qps": _ratio(len(latencies), sum(latencies)),
        "query_p50_ms": percentile(latencies, 0.50) * 1e3,
        "index_docs_per_s": index_rate,
        "response_bytes_per_query": _ratio(
            stats.counts["response_bytes"], stats.queries
        ),
        "stored_bytes_per_posting": results["stored_bytes_per_posting"],
        "peak_rss_mb": results["peak_rss_mb"],
    }
    samples = dict.fromkeys(values, 1)
    samples.update(
        setup_s=len(setups),
        query_qps=len(latencies),
        query_p50_ms=len(latencies),
        index_docs_per_s=written,
        response_bytes_per_query=stats.queries,
    )
    return values, samples


def harness_values(run, results: dict) -> dict[str, float]:
    """How the run itself went: speed regime, overheads, raw timings."""
    phases = results["phases"]
    stats = results["stats"]
    raw = [value for phase in phases for value in phase.raw_values]
    latencies = [value for phase in phases for value in phase.values]
    factors = run.pacer.factors
    wall = results["run_wall_s"]
    return {
        "harness.speed_factor_median": statistics.median(factors),
        "harness.speed_factor_min": min(factors),
        "harness.speed_factor_max": max(factors),
        "harness.kernel_time_share": _ratio(run.pacer.kernel_time, wall),
        "harness.fsync_wait_share": _ratio(run.meter.foreground_wait, wall),
        "harness.raw_query_qps": _ratio(len(raw), sum(raw)),
        "harness.raw_query_p50_ms": percentile(raw, 0.50) * 1e3,
        # The tail is full collections over the share-record heap; its
        # spread between runs is too wide for a bounded metric here.
        "harness.query_p99_ms": percentile(latencies, 0.99) * 1e3,
        "harness.query_samples": len(latencies),
        "harness.raw_setup_s": statistics.median(
            phase.raw_total for phase in results["setups"]
        ),
        "harness.query_cpu_ms": _ratio(stats.cpu_s, stats.queries) * 1e3,
        "harness.full_gc_per_1k_queries": _ratio(
            stats.full_collections * 1000, stats.queries
        ),
    }


def cross_check(run, results: dict) -> list[str]:
    """Compare the harness's own counts with the program's registry.

    The harness counted from the searcher's per-query diagnostics; the
    registry is what the program reports about itself. They must agree,
    and every share must lie in [0, 1] — a dashboard showing a hit rate
    of 1.07 is the kind of bug this exists to catch.
    """
    view = SampleView(results["registry"])
    counts, queries = run.lifetime.counts, run.lifetime.queries
    lists = counts["posting_lists_requested"]
    cached = run.workload.use_cache
    pod_reads = sum(view.by_label("zerber_pod_read_lists_total", "pod").values())
    pairs = [
        ("queries", queries, view.value("zerber_search_queries_total", 0.0)),
        (
            "lists read from pods",
            lists - counts["l1_hits"] - counts["l2_hits"],
            pod_reads,
        ),
    ]
    if cached:
        l1_hits = view.value("zerber_l1_hits", 0.0)
        l2_hits = view.value("zerber_cache_tier_hits", 0.0)
        pairs += [
            ("L1 hits", counts["l1_hits"], l1_hits),
            ("L1 lookups", lists, l1_hits + view.value("zerber_l1_misses", 0.0)),
            ("L2 hits", counts["l2_hits"], l2_hits),
            (
                "L2 lookups",
                lists - counts["l1_hits"],
                l2_hits + view.value("zerber_cache_tier_misses", 0.0),
            ),
        ]
    return [
        f"{what}: harness counted {ours}, registry reports {theirs:g}"
        for what, ours, theirs in pairs
        if ours != theirs
    ]


def per_layer(
    run, results: dict, harness: dict[str, float]
) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric of a traced run, and what did not add up.

    ``harness`` is :func:`harness_values` of the same run; its entries
    are per-layer metrics too.
    """
    sizes, tracer = run.sizes, run.tracer
    # Only the traced round's queries left spans behind.
    reads = tracer.totals(run.factor_of_op["query"])
    writes = tracer.totals(
        {**run.factor_of_op["setup"], **run.factor_of_op["write"]}
    )
    deletes = tracer.totals(run.factor_of_op["delete"])
    drill = tracer.totals(run.factor_of_op["drill"])
    everything = tracer.totals(run.all_factors())
    stats = results["traced_stats"]
    counts = stats.counts
    queries = stats.queries
    documents = sizes.num_documents + results.get("traced_cycles", 0) * (
        sizes.cycle_writes
    )
    traced_wall = results["traced"].total
    plain_wall = sum(phase.total for phase in results["phases"])
    plain_queries = results["stats"].queries
    view = SampleView(results["registry"])
    drill_results = results.get("drill", {})

    def per_query(seconds: float) -> float:
        return _ratio(seconds, queries) * 1e6

    def per_doc(seconds: float) -> float:
        return _ratio(seconds, documents) * 1e6

    write_fsyncs = sum(phase.fsyncs for phase in results["setups"])
    if "traced_write" in results:
        write_fsyncs += results["traced_write"].fsyncs
    deleted = results.get("traced_cycles", 0) * sizes.cycle_deletes
    values = {
        "client.search_self_us": per_query(reads.self_time["client.search"]),
        "client.fetch_elements_self_us": per_query(
            reads.self_time["client.fetch_elements"]
        ),
        "client.elements_joined_per_query": _ratio(
            counts["elements_received"], queries
        ),
        "client.false_positive_share": _ratio(
            counts["false_positives"],
            counts["false_positives"] + counts["elements_matched"],
        ),
        "client.share_document_self_us_per_doc": per_doc(
            writes.self_time["client.share_document"]
        ),
        "client.elements_per_doc": _ratio(writes.calls["core.pack"], documents),
        "client.flush_us_per_batch": _ratio(
            writes.total["client.flush_updates"],
            writes.calls["client.flush_updates"],
        )
        * 1e6,
        "secretsharing.reconstruct_us": per_query(
            reads.total["secretsharing.reconstruct_batch"]
        ),
        "secretsharing.reconstruct_ns_per_element": _ratio(
            reads.total["secretsharing.reconstruct_batch"],
            counts["elements_received"],
        )
        * 1e9,
        "secretsharing.split_us_per_doc": per_doc(
            writes.total["secretsharing.split"]
        ),
        "core.unpack_us": per_query(reads.total["core.unpack"]),
        "core.unpack_calls_per_query": _ratio(
            reads.calls["core.unpack"], queries
        ),
        "core.pack_us_per_doc": per_doc(writes.total["core.pack"]),
        "ranking.topk_us": per_query(reads.total["ranking.topk"]),
        "cluster.route_us": per_query(reads.total["cluster.read_route"]),
        "cluster.pods_contacted_per_query": _ratio(
            counts["pods_contacted"], queries
        ),
        "cluster.lookup_messages_per_query": _ratio(
            counts["lookup_messages"], queries
        ),
        "cluster.write_route_us_per_doc": per_doc(
            writes.self_time["cluster.write_route"]
        ),
        "cluster.write_messages_per_doc": _ratio(
            writes.calls["protocol.call"], documents
        ),
        "cluster.invalidations_per_doc": _ratio(
            writes.calls["cluster.invalidate_list"], documents
        ),
        "cluster.rebalance_lists_moved": drill_results.get("lists_moved", 0),
        "cluster.rebalance_wire_bytes": drill_results.get("wire_bytes", 0),
        "protocol.encode_us": per_query(reads.total["protocol.encode"]),
        "protocol.decode_us": per_query(reads.total["protocol.decode"]),
        "protocol.frames_per_query": _ratio(
            reads.calls["protocol.encode"], queries
        ),
        "protocol.wire_bytes_per_query": _ratio(
            reads.size["protocol.encode"], queries
        ),
        # What Transport.call spent that no span on either side owns:
        # framing, the socket, thread hand-off, waiting for the server.
        "protocol.transport_wait_us": per_query(
            reads.self_time["protocol.call"]
        ),
        "server.handle_self_us": per_query(reads.self_time["server.handle"]),
        "server.get_lists_us": per_query(reads.total["server.get_lists"]),
        "server.records_returned_per_query": _ratio(
            reads.size["server.get_lists"], queries
        ),
        "server.insert_batch_us_per_doc": per_doc(
            writes.total["server.insert_batch"]
        ),
        "cachetier.l1_hit_share": _ratio(
            counts["l1_hits"],
            counts["posting_lists_requested"] if run.workload.use_cache else 0,
        ),
        "cachetier.l2_hit_share": _ratio(
            counts["l2_hits"],
            counts["posting_lists_requested"] - counts["l1_hits"]
            if run.workload.use_cache
            else 0,
        ),
        "cachetier.l1_get_us": per_query(reads.total["cachetier.l1_get"]),
        "cachetier.l2_get_us": per_query(reads.total["cachetier.l2_get"]),
        "cachetier.l2_put_us": per_query(reads.total["cachetier.l2_put"]),
        "cachetier.evictions": view.value("zerber_l1_evictions", 0.0)
        + view.value("zerber_cache_tier_evictions", 0.0),
        "cachetier.invalidations": view.value("zerber_l1_invalidations", 0.0)
        + view.value("zerber_cache_tier_invalidations", 0.0),
        "storage.append_us_per_doc": per_doc(writes.total["storage.append"]),
        "storage.fsyncs_per_doc": _ratio(write_fsyncs, documents),
        # Bytes appended to every seat's log (all replicas) per posting
        # element the owners indexed.
        "storage.bytes_written_per_posting": _ratio(
            writes.size["storage.segment_write"], writes.calls["core.pack"]
        ),
        # Compactions are attributed to the operation in flight when
        # they start; one that starts between operations is not seen.
        "storage.compactions": everything.calls["storage.compact"],
        "storage.compact_busy_s": everything.total["storage.compact"],
        "storage.replay_ms_per_seat": _ratio(
            drill.total["storage.replay"], drill.calls["storage.replay"]
        )
        * 1e3,
        "storage.snapshot_encode_ms": _ratio(
            drill.total["storage.snapshot_encode"],
            drill.calls["storage.snapshot_encode"],
        )
        * 1e3,
        "storage.snapshot_parse_ms": _ratio(
            drill.total["storage.snapshot_parse"],
            drill.calls["storage.snapshot_parse"],
        )
        * 1e3,
        "ops.recover_s": drill_results.get("recover_s", 0.0),
        "ops.rebalance_s": drill_results.get("rebalance_s", 0.0),
        "ops.compaction_wait_s": drill_results.get("compaction_wait_s", 0.0),
        "ops.delete_ms_per_doc": _ratio(
            deletes.total["client.delete_document"], deleted
        )
        * 1e3,
        "resilience.retries": everything.calls["resilience.retry"],
        "resilience.hedges": run.lifetime.counts["hedged_fetches"],
        "resilience.failovers": run.lifetime.counts["failovers"],
        "resilience.sheds": view.value("zerber_admission_shed", 0.0),
        "harness.trace_overhead_ratio": _ratio(
            _ratio(traced_wall, queries), _ratio(plain_wall, plain_queries)
        ),
        "harness.span_coverage_share": _ratio(
            reads.client_root_time, traced_wall
        ),
    }
    values.update(harness)
    problems = cross_check(run, results)
    problems += [
        f"{name} = {value} is not a share"
        for name, value in values.items()
        if name.endswith("_share") and not 0.0 <= value <= 1.0
    ]
    values["harness.counter_mismatches"] = len(problems)
    return values, problems
