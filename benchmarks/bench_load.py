"""Load harness for the async-socket backend: slow pods and the cost
of instrumentation.

Closed-loop benchmarks (``bench_transport.py``) hide overload: a slow
server slows its own clients down, so measured qps degrades gracefully
and latency never shows the queue. :func:`open_loop` drives the
serving stack the way real traffic does — **open loop**: query
arrivals are a seeded Poisson process at a configured offered rate,
independent of completions, executed by a pool of hundreds of
concurrent searchers, with latency measured from the *scheduled
arrival*. Offered far above capacity, achieved throughput is the
backend's saturation qps.

Rows land in ``benchmarks/results/BENCH_load.json``:

- ``slow_pod``: one stalled replica pod, hedged against unhedged
  p50/p95/p99 (gate: hedged p99 <= ``GATE_HEDGE_P99_RATIO`` x
  unhedged);
- ``instrumentation``: spans per traced query and registry updates
  per query (gates: no more than ``SPANS_PER_TRACED_QUERY`` and
  ``REGISTRY_UPDATES_PER_QUERY``), single-thread untraced over traced
  time per query (gate: ``GATE_TRACE_TIME_RATIO``), and one traced
  open-loop overload run (information, not gated).

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_load.py``
"""

from __future__ import annotations

import itertools
import json
import random
import threading
import time

from benchmarks.conftest import RESULTS_DIR, emit, metrics_snapshot
from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus
from repro.observability import (
    Counter,
    Histogram,
    SampleView,
    global_spans,
    new_trace_id,
)
from repro.resilience import FaultPlan

N, K = 3, 2
TERMS_PER_QUERY = 3

#: Concurrent searcher workers ("hundreds of concurrent searchers").
WORKERS = 200

#: Offered overload rate (queries/second). It must exceed capacity *by
#: a wide margin*, so achieved throughput there *is* the saturation
#: qps. The one-pod cluster serves ~2 000 traced q/s (it served 250
#: when 600 was chosen, and then quietly stopped saturating); keep
#: this at >= 2x the recorded saturation figure.
OVERLOAD_RATE_QPS = 4800.0

#: Slow-pod scenario (PR 8): one replica pod stalls on a seeded
#: schedule; hedged reads must keep tail latency bounded. The gate is
#: hedged p99 <= GATE_HEDGE_P99_RATIO x unhedged p99. The stall is
#: server-side (``cluster.registry.fault_plan``, acted out by the
#: socket server), so both runs fetch in pipelined rounds and a stalled
#: seat holds up only its own answer.
SLOW_POD_QUERIES = 120
SLOW_POD_STALL_RATE = 0.35
SLOW_POD_STALL_S = 0.12
SLOW_POD_HEDGE_DELAY_S = 0.01
GATE_HEDGE_P99_RATIO = 0.5


def _corpus():
    return generate_corpus(
        SyntheticCorpusConfig(
            num_documents=120,
            vocabulary_size=900,
            num_groups=2,
            seed=1723,
        )
    )


def _queries(corpus, rng, count=64):
    probabilities = corpus.term_probabilities()
    frequent = sorted(
        probabilities, key=lambda t: (-probabilities[t], t)
    )[:120]
    return [rng.sample(frequent, TERMS_PER_QUERY) for _ in range(count)]


def _build(corpus):
    cluster = ClusterDeployment.bootstrap(
        corpus.term_probabilities(),
        heuristic="dfm",
        num_lists=64,
        num_pods=1,
        k=K,
        n=N,
        batch_policy=BatchPolicy(min_documents=8),
        seed=1723,
        transport="async-socket",
    )
    for g in corpus.group_ids():
        cluster.create_group(g, coordinator=f"owner{g}")
    for document in corpus:
        cluster.share_document(f"owner{document.group_id}", document)
    cluster.flush_all()
    return cluster


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def open_loop(cluster, queries, rate_qps, duration_s, seed, traced=False):
    """One open-loop run: Poisson arrivals at ``rate_qps`` for
    ``duration_s``, executed by ``WORKERS`` concurrent searchers.
    With ``traced=True`` every query carries a fresh trace id (the
    instrumentation-overhead arm).

    Returns ``(achieved_qps, p50_ms, p95_ms, p99_ms, completed)``.
    Arrival times are drawn up front from a seeded exponential stream;
    each worker claims the next arrival, sleeps until it is due (if the
    backlog has not already eaten the schedule), runs the query, and
    records completion − scheduled-arrival as that query's latency.
    Under overload nobody sleeps and the pool chews the backlog at the
    backend's capacity — which is exactly the number we are after.
    """
    rng = random.Random(seed)
    arrivals = []
    t = 0.0
    while t < duration_s:
        t += rng.expovariate(rate_qps)
        arrivals.append(t)
    picks = [rng.randrange(len(queries)) for _ in arrivals]
    searchers = [
        cluster.searcher("owner0", use_cache=False) for _ in range(WORKERS)
    ]
    cursor = [0]
    cursor_lock = threading.Lock()
    latencies_s: list[float] = []
    sink_lock = threading.Lock()
    start = time.perf_counter()
    deadline = duration_s + 20.0  # overload safety valve

    def worker(worker_id: int) -> None:
        searcher = searchers[worker_id]
        local: list[float] = []
        while True:
            with cursor_lock:
                index = cursor[0]
                if index >= len(arrivals):
                    break
                cursor[0] += 1
            due = start + arrivals[index]
            now = time.perf_counter()
            if now - start > deadline:
                break
            if now < due:
                time.sleep(due - now)
            if traced:
                searcher.search(
                    queries[picks[index]], top_k=10,
                    fetch_snippets=False, trace_id=new_trace_id(),
                )
            else:
                searcher.search(
                    queries[picks[index]], top_k=10, fetch_snippets=False
                )
            local.append(time.perf_counter() - due)
        with sink_lock:
            latencies_s.extend(local)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(WORKERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    ordered = sorted(latencies_s)
    return (
        len(ordered) / elapsed,
        _percentile(ordered, 0.50) * 1e3,
        _percentile(ordered, 0.95) * 1e3,
        _percentile(ordered, 0.99) * 1e3,
        len(ordered),
    )


# -- PR 8: one slow pod, hedged vs unhedged -----------------------------------


def _build_replicated(corpus):
    """Two pods, R=2: every list readable from either pod."""
    cluster = ClusterDeployment.bootstrap(
        corpus.term_probabilities(),
        heuristic="dfm",
        num_lists=64,
        num_pods=2,
        k=K,
        n=N,
        batch_policy=BatchPolicy(min_documents=8),
        seed=1723,
        transport="async-socket",
        replication_factor=2,
        admission_max_pending=256,
    )
    for g in corpus.group_ids():
        cluster.create_group(g, coordinator=f"owner{g}")
    for document in corpus:
        cluster.share_document(f"owner{document.group_id}", document)
    cluster.flush_all()
    return cluster


def _slow_pod_run(cluster, queries, hedge_after_s, seed):
    """Sequential latency sweep against a cluster whose pod0 stalls.

    The stall holds back pod0's answers on the server loop: the plan is
    set on the one fault seam, ``cluster.registry.fault_plan``, which
    the socket server acts out before it answers, so the rounds stay
    pipelined and a hedge can leave. Routing is
    pinned (stalled pod primary for every list) so the EWMA
    ranker cannot rescue the unhedged run by routing around the stall —
    the comparison isolates exactly what hedging buys.

    Returns ``(p50_ms, p95_ms, p99_ms, hedged, hedge_wins)``.
    """
    coordinator = cluster.coordinator
    stalled = frozenset(
        slot.server_id for slot in cluster.pods[0].slots
    )
    plan = FaultPlan(
        seed=seed,
        stall_rate=SLOW_POD_STALL_RATE,
        stall_s=SLOW_POD_STALL_S,
        endpoints=stalled,
    )
    cluster.registry.fault_plan = plan
    searcher = cluster.searcher(
        "owner0", use_cache=False, hedge_after_s=hedge_after_s
    )
    original = coordinator.read_replicas
    coordinator.read_replicas = lambda pl_id: sorted(
        original(pl_id), key=lambda pod: pod.name
    )
    latencies = []
    hedged = wins = 0
    try:
        for index in range(SLOW_POD_QUERIES):
            terms = queries[index % len(queries)]
            begin = time.perf_counter()
            searcher.search(terms, top_k=10, fetch_snippets=False)
            latencies.append(time.perf_counter() - begin)
            diag = searcher.last_cluster_diagnostics
            hedged += diag.hedged_fetches
            wins += diag.hedge_wins
    finally:
        coordinator.read_replicas = original
        cluster.registry.fault_plan = None
    ordered = sorted(latencies)
    return (
        _percentile(ordered, 0.50) * 1e3,
        _percentile(ordered, 0.95) * 1e3,
        _percentile(ordered, 0.99) * 1e3,
        hedged,
        wins,
    )


def test_slow_pod_hedging():
    corpus = _corpus()
    queries = _queries(corpus, random.Random(42))
    with _build_replicated(corpus) as cluster:
        up50, up95, up99, _h, _w = _slow_pod_run(
            cluster, queries, hedge_after_s=None, seed=1723
        )
        hp50, hp95, hp99, hedged, wins = _slow_pod_run(
            cluster, queries, hedge_after_s=SLOW_POD_HEDGE_DELAY_S,
            seed=1723,
        )
        view = SampleView(cluster.metrics.samples())
        row = {
            "queries": SLOW_POD_QUERIES,
            "stall_rate": SLOW_POD_STALL_RATE,
            "stall_ms": SLOW_POD_STALL_S * 1e3,
            "hedge_delay_ms": SLOW_POD_HEDGE_DELAY_S * 1e3,
            "unhedged": {
                "p50_ms": round(up50, 2),
                "p95_ms": round(up95, 2),
                "p99_ms": round(up99, 2),
            },
            "hedged": {
                "p50_ms": round(hp50, 2),
                "p95_ms": round(hp95, 2),
                "p99_ms": round(hp99, 2),
                "hedged_fetches": hedged,
                "hedge_wins": wins,
            },
            "p99_ratio": round(hp99 / up99, 3) if up99 else None,
            "gate_p99_ratio": GATE_HEDGE_P99_RATIO,
            "admission": {
                key: int(view.value(f"zerber_admission_{key}"))
                for key in (
                    "max_pending", "depth", "peak_depth", "admitted", "shed"
                )
            },
            "health": cluster.coordinator.breakers.snapshot(),
            "metrics": metrics_snapshot(cluster),
        }
    # Merge into BENCH_load.json next to the instrumentation row (either
    # test may run alone; neither clobbers the other's numbers).
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_load.json"
    payload = (
        json.loads(path.read_text())
        if path.exists()
        else {"schema": "zerber.bench_load.v1"}
    )
    payload["slow_pod"] = row
    path.write_text(json.dumps(payload, indent=2) + "\n")
    emit(
        "slow_pod_hedging",
        [
            "one stalled replica pod (2 pods, R=2, async-socket), "
            f"server-side stall {SLOW_POD_STALL_S * 1e3:.0f} ms at "
            f"p={SLOW_POD_STALL_RATE}, sequential queries",
            f"  unhedged: p50 {up50:7.1f}  p95 {up95:7.1f}  "
            f"p99 {up99:7.1f} ms",
            f"  hedged:   p50 {hp50:7.1f}  p95 {hp95:7.1f}  "
            f"p99 {hp99:7.1f} ms  "
            f"({hedged} hedges, {wins} backup wins)",
            f"  p99 ratio {hp99 / up99:.3f} "
            f"(gate <= {GATE_HEDGE_P99_RATIO})",
        ],
    )
    assert hedged > 0, "hedging never fired against a stalled pod"
    # The regression gate: a stalled replica must not own the tail.
    assert hp99 <= GATE_HEDGE_P99_RATIO * up99, (
        f"hedged p99 {hp99:.1f} ms exceeded "
        f"{GATE_HEDGE_P99_RATIO}x unhedged p99 {up99:.1f} ms"
    )


# -- PR 10: instrumentation overhead ------------------------------------------

#: Pinned per-query work of observability on the one-pod async-socket
#: cluster (``_build``, 64-query log): spans a traced query records
#: (client and server side, evictions included) and registry updates
#: (``Counter.inc`` + ``Histogram.observe``) a query makes. Both are
#: counts, not timings, so they cannot flake; the gate fails when
#: either grows.
SPANS_PER_TRACED_QUERY = 19.0
REGISTRY_UPDATES_PER_QUERY = 8.0
#: Untraced over traced time per query, one client thread, best of
#: TIMING_PASSES interleaved passes, span ring full. On a 2-vCPU box it
#: read 0.934-0.961 alone and 0.866-0.881 beside another test run, so
#: the bar sits below both; a tracing cost grown by a quarter of a
#: query still fails it.
GATE_TRACE_TIME_RATIO = 0.8
TIMING_PASSES = 9
#: The open-loop overload run recorded beside the gates as
#: information: saturation qps with metrics hot and a trace per query.
INSTRUMENTATION_DURATION_S = 2.0


def _run_log(searcher, queries, traced):
    """Run the log once on this thread; returns seconds per query."""
    begin = time.perf_counter()
    for terms in queries:
        searcher.search(
            terms, top_k=10, fetch_snippets=False,
            trace_id=new_trace_id() if traced else None,
        )
    return (time.perf_counter() - begin) / len(queries)


def _registry_updates(searcher, queries):
    """Registry updates the log makes, from every thread, per query."""
    calls = itertools.count()
    inc, observe = Counter.inc, Histogram.observe

    def counted(original):
        def wrapper(self, *args, **kwargs):
            next(calls)  # one C-level step: no lost update across threads
            return original(self, *args, **kwargs)
        return wrapper

    Counter.inc, Histogram.observe = counted(inc), counted(observe)
    try:
        _run_log(searcher, queries, traced=False)
    finally:
        Counter.inc, Histogram.observe = inc, observe
    return next(calls) / len(queries)


def test_instrumentation_overhead():
    """Observability's cost on the hot path, from quantities a busy box
    cannot move (spans and registry updates per query) plus one timing
    that it moves little (single-thread untraced over traced time, best
    of interleaved passes). One open-loop overload run is recorded as
    information, not gated: at 200 threads its ratio measured the box
    more than the change."""
    corpus = _corpus()
    queries = _queries(corpus, random.Random(42))
    with _build(corpus) as cluster:
        searcher = cluster.searcher("owner0", use_cache=False)
        _run_log(searcher, queries, traced=True)  # warm connection, caches
        ring = global_spans()
        ring.clear()
        _run_log(searcher, queries, traced=True)
        spans = (len(ring) + ring.dropped) / len(queries)
        updates = _registry_updates(searcher, queries)
        # Time the steady state of a long-lived process: the span ring
        # full, so every traced record also evicts.
        while not ring.dropped:
            _run_log(searcher, queries, traced=True)
        best = {"untraced": float("inf"), "traced": float("inf")}
        for index in range(TIMING_PASSES):
            arms = ("untraced", "traced")
            for arm in arms if index % 2 == 0 else arms[::-1]:
                best[arm] = min(
                    best[arm], _run_log(searcher, queries, arm == "traced")
                )
        ring.clear()
        qps, p50, _p95, p99, completed = open_loop(
            cluster,
            queries,
            OVERLOAD_RATE_QPS,
            INSTRUMENTATION_DURATION_S,
            seed=1723,
            traced=True,
        )
        assert completed > 0
    ratio = best["untraced"] / best["traced"]
    row = {
        "queries": len(queries),
        "spans_per_traced_query": spans,
        "gate_spans_per_traced_query": SPANS_PER_TRACED_QUERY,
        "registry_updates_per_query": updates,
        "gate_registry_updates_per_query": REGISTRY_UPDATES_PER_QUERY,
        "timing_passes": TIMING_PASSES,
        "untraced_us_per_query": round(best["untraced"] * 1e6, 1),
        "traced_us_per_query": round(best["traced"] * 1e6, 1),
        "time_ratio": round(ratio, 3),
        "gate_time_ratio": GATE_TRACE_TIME_RATIO,
        "open_loop": {
            "rate_qps": OVERLOAD_RATE_QPS,
            "duration_s": INSTRUMENTATION_DURATION_S,
            "workers": WORKERS,
            "traced_qps": round(qps, 1),
            "p50_ms": round(p50, 2),
            "p99_ms": round(p99, 2),
        },
    }
    # Merge into BENCH_load.json next to the slow-pod row (either test
    # may run alone; neither clobbers the other's numbers).
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_load.json"
    payload = (
        json.loads(path.read_text())
        if path.exists()
        else {"schema": "zerber.bench_load.v1"}
    )
    payload["instrumentation"] = row
    path.write_text(json.dumps(payload, indent=2) + "\n")
    emit(
        "instrumentation_overhead",
        [
            f"instrumentation overhead (one-pod async-socket cluster, "
            f"{len(queries)}-query log)",
            f"  spans per traced query:     {spans:6.1f} "
            f"(gate <= {SPANS_PER_TRACED_QUERY})",
            f"  registry updates per query: {updates:6.1f} "
            f"(gate <= {REGISTRY_UPDATES_PER_QUERY})",
            f"  one thread, best of {TIMING_PASSES}: untraced "
            f"{best['untraced'] * 1e6:7.1f} us, traced "
            f"{best['traced'] * 1e6:7.1f} us per query, ratio "
            f"{ratio:.3f} (gate >= {GATE_TRACE_TIME_RATIO})",
            f"  open loop, {WORKERS} workers, "
            f"{INSTRUMENTATION_DURATION_S:.0f} s at "
            f"{OVERLOAD_RATE_QPS:.0f} q/s offered, traced: "
            f"{qps:.1f} q/s, p50 {p50:.1f} ms, p99 {p99:.1f} ms "
            "(information, not gated)",
        ],
    )
    assert spans <= SPANS_PER_TRACED_QUERY, (
        f"a traced query records {spans:.2f} spans, more than the "
        f"pinned {SPANS_PER_TRACED_QUERY}"
    )
    assert updates <= REGISTRY_UPDATES_PER_QUERY, (
        f"a query makes {updates:.2f} registry updates, more than the "
        f"pinned {REGISTRY_UPDATES_PER_QUERY}"
    )
    assert ratio >= GATE_TRACE_TIME_RATIO, (
        f"a traced query took {best['traced'] * 1e6:.1f} us against "
        f"{best['untraced'] * 1e6:.1f} us untraced (ratio {ratio:.3f} < "
        f"{GATE_TRACE_TIME_RATIO})"
    )
