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
- ``instrumentation``: saturation qps with metrics hot and a trace per
  query against the uninstrumented figure (gate:
  ``GATE_INSTRUMENTATION_RATIO``).

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_load.py``
"""

from __future__ import annotations

import json
import random
import threading
import time

from benchmarks.conftest import RESULTS_DIR, emit, metrics_snapshot
from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus
from repro.observability import SampleView, new_trace_id
from repro.resilience import FaultPlan

N, K = 3, 2
TERMS_PER_QUERY = 3

#: Concurrent searcher workers ("hundreds of concurrent searchers").
WORKERS = 200

#: Offered overload rate (queries/second). It must exceed capacity *by
#: a wide margin*, so achieved throughput there *is* the saturation
#: qps. The backend serves 450-650 q/s since the wire went columnar (it
#: served 250 when 600 was chosen, and then quietly stopped
#: saturating); keep this at >= 2x the recorded saturation figure.
OVERLOAD_RATE_QPS = 2400.0

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


def _slow_pod_run(cluster, queries, hedge_reads, seed):
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
        "owner0",
        use_cache=False,
        hedge_reads=hedge_reads,
        hedge_delay_s=SLOW_POD_HEDGE_DELAY_S if hedge_reads else None,
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
            cluster, queries, hedge_reads=False, seed=1723
        )
        hp50, hp95, hp99, hedged, wins = _slow_pod_run(
            cluster, queries, hedge_reads=True, seed=1723
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

#: Observability must be (nearly) free on the hot path: saturation qps
#: with metrics hot and every query traced must stay at or above this
#: fraction of the uninstrumented figure.
GATE_INSTRUMENTATION_RATIO = 0.9
#: Same rule as OVERLOAD_RATE_QPS: >= 2x the uninstrumented capacity,
#: or the faster arm is capped by the offer and the ratio means nothing.
INSTRUMENTATION_RATE_QPS = OVERLOAD_RATE_QPS
INSTRUMENTATION_DURATION_S = 6.0


def test_instrumentation_overhead():
    """Two saturation runs over the async backend: one with every
    hot-path instrument disarmed and no traces, one with metrics hot
    and a fresh trace id on every query. The gate is the PR 10
    acceptance bar: instrumented saturation >=
    ``GATE_INSTRUMENTATION_RATIO`` x uninstrumented saturation."""
    corpus = _corpus()
    queries = _queries(corpus, random.Random(42))
    saturation = {}
    for arm in ("uninstrumented", "instrumented"):
        with _build(corpus) as cluster:
            if arm == "uninstrumented":
                # Disarm every hot-path instrument: the client checks
                # the coordinator's registry handle, the server its
                # own. Collectors only run at dump time, so nothing
                # else publishes on the hot path.
                cluster.coordinator.metrics = None
                cluster._socket_server.metrics = None
            qps, _p50, _p95, _p99, completed = open_loop(
                cluster,
                queries,
                INSTRUMENTATION_RATE_QPS,
                INSTRUMENTATION_DURATION_S,
                seed=1723,
                traced=arm == "instrumented",
            )
            assert completed > 0
            saturation[arm] = round(qps, 1)
    ratio = saturation["instrumented"] / max(
        saturation["uninstrumented"], 1e-9
    )
    row = {
        "rate_qps": INSTRUMENTATION_RATE_QPS,
        "duration_s": INSTRUMENTATION_DURATION_S,
        "workers": WORKERS,
        "uninstrumented_qps": saturation["uninstrumented"],
        "instrumented_qps": saturation["instrumented"],
        "ratio": round(ratio, 3),
        "gate_ratio": GATE_INSTRUMENTATION_RATIO,
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
            "instrumentation overhead at saturation "
            f"({WORKERS} workers, async-socket, "
            f"{INSTRUMENTATION_DURATION_S:.0f} s overload)",
            f"  uninstrumented: {saturation['uninstrumented']:8.1f} q/s",
            f"  instrumented:   {saturation['instrumented']:8.1f} q/s "
            "(metrics + a trace per query)",
            f"  ratio {ratio:.3f} (gate >= {GATE_INSTRUMENTATION_RATIO})",
        ],
    )
    assert ratio >= GATE_INSTRUMENTATION_RATIO, (
        f"instrumented saturation {saturation['instrumented']:.1f} qps "
        f"fell below {GATE_INSTRUMENTATION_RATIO}x the uninstrumented "
        f"{saturation['uninstrumented']:.1f} qps"
    )
