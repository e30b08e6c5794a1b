"""Command-line interface: ``python -m repro <command>``.

Five entry points for kicking Zerber's tires without writing code:

- ``demo``      — the quickstart scenario end to end;
- ``merge``     — run a §6 heuristic over a synthetic corpus and print the
  merge statistics (r, singletons, mass quantiles);
- ``audit``     — the operator confidentiality audit for a chosen
  configuration, including the §8 request-stream channels;
- ``bandwidth`` — the §7.3 network model with adjustable parameters;
- ``cluster``   — the sharded multi-pod engine: ``deploy`` prints the
  topology and shard placement, ``search`` runs batched cluster queries,
  ``kill-server`` demonstrates failover under server loss, ``kill-pod``
  runs the whole-pod-loss drill (with ``--replication 2`` the answers
  stay byte-identical, then the pod restarts and owners re-provision
  the writes it missed), ``status`` prints the observability snapshot
  (pods, live/dead seats, replica placement, per-pod EWMA read
  latency), and ``top`` renders a live curses-free dashboard (per-pod
  read rates and latency quantiles, cache hit rates, breaker and
  admission state) polled over the ``MetricsDump`` wire message. Every
  run rebuilds the same deterministic scenario from ``--seed``, like
  the other commands;
- ``serve``     — stand the deterministic cluster scenario up behind the
  wire protocol on a TCP listener, so searches can run out-of-process
  (pair with an ``AsyncSocketTransport``);
- ``storage``   — offline seat-store tooling over a cluster's WAL
  directory: ``status`` prints every seat store (records, disk bytes,
  snapshot/segment layout) and ``compact`` snapshots stores in place.
  Opening a store performs its crash cleanup (torn tails truncated,
  orphan files deleted), so these commands double as a disk fsck. A
  directory holding files of the removed flat engine (``*.wal``) is
  refused untouched.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.client.batching import BatchPolicy
    from repro.core.mapping_table import MappingTable
    from repro.core.zerber_index import ZerberDeployment
    from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus

    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_documents=args.documents,
            vocabulary_size=800,
            num_groups=2,
            seed=args.seed,
        )
    )
    deployment = ZerberDeployment.bootstrap(
        corpus.term_probabilities(),
        heuristic="dfm",
        num_lists=min(32, corpus.vocabulary_size),
        k=2,
        n=3,
        batch_policy=BatchPolicy(min_documents=4),
        seed=args.seed,
    )
    for g in corpus.group_ids():
        deployment.create_group(g, coordinator=f"owner{g}")
    for document in corpus:
        deployment.share_document(f"owner{document.group_id}", document)
    deployment.flush_all()
    print(f"indexed {len(corpus)} documents -> "
          f"{deployment.servers[0].num_elements} elements per server "
          f"(k=2 of n=3)")
    doc = corpus.documents_in_group(0)[0]
    term = sorted(doc.term_counts)[0]
    results = deployment.search("owner0", [term], top_k=5)
    print(f"owner0 queried {term!r}: {len(results)} hits")
    for hit in results:
        print(f"  doc {hit.doc_id} @ {hit.host}  score={hit.score:.3f}")
    outsider = deployment.search("owner1", [term], top_k=5)
    print(f"owner1 (other group) queried {term!r}: {len(outsider)} hits")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.core.merging.bfm import BreadthFirstMerging, bfm_r_for_list_count
    from repro.core.merging.dfm import DepthFirstMerging
    from repro.core.merging.udm import UniformDistributionMerging
    from repro.corpus.synthetic import generate_term_statistics

    stats = generate_term_statistics(args.documents, args.vocabulary)
    probs = stats.term_probabilities()
    m = min(args.lists, len(probs))
    if args.heuristic == "udm":
        algo = UniformDistributionMerging(m)
    else:
        target = bfm_r_for_list_count(probs, m)
        algo = (
            BreadthFirstMerging(target)
            if args.heuristic == "bfm"
            else DepthFirstMerging(m, target)
        )
    merge = algo.merge(probs)
    masses = sorted(merge.masses(probs))
    print(f"{args.heuristic.upper()} over {len(probs)} terms -> "
          f"{merge.num_lists} lists")
    print(f"resulting r (formula 7): {merge.resulting_r(probs):.1f}")
    print(f"singleton lists: {merge.singleton_lists()}")
    print(f"list mass min/median/max: {masses[0]:.2e} / "
          f"{masses[len(masses) // 2]:.2e} / {masses[-1]:.2e}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis.audit import audit_merge
    from repro.core.merging.bfm import bfm_r_for_list_count
    from repro.core.merging.dfm import DepthFirstMerging
    from repro.corpus.querylog import QueryLogConfig, generate_query_log
    from repro.corpus.synthetic import generate_term_statistics

    stats = generate_term_statistics(args.documents, args.vocabulary)
    probs = stats.term_probabilities()
    m = min(args.lists, len(probs))
    merge = DepthFirstMerging(m, bfm_r_for_list_count(probs, m)).merge(probs)
    qlog = generate_query_log(
        stats,
        QueryLogConfig(
            total_queries=50_000,
            distinct_query_terms=min(2_000, len(probs)),
            rank_noise=0.005,
            tail_fraction=0.2,
            seed=args.seed,
        ),
    )
    audit = audit_merge(
        merge, probs, query_frequencies=qlog.frequencies()
    )
    for line in audit.render():
        print(line)
    return 0


def _cmd_bandwidth(args: argparse.Namespace) -> int:
    from repro.analysis.bandwidth import BandwidthModel

    model = BandwidthModel(
        elements_per_query_term=args.elements_per_term,
        k=args.k,
        terms_per_query=args.terms_per_query,
    )
    report = model.report()
    print(f"per-query-term response: {report.response_kb_per_query_term:.1f} KB")
    print(f"user throughput:   {report.queries_per_second_user:.0f} q/s")
    print(f"server throughput: {report.queries_per_second_server:.0f} q/s")
    print(f"top-10 response:   {report.total_response_bytes_top_k / 1000:.1f} KB "
          f"(x{report.vs_google:.2f} Google, x{report.vs_yahoo:.2f} Yahoo)")
    print(f"insert fan-out:    x{model.insert_bandwidth_factor(args.n):.1f} "
          "plain-index bandwidth")
    return 0


def _build_cluster(args: argparse.Namespace, **extra):
    """The deterministic cluster scenario every ``cluster`` subcommand uses."""
    from repro.cluster import ClusterDeployment
    from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus
    from repro.errors import ClusterError

    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_documents=args.documents,
            vocabulary_size=800,
            num_groups=2,
            seed=args.seed,
        )
    )
    probs = corpus.term_probabilities()
    if getattr(args, "cache_tier", None):
        extra.setdefault("cache_tier", args.cache_tier)
    extra.setdefault("l1_entries", getattr(args, "l1_entries", 0) or 0)
    try:
        cluster = ClusterDeployment.bootstrap(
            probs,
            heuristic="dfm",
            num_lists=min(48, len(probs)),
            num_pods=args.pods,
            k=args.k,
            n=args.n,
            replication_factor=args.replication,
            seed=args.seed,
            **extra,
        )
    except ClusterError as exc:
        raise SystemExit(f"bad cluster configuration: {exc}")
    for g in corpus.group_ids():
        cluster.create_group(g, coordinator=f"owner{g}")
    for document in corpus:
        cluster.share_document(f"owner{document.group_id}", document)
    cluster.flush_all()
    return corpus, cluster


def _parse_kills(specs) -> list[tuple[int, int]]:
    """``pod:slot`` strings -> (pod_index, slot_index) pairs."""
    kills = []
    for spec in specs or ():
        pod_str, _, slot_str = spec.partition(":")
        try:
            kills.append((int(pod_str), int(slot_str)))
        except ValueError:
            raise SystemExit(f"bad --kill {spec!r}; expected POD:SLOT")
    return kills


def _cluster_query_terms(corpus, args) -> list[str]:
    if args.terms:
        return list(args.terms)
    doc = corpus.documents_in_group(0)[0]
    return sorted(doc.term_counts)[:3]


def _cmd_cluster_deploy(args: argparse.Namespace) -> int:
    _, cluster = _build_cluster(args)
    coordinator = cluster.coordinator
    print(
        f"cluster: {len(cluster.pods)} pods x {cluster.scheme.n} servers, "
        f"k={cluster.scheme.k} (each pod tolerates "
        f"{cluster.scheme.n - cluster.scheme.k} failures), "
        f"replication={coordinator.replication_factor}"
        + (" (whole-pod loss tolerated)"
           if coordinator.replication_factor >= 2 else "")
    )
    for pod in cluster.pods:
        ids = [slot.server_id for slot in pod.slots]
        print(f"  {pod.name}: {', '.join(ids)}")
    shards = coordinator.shard_distribution(cluster.mapping_table.num_lists)
    print(f"shard placement over {cluster.mapping_table.num_lists} merged "
          f"lists (x{coordinator.replication_factor} replicas): {shards}")
    print(f"stored elements (all live servers): {cluster.total_elements()}")
    print(f"storage: {cluster.storage_bytes() / 1000:.1f} KB on the wire")
    return 0


def _kill_servers(cluster, kills) -> None:
    from repro.errors import ClusterError

    for pod_index, slot_index in kills:
        try:
            downed = cluster.kill_server(pod_index, slot_index)
        except ClusterError as exc:
            raise SystemExit(f"cannot kill {pod_index}:{slot_index}: {exc}")
        print(f"killed {downed}")


def _cmd_cluster_search(args: argparse.Namespace) -> int:
    from repro.errors import ClusterDegradedError

    corpus, cluster = _build_cluster(args)
    _kill_servers(cluster, _parse_kills(args.kill))
    terms = _cluster_query_terms(corpus, args)
    searcher = cluster.searcher("owner0")
    try:
        results = searcher.search(terms, top_k=args.top_k)
    except ClusterDegradedError as exc:
        print(f"cluster degraded below k: {exc}")
        return 1
    print(f"owner0 queried {terms}: {len(results)} hits")
    for hit in results:
        print(f"  doc {hit.doc_id} @ {hit.host}  score={hit.score:.3f}")
    diag = searcher.last_cluster_diagnostics
    print(f"pods contacted: {diag.pods_contacted}, "
          f"lookup messages: {diag.lookup_messages}, "
          f"failovers: {diag.failovers}")
    print(f"lookup bytes: {searcher.last_diagnostics.response_bytes}")
    repeated = searcher.search(terms, top_k=args.top_k)
    if repeated != results:
        print("ERROR: cached repeat query diverged from the first run")
        return 1
    diag = searcher.last_cluster_diagnostics
    print(f"repeat query: {diag.l1_hits} L1 hits, "
          f"{diag.lookup_messages} lookup messages")
    return 0


def _cmd_cluster_kill(args: argparse.Namespace) -> int:
    corpus, cluster = _build_cluster(args)
    terms = _cluster_query_terms(corpus, args)
    healthy = cluster.search("owner0", terms, top_k=args.top_k)
    print(f"healthy cluster: {len(healthy)} hits for {terms}")
    kills = _parse_kills(args.kill)
    if not kills:
        # Default drill: one server per pod (the acceptance scenario).
        kills = [(pod.index, pod.index % cluster.scheme.n)
                 for pod in cluster.pods]
    _kill_servers(cluster, kills)
    from repro.errors import ClusterDegradedError

    searcher = cluster.searcher("owner0", use_cache=False)
    try:
        degraded = searcher.search(terms, top_k=args.top_k)
    except ClusterDegradedError as exc:
        print(f"cluster degraded below k: {exc}")
        print("restart servers (or kill fewer than n-k per pod) to "
              "restore service")
        return 1
    diag = searcher.last_cluster_diagnostics
    print(f"degraded cluster: {len(degraded)} hits, "
          f"{diag.failovers} failovers, {diag.lookup_messages} messages")
    print("results identical to healthy run:", degraded == healthy)
    return 0


def _cmd_cluster_kill_pod(args: argparse.Namespace) -> int:
    """The rebalance-free pod-loss drill: kill, verify, restart, repair."""
    from repro.errors import ClusterDegradedError, ClusterError

    corpus, cluster = _build_cluster(args)
    coordinator = cluster.coordinator
    terms = _cluster_query_terms(corpus, args)
    healthy = cluster.search("owner0", terms, top_k=args.top_k)
    print(f"healthy cluster (replication={coordinator.replication_factor}): "
          f"{len(healthy)} hits for {terms}")
    try:
        downed = cluster.kill_pod(args.pod)
    except ClusterError as exc:
        raise SystemExit(f"cannot kill pod {args.pod}: {exc}")
    print(f"killed pod {args.pod} ({len(downed)} servers)")
    searcher = cluster.searcher("owner0", use_cache=False)
    try:
        degraded = searcher.search(terms, top_k=args.top_k)
    except ClusterDegradedError as exc:
        print(f"cluster degraded below k: {exc}")
        print("(run with --replication 2 to survive a whole pod)")
        return 1
    diag = searcher.last_cluster_diagnostics
    print(f"pod down: {len(degraded)} hits, "
          f"{diag.pod_failovers} pod failovers, "
          f"{diag.lookup_messages} messages")
    print("results identical to healthy run:", degraded == healthy)
    # A write lands while the pod is dead; the survivors take it and the
    # dead pod's routes go to the re-provisioning ledger.
    extra = corpus.documents_in_group(0)[-1]
    try:
        cluster.share_document("owner0", extra)
        cluster.flush_all()
    except ClusterDegradedError as exc:
        print(f"write refused while the pod is dead: {exc}")
        print("(run with --replication 2 to keep writing through pod loss)")
        return 1
    print(f"wrote 1 document with the pod dead: "
          f"{coordinator.ledger.outstanding} write routes dropped")
    cluster.restart_pod(args.pod)
    repaired = cluster.reprovision_dropped_writes()
    print(f"pod restarted; owners re-provisioned {repaired} operations "
          f"({coordinator.ledger.outstanding} routes outstanding)")
    final = cluster.searcher("owner0", use_cache=False)
    final_results = final.search(terms, top_k=args.top_k)
    print("results identical after restart + repair:",
          final_results == healthy)
    return 0 if degraded == healthy and final_results == healthy else 1


def _cmd_cluster_repair(args: argparse.Namespace) -> int:
    """Anti-entropy drill: drop writes on dead seats, heal by sweep alone."""
    from repro.errors import ClusterDegradedError

    corpus, cluster = _build_cluster(args)
    with cluster:
        coordinator = cluster.coordinator
        terms = _cluster_query_terms(corpus, args)
        kills = _parse_kills(args.kill) or [(0, 0)]
        _kill_servers(cluster, kills)
        extra = corpus.documents_in_group(0)[-1]
        try:
            cluster.share_document("owner0", extra)
            cluster.flush_all()
        except ClusterDegradedError as exc:
            print(f"write refused while seats are dead: {exc}")
            print("(kill fewer than n-k seats per pod to keep writing)")
            return 1
        print(f"wrote 1 document with {len(kills)} seats dead: "
              f"{coordinator.ledger.outstanding} write routes dropped")
        expected = cluster.searcher("owner0", use_cache=False).search(
            terms, top_k=args.top_k
        )
        for pod_index, slot_index in kills:
            cluster.restart_server(pod_index, slot_index)
        # The owner never comes back: the coordinator's sweep is the only
        # repair path exercised here.
        sweeps = 0
        while sweeps < args.max_sweeps:
            stats = cluster.repair_sweep(budget=args.budget)
            sweeps += 1
            print(f"sweep {sweeps}: {stats.examined} entries examined, "
                  f"{stats.healed_seats} seats healed "
                  f"({stats.repaired_routes} routes, "
                  f"{stats.shipped_bytes} bytes shipped, "
                  f"{stats.skipped_no_source} no-source, "
                  f"{stats.failed} failed)")
            if coordinator.ledger.outstanding == 0:
                break
            if stats.healed_seats == 0 and not stats.budget_exhausted:
                break
        outstanding = coordinator.ledger.outstanding
        print(f"outstanding write routes after repair: {outstanding}")
        if outstanding and coordinator.replication_factor < 2:
            print("(run with --replication 2 so the sweep has a trusted "
                  "source replica)")
        final = cluster.searcher("owner0", use_cache=False).search(
            terms, top_k=args.top_k
        )
        converged = outstanding == 0 and final == expected
        print("results identical after sweep repair:", final == expected)
    return 0 if converged else 1


def _fetch_metrics_view(cluster):
    """One ``MetricsDump`` over the cluster's client transport.

    The same request a remote operator's scrape would send — the CLI
    never reads subsystem snapshot dicts directly, so ``status``,
    ``top``, and a Prometheus probe can never disagree.
    """
    from repro.observability.metrics import SampleView
    from repro.observability.service import METRICS_ENDPOINT
    from repro.protocol.messages import MetricsDumpRequest

    response = cluster.transport.call(
        src="operator",
        dst=METRICS_ENDPOINT,
        request=MetricsDumpRequest(),
    )
    return SampleView(response.samples)


def _pod_status_lines(view) -> list:
    """Per-pod seat/load/latency rows from a metrics view."""
    from repro.observability.metrics import parse_labels

    lines = []
    for pod in view.label_values("zerber_pod_live_seats", "pod"):
        live = int(view.value("zerber_pod_live_seats", 0, pod=pod))
        dead = int(view.value("zerber_pod_dead_seats", 0, pod=pod))
        hosted = int(view.value("zerber_pod_hosted_lists", 0, pod=pod))
        load = int(view.value("zerber_pod_read_load", 0, pod=pod))
        ewma = view.value(
            "zerber_pod_read_latency_ewma_seconds", 0.0, pod=pod
        )
        stale = int(view.value("zerber_pod_stale_lists", 0, pod=pod))
        latency = f"{ewma * 1e6:8.1f} us/list" if ewma else "       - "
        lines.append(
            f"  {pod:>6}: {live}/{live + dead} seats live, "
            f"{hosted:3d} lists, read load {load:4d}, ewma {latency}, "
            f"{stale} stale lists"
        )
        dead_ids = sorted(
            parse_labels(s.labels)["server"]
            for s in view.samples
            if s.name == "zerber_seat_alive"
            and s.value == 0.0
            and parse_labels(s.labels).get("pod") == pod
        )
        if dead_ids:
            lines.append(f"          dead: {', '.join(dead_ids)}")
    return lines


def _cache_status_lines(view) -> list:
    """L1 / L2 rows from a metrics view."""
    lines = []
    hits = int(view.value("zerber_l1_hits", 0))
    misses = int(view.value("zerber_l1_misses", 0))
    total = hits + misses
    if total or view.value("zerber_l1_caches", 0):
        rate = (hits / total * 100.0) if total else 0.0
        lines.append(
            f"L1 (searcher-local, "
            f"{int(view.value('zerber_l1_caches', 0))} caches): "
            f"{int(view.value('zerber_l1_entries', 0))}"
            f"/{int(view.value('zerber_l1_capacity', 0))} entries, "
            f"{hits} hits / {misses} misses ({rate:.0f}% hit rate), "
            f"{int(view.value('zerber_l1_evictions', 0))} evictions, "
            f"{int(view.value('zerber_l1_invalidations', 0))} "
            f"invalidations"
        )
    if view.value("zerber_cache_tier_capacity") is not None:
        hits = int(view.value("zerber_cache_tier_hits", 0))
        misses = int(view.value("zerber_cache_tier_misses", 0))
        total = hits + misses
        rate = (hits / total * 100.0) if total else 0.0
        lines.append(
            "L2 (shared tier, LRU): "
            f"{int(view.value('zerber_cache_tier_entries', 0))}"
            f"/{int(view.value('zerber_cache_tier_capacity', 0))} "
            f"entries, {hits} hits / {misses} misses "
            f"({rate:.0f}% hit rate), "
            f"{int(view.value('zerber_cache_tier_evictions', 0))} "
            f"evictions, "
            f"{int(view.value('zerber_cache_tier_invalidations', 0))} "
            f"invalidations"
        )
    return lines


_BREAKER_STATES = {0: "closed", 1: "half-open", 2: "open"}


def _health_status_lines(view) -> list:
    """Repair / breaker / admission rows from a metrics view."""
    lines = []
    running = view.value("zerber_repair_thread_running", 0)
    thread = "running" if running else "stopped"
    backoff = view.value("zerber_repair_backoff_seconds", 0.0)
    cadence = f", backoff {backoff:g}s" if backoff else ""
    lines.append(
        f"anti-entropy: {int(view.value('zerber_repair_sweeps', 0))} "
        f"sweeps, "
        f"{int(view.value('zerber_repair_healed_seats', 0))} seats "
        f"healed, "
        f"{int(view.value('zerber_repair_shipped_bytes', 0))} bytes "
        f"shipped, {int(view.value('zerber_repair_failures', 0))} "
        f"failures, "
        f"{int(view.value('zerber_repair_pending_entries', 0))} ledger "
        f"entries pending (repair thread {thread}{cadence})"
    )
    states = view.by_label("zerber_breaker_state", "pod")
    if states:
        rendered = ", ".join(
            f"{pod}={_BREAKER_STATES.get(int(state), '?')} "
            f"({int(view.value('zerber_breaker_consecutive_failures', 0, pod=pod))}"
            f" failures)"
            for pod, state in sorted(states.items())
        )
        lines.append(f"breakers: {rendered}")
    else:
        lines.append("breakers: all pods healthy (no failures observed)")
    admitted = view.value("zerber_admission_admitted")
    if admitted is not None:
        lines.append(
            f"admission: {int(admitted)} admitted, "
            f"{int(view.value('zerber_admission_shed', 0))} shed, "
            f"peak depth "
            f"{int(view.value('zerber_admission_peak_depth', 0))}"
            f"/{int(view.value('zerber_admission_max_pending', 0))}"
        )
    return lines


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    """Observability snapshot, rendered from the metrics registry.

    The data comes back over the wire as a ``MetricsDump`` — exactly
    what ``repro cluster top`` polls and what a Prometheus-style scrape
    exports — not from per-subsystem snapshot dicts.
    """
    corpus, cluster = _build_cluster(args)
    with cluster:
        _kill_servers(cluster, _parse_kills(args.kill))
        # Warm the read-side statistics so the latency/load columns mean
        # something (the snapshot of an idle cluster is all dashes).
        terms = _cluster_query_terms(corpus, args)
        searcher = cluster.searcher("owner0")
        for _ in range(args.warmup_queries):
            searcher.search(terms, top_k=5, fetch_snippets=False)
        view = _fetch_metrics_view(cluster)
        pods = view.label_values("zerber_pod_live_seats", "pod")
        print(
            f"cluster: {len(pods)} pods, "
            f"replication={int(view.value('zerber_replication_factor', 1))},"
            f" {int(view.value('zerber_num_lists', 0))} merged lists, "
            f"{int(view.value('zerber_outstanding_write_routes', 0))} "
            f"write routes outstanding"
        )
        for line in _pod_status_lines(view):
            print(line)
        for line in _cache_status_lines(view):
            print(line)
        for line in _health_status_lines(view):
            print(line)
    return 0


def _cmd_cluster_top(args: argparse.Namespace) -> int:
    """A live, curses-free dashboard over the metrics endpoint.

    Runs a background query workload against the deterministic
    scenario, then polls ``MetricsDump`` every ``--interval`` seconds
    and renders one frame per poll: per-pod read rate and latency
    quantiles, cache hit rates, breaker/admission/repair state. Rates
    are derived client-side from counter deltas between frames, the
    way any scrape-based dashboard derives them.
    """
    import threading
    import time as _time

    corpus, cluster = _build_cluster(args)
    with cluster:
        terms = _cluster_query_terms(corpus, args)
        stop = threading.Event()

        def workload() -> None:
            searcher = cluster.searcher("owner0")
            while not stop.is_set():
                searcher.search(terms, top_k=5, fetch_snippets=False)

        thread = threading.Thread(
            target=workload, name="zerber-top-workload", daemon=True
        )
        thread.start()
        # Every rate is a delta between two dumps, the first frame's
        # too: what happened before this baseline is not a rate.
        previous = _fetch_metrics_view(cluster)
        try:
            for frame in range(args.iterations):
                _time.sleep(args.interval)
                view = _fetch_metrics_view(cluster)

                def rate(name: str, **labels: str) -> float:
                    delta = view.value(name, 0.0, **labels) - previous.value(
                        name, 0.0, **labels
                    )
                    return delta / args.interval

                queries = view.value("zerber_search_queries_total", 0.0)
                qps = rate("zerber_search_queries_total")
                print(
                    f"-- repro cluster top · frame "
                    f"{frame + 1}/{args.iterations} "
                    f"(interval {args.interval:g}s) · "
                    f"{int(queries)} queries, {qps:.1f} qps --"
                )
                documents = view.value("zerber_index_documents_total", 0.0)
                docs_per_s = rate("zerber_index_documents_total")
                flush_p50 = view.value(
                    "zerber_index_flush_seconds", 0.0, quantile="0.5"
                )
                print(
                    f"   index: {documents:.0f} documents ({docs_per_s:.1f} "
                    f"docs/s), flush p50 {flush_p50 * 1e3:.2f}ms"
                )
                print(
                    f"{'pod':>8} {'lists/s':>9} {'p50':>9} {'p95':>9} "
                    f"{'p99':>9} {'load':>7}  seats  breaker"
                )
                for pod in view.label_values(
                    "zerber_pod_live_seats", "pod"
                ):
                    lists_per_s = rate("zerber_pod_read_lists_total", pod=pod)
                    quantiles = [
                        view.value(
                            "zerber_pod_fetch_latency_seconds",
                            0.0,
                            pod=pod,
                            quantile=q,
                        )
                        for q in ("0.5", "0.95", "0.99")
                    ]
                    live = int(
                        view.value("zerber_pod_live_seats", 0, pod=pod)
                    )
                    dead = int(
                        view.value("zerber_pod_dead_seats", 0, pod=pod)
                    )
                    state = _BREAKER_STATES.get(
                        int(view.value("zerber_breaker_state", 0, pod=pod)),
                        "closed",
                    )
                    cols = " ".join(
                        f"{q * 1e3:7.2f}ms" for q in quantiles
                    )
                    print(
                        f"{pod:>8} {lists_per_s:9.1f} {cols} "
                        f"{int(view.value('zerber_pod_read_load', 0, pod=pod)):7d}"
                        f"  {live}/{live + dead}    {state}"
                    )
                for line in _cache_status_lines(view):
                    print(line)
                for line in _health_status_lines(view):
                    print(line)
                previous = view
        finally:
            stop.set()
            thread.join(timeout=5)
    return 0


def _cmd_cache_status(args: argparse.Namespace) -> int:
    """Tiered-cache observability: warm the tiers, render hit rates.

    The statistics are fetched over the wire protocol's
    ``MetricsDump`` message — the same path a remote operator's probe
    would use — not read out of the store objects directly.
    """
    args.cache_tier = args.cache_tier or args.cache_tier_default
    args.l1_entries = args.l1_entries or args.l1_default
    corpus, cluster = _build_cluster(args)
    with cluster:
        terms = _cluster_query_terms(corpus, args)
        searcher = cluster.searcher("owner0")
        l1_hits = l2_hits = 0
        for _ in range(args.warmup_queries):
            searcher.search(terms, top_k=5, fetch_snippets=False)
            diag = searcher.last_cluster_diagnostics
            l1_hits += diag.l1_hits
            l2_hits += diag.l2_hits
        print(
            f"workload: {args.warmup_queries} queries over "
            f"{len(terms)} terms ({l1_hits} L1 hits, "
            f"{l2_hits} L2 hits observed by the searcher)"
        )
        view = _fetch_metrics_view(cluster)
        for line in _cache_status_lines(view):
            print(line)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Stand the scenario up behind the wire protocol on loopback TCP."""
    import signal
    import threading
    import time as _time

    _, cluster = _build_cluster(
        args,
        transport="async-socket",
        socket_host=args.host,
        socket_port=args.port,
        socket_idle_timeout_s=args.idle_timeout,
    )
    exit_code = 0
    with cluster:
        host, port = cluster.transport.address
        endpoints = cluster.registry.endpoints()
        print(
            f"serving {len(endpoints)} endpoints at {host}:{port} "
            f"(idle timeout {args.idle_timeout:g}s)"
        )
        print(f"  pods: {', '.join(pod.name for pod in cluster.pods)}")
        print(f"  connect with: AsyncSocketTransport(('{host}', {port}))")
        print(
            "warning: demo only, outside the r-confidentiality trust model:"
            f" this one process holds all n={args.n} shares of every element",
            file=sys.stderr,
        )
        # Graceful shutdown: SIGTERM (the supervisor's stop signal) and
        # SIGINT both request a drain — stop accepting, let in-flight
        # requests finish, then exit. A drain that can't finish inside
        # --drain-timeout aborts the stragglers and exits nonzero so
        # the supervisor knows work was cut off.
        stop_requested: list[int] = []

        def _request_stop(signum, _frame) -> None:
            stop_requested.append(signum)

        # signal.signal is main-thread-only; when serve runs on a worker
        # thread (tests embed it that way) the host process owns signal
        # routing and --duration is the only exit path.
        previous: dict = {}
        if threading.current_thread() is threading.main_thread():
            previous = {
                signal.SIGTERM: signal.signal(
                    signal.SIGTERM, _request_stop
                ),
                signal.SIGINT: signal.signal(signal.SIGINT, _request_stop),
            }
        deadline = (
            None if args.duration is None
            else _time.monotonic() + args.duration
        )
        try:
            while deadline is None or _time.monotonic() < deadline:
                if stop_requested:
                    name = signal.Signals(stop_requested[0]).name
                    print(f"{name} received, draining")
                    if cluster.socket_server.drain(
                        timeout_s=args.drain_timeout
                    ):
                        print("drained cleanly")
                    else:
                        print(
                            "drain aborted: in-flight requests cut off "
                            f"after {args.drain_timeout:g}s"
                        )
                        exit_code = 1
                    break
                _time.sleep(0.05)
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
    return exit_code


def _open_selected_stores(args):
    """(name, open store) pairs for a ``repro storage`` invocation."""
    import pathlib

    from repro.errors import StorageError
    from repro.storage import SegmentedStore, discover_stores

    directory = pathlib.Path(args.dir)
    try:
        stores = discover_stores(directory)
    except StorageError as exc:
        raise SystemExit(str(exc))
    if args.seat:
        wanted = set(args.seat)
        stores = [entry for entry in stores if entry[0] in wanted]
        missing = wanted - {name for name, _path in stores}
        if missing:
            raise SystemExit(
                f"no seat store named {sorted(missing)} under {directory}"
            )
    if not stores:
        raise SystemExit(f"no seat stores found under {directory}")
    # auto_compact stays off: an offline tool must never kick a
    # background compaction on a store it only meant to inspect —
    # `storage compact` compacts explicitly.
    try:
        return [
            (name, SegmentedStore(path, auto_compact=False))
            for name, path in stores
        ]
    except StorageError as exc:
        raise SystemExit(str(exc))


def _cmd_storage_status(args: argparse.Namespace) -> int:
    """Per-seat store inventory (opening performs crash cleanup)."""
    from repro.errors import StorageError

    opened = _open_selected_stores(args)
    print(f"{len(opened)} seat stores under {args.dir}")
    for name, store in opened:
        try:
            status = store.status()
            records = sum(len(plist) for plist in store.replay().values())
            layout = (
                f"snapshot {status['snapshot'] or '-'}, "
                f"{status['segments']} segments "
                f"(live seg-{status['live_segment']:08d})"
            )
            if status["last_compaction_error"]:
                layout += (
                    f", LAST COMPACTION FAILED: "
                    f"{status['last_compaction_error']}"
                )
            print(
                f"  {name:>20}  {records:7d} live records  "
                f"{status['disk_bytes']:9d} B  {layout}"
            )
        except StorageError as exc:
            raise SystemExit(str(exc))
        finally:
            store.close()
    return 0


def _cmd_storage_compact(args: argparse.Namespace) -> int:
    """Snapshot every (selected) store in place; prints reclaimed bytes."""
    from repro.errors import StorageError

    opened = _open_selected_stores(args)
    for name, store in opened:
        try:
            before = store.status()["disk_bytes"]
            written = store.compact()
            after = store.status()["disk_bytes"]
            if written == 0 and before == after:
                print(f"  {name:>20}  already compact")
            else:
                print(
                    f"  {name:>20}  snapshot of {written} records, "
                    f"{before} -> {after} B on disk"
                )
        except StorageError as exc:
            raise SystemExit(str(exc))
        finally:
            store.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Zerber (EDBT 2008) reproduction — demo and analysis CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="index a toy corpus and search it")
    demo.add_argument("--documents", type=int, default=30)
    demo.add_argument("--seed", type=int, default=7)
    demo.set_defaults(func=_cmd_demo)

    merge = sub.add_parser("merge", help="run a merging heuristic, print stats")
    merge.add_argument("--heuristic", choices=("dfm", "bfm", "udm"), default="dfm")
    merge.add_argument("--documents", type=int, default=2_000)
    merge.add_argument("--vocabulary", type=int, default=5_000)
    merge.add_argument("--lists", type=int, default=64)
    merge.set_defaults(func=_cmd_merge)

    audit = sub.add_parser("audit", help="confidentiality audit of a config")
    audit.add_argument("--documents", type=int, default=2_000)
    audit.add_argument("--vocabulary", type=int, default=5_000)
    audit.add_argument("--lists", type=int, default=64)
    audit.add_argument("--seed", type=int, default=7)
    audit.set_defaults(func=_cmd_audit)

    bandwidth = sub.add_parser("bandwidth", help="the §7.3 network model")
    bandwidth.add_argument("--elements-per-term", type=float, default=2_700)
    bandwidth.add_argument("--terms-per-query", type=float, default=2.45)
    bandwidth.add_argument("--k", type=int, default=2)
    bandwidth.add_argument("--n", type=int, default=3)
    bandwidth.set_defaults(func=_cmd_bandwidth)

    cluster = sub.add_parser(
        "cluster", help="the sharded multi-pod cluster engine"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    def _common_cluster_args(p):
        p.add_argument("--pods", type=int, default=3)
        p.add_argument("--n", type=int, default=6)
        p.add_argument("--k", type=int, default=3)
        p.add_argument(
            "--replication", type=int, default=1,
            help="pods each merged posting list lives on (>= 2 "
                 "tolerates whole-pod loss)",
        )
        p.add_argument("--documents", type=int, default=40)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument(
            "--cache-tier", choices=("lru",), default=None,
            help="embed a shared L2 cache-tier endpoint (least-recently-"
                 "used eviction)",
        )
        p.add_argument(
            "--l1-entries", type=int, default=0,
            help="searcher-local L1 capacity in reconstructed posting "
                 "lists (0 disables; independent of --cache-tier)",
        )

    deploy = cluster_sub.add_parser(
        "deploy", help="stand up a cluster, print topology and placement"
    )
    _common_cluster_args(deploy)
    deploy.set_defaults(func=_cmd_cluster_deploy)

    csearch = cluster_sub.add_parser(
        "search", help="run a batched, cached cluster query"
    )
    _common_cluster_args(csearch)
    csearch.add_argument("--terms", nargs="+", default=None)
    csearch.add_argument("--top-k", type=int, default=5)
    csearch.add_argument(
        "--kill", action="append", metavar="POD:SLOT",
        help="take servers down before querying (repeatable)",
    )
    csearch.set_defaults(func=_cmd_cluster_search)

    ckill = cluster_sub.add_parser(
        "kill-server", help="failure drill: kill servers, verify failover"
    )
    _common_cluster_args(ckill)
    ckill.add_argument("--terms", nargs="+", default=None)
    ckill.add_argument("--top-k", type=int, default=5)
    ckill.add_argument(
        "--kill", action="append", metavar="POD:SLOT",
        help="servers to down; default kills one per pod",
    )
    ckill.set_defaults(func=_cmd_cluster_kill)

    ckillpod = cluster_sub.add_parser(
        "kill-pod",
        help="pod-loss drill: kill a whole pod, verify byte-identical "
             "answers, restart, re-provision",
    )
    _common_cluster_args(ckillpod)
    ckillpod.add_argument("--terms", nargs="+", default=None)
    ckillpod.add_argument("--top-k", type=int, default=5)
    ckillpod.add_argument(
        "--pod", type=int, default=0, help="pod index to take down"
    )
    ckillpod.set_defaults(func=_cmd_cluster_kill_pod, replication=2)

    crepair = cluster_sub.add_parser(
        "repair",
        help="anti-entropy drill: drop writes on dead seats, heal them "
             "with coordinator sweeps alone (no owner re-provisioning)",
    )
    _common_cluster_args(crepair)
    crepair.add_argument("--terms", nargs="+", default=None)
    crepair.add_argument(
        "--kill", action="append", metavar="POD:SLOT",
        help="seats to down before the write; default kills 0:0",
    )
    crepair.add_argument(
        "--budget", type=int, default=None,
        help="max seats healed per sweep (default unlimited)",
    )
    crepair.add_argument(
        "--max-sweeps", type=int, default=8,
        help="give up after this many sweeps",
    )
    crepair.set_defaults(func=_cmd_cluster_repair, top_k=5, replication=2)

    cstatus = cluster_sub.add_parser(
        "status",
        help="observability snapshot: pods, seats, placement, "
             "per-pod EWMA read latency",
    )
    _common_cluster_args(cstatus)
    cstatus.add_argument("--terms", nargs="+", default=None)
    cstatus.add_argument(
        "--kill", action="append", metavar="POD:SLOT",
        help="take servers down before the snapshot (repeatable)",
    )
    cstatus.add_argument(
        "--warmup-queries", type=int, default=3,
        help="queries run first so latency/load columns are populated",
    )
    cstatus.set_defaults(func=_cmd_cluster_status, top_k=5)

    ctop = cluster_sub.add_parser(
        "top",
        help="live dashboard: per-pod read rates, latency quantiles, "
             "cache hit rates, breaker/admission/repair state",
    )
    _common_cluster_args(ctop)
    ctop.add_argument("--terms", nargs="+", default=None)
    ctop.add_argument(
        "--iterations", type=int, default=3,
        help="frames to render before exiting (no curses, no TTY needed)",
    )
    ctop.add_argument(
        "--interval", type=float, default=0.2,
        help="seconds between metric polls; rates are per-interval deltas",
    )
    ctop.set_defaults(func=_cmd_cluster_top, top_k=5)

    serve = sub.add_parser(
        "serve",
        help="serve the deterministic cluster scenario over the wire "
             "protocol on TCP",
    )
    serve.add_argument("--pods", type=int, default=3)
    serve.add_argument("--n", type=int, default=6)
    serve.add_argument("--k", type=int, default=3)
    serve.add_argument("--replication", type=int, default=2)
    serve.add_argument("--documents", type=int, default=40)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks a free one; printed on startup)",
    )
    serve.add_argument(
        "--idle-timeout", type=float, default=300.0,
        help="close connections quiet for this many seconds "
             "(default: 300)",
    )
    serve.add_argument(
        "--duration", type=float, default=None,
        help="serve for this many seconds then exit (default: forever)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0,
        help="on SIGTERM/SIGINT, wait this long for in-flight requests "
             "before cutting them off and exiting nonzero (default: 5)",
    )
    serve.add_argument(
        "--cache-tier", choices=("lru",), default=None,
        help="also serve a shared cache-tier endpoint ('cache-tier', "
             "least-recently-used eviction)",
    )
    serve.set_defaults(func=_cmd_serve, l1_entries=0)

    cache = sub.add_parser(
        "cache",
        help="the tiered cache subsystem (searcher L1 + shared L2 tier)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    chstatus = cache_sub.add_parser(
        "status",
        help="stand up a cached cluster, run a warm-up workload, and "
             "render L1/L2 hit statistics (fetched over the wire "
             "protocol's MetricsDump message)",
    )
    _common_cluster_args(chstatus)
    chstatus.add_argument(
        "--warmup-queries", type=int, default=6,
        help="repeat queries run first so the tiers have traffic",
    )
    chstatus.set_defaults(
        func=_cmd_cache_status, cache_tier_default="lru",
        l1_default=128, terms=None,
    )

    storage = sub.add_parser(
        "storage",
        help="offline seat-store tooling (status, compaction)",
    )
    storage_sub = storage.add_subparsers(dest="storage_command", required=True)

    def _common_storage_args(p):
        p.add_argument(
            "--dir", required=True,
            help="the cluster's WAL directory (one store per seat)",
        )
        p.add_argument(
            "--seat", action="append", metavar="SERVER_ID",
            help="limit to one seat store (repeatable; default: all)",
        )

    sstatus = storage_sub.add_parser(
        "status",
        help="inventory every seat store: records, bytes, layout",
    )
    _common_storage_args(sstatus)
    sstatus.set_defaults(func=_cmd_storage_status)

    scompact = storage_sub.add_parser(
        "compact",
        help="snapshot stores in place (snapshot + manifest swap + GC)",
    )
    _common_storage_args(scompact)
    scompact.set_defaults(func=_cmd_storage_compact)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
