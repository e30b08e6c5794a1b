"""Runs one workload: set-up, warm-up, timed work, checks, raw results.

One closed-loop client thread in this process drives the cluster (the
machine has two cores: this client and the embedded server's thread).
Every timed section is a :class:`Phase` of kernel-bracketed chunks;
results are checked against the oracle after the timer stops.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

from benchmarks.e2e import scenario
from benchmarks.e2e.harness import (
    FsyncMeter,
    Pacer,
    Segment,
    fingerprint,
    load_average,
)
from benchmarks.e2e.tracing import Tracer
from repro.errors import ReproError

#: Per-query counters read off the searcher's public diagnostics.
_SEARCH_COUNTS = (
    "posting_lists_requested",
    "elements_received",
    "false_positives",
    "elements_matched",
    "response_bytes",
)
_CLUSTER_COUNTS = (
    "pods_contacted",
    "lookup_messages",
    "l1_hits",
    "l2_hits",
    "failovers",
    "hedged_fetches",
)


class Phase:
    """One segment of chunks; each chunk holds raw seconds and op ids."""

    def __init__(self, run: "Run", kind: str) -> None:
        self._run = run
        self.kind = kind
        self._segment = Segment(run.pacer)
        self._raw: list[list[float]] = []
        self._ops: list[list[int]] = []
        #: Filled by :meth:`close`: the chunks at reference speed.
        self.chunks: list[list[float]] = []
        self.raw_total = 0.0
        #: os.fsync calls made while this phase's timed chunks ran.
        self.fsyncs = 0

    def add_chunk(self, raw: list[float], ops: list[int]) -> None:
        self._raw.append(raw)
        self._ops.append(ops)
        self._segment.mark()

    def timed(self, fn):
        """Run ``fn`` as a chunk of its own; returns its result."""
        run = self._run
        op = run.next_op()
        waited, flushed = run.meter.foreground_wait, run.meter.calls
        start = run.clock()
        try:
            result = fn()
        finally:
            run.end_op()
        raw = run.clock() - start - (run.meter.foreground_wait - waited)
        self.fsyncs += run.meter.calls - flushed
        self.add_chunk([raw], [op])
        return result

    def close(self) -> "Phase":
        factors = self._segment.factors()
        for raw, ops, factor in zip(self._raw, self._ops, factors):
            self.chunks.append([value * factor for value in raw])
            self.raw_total += sum(raw)
            for op in ops:
                self._run.factor_of_op[self.kind][op] = factor
        return self

    @property
    def values(self) -> list[float]:
        return [value for chunk in self.chunks for value in chunk]

    @property
    def raw_values(self) -> list[float]:
        return [value for chunk in self._raw for value in chunk]

    @property
    def total(self) -> float:
        return sum(sum(chunk) for chunk in self.chunks)


@dataclass
class ReadStats:
    """What a stretch of queries did, summed."""

    queries: int = 0
    cpu_s: float = 0.0
    #: Full (oldest-generation) collections that ran during the queries:
    #: each walks every share record in the process, and they are the
    #: query tail.
    full_collections: int = 0
    counts: Counter = field(default_factory=Counter)

    def merge(self, other: "ReadStats") -> None:
        self.queries += other.queries
        self.cpu_s += other.cpu_s
        self.full_collections += other.full_collections
        self.counts.update(other.counts)


class Run:
    """State of one workload run; ``execute()`` returns the raw results."""

    def __init__(
        self,
        workload: scenario.Workload,
        sizes: scenario.Sizes,
        seed: int,
        seconds: float,
        trace: bool,
        work_dir: str,
        clock=time.perf_counter,
    ) -> None:
        self.workload = workload
        self.sizes = sizes
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = work_dir
        self.clock = clock
        self.pacer = Pacer(clock)
        self.meter = FsyncMeter(clock)
        self.tracer = Tracer(clock) if trace else None
        #: True while the wraps are installed and operations are tagged.
        self.tracing = False
        self.factor_of_op: dict[str, dict[int, float]] = {
            kind: {} for kind in ("setup", "query", "write", "delete", "drill")
        }
        self._ops = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Everything the searcher did since it was created, for the
        #: cross-check against the program's own metrics registry.
        self.lifetime = ReadStats()

    # -- operations and failures ----------------------------------------------

    def next_op(self) -> int:
        self._ops += 1
        if self.tracing:
            self.tracer.op = self._ops
        return self._ops

    def end_op(self) -> None:
        if self.tracing:
            self.tracer.op = None

    def set_tracing(self, on: bool) -> None:
        """Install or remove the wraps (no-op outside a traced run)."""
        if self.tracer is None or on == self.tracing:
            return
        if on:
            self.tracer.install()
        else:
            self.tracer.remove()
        self.tracing = on

    def all_factors(self) -> dict[int, float]:
        """Every operation's speed factor, whatever its kind."""
        return {
            op: factor
            for ops in self.factor_of_op.values()
            for op, factor in ops.items()
        }

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    # -- set-up -----------------------------------------------------------------

    def _wal_dir(self) -> str | None:
        if not self.workload.mixed:
            return None
        path = os.path.join(self.work_dir, f"wal-{os.getpid()}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    def build(self):
        """Build the cluster and ingest the corpus, timed in chunks.

        Returns ``(cluster, setup phase)``; the phase's first chunk is
        the bootstrap, the rest are ingest.
        """
        sizes, inputs = self.sizes, self.inputs
        phase = Phase(self, "setup")
        cluster = phase.timed(
            lambda: scenario.bootstrap_cluster(
                self.workload, sizes, inputs, self._wal_dir()
            )
        )
        try:
            step = sizes.ingest_chunk
            for start in range(0, len(inputs.base), step):
                batch = inputs.base[start : start + step]
                last = start + step >= len(inputs.base)

                def ingest(batch=batch, last=last):
                    for document in batch:
                        cluster.share_document(
                            scenario.owner_of(document), document
                        )
                    if last:
                        cluster.flush_all()
                        scenario.admit_searcher(cluster, sizes)

                phase.timed(ingest)
        except BaseException:
            cluster.close()
            raise
        self.attempted += len(inputs.base)
        return cluster, phase.close()

    # -- reads ------------------------------------------------------------------

    def _search(self, query):
        return self.searcher.search(
            list(query), top_k=scenario.TOP_K, fetch_snippets=False
        )

    def _query_chunk(self, phase: Phase, queries, check) -> ReadStats:
        """Time ``queries`` one by one as one chunk, then check them."""
        searcher = self.searcher
        stats = ReadStats(queries=len(queries))
        raw, ops, answers = [], [], []
        cpu = time.process_time()
        collections = gc.get_stats()[2]["collections"]
        for query in queries:
            ops.append(self.next_op())
            start = self.clock()
            try:
                results = self._search(query)
            except ReproError as error:
                results = error
            raw.append(self.clock() - start)
            self.end_op()
            answers.append(results)
            if isinstance(results, ReproError):
                continue
            search, cluster = (
                searcher.last_diagnostics,
                searcher.last_cluster_diagnostics,
            )
            for name in _SEARCH_COUNTS:
                stats.counts[name] += getattr(search, name)
            for name in _CLUSTER_COUNTS:
                stats.counts[name] += getattr(cluster, name)
        stats.cpu_s = time.process_time() - cpu
        stats.full_collections = (
            gc.get_stats()[2]["collections"] - collections
        )
        phase.add_chunk(raw, ops)
        for query, results in zip(queries, answers):
            self.attempted += 1
            if isinstance(results, ReproError):
                self.fail(f"{query}: {results!r}")
            else:
                problem = check(query, results)
                if problem:
                    self.fail(f"{query}: {problem}")
        self.lifetime.merge(stats)
        return stats

    def _check_digest(self, query, results) -> str | None:
        if scenario.digest(results) != self.expected[query]:
            return "results differ from the single-fleet oracle"
        return None

    def replay(self, queries, check) -> tuple[Phase, ReadStats]:
        """One segment over ``queries``, ``chunk_queries`` at a time."""
        phase = Phase(self, "query")
        stats = ReadStats()
        step = self.workload.chunk_queries
        for start in range(0, len(queries), step):
            stats.merge(
                self._query_chunk(phase, queries[start : start + step], check)
            )
        return phase.close(), stats

    def _timed_rounds(self) -> dict:
        """Replay the whole log until ``--seconds`` have passed.

        Whole rounds only, so every run measures the same queries in
        the same order and exact per-query counts do not depend on where
        the clock ran out; the loop stops at the round boundary nearest
        the requested time.
        """
        log = self.inputs.log
        phases, stats = [], ReadStats()
        started = self.clock()
        while True:
            gc.collect()
            phase, round_stats = self.replay(log, self._check_digest)
            phases.append(phase)
            stats.merge(round_stats)
            spent = self.clock() - started
            if spent + spent / len(phases) / 2 >= self.seconds:
                break
        return {"phases": phases, "stats": stats}

    def _traced_rounds(self) -> dict:
        """One round with the wraps off, then one recording spans."""
        log = self.inputs.log
        gc.collect()
        plain, stats = self.replay(log, self._check_digest)
        self.set_tracing(True)
        gc.collect()
        traced, traced_stats = self.replay(log, self._check_digest)
        self.set_tracing(False)
        return {
            "phases": [plain],
            "stats": stats,
            "traced": traced,
            "traced_stats": traced_stats,
        }

    # -- mixed reads and writes ---------------------------------------------------

    def _check_live(self, query, results) -> str | None:
        """The cheap mid-run check: every hit is a live document that
        holds a query term (exact digests are checked at the end)."""
        for result in results:
            document = self.live.get(result.doc_id)
            if document is None:
                return f"hit {result.doc_id} is not a live document"
            if not any(term in document.term_counts for term in query):
                return f"hit {result.doc_id} holds no query term"
        return None

    def _cycle(self, phases: dict[str, Phase]) -> ReadStats:
        sizes, cluster, oracle = self.sizes, self.cluster, self.oracle
        fresh = [next(self._extra) for _ in range(sizes.cycle_writes)]

        def write():
            for document in fresh:
                cluster.share_document(scenario.owner_of(document), document)
            cluster.flush_all()

        phases["write"].timed(write)
        self.live.update((d.doc_id, d) for d in fresh)
        doomed = [
            self.live.pop(
                sorted(self.live)[self._rng.randrange(len(self.live))]
            )
            for _ in range(sizes.cycle_deletes)
        ]

        def delete():
            for document in doomed:
                cluster.owner(scenario.owner_of(document)).delete_document(
                    document.doc_id
                )
            cluster.flush_all()

        phases["delete"].timed(delete)
        self.attempted += len(fresh) + len(doomed)
        log = self.inputs.log
        queries = [
            log[(self._read_position + i) % len(log)]
            for i in range(sizes.cycle_reads)
        ]
        self._read_position += sizes.cycle_reads
        stats = self._query_chunk(phases["query"], queries, self._check_live)
        for document in fresh:
            oracle.share(document)
        oracle.flush()
        for document in doomed:
            oracle.delete(document)
        return stats

    def _cycles(self, cycles: int) -> dict:
        """Run ``cycles`` write/delete/read cycles, one segment each kind.

        The count is fixed before the run, never cut by the clock: every
        cycle grows the index, so a slow minute that ran fewer cycles
        would measure a different, cheaper population of queries.
        """
        phases = {kind: Phase(self, kind) for kind in ("write", "delete", "query")}
        stats = ReadStats()
        gc.collect()
        for _ in range(cycles):
            stats.merge(self._cycle(phases))
        for phase in phases.values():
            phase.close()
        return {
            "phases": [phases["query"]],
            "write": phases["write"],
            "delete": phases["delete"],
            "cycles": cycles,
            "stats": stats,
        }

    def _traced_cycles(self) -> dict:
        plain = self._cycles(self.sizes.traced_cycles)
        self.set_tracing(True)
        traced = self._cycles(self.sizes.traced_cycles)
        plain["traced"] = traced["phases"][0]
        plain["traced_stats"] = traced["stats"]
        plain["traced_write"] = traced["write"]
        plain["traced_cycles"] = traced["cycles"]
        return plain

    def _drill(self) -> dict:
        """The operations an operator waits for, one kernel-bracketed
        chunk each: compaction, seat recovery, ring changes."""
        cluster, sizes = self.cluster, self.sizes
        phase = Phase(self, "drill")
        seats = [
            (pod.index, slot.slot_index)
            for pod in cluster.pods
            for slot in pod.slots
        ]

        def settle():
            for pod in cluster.pods:
                for slot in pod.slots:
                    slot.log.wait_for_compaction()

        phase.timed(settle)
        moves = []
        for _ in range(sizes.drill_cycles):
            for pod_index, slot_index in seats:
                cluster.kill_server(pod_index, slot_index)
                phase.timed(
                    lambda p=pod_index, s=slot_index: cluster.restart_server(
                        p, s
                    )
                )
        for _ in range(sizes.drill_cycles):
            moves.append(phase.timed(cluster.add_pod))
            moves.append(
                phase.timed(lambda: cluster.retire_pod(len(cluster.pods) - 1))
            )
        phase.close()
        self.attempted += len(phase.chunks)
        times = [chunk[0] for chunk in phase.chunks]
        per_cycle = len(seats)
        recover = [
            sum(times[1 + c * per_cycle : 1 + (c + 1) * per_cycle])
            for c in range(sizes.drill_cycles)
        ]
        rebalance_start = 1 + sizes.drill_cycles * per_cycle
        rebalance = [
            times[rebalance_start + 2 * c] + times[rebalance_start + 2 * c + 1]
            for c in range(sizes.drill_cycles)
        ]
        return {
            "compaction_wait_s": times[0],
            "recover_s": statistics.median(recover),
            "rebalance_s": statistics.mean(rebalance),
            "lists_moved": sum(m.moved_lists for m in moves),
            "wire_bytes": sum(m.shipped_bytes for m in moves),
        }

    def _final_check(self) -> None:
        """mixed_rw: after all writes (and the drill), distinct queries
        must match the oracle that was fed the same writes, exactly."""
        queries = list(dict.fromkeys(self.inputs.log))[: self.sizes.final_checks]
        for query in queries:
            self.attempted += 1
            try:
                got = scenario.digest(self._search(query))
            except ReproError as error:
                self.fail(f"{query}: {error!r}")
                continue
            if got != self.oracle.digest_of(query):
                self.fail(f"{query}: final results differ from the oracle")

    # -- storage ------------------------------------------------------------------

    def _stored_bytes_per_posting(self) -> float:
        """Bytes a seat keeps per share record it holds (paper 7.2).

        Durable seats: directory bytes after compaction. Memory-only
        seats: the wire-encoded size the servers account for.
        """
        cluster = self.cluster
        records = cluster.total_elements()
        if not self.workload.mixed:
            return cluster.storage_bytes() / records
        total = 0
        for pod in cluster.pods:
            for slot in pod.slots:
                slot.log.wait_for_compaction()
                slot.log.compact()
                total += slot.log.disk_bytes()
        return total / records

    # -- the run ------------------------------------------------------------------

    def execute(self) -> dict:
        os.makedirs(self.work_dir, exist_ok=True)
        record = {"fingerprint": fingerprint(self.work_dir)}
        workload, sizes = self.workload, self.sizes
        self.inputs = scenario.make_inputs(workload, sizes, self.seed)
        self.oracle = scenario.Oracle(sizes, self.inputs)
        self.cluster = None
        try:
            with self.meter:
                if not workload.mixed:
                    self.expected = {
                        query: self.oracle.digest_of(query)
                        for query in dict.fromkeys(self.inputs.log)
                    }
                # The oracle shares this process's heap, and a full
                # collection walks every object in it: freezing what
                # exists now keeps the oracle's 270k share records from
                # lengthening the program's own collector pauses.
                gc.collect()
                gc.freeze()
                record.update(self._measure())
        finally:
            gc.unfreeze()
            self.set_tracing(False)
            if self.cluster is not None:
                self.cluster.close()
            self.oracle.close()
            shutil.rmtree(
                os.path.join(self.work_dir, f"wal-{os.getpid()}"),
                ignore_errors=True,
            )
        record["fingerprint"]["load_average_end"] = load_average()
        return record

    def _measure(self) -> dict:
        workload, sizes = self.workload, self.sizes
        setups = []
        repeats = 1 if self.trace else workload.setup_repeats
        # A traced run records the ingest too: that is where the write
        # path's per-document layer costs come from on every workload.
        self.set_tracing(True)
        for _ in range(repeats):
            if self.cluster is not None:
                self.cluster.close()
            gc.collect()
            self.cluster, phase = self.build()
            setups.append(phase)
        self.set_tracing(False)
        self.searcher = self.cluster.searcher(
            scenario.SEARCHER, use_cache=workload.use_cache
        )
        out: dict = {"setups": setups}
        if workload.mixed:
            self.live = {d.doc_id: d for d in self.inputs.base}
            self._extra = iter(self.inputs.extra)
            self._rng = scenario.seeded_rng(self.seed, "deletes")
            self._read_position = 0
            cycles = min(
                sizes.max_cycles,
                max(1, round(self.seconds / sizes.cycle_seconds)),
            )
            out.update(
                self._traced_cycles() if self.trace else self._cycles(cycles)
            )
            out["registry"] = list(self.cluster.metrics.samples())
            if self.trace:
                out["drill"] = self._drill()
                self.set_tracing(False)
            out["stored_bytes_per_posting"] = self._stored_bytes_per_posting()
            self._final_check()
        else:
            warm = (
                self.inputs.log
                if workload.cached
                else self.inputs.log[: sizes.warmup_queries]
            )
            self.replay(warm, self._check_digest)
            out.update(
                self._traced_rounds() if self.trace else self._timed_rounds()
            )
            out["registry"] = list(self.cluster.metrics.samples())
            out["stored_bytes_per_posting"] = self._stored_bytes_per_posting()
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        out["run_wall_s"] = self.pacer.elapsed()
        return out
