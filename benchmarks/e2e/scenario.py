"""The common scenario: sizes, workloads, inputs from the seed, the oracle.

Everything the program under test receives is generated here from
``--seed``; the program never sees the seed, a workload's name, or
anything else that identifies the benchmark.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass, replace

from repro import ClusterDeployment, ZerberDeployment
from repro.client.batching import BatchPolicy
from repro.corpus.document import Corpus, Document
from repro.corpus.synthetic import SyntheticCorpusConfig, generate_corpus
from repro.corpus.zipf import ZipfSampler

SEARCHER = "searcher"
TOP_K = 10
NUM_PODS, K, N = 2, 2, 3
BATCH_POLICY = BatchPolicy(min_documents=8)


@dataclass(frozen=True)
class Sizes:
    """The frozen sizes of a run; ``--scale tiny`` swaps in small ones."""

    num_documents: int = 600
    vocabulary_size: int = 3000
    num_groups: int = 4
    mean_document_length: int = 60
    num_lists: int = 64
    #: Documents ingested between two kernel samples during set-up.
    ingest_chunk: int = 50
    #: Queries replayed untimed before the clock starts on a workload
    #: whose caches are off (Lagrange weights, connections, code paths).
    warmup_queries: int = 30
    #: mixed_rw: one cycle's writes, deletes and reads.
    cycle_writes: int = 16
    cycle_deletes: int = 2
    cycle_reads: int = 25
    #: mixed_rw runs round(--seconds / cycle_seconds) cycles (a cycle
    #: takes about this long at reference speed), at most max_cycles.
    cycle_seconds: float = 0.75
    max_cycles: int = 60
    #: mixed_rw: distinct queries checked against the oracle at the end.
    final_checks: int = 60
    #: mixed_rw traced pass: cycles run untraced, then as many traced.
    traced_cycles: int = 6
    #: Ops drill: kill + restart over every seat / add_pod + retire_pod.
    drill_cycles: int = 2


TINY = Sizes(
    num_documents=40,
    vocabulary_size=400,
    num_lists=16,
    ingest_chunk=20,
    warmup_queries=5,
    cycle_writes=4,
    cycle_deletes=1,
    cycle_reads=5,
    max_cycles=3,
    final_checks=10,
    traced_cycles=1,
    drill_cycles=1,
)
SCALES = {"full": Sizes(), "tiny": TINY}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    transport: str
    #: Searcher caches: L1 + shared L2 on, coordinator share cache off so
    #: every hit is attributable to the tier.
    cached: bool = False
    #: Durable segmented seats, replication 2, writes between reads.
    mixed: bool = False
    #: Read log: length, terms per query, Zipf shape, and whether a
    #: query may repeat (users of a cached system do repeat themselves).
    log_queries: int = 300
    repeats: bool = False
    query_terms: tuple[int, ...] = (3,)
    zipf_exponent: float = 1.0
    top_terms: int = 300
    #: Queries between two kernel samples.
    chunk_queries: int = 10
    #: Times an untraced run builds the cluster; setup_s is the median.
    setup_repeats: int = 3

    def cluster_kwargs(self, wal_dir: str | None) -> dict:
        kwargs: dict = {"transport": self.transport, "cache_entries": 0}
        if self.cached or self.mixed:
            kwargs.update(
                cache_tier="lru", cache_tier_entries=32, l1_entries=16
            )
        if self.mixed:
            kwargs.update(
                storage="segmented", wal_dir=wal_dir, replication_factor=2
            )
        return kwargs

    @property
    def use_cache(self) -> bool:
        return self.cached or self.mixed


WORKLOADS = (
    Workload(
        name="uncached_inproc",
        why="in-process, caches off: ~90% of a query is the client's "
        "join, reconstruct, unpack and rank, so client compute must "
        "show here and wire or codec work must not",
        transport="in-process",
    ),
    Workload(
        name="uncached_socket",
        why="the same corpus and log over async-socket, caches off: "
        "encode, framing, loopback, decode and dispatch are a third of "
        "a query here and nil in-process, so the pair isolates the wire",
        transport="async-socket",
    ),
    Workload(
        name="zipf_cached",
        why="async-socket with L1=16 and L2=32 entries against 64 "
        "merged lists under Zipf(1.2): most queries bypass "
        "reconstruction, so cache policy shows and reconstruct gains "
        "barely do",
        transport="async-socket",
        cached=True,
        log_queries=600,
        repeats=True,
        query_terms=(1, 2),
        zipf_exponent=1.2,
        top_terms=1500,
        chunk_queries=25,
    ),
    Workload(
        name="mixed_rw",
        why="durable segmented seats, replication 2, cache tier on, "
        "writes and deletes between reads: reads meet write fencing "
        "and invalidation, so a read gain bought with write cost shows",
        transport="async-socket",
        mixed=True,
        chunk_queries=25,
        # A durable, replicated set-up costs three in-memory ones.
        setup_repeats=2,
    ),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}


def scaled_workload(workload: Workload, scale: str) -> Workload:
    """Shrink a workload's read log along with ``--scale tiny``."""
    if scale == "full":
        return workload
    return replace(
        workload,
        log_queries=max(20, workload.log_queries // 15),
        top_terms=min(workload.top_terms, 100),
        chunk_queries=5,
        setup_repeats=1,
    )


def seeded_rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"zerber-e2e:{seed}:{purpose}")


@dataclass
class Inputs:
    base: list[Document]
    #: Documents mixed_rw shares during the run (empty otherwise).
    extra: list[Document]
    term_probabilities: dict[str, float]
    log: list[tuple[str, ...]]
    cluster_seed: int


def make_inputs(workload: Workload, sizes: Sizes, seed: int) -> Inputs:
    extra = sizes.max_cycles * sizes.cycle_writes if workload.mixed else 0
    documents = list(
        generate_corpus(
            SyntheticCorpusConfig(
                num_documents=sizes.num_documents + extra,
                vocabulary_size=sizes.vocabulary_size,
                num_groups=sizes.num_groups,
                mean_document_length=sizes.mean_document_length,
                seed=seeded_rng(seed, "corpus").getrandbits(32),
            )
        )
    )
    # The generator draws documents in order from one stream, so the
    # first num_documents are the same corpus whatever follows them.
    base = documents[: sizes.num_documents]
    probabilities = Corpus(base).term_probabilities()
    return Inputs(
        base=base,
        extra=documents[sizes.num_documents :],
        term_probabilities=probabilities,
        log=make_log(workload, probabilities, seed),
        cluster_seed=seeded_rng(seed, "cluster").getrandbits(32),
    )


def make_log(
    workload: Workload, probabilities: dict[str, float], seed: int
) -> list[tuple[str, ...]]:
    """Queries whose terms are Zipf-drawn from the most frequent terms."""
    ranked = sorted(probabilities, key=lambda t: (-probabilities[t], t))
    ranked = ranked[: workload.top_terms]
    sampler = ZipfSampler(len(ranked), workload.zipf_exponent)
    # Keyed by the log's shape, not the workload's name: the uncached
    # pair must replay the same log.
    shape = f"{workload.query_terms}:{workload.zipf_exponent}"
    rng = seeded_rng(seed, f"log:{shape}")
    widths = [
        rng.choice(workload.query_terms) for _ in range(workload.log_queries)
    ]
    if workload.repeats:
        # A cached workload's cost is its miss count, a few hundred
        # events a round, so independent draws move it by 12 % from seed
        # to seed. A systematic sample gives every term the frequency
        # Zipf says it has; the seed moves the order and the pairing.
        cdf = list(itertools.accumulate(sampler.weights))
        slots, offset = sum(widths), rng.random()
        draws = [
            ranked[min(bisect.bisect_left(cdf, (i + offset) / slots),
                       len(ranked) - 1)]
            for i in range(slots)
        ]
        rng.shuffle(draws)
        draw = iter(draws)
        return [
            tuple(sorted({next(draw) for _ in range(width)}))
            for width in widths
        ]
    log: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    for width in widths:
        while True:
            query = tuple(
                sorted({ranked[sampler.sample(rng)] for _ in range(width)})
            )
            if len(query) == width and query not in seen:
                break
        seen.add(query)
        log.append(query)
    return log


def owner_of(document: Document) -> str:
    return f"owner{document.group_id}"


def enroll(deployment, sizes: Sizes) -> None:
    for group in range(sizes.num_groups):
        deployment.create_group(group, coordinator=f"owner{group}")


def admit_searcher(deployment, sizes: Sizes) -> None:
    for group in range(sizes.num_groups):
        deployment.add_member(group, SEARCHER, actor=f"owner{group}")


def bootstrap_cluster(
    workload: Workload, sizes: Sizes, inputs: Inputs, wal_dir: str | None
) -> ClusterDeployment:
    cluster = ClusterDeployment.bootstrap(
        inputs.term_probabilities,
        heuristic="dfm",
        num_lists=sizes.num_lists,
        num_pods=NUM_PODS,
        k=K,
        n=N,
        use_network=False,
        batch_policy=BATCH_POLICY,
        seed=inputs.cluster_seed,
        **workload.cluster_kwargs(wal_dir),
    )
    enroll(cluster, sizes)
    return cluster


def digest(results) -> str:
    """SHA-256 over ``[(doc_id, score)]``: the byte-identity invariant."""
    pairs = [(result.doc_id, result.score) for result in results]
    return hashlib.sha256(repr(pairs).encode()).hexdigest()


class Oracle:
    """The paper's single fleet, fed the same documents and writes.

    It shares no routing, transport, cache or storage with the cluster,
    and the repository's invariant is that the two answer
    byte-identically. It runs outside every timed section.
    """

    def __init__(self, sizes: Sizes, inputs: Inputs) -> None:
        self.fleet = ZerberDeployment.bootstrap(
            inputs.term_probabilities,
            heuristic="dfm",
            num_lists=sizes.num_lists,
            k=K,
            n=N,
            use_network=False,
            batch_policy=BATCH_POLICY,
            seed=inputs.cluster_seed,
        )
        enroll(self.fleet, sizes)
        for document in inputs.base:
            self.fleet.share_document(owner_of(document), document)
        self.fleet.flush_all()
        admit_searcher(self.fleet, sizes)
        self._searcher = self.fleet.searcher(SEARCHER)

    def share(self, document: Document) -> None:
        self.fleet.share_document(owner_of(document), document)

    def delete(self, document: Document) -> None:
        self.fleet.owner(owner_of(document)).delete_document(document.doc_id)

    def flush(self) -> None:
        self.fleet.flush_all()

    def digest_of(self, query: tuple[str, ...]) -> str:
        return digest(
            self._searcher.search(
                list(query), top_k=TOP_K, fetch_snippets=False
            )
        )

    def close(self) -> None:
        self.fleet.close()
