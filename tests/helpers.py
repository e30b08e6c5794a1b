"""Shared helpers for integration-style tests.

Besides the corpus deployment helpers, the cluster drill scaffolding
lives here so the equivalence, socket, failover, anti-entropy, and
convergence suites stop growing private copies:

* the *seeded random world* family (:func:`make_world` /
  :func:`build_twins`) — a random corpus plus a single-fleet deployment
  and a cluster twin over the same documents, for byte-identity
  properties;
* the *small deterministic cluster* family (:func:`make_documents` /
  :func:`make_cluster` / :func:`make_single_fleet`) — a fixed
  12-document corpus on a configurable cluster, for targeted failure
  drills.
"""

from __future__ import annotations

import random
import zlib
from collections import defaultdict

import numpy as np

from repro.baselines.plain_index import IdealTrustedIndex
from repro.client.batching import BatchPolicy
from repro.cluster import ClusterDeployment
from repro.core.mapping_table import MappingTable
from repro.core.posting import PackingSpec
from repro.errors import PackingError
from repro.core.zerber_index import ZerberDeployment
from repro.corpus.document import Corpus, Document
from repro.observability.metrics import SampleView
from repro.ranking.scores import CollectionStatistics, TfIdfScorer
from repro.ranking.threshold import naive_top_k
from repro.server.index_server import PostingListResponse

K, N = 3, 6  # the acceptance configuration: each pod tolerates 3 failures


def leb128(value: int) -> bytes:
    out = bytearray()
    while True:
        value, low = value >> 7, value & 0x7F
        out.append(low | (0x80 if value else 0))
        if not value:
            return bytes(out)


def segment_record(kind: int, *columns: list[int]) -> bytes:
    """One segment-log record written out by hand (the format reference):
    LEB128 payload length; the payload — kind byte, LEB128 row count
    and, when there are rows, per column one width byte (bytes of the
    column's largest value, at least 1) and that many big-endian bytes
    per value; then the payload's CRC32, little-endian."""
    payload = bytes((kind,)) + leb128(len(columns[0]))
    if columns[0]:
        for column in columns:
            width = max(1, (max(column).bit_length() + 7) // 8)
            payload += bytes((width,))
            payload += b"".join(v.to_bytes(width, "big") for v in column)
    crc = zlib.crc32(payload).to_bytes(4, "little")
    return leb128(len(payload)) + payload + crc


def unpack_by_term(codec, secrets) -> tuple[dict, int]:
    """The per-element decode oracle: every secret through ``unpack``,
    what it rejects dropped, grouped by term as ``({term_id: [(doc_id,
    tf), ...]}, number of secrets)``."""
    by_term = defaultdict(list)
    for secret in np.array(secrets, dtype=object).tolist():
        try:
            element = codec.unpack(secret)
        except PackingError:
            continue
        by_term[element.term_id].append((element.doc_id, element.tf))
    return dict(by_term), len(secrets)


def as_columns(rows, width: int = 4) -> tuple[list[int], ...]:
    """Rows as a write batch's aligned columns: ``(pl_id, element_id,
    group_id, share_y)`` rows as an insert's four, ``(pl_id,
    element_id)`` rows (``width=2``) as a delete's two."""
    columns = tuple([] for _ in range(width))
    for row in rows:
        for column, value in zip(columns, row, strict=True):
            column.append(value)
    return columns


def owner_of_group(group_id: int) -> str:
    return f"owner{group_id}"


def rewrite_stored_list(server, pl_id: int, rewrite) -> int:
    """Replace one seat's copy of a list with ``rewrite(records)``.

    Goes through the operator's export/drop/adopt channel, so
    fault-injecting tests (a lying or lagging server) never reach into
    the seat store. Returns how many records the list holds afterwards.
    """
    records = server.export_posting_list(pl_id)
    server.drop_posting_list(pl_id)
    rewritten = PostingListResponse.from_records(pl_id, rewrite(records))
    return server.adopt_posting_list(pl_id, *rewritten.columns)


def list_rows(plist) -> dict[int, tuple[int, int]]:
    """One stored list (a ``SeatList``) as ``{element_id: (group_id,
    share_y)}``: its content, row order aside."""
    return dict(zip(plist.element_ids, zip(plist.group_ids, plist.share_ys)))


def state_rows(state) -> dict[int, dict[int, tuple[int, int]]]:
    """A store state (``pl_id -> SeatList``, as ``replay()`` returns
    it) as :func:`list_rows` per non-empty list."""
    return {pl_id: list_rows(plist) for pl_id, plist in state.items() if plist}


def deploy_corpus(
    corpus: Corpus,
    k: int = 2,
    n: int = 3,
    num_lists: int = 32,
    heuristic: str = "dfm",
    batch_policy: BatchPolicy | None = None,
    seed: int = 0xBEEF,
) -> ZerberDeployment:
    """Bootstrap a deployment from a corpus and index every document.

    One owner per group (its coordinator) shares that group's documents;
    all batches are flushed before returning.
    """
    probs = corpus.term_probabilities()
    deployment = ZerberDeployment.bootstrap(
        probs,
        heuristic=heuristic,
        num_lists=min(num_lists, len(probs)),
        k=k,
        n=n,
        batch_policy=batch_policy,
        seed=seed,
    )
    for group_id in corpus.group_ids():
        deployment.create_group(group_id, coordinator=owner_of_group(group_id))
    for document in corpus:
        deployment.share_document(owner_of_group(document.group_id), document)
    deployment.flush_all()
    return deployment


def ideal_twin(corpus: Corpus, deployment: ZerberDeployment) -> IdealTrustedIndex:
    """The §2 oracle over the same documents and the same group table."""
    ideal = IdealTrustedIndex(deployment.groups)
    for document in corpus:
        ideal.index_document(document)
    return ideal


def scored_oracle(documents, groups, user, terms, top_k):
    """§2's answer, scored: "a trusted centralized ordinary inverted
    index ... with an access control list check", ranked the way the
    client ranks, as ``[(doc_id, score.hex())]``.

    Built from the plaintext ``documents`` and the group table alone:
    it shares no fetch, join, reconstruction or codec with the program.
    A tf is quantized as the codec packs it (``round(tf * tf_scale)``,
    floored at one quantum); statistics are the user's personalized
    ones over the readable postings of the queried terms, in sorted
    term order; the ranking is :func:`naive_top_k`, never the TA the
    client runs.
    """
    tf_scale = PackingSpec().tf_scale
    postings_by_term = {}
    for term in sorted(set(terms)):
        rows = [
            (
                document.doc_id,
                (
                    round(document.term_counts[term] / document.length * tf_scale)
                    or 1
                )
                / tf_scale,
            )
            for document in documents
            if term in document.term_counts
            and groups.is_member(user, document.group_id)
        ]
        if rows:
            postings_by_term[term] = rows
    if not postings_by_term:
        return []
    docs_of = {
        term: {doc_id for doc_id, _ in rows}
        for term, rows in postings_by_term.items()
    }
    scorer = TfIdfScorer(
        CollectionStatistics(
            num_documents=len(set().union(*docs_of.values())),
            document_frequencies={t: len(d) for t, d in docs_of.items()},
        )
    )
    weights = {term: scorer.weight(term) for term in postings_by_term}
    return [
        (hit.doc_id, hit.score.hex())
        for hit in naive_top_k(postings_by_term, weights, top_k)
    ]


def make_world(seed: int):
    """One random world: documents, groups, an extra member, queries."""
    rng = random.Random(seed)
    num_groups = rng.randint(1, 3)
    vocab = [f"w{i}" for i in range(rng.randint(6, 24))]
    documents = []
    for doc_id in range(rng.randint(4, 16)):
        terms = rng.sample(vocab, rng.randint(1, min(6, len(vocab))))
        counts = {t: rng.randint(1, 4) for t in terms}
        documents.append(
            Document(
                doc_id=doc_id,
                host=f"host{doc_id % 3}",
                group_id=rng.randrange(num_groups),
                term_counts=counts,
                length=sum(counts.values()) + rng.randint(0, 2),
                text=" ".join(
                    t for t, c in sorted(counts.items()) for _ in range(c)
                ),
            )
        )
    user_groups = [g for g in range(num_groups) if rng.random() < 0.6]
    queries = [
        rng.sample(vocab, rng.randint(1, min(4, len(vocab))))
        for _ in range(3)
    ]
    queries.append(["never-indexed-term"])
    num_lists = rng.randint(1, 10)
    num_pods = rng.randint(1, 4)
    return documents, num_groups, user_groups, queries, num_lists, num_pods


def build_twins(
    world,
    seed: int,
    index_through: int | None = None,
    replication_factor: int = 1,
    **cluster_kwargs,
):
    """A single-fleet deployment and a cluster over the same documents.

    Args:
        world: output of :func:`make_world`.
        seed: deployment seed (shared; element IDs still differ by rng
            stream, which the equivalence property must not care about).
        index_through: index only the first this-many documents into the
            *cluster* (the rest are indexed later by the mid-run tests);
            the single fleet always indexes everything.
        replication_factor: pods per posting list in the cluster twin
            (the pod count is raised to fit when the world rolled fewer).
        cluster_kwargs: extra :class:`ClusterDeployment` arguments — the
            socket equivalence gate passes ``transport="async-socket"``
            to run the same worlds over loopback TCP.
    """
    documents, num_groups, user_groups, _, num_lists, num_pods = world
    single = ZerberDeployment(
        MappingTable({}, num_lists=num_lists),
        k=K,
        n=N,
        batch_policy=BatchPolicy(min_documents=2),
        seed=seed,
    )
    cluster = ClusterDeployment(
        MappingTable({}, num_lists=num_lists),
        num_pods=max(num_pods, replication_factor),
        k=K,
        n=N,
        batch_policy=BatchPolicy(min_documents=2),
        replication_factor=replication_factor,
        seed=seed,
        **cluster_kwargs,
    )
    for deployment in (single, cluster):
        for g in range(num_groups):
            deployment.create_group(g, coordinator=f"owner{g}")
    for document in documents:
        single.share_document(f"owner{document.group_id}", document)
    cutoff = len(documents) if index_through is None else index_through
    for document in documents[:cutoff]:
        cluster.share_document(f"owner{document.group_id}", document)
    single.flush_all()
    cluster.flush_all()
    for g in user_groups:
        single.add_member(g, "the-user", actor=f"owner{g}")
        cluster.add_member(g, "the-user", actor=f"owner{g}")
    return single, cluster


def kill_one_per_pod(cluster: ClusterDeployment, rng: random.Random) -> list[str]:
    """The acceptance drill: any one server down in every pod."""
    return [
        cluster.kill_server(pod.index, rng.randrange(N))
        for pod in cluster.pods
    ]


def make_documents(num_docs=12, vocab_size=20, num_groups=2, seed=5):
    """A small deterministic corpus for targeted failure drills."""
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    documents = []
    for doc_id in range(num_docs):
        terms = rng.sample(vocab, rng.randint(2, 6))
        counts = {t: rng.randint(1, 3) for t in terms}
        documents.append(
            Document(
                doc_id=doc_id,
                host=f"host{doc_id % 2}",
                group_id=doc_id % num_groups,
                term_counts=counts,
                length=sum(counts.values()),
                text=" ".join(sorted(counts)),
            )
        )
    return documents


def make_cluster(
    documents,
    num_pods=2,
    k=2,
    n=4,
    num_lists=8,
    **kwargs,
):
    """A fully indexed cluster over ``documents`` (one owner per group)."""
    cluster = ClusterDeployment(
        MappingTable({}, num_lists=num_lists),
        num_pods=num_pods,
        k=k,
        n=n,
        batch_policy=BatchPolicy(min_documents=1),
        seed=77,
        **kwargs,
    )
    groups = {d.group_id for d in documents}
    for g in groups:
        cluster.create_group(g, coordinator=f"owner{g}")
    for document in documents:
        cluster.share_document(f"owner{document.group_id}", document)
    cluster.flush_all()
    return cluster


def metric(cluster, name, **labels):
    """One series of a fresh dump of the cluster's metrics registry
    (None when the dump does not carry it)."""
    return SampleView(cluster.metrics.samples()).value(name, **labels)


def seat_servers(deployment) -> list:
    """Every seat's :class:`IndexServer`, of a single fleet or a cluster."""
    return [slot.server for pod in deployment.pods for slot in pod.slots]


def lookups_logged(deployment) -> int:
    """Lookups the seats have logged: one ``query_log`` row a lookup,
    counted by each box itself on every transport."""
    return sum(
        len(server.compromise().query_log)
        for server in seat_servers(deployment)
    )


def make_single_fleet(documents, k=2, n=3, num_lists=8):
    """The paper's single fleet over the same deterministic corpus."""
    single = ZerberDeployment(
        MappingTable({}, num_lists=num_lists),
        k=k,
        n=n,
        batch_policy=BatchPolicy(min_documents=1),
        seed=77,
    )
    for g in sorted({d.group_id for d in documents}):
        single.create_group(g, coordinator=f"owner{g}")
    for document in documents:
        single.share_document(f"owner{document.group_id}", document)
    single.flush_all()
    return single
