"""Fagin's Threshold Algorithm for client-side top-K (paper §5.4.2, [14]).

After decryption the client holds, per query term, a posting list it can
sort by term frequency. The Threshold Algorithm walks these lists in
parallel in tf-descending order, maintaining the invariant that no unseen
document can beat the threshold ``T = sum_t w_t * tf_t(current depth)``;
once K seen documents score strictly above T, the scan stops — typically
long before the lists are exhausted, which is how Zerber keeps
client-side ranking cheap despite receiving *all* accessible elements.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from repro.errors import RankingError


@dataclass(frozen=True, slots=True)
class RankedHit:
    """One top-K result.

    Attributes:
        doc_id: the document.
        score: its aggregate (weighted tf-idf) score.
    """

    doc_id: int
    score: float


def term_tf_maps(
    postings_by_term: Mapping[str, Sequence[tuple[int, float]]],
) -> dict[str, dict[int, float]]:
    """Random access into each term's rows: term -> {doc_id: tf}.

    A document listed twice in one term (two owners share a ``doc_id``)
    keeps its least tf; only such a term is sorted first, so the last
    row per document is the least.
    """
    maps: dict[str, dict[int, float]] = {}
    for term, rows in postings_by_term.items():
        tf_of = dict(rows)
        if len(tf_of) != len(rows):
            tf_of = dict(sorted(rows, key=itemgetter(1), reverse=True))
        maps[term] = tf_of
    return maps


def threshold_top_k(
    postings_by_term: Mapping[str, Sequence[tuple[int, float]]],
    weights: Mapping[str, float],
    k: int,
    tf_of: Mapping[str, Mapping[int, float]] | None = None,
) -> list[RankedHit]:
    """Top-K documents under the weighted-sum score, via Fagin's TA.

    The result is exactly :func:`naive_top_k` over the same rows (a
    repeated document keeps its least tf), documents and score bits
    alike, in whatever order the rows arrive: a document's score sums
    its weighted tfs in term order, the threshold sums the frontier's in
    the same order, and the scan stops only once the K-th best seen
    score is strictly above the threshold. An unseen document scores
    at most the threshold, so it can neither beat nor tie a kept hit.

    Args:
        postings_by_term: term -> [(doc_id, tf), ...]; order is irrelevant,
            the algorithm sorts each list tf-descending itself (the client
            just decrypted them, so no order is available anyway). The
            lists are read, never modified.
        weights: term -> non-negative query weight (idf). Terms missing
            from ``weights`` default to weight 1.0.
        k: result count (>= 1).
        tf_of: ``term_tf_maps(postings_by_term)`` when the caller has
            already built it (the searcher reads its key sets for the
            statistics); None builds it here. Any other value gives
            undefined hits.

    Returns:
        Up to ``k`` hits, score-descending (ties broken by doc_id for
        determinism).
    """
    if k < 1:
        raise RankingError(f"k must be >= 1, got {k}")
    if tf_of is None:
        tf_of = term_tf_maps(postings_by_term)
    # Per non-empty term, in term order: its rows tf-descending, its
    # weight, and the random access into its kept rows.
    lists: list[tuple[list[tuple[int, float]], float]] = []
    scorers: list[tuple[float, Callable[[int, float], float]]] = []
    for term, rows in postings_by_term.items():
        if not rows:
            continue
        lst = sorted(rows, key=itemgetter(1), reverse=True)
        if lst[-1][1] < 0:  # the last row holds the least tf
            raise RankingError(f"negative tf in list for {term!r}")
        weight = float(weights.get(term, 1.0))
        lists.append((lst, weight))
        scorers.append((weight, tf_of[term].get))
    if not lists:
        return []
    if any(weight < 0 for weight, _ in scorers):
        raise RankingError("negative term weight")

    seen: set[int] = set()
    # Min-heap of (score, -doc_id) keeps the current top-K.
    heap: list[tuple[float, int]] = []
    for depth in range(max(len(lst) for lst, _ in lists)):
        # The best score any unseen document could still reach: an
        # exhausted list adds nothing.
        threshold = 0.0
        for lst, weight in lists:
            if depth < len(lst):
                doc_id, tf = lst[depth]
                threshold += weight * tf
                if doc_id not in seen:
                    seen.add(doc_id)
                    score = 0.0
                    for term_weight, tf_at in scorers:
                        score += term_weight * tf_at(doc_id, 0.0)
                    if len(heap) < k:
                        heapq.heappush(heap, (score, -doc_id))
                    elif (score, -doc_id) > heap[0]:
                        heapq.heapreplace(heap, (score, -doc_id))
        if len(heap) == k and heap[0][0] > threshold:
            break
    # (score, -doc_id) descending is (-score, doc_id) ascending.
    return [
        RankedHit(doc_id=-neg, score=score)
        for score, neg in sorted(heap, reverse=True)
    ]


def naive_top_k(
    postings_by_term: Mapping[str, Sequence[tuple[int, float]]],
    weights: Mapping[str, float],
    k: int,
) -> list[RankedHit]:
    """Exhaustive scorer used as the TA's correctness oracle in tests; a
    document listed twice in one term keeps its least tf there."""
    if k < 1:
        raise RankingError(f"k must be >= 1, got {k}")
    scores: dict[int, float] = {}
    for term, postings in postings_by_term.items():
        w = float(weights.get(term, 1.0))
        least: dict[int, float] = {}
        for doc_id, tf in postings:
            least[doc_id] = min(tf, least.get(doc_id, tf))
        for doc_id, tf in least.items():
            scores[doc_id] = scores.get(doc_id, 0.0) + w * tf
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [RankedHit(doc_id=d, score=s) for d, s in ranked[:k]]
