"""Fagin's Threshold Algorithm for client-side top-K (paper §5.4.2, [14]).

After decryption the client holds, per query term, a posting list it can
sort by term frequency. The Threshold Algorithm walks these lists in
parallel in tf-descending order, maintaining the invariant that no unseen
document can beat the threshold ``T = sum_t w_t * tf_t(current depth)``;
once K seen documents score >= T, the scan stops — typically long before
the lists are exhausted, which is how Zerber keeps client-side ranking
cheap despite receiving *all* accessible elements.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, Sequence

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


def threshold_top_k(
    postings_by_term: Mapping[str, Sequence[tuple[int, float]]],
    weights: Mapping[str, float],
    k: int,
) -> list[RankedHit]:
    """Top-K documents under the weighted-sum score, via Fagin's TA.

    Args:
        postings_by_term: term -> [(doc_id, tf), ...]; order is irrelevant,
            the algorithm sorts each list tf-descending itself (the client
            just decrypted them, so no order is available anyway).
        weights: term -> non-negative query weight (idf). Terms missing
            from ``weights`` default to weight 1.0.
        k: result count (>= 1).

    Returns:
        Up to ``k`` hits, score-descending (ties broken by doc_id for
        determinism).
    """
    if k < 1:
        raise RankingError(f"k must be >= 1, got {k}")
    sorted_lists: dict[str, list[tuple[int, float]]] = {}
    for term, postings in postings_by_term.items():
        # (-tf, doc_id) order from two C-level sorts: doc_id order,
        # then a stable tf-descending pass. Rows equal in doc_id and tf
        # are equal tuples, so sorting on doc_id alone orders as well as
        # a tuple sort, and cheaper. The inputs are not touched.
        lst = sorted(postings, key=itemgetter(0))
        lst.sort(key=itemgetter(1), reverse=True)
        if lst and lst[-1][1] < 0:  # the last row holds the least tf
            raise RankingError(f"negative tf in list for {term!r}")
        sorted_lists[term] = lst
    terms = [t for t, lst in sorted_lists.items() if lst]
    if not terms:
        return []
    term_weights = {t: float(weights.get(t, 1.0)) for t in terms}
    if any(w < 0 for w in term_weights.values()):
        raise RankingError("negative term weight")
    # Random-access structures: doc -> tf per term. A doc listed twice
    # keeps its last row in (-tf, doc_id) order.
    tf_of: dict[str, dict[int, float]] = {
        t: dict(lst) for t, lst in sorted_lists.items()
    }

    def full_score(doc_id: int) -> float:
        return sum(
            term_weights[t] * tf_of[t].get(doc_id, 0.0) for t in terms
        )

    seen: set[int] = set()
    # Min-heap of (score, -doc_id) keeps the current top-K.
    heap: list[tuple[float, int]] = []
    depth = 0
    max_depth = max(len(lst) for lst in sorted_lists.values())
    while depth < max_depth:
        frontier_tfs = {}
        for t in terms:
            lst = sorted_lists[t]
            if depth < len(lst):
                doc_id, tf = lst[depth]
                frontier_tfs[t] = tf
                if doc_id not in seen:
                    seen.add(doc_id)
                    score = full_score(doc_id)
                    if len(heap) < k:
                        heapq.heappush(heap, (score, -doc_id))
                    elif (score, -doc_id) > heap[0]:
                        heapq.heapreplace(heap, (score, -doc_id))
            else:
                frontier_tfs[t] = 0.0
        depth += 1
        # TA stopping rule: threshold is the best score any unseen
        # document could still achieve.
        threshold = sum(
            term_weights[t] * frontier_tfs[t] for t in terms
        )
        if len(heap) == k and heap[0][0] >= threshold:
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
    """Exhaustive scorer used as the TA's correctness oracle in tests."""
    if k < 1:
        raise RankingError(f"k must be >= 1, got {k}")
    scores: dict[int, float] = {}
    for term, postings in postings_by_term.items():
        w = float(weights.get(term, 1.0))
        for doc_id, tf in postings:
            scores[doc_id] = scores.get(doc_id, 0.0) + w * tf
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [RankedHit(doc_id=d, score=s) for d, s in ranked[:k]]
