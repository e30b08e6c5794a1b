"""The search client's fetch-round bookkeeping (the fetch stage of §5.4.2).

:class:`~repro.client.searcher.SearchClient` fetches a query's merged
lists in failover rounds: each round assigns every unfinished list to
its next replica pod and asks the pods' seats in waves. This module
holds the round's plain data and pure helpers — the per-query
:class:`ClusterDiagnostics`, one pod's :class:`PodFetch` (its seat walk
and tallies), one list's :class:`ListAnswers` with the decision taken
on them once a wave, and the slot-map merge — so the client keeps only
the steps that talk to seats and caches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

from repro.server.index_server import PostingListResponse

if TYPE_CHECKING:
    from repro.cluster.membership import Pod, ServerSlot


@dataclass
class ClusterDiagnostics:
    """Per-query accounting of the fetch stage.

    Attributes:
        pods_contacted: pods that actually received a lookup message.
        lookup_messages: lookup RPCs actually sent (cache hits send none).
        failovers: servers skipped because they were down.
        escalations: extra fetches issued to cover share shortfalls.
        pod_failovers: lists retried on a further replica pod because
            the preferred pod could not finish them.
        hedged_fetches: pods whose backup legs left because a
            first-choice lookup was still unanswered at the hedge delay
            (async socket only: in process every lookup settles first).
        hedge_wins: hedged pods where a backup leg answered first.
        l1_hits: lists served from the searcher-local L1 (no network,
            no reconstruction).
        l2_hits: lists served from the shared cache tier (one cache
            round-trip instead of k seat fetches).
    """

    pods_contacted: int = 0
    lookup_messages: int = 0
    failovers: int = 0
    escalations: int = 0
    pod_failovers: int = 0
    hedged_fetches: int = 0
    hedge_wins: int = 0
    l1_hits: int = 0
    l2_hits: int = 0


class PodFetch:
    """One pod's part of a fetch round: its walk over its seats and its
    tallies, folded into the query's accounting in pod order.

    The walk goes in slot order, one wave at a time: the first ``want``
    seats with a trusted request, then a replacement for each seat that
    failed, then, once ``want`` seats answered, one escalation a wave
    for the lists still short of k shares (a seat with no trusted
    request for them is skipped). ``plan`` is ``[(slot, trusted
    lists)]``; a seat is passed once, asked or not. ``ranking`` is the
    replica ranking the pod's first list came from, which names a
    hedge's backup pod. Times are on the coordinator clock, the
    ``backup_*`` ones for the backup pod; ``ended`` (traced rounds
    only) is when the walk ran out.
    """

    # A round sets only what happens to the pod.
    successes = response_bytes = 0
    contacted = backup_answered = False
    sent_at = backup_sent_at = ended = None
    latency_s = backup_latency_s = 0.0
    backup: Pod | None = None
    backup_stale: dict[str, set[int]] | None = None

    def __init__(
        self,
        pod: Pod,
        ranking: list[Pod],
        lists: tuple[int, ...],
        plan: list[tuple[ServerSlot, tuple[int, ...]]],
        want: int,
        merged: dict[int, ListAnswers],
    ) -> None:
        self.pod = pod
        self.ranking = ranking
        self.lists = lists
        self._seats = iter(plan)
        self.want = want
        self._merged = merged

    def next_asks(self) -> list[tuple[ServerSlot, tuple[int, ...]]]:
        """The next wave's ``[(slot, request)]``; empty once done, and
        on every later call."""
        missing = self.want - self.successes
        asks = []
        if missing > 0:
            for slot, ids in self._seats:
                if ids:
                    asks.append((slot, ids))
                    if len(asks) == missing:
                        break
            return asks
        short = {p for p in self.lists if self._merged[p].short}
        for slot, ids in self._seats if short else ():
            request = tuple(p for p in ids if p in short)
            if request:
                return [(slot, request)]
        return asks


class ListAnswers(dict):
    """One list's answers so far, ``slot index -> response``, and what
    the wave that last changed them decided (:meth:`decide`)."""

    aligned = True
    short = False

    def decide(self, k: int) -> None:
        """Compare each slot's id column with the first, once: are they
        ``aligned`` (then they are the share join as they stand), and
        is an element ``short`` of k shares? A slot holds at most one
        share per element, so an element's share count is the number
        of columns naming it: with aligned columns, the column count.
        """
        columns = [response.element_ids for response in self.values()]
        first = columns[0] if columns else None
        self.aligned = columns.count(first) == len(columns)
        if self.aligned:
            self.short = bool(first) and len(columns) < k
        else:
            counts = Counter(chain.from_iterable(columns))
            self.short = min(counts.values()) < k


def merge_response(
    slot_map: dict[int, PostingListResponse],
    slot_index: int,
    response: PostingListResponse,
) -> None:
    """Fold one slot's response in, unioning records per element.

    Replica pods hold identical shares per slot, so a record seen twice
    is byte-equal; the union matters when an earlier replica's seat
    answered short (e.g. lost shares) and a later replica's same slot
    fills the gap.
    """
    existing = slot_map.get(slot_index)
    if existing is None:
        slot_map[slot_index] = response
        return
    known = set(existing.element_ids)
    extra = [row for row in zip(*response.columns) if row[0] not in known]
    if extra:
        # Element ids are distinct, so row order is element-id order.
        rows = sorted([*zip(*existing.columns), *extra])
        slot_map[slot_index] = PostingListResponse(
            existing.pl_id, *map(list, zip(*rows))
        )
