"""The fetch stage's plain data (Algorithm 2 step 2, §5.4.2).

:class:`~repro.client.searcher.SearchClient` fetches a query's lists
in failover rounds of waves. This module holds the per-query
:class:`ClusterDiagnostics`, one pod's seat walk (:class:`PodFetch`),
one list's answers and the one decision taken on them
(:class:`ListAnswers`), and the per-slot merge.
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
        pod_failovers: lists retried on a further replica pod.
        hedged_fetches: pods whose backup legs left at the hedge delay.
        hedge_wins: hedged pods where a backup leg answered first.
        l1_hits: lists served from the searcher-local L1.
        l2_hits: lists served from the shared cache tier.
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
    """One pod's part of a fetch round: its seat walk and its tallies.

    The walk goes in slot order, one wave at a time: the first ``want``
    seats with a trusted request (``plan`` is ``[(slot, trusted
    lists)]``), a replacement for each seat that failed, then one
    escalation a wave for the lists still short of k shares. Times are
    on the coordinator clock; ``ended`` (traced only) is when it ran out.
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
    """One list's answers, ``slot index -> response``, fetched or read
    from the L2, and the verdict of :meth:`decide`, the one place the
    read path judges alignment: the join trusts it."""

    aligned = True
    short = False

    def decide(self, k: int) -> None:
        """Are the slots' id columns ``aligned`` (all equal to the
        first, so they are the share join as they stand), and is an
        element ``short`` of k shares (named by fewer than k columns)?
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
    """Fold a further response for a slot in. Replica pods hold the
    same shares per slot, so the first answer's rows are kept and a
    later replica's rows only fill an earlier seat's gaps.
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
