"""The search client's fetch-round bookkeeping (the fetch stage of §5.4.2).

:class:`~repro.client.searcher.SearchClient` fetches a query's merged
lists in failover rounds: each round assigns every unfinished list to
its next replica pod and asks the pods' seats in waves. This module
holds the round's plain data and pure helpers — the per-query
:class:`ClusterDiagnostics`, one pod's :class:`PodFetchOutcome`, the
per-pod :class:`SeatLadder`, and the slot-map merge and shortfall test
— so the client keeps only the steps that talk to seats and caches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
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


@dataclass
class PodFetchOutcome:
    """One pod's share of a fetch round, tallied apart and folded in pod
    order once the round completes. ``latency_s`` is how long its
    lookups were in flight, on the coordinator clock; ``backup_*`` is
    the same for its hedge's replica pod."""

    contacted: bool = False
    failovers: int = 0
    escalations: int = 0
    lookup_messages: int = 0
    response_bytes: int = 0
    latency_s: float = 0.0
    backup: Pod | None = None
    hedged: bool = False
    backup_answered: bool = False
    backup_latency_s: float = 0.0


class SeatLadder:
    """One pod's walk over its seats in slot order, one wave at a time:
    the first ``want`` seats with a trusted request, then a replacement
    for each seat that failed, then, once ``want`` seats answered, one
    escalation a wave for the lists still short of k shares (a seat
    with no trusted request for them is skipped). ``plan`` is
    ``[(slot, trusted lists)]``; a seat is passed once, asked or not."""

    def __init__(
        self, plan: list[tuple[ServerSlot, list[int]]], want: int
    ) -> None:
        self._seats = iter(plan)
        self._want = want
        self.successes = 0
        #: Lists still short of k shares (set by the round once
        #: ``want`` seats answered).
        self.shortfall: set[int] = set()

    @property
    def escalating(self) -> bool:
        return self.successes >= self._want

    def next_asks(self) -> list[tuple[ServerSlot, list[int]]]:
        """The next wave's ``[(slot, request)]``; empty once done, and
        on every later call."""
        if not self.escalating:
            trusted = ((slot, ids) for slot, ids in self._seats if ids)
            return list(islice(trusted, self._want - self.successes))
        if self.shortfall:
            for slot, ids in self._seats:
                request = sorted(p for p in ids if p in self.shortfall)
                if request:
                    return [(slot, request)]
        return []


def share_shortfall(slot_map: dict[int, PostingListResponse], k: int) -> bool:
    """True when some element of the list has < k shares so far.

    A slot holds at most one share per element, so an element's share
    count is the number of slot columns naming it. When every slot
    answered the same id column (the healthy case), that count is the
    number of slots for every element.
    """
    columns = [response.element_ids for response in slot_map.values()]
    if all(ids == columns[0] for ids in columns[1:]):
        return bool(columns and columns[0]) and len(columns) < k
    return min(Counter(chain.from_iterable(columns)).values()) < k


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
