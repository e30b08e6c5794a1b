"""The sharded cluster's query client (cluster front of §5.4.2).

:class:`ClusterSearchClient` speaks the exact :class:`SearchClient`
surface — same :class:`~repro.client.searcher.SearchResult`, same
Algorithm 2 pipeline — but replaces the fetch stage with cluster-aware
routing:

- **batched lookups**: a query's posting lists are grouped by owning pod
  and each contacted server receives *one* lookup message carrying every
  list it owns that the query needs — one round-trip per server per
  query instead of one per term;
- **replica choice**: with ``replication_factor >= 2`` each list lives
  on several pods holding the *same* slot-aligned shares; the client
  reads from the least-loaded replica with the most *trusted* live
  seats for the list — seats the coordinator's staleness ledger marks
  as having missed writes are never asked about those lists at all
  (a stale seat omits inserts it slept through and still holds shares
  of deletes it missed; neither is detectable from responses);
- **failover ladder**: within a pod, trusted servers are tried in slot
  order — a dead one costs a :class:`TransportError` and the next slot
  takes its place; when an element still comes back with fewer than k
  shares (**share-shortfall escalation** — shares lost in ways the
  ledger cannot see, e.g. disk rot), extra live servers of the pod are
  asked; when the *pod* cannot finish the job, the next replica pod
  takes over the unresolved lists, its slots unioning with what was
  already fetched (slot s shares are identical across replicas, so the
  merge dedups by slot). Only when every replica is exhausted below k
  trusted answered slots does the query degrade loudly;
- **caches**: reads are fronted by the searcher-local L1 of
  reconstructed postings (``l1_entries``) and, when one is attached,
  the shared L2 tier of share bundles (``cache_tier``); both are
  invalidated before every write and re-keyed on membership changes,
  and an L1 hit costs zero messages and zero bytes. Cache keys are
  pod-agnostic — ``(user, group fingerprint, width, pl_id, epoch)`` —
  so an entry fetched from one replica serves reads even after that
  pod dies;
- **pipelined fetch rounds**: each failover round assigns disjoint
  list sets to its pods and asks their seats in waves: every pod's
  first-choice lookups leave in one
  :meth:`~repro.protocol.transport.Transport.call_many` — one write on
  the socket, so a healthy round costs one wait instead of a round trip
  per seat — then the replacements for seats that failed, then the
  share-shortfall escalations, each wave one ``call_many`` over every
  pod still short. Answers are consumed in deterministic pod order on
  the query thread; a pod asks the same seats for the same lists as
  asking one seat at a time would, so every diagnostics count is that
  of one call per seat and only the timing overlaps. Each pod is timed
  from its first request leaving to its last answer arriving, so the
  replica ranking never charges one pod's stall to another;
- **hedged reads** (Dean and Barroso's hedged request): each lookup of
  a wave names a backup, the same slot's seat in another replica pod,
  which the socket sends if the lookup is still unanswered after the
  hedge delay; the first answer wins, and slot-aligned replicas make it
  byte-identical.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import chain, islice
from typing import Sequence

from repro.cachetier.l1 import L1PostingCache
from repro.cachetier.wire import decode_entry, encode_entry, entry_key
from repro.client.searcher import SearchClient
from repro.client.snippets import SnippetService
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.membership import Pod, ServerSlot
from repro.core.dictionary import TermDictionary
from repro.core.mapping_table import MappingTable
from repro.core.posting import PostingElementCodec
from repro.errors import (
    ClusterDegradedError,
    ProtocolError,
    ReproError,
    TransportError,
    UnknownEndpointError,
)
from repro.protocol.messages import (
    CacheGetRequest,
    CachePutRequest,
    FetchListsRequest,
)
from repro.observability.tracing import record_span, span
from repro.protocol.transport import Transport
from repro.resilience.deadline import current_deadline
from repro.server.auth import AuthToken
from repro.server.index_server import PostingListResponse


@dataclass
class ClusterDiagnostics:
    """Per-query accounting of the cluster fetch stage.

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
class _PodFetchOutcome:
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


class _SeatLadder:
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


class ClusterSearchClient(SearchClient):
    """A group member searching the sharded cluster."""

    def __init__(
        self,
        user_id: str,
        token: AuthToken,
        coordinator: ClusterCoordinator,
        mapping_table: MappingTable,
        dictionary: TermDictionary,
        codec: PostingElementCodec | None = None,
        snippet_service: SnippetService | None = None,
        verify_consistency: bool = False,
        use_cache: bool = True,
        transport: Transport | None = None,
        hedge_reads: bool = False,
        hedge_delay_s: float | None = None,
        cache_tier: str | None = None,
        l1_entries: int = 0,
    ) -> None:
        """Args:
        user_id: the searching principal (transport endpoint name too).
        token: enterprise auth ticket.
        coordinator: the cluster control plane (placement, liveness,
            write epochs, public Shamir parameters).
        mapping_table: public term -> posting-list resolver.
        dictionary: public term -> term_id registry.
        codec: posting-element unpacker.
        snippet_service: optional hosting-peer registry.
        verify_consistency: cross-check reconstructions when more than k
            shares arrive (see :class:`SearchClient`).
        use_cache: front lookups with the L1 and the L2 tier, when
            either is attached (never under ``verify_consistency``).
        transport: where lookup messages go; defaults to the
            coordinator's transport (deployments pass their own — the
            in-process registry or a socket client).
        hedge_reads: re-send a wave's lookups still unanswered after
            the hedge delay to a backup replica pod, first answer wins;
            failover replacements and escalations are hedged like
            first choices. Replicas hold byte-identical slot shares, so
            results never differ; hedging spends extra lookup messages.
            Needs the async socket: in process every lookup settles
            before the delay, so it is a no-op there.
        hedge_delay_s: fixed hedge delay override; None (default)
            derives it per round, the minimum over its pods of
            :meth:`ClusterCoordinator.hedge_delay_s` (the replica pods'
            observed p95 fetch latency).
        cache_tier: endpoint name of a shared cache-tier service
            (:class:`repro.cachetier.CacheTierService`); None (default)
            skips the L2 consult entirely. Gated like the L1
            (``use_cache``, and never under ``verify_consistency``); a
            dead or unknown tier degrades silently to a fleet fetch.
        l1_entries: capacity of a searcher-local L1 of *reconstructed*
            postings; 0 (default) disables it. The L1 registers with
            the coordinator for write-fan-out invalidation and eager
            membership eviction, so hot repeat queries skip the
            network and Lagrange reconstruction while staying
            byte-identical to fresh fetches.
        """
        super().__init__(
            user_id=user_id,
            token=token,
            scheme=coordinator.scheme,
            mapping_table=mapping_table,
            dictionary=dictionary,
            servers=None,
            codec=codec,
            snippet_service=snippet_service,
            verify_consistency=verify_consistency,
            transport=transport or coordinator.transport,
        )
        self._coordinator = coordinator
        self._use_cache = use_cache
        self._hedge_reads = hedge_reads
        self._hedge_delay_s = hedge_delay_s
        self._cache_tier = cache_tier
        self._l1: L1PostingCache | None = None
        if l1_entries:
            self._l1 = L1PostingCache(l1_entries)
            coordinator.register_l1(self._l1)
        #: Lists whose last fetch left an element below k shares — never
        #: cacheable, in any tier (set per _fetch_lists call).
        self._last_unresolved: set[int] = set()
        self.last_cluster_diagnostics = ClusterDiagnostics()

    @property
    def l1_cache(self) -> L1PostingCache | None:
        """The searcher-local L1, for observability (None when off)."""
        return self._l1

    def fetch_postings(self, terms, num_servers=None):
        """Publish per-query counters into the coordinator's registry.

        The instrumented path is byte-identical to the base pipeline —
        it only counts and times around it. Both :meth:`search` and
        :meth:`fetch_elements` fetch through here, so each counts once.
        ``zerber_search_queries_total`` and the fetch-latency histogram
        are what ``repro cluster top`` derives its qps and quantile
        columns from.
        """
        metrics = self._coordinator.metrics
        if metrics is None:
            return super().fetch_postings(terms, num_servers)
        started = time.perf_counter()
        try:
            return super().fetch_postings(terms, num_servers)
        finally:
            metrics.counter("zerber_search_queries_total").inc()
            metrics.histogram("zerber_search_latency_seconds").observe(
                time.perf_counter() - started
            )

    # -- the cluster fetch stage ------------------------------------------------

    def _fetch_lists(
        self, pl_ids: Sequence[int], num_servers: int
    ) -> list[tuple[int, list[PostingListResponse]]]:
        """Route, batch, fail over, escalate; returns (slot_index, responses).

        Slot indices repeat across pods, but replica pods of a list hold
        *identical* slot-aligned shares, so the base class's
        ``(pl_id, element_id)`` share join never mixes incompatible
        shares — slot ``s`` of every pod shares the x-coordinate
        ``scheme.x_of(s)``, and the per-list merge below keeps at most
        one response per slot.
        """
        self.last_cluster_diagnostics = ClusterDiagnostics()
        self._last_unresolved = set()
        diag = self.last_cluster_diagnostics
        coordinator = self._coordinator
        # verify_consistency needs fresh shares from > k servers every
        # time — serving a k-share cached entry would silently disable
        # the lying-server cross-check, so the tier steps aside.
        tier = (
            self._cache_tier
            if self._use_cache and not self._verify
            else None
        )
        out: list[tuple[int, list[PostingListResponse]]] = []
        need = list(pl_ids)
        if tier is not None:
            fingerprint = coordinator.group_fingerprint(self.user_id)
            # Epochs are captured once, before any share leaves a seat:
            # a fill is installed under the captured epoch, so a write
            # that invalidates (and bumps) mid-fetch fences the fill
            # into a key no later reader derives — re-installing
            # pre-write shares after an invalidation is the race this
            # closes.
            keys = {
                pl_id: entry_key(
                    fingerprint,
                    num_servers,
                    pl_id,
                    coordinator.write_epoch(pl_id),
                )
                for pl_id in pl_ids
            }
            # Consult the shared tier before paying a fleet fetch, every
            # list in one batch. A hit is the same sorted (slot,
            # response) pairs a fetch would have produced.
            with span("l2-get"):
                replies = self._cache_tier_calls(
                    [CacheGetRequest(self._token, keys[p]) for p in pl_ids]
                )
            need = []
            for pl_id, reply in zip(pl_ids, replies):
                entry = self._l2_entry(reply)
                if entry is None:
                    need.append(pl_id)
                    continue
                diag.l2_hits += 1
                for slot_index, response in entry:
                    out.append((slot_index, [response]))
        if not need:
            return out
        merged, unresolved = self._fetch_with_failover(
            need, num_servers, diag
        )
        self._last_unresolved = set(unresolved)
        fills = []
        for pl_id in need:
            pairs = sorted(merged[pl_id].items())
            for slot_index, response in pairs:
                out.append((slot_index, [response]))
            # A list with an unresolved share shortfall is served but
            # never cached: the missing shares may reappear when a
            # server recovers, and a cached short entry would hide
            # them until an unrelated write evicted it. A fill ships the
            # column bytes the seats sent.
            if tier is not None and pairs and pl_id not in unresolved:
                fills.append(
                    CachePutRequest(
                        self._token, keys[pl_id], pl_id, encode_entry(pairs)
                    )
                )
        if fills:
            self._cache_tier_calls(fills)  # best effort, in one batch
        return out

    def _cache_tier_calls(self, requests: list) -> list:
        """One ``call_many`` to the tier. A dead or unknown tier answers
        None in its slot, a miss or a lost put (the tier is an
        accelerator, never a dependency); any other typed error ends
        the query."""
        replies = self._transport.call_many(
            self.user_id, [(self._cache_tier, r) for r in requests]
        )
        for reply in replies:
            if isinstance(reply, ReproError) and not isinstance(
                reply, (TransportError, UnknownEndpointError)
            ):
                raise reply
        return [None if isinstance(r, ReproError) else r for r in replies]

    def _l2_entry(self, reply) -> list[tuple[int, PostingListResponse]] | None:
        """A get's answer as (slot, response) pairs; None on a miss, a
        tier failure, or a torn entry."""
        if reply is None:
            return None
        self.last_diagnostics.response_bytes += reply.wire_bytes(
            self._share_bytes
        )
        try:
            return decode_entry(reply.value) if reply.hit else None
        except ProtocolError:
            return None  # corrupt value: treat as a miss, refetch

    # -- the searcher-local L1 ---------------------------------------------------

    def _elements_by_list(
        self, pl_ids: Sequence[int], num_servers: int
    ) -> dict[int, list[int]]:
        """Front reconstruction with the L1 when one is attached.

        An L1 entry is the reconstructed secrets of one list for this
        exact (user, group fingerprint, width) — the same inputs that
        determine a fresh fetch's bytes, so a hit is byte-identical by
        construction, and a hit, a miss and an uncached read all decode
        only the queried terms (:meth:`fetch_postings`). Shortfall
        lists are never stored; verify_consistency bypasses the L1
        exactly like every other cache.
        """
        l1 = (
            self._l1
            if self._l1 is not None
            and self._use_cache
            and not self._verify
            else None
        )
        if l1 is None:
            return self._reconstruct_lists(pl_ids, num_servers)
        coordinator = self._coordinator
        fingerprint = coordinator.group_fingerprint(self.user_id)
        # Same fence as the L2 tier: the epoch rides in the key,
        # captured before any fetch, so an L1 fill racing the
        # coordinator's invalidation thread lands under a dead key
        # instead of resurrecting pre-write postings.
        keys = {
            pl_id: (
                self.user_id,
                fingerprint,
                num_servers,
                pl_id,
                coordinator.write_epoch(pl_id),
            )
            for pl_id in pl_ids
        }
        out: dict[int, list[int]] = {}
        missing: list[int] = []
        l1_hits = 0
        with span("l1-lookup"):
            for pl_id in pl_ids:
                entry = l1.get(keys[pl_id])
                if entry is None:
                    missing.append(pl_id)
                else:
                    out[pl_id] = entry
                    l1_hits += 1
        if missing:
            # _fetch_lists (inside) resets last_cluster_diagnostics for
            # this query; the L1 tallies are re-applied after.
            fetched = self._reconstruct_lists(missing, num_servers)
            for pl_id in missing:
                out[pl_id] = fetched[pl_id]
                if pl_id not in self._last_unresolved:
                    l1.put(keys[pl_id], pl_id, fetched[pl_id])
        else:
            self.last_cluster_diagnostics = ClusterDiagnostics()
        self.last_cluster_diagnostics.l1_hits += l1_hits
        return out

    def _fetch_with_failover(
        self,
        need: Sequence[int],
        num_servers: int,
        diag: ClusterDiagnostics,
    ) -> tuple[dict[int, dict[int, PostingListResponse]], set[int]]:
        """Fetch every list from its replica chain, best pod first.

        Each round assigns every still-unfinished list to its next
        untried replica pod (preference order from
        :meth:`ClusterCoordinator.read_replicas`), fetches from all
        assigned pods in pipelined waves (:meth:`_fetch_round`; the
        pods' list sets are disjoint within a round, so their merges
        touch disjoint state) and merges slot-deduplicated responses in
        deterministic pod order. A list is finished when
        >= k slots answered for it and no element is short of k shares;
        it degrades loudly only when the whole replica chain is
        exhausted below k answered slots.

        Returns ``(merged, unresolved)`` — per list, one response per
        answering slot; and the lists that still contain an element with
        fewer than k shares after the whole ladder (uncacheable).
        """
        coordinator = self._coordinator
        k = self._scheme.k
        merged: dict[int, dict[int, PostingListResponse]] = {
            pl_id: {} for pl_id in need
        }
        tried: dict[int, set[str]] = {pl_id: set() for pl_id in need}
        contacted: set[str] = set()
        # Every failover round checks it: a degraded query walks the
        # replica chain only as far as its caller's remaining budget
        # allows, never past it.
        deadline = current_deadline()
        pending = short = list(need)
        while pending:
            if deadline is not None:
                deadline.check("cluster fetch")
            assignment: dict[Pod, list[int]] = {}
            for pl_id in pending:
                pod = next(
                    (
                        p
                        for p in coordinator.read_replicas(pl_id)
                        if p.name not in tried[pl_id]
                    ),
                    None,
                )
                if pod is None:
                    continue  # replica chain exhausted
                if tried[pl_id]:
                    diag.pod_failovers += 1
                tried[pl_id].add(pod.name)
                assignment.setdefault(pod, []).append(pl_id)
            if not assignment:
                break
            # One job per assigned pod. Each list belongs to exactly one
            # pod this round, so the merges mutate disjoint per-list
            # state, and every job tallies its accounting apart.
            jobs = [
                (pod, assignment[pod])
                for pod in sorted(assignment, key=lambda p: p.index)
            ]
            outcomes = self._fetch_round(jobs, num_servers, merged, tried)
            # Deterministic merge: outcomes fold in pod-index order.
            for (pod, lists), outcome in zip(jobs, outcomes):
                diag.failovers += outcome.failovers
                diag.escalations += outcome.escalations
                diag.lookup_messages += outcome.lookup_messages
                self.last_diagnostics.response_bytes += (
                    outcome.response_bytes
                )
                answered = []
                if outcome.contacted:
                    answered.append((pod, outcome.latency_s))
                if outcome.hedged:
                    backup = outcome.backup
                    diag.hedged_fetches += 1
                    # The backup was asked: a later failover round must
                    # not ask it again.
                    for pl_id in lists:
                        tried[pl_id].add(backup.name)
                    if outcome.backup_answered:
                        diag.hedge_wins += 1
                        answered.append((backup, outcome.backup_latency_s))
                for target, latency_s in answered:
                    contacted.add(target.name)
                    coordinator.breakers.record_success(target.name)
                    coordinator.note_pod_read(
                        target.name, len(lists), latency_s=latency_s
                    )
                if not answered:
                    # No seat of the pod or its backup answered a thing:
                    # the whole leg failed. (A partially degraded pod
                    # that still answered counts as success — the
                    # breaker guards against dead pods, not slow seats.
                    # A pod whose every lookup its backup answered first
                    # was abandoned, not failed, and records nothing.)
                    coordinator.breakers.record_failure(pod.name)
            short = [
                pl_id for pl_id in need if self._needs_more(merged[pl_id], k)
            ]
            pending = [
                pl_id
                for pl_id in short
                if any(
                    pod.name not in tried[pl_id]
                    for pod in coordinator.pods_of(pl_id)
                )
            ]
        diag.pods_contacted = len(contacted)
        for pl_id in need:
            answered = len(merged[pl_id])
            if answered < k:
                raise ClusterDegradedError(
                    f"list {pl_id}: only {answered} of the required "
                    f"k={k} trusted server slots answered across "
                    f"{len(tried[pl_id])} replica pod(s)"
                )
        # Every list answered >= k slots, so the last pass's ``short``
        # (taken on this same state) is the lists with a shortfall.
        return merged, set(short)

    @staticmethod
    def _share_shortfall(
        slot_map: dict[int, PostingListResponse], k: int
    ) -> bool:
        """True when some element of the list has < k shares so far.

        A slot holds at most one share per element, so an element's
        share count is the number of slot columns naming it. When every
        slot answered the same id column (the healthy case), that count
        is the number of slots for every element.
        """
        columns = [response.element_ids for response in slot_map.values()]
        if all(ids == columns[0] for ids in columns[1:]):
            return bool(columns and columns[0]) and len(columns) < k
        return min(Counter(chain.from_iterable(columns)).values()) < k

    def _needs_more(
        self, slot_map: dict[int, PostingListResponse], k: int
    ) -> bool:
        return len(slot_map) < k or self._share_shortfall(slot_map, k)

    @staticmethod
    def _merge_response(
        slot_map: dict[int, PostingListResponse],
        slot_index: int,
        response: PostingListResponse,
    ) -> None:
        """Fold one slot's response in, unioning records per element.

        Replica pods hold identical shares per slot, so a record seen
        twice is byte-equal; the union matters when an earlier replica's
        seat answered short (e.g. lost shares) and a later replica's
        same slot fills the gap.
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

    def _hedge_backup(
        self, lists: Sequence[int], tried: dict[int, set[str]]
    ) -> Pod | None:
        """The replica pod whose seats back up a job's lookups.

        Must replicate *every* list of the job and be untried for all
        of them (the job's own pod is tried); preference order from the
        first list's ranking. None when the job cannot be hedged (no
        common untried replica).
        """
        coordinator = self._coordinator
        for candidate in coordinator.read_replicas(lists[0]):
            if all(
                candidate.name not in tried[pl_id]
                and any(
                    p.name == candidate.name
                    for p in coordinator.pods_of(pl_id)
                )
                for pl_id in lists
            ):
                return candidate
        return None

    def _fetch_round(
        self,
        jobs: list[tuple[Pod, list[int]]],
        num_servers: int,
        merged: dict[int, dict[int, PostingListResponse]],
        tried: dict[int, set[str]],
    ) -> list[_PodFetchOutcome]:
        """One round of the ladder over ``(pod, lists)`` jobs, in waves.

        The one place a read meets the staleness ledger: a seat marked
        incomplete for a list is never asked for it (a stale seat's
        answer is wrong in ways no shortfall signal catches). Each wave
        collects every pod's next asks (:class:`_SeatLadder`), sends
        them in one ``call_many`` and consumes the answers in pod order;
        the round ends when no pod has a seat left to ask. A pod is
        timed on the coordinator clock from its first request leaving
        to its last answer arriving. Never raises on a degraded pod.

        With ``hedge_reads`` a lookup's backup is the same request to
        the seat at its slot index in the pod's backup replica
        (:meth:`_hedge_backup`, named once a round), which holds the
        same x-coordinate's shares, unless the ledger marks it
        incomplete.
        """
        k = self._scheme.k
        coordinator = self._coordinator
        # The injected clock times pods: breakers, hedge p95s and the
        # EWMA share one source, so a fake clock moves them together.
        clock = coordinator.clock
        stale_seats = coordinator.ledger.stale_seats
        ladders = []
        for pod, ids in jobs:
            stale = {p: stale_seats(pod.name, p) for p in ids}
            plan = [
                (slot, [p for p in ids if slot.server_id not in stale[p]])
                for slot in pod.slots
            ]
            want = max(k, min(num_servers, len(pod.slots)))
            ladders.append(_SeatLadder(plan, want))
        outcomes = [_PodFetchOutcome() for _ in jobs]
        delay_s = 0.0
        if self._hedge_reads:
            for outcome, (_pod, lists) in zip(outcomes, jobs):
                outcome.backup = self._hedge_backup(lists, tried)
            delay_s = self._hedge_delay_s
            if delay_s is None:
                delay_s = min(
                    coordinator.hedge_delay_s(lists[0]) for _pod, lists in jobs
                )
        # Leg ``index`` of a wave is an ask, or past the wave's asks the
        # backup of ask ``index % len(wave)``. A pod's first send of
        # each leg kind is kept across waves.
        sent: dict[tuple[int, bool], float] = {}
        span_start = time.perf_counter()
        ended: dict[int, float] = {}  # job -> when its ladder ran out
        while True:
            wave = []
            for job, ladder in enumerate(ladders):
                asks = ladder.next_asks()
                if not asks:
                    ended.setdefault(job, time.perf_counter())
                wave += [(job, slot, request) for slot, request in asks]
            if not wave:
                break
            calls = [
                (slot.server_id, FetchListsRequest(self._token, tuple(ids)))
                for _job, slot, ids in wave
            ]
            backups = None
            if self._hedge_reads:
                backups = []
                for (job, slot, ids), (_seat, request) in zip(wave, calls):
                    pod = outcomes[job].backup
                    seat = pod and pod.slots[slot.slot_index].server_id
                    trusted = seat and not any(
                        seat in stale_seats(pod.name, p)
                        for p in ids
                    )
                    backups.append((seat, request) if trusted else None)
            from_backup: set[int] = set()

            def on_sent(index: int) -> None:
                leg = wave[index % len(wave)][0], index >= len(wave)
                sent.setdefault(leg, clock())

            def on_done(index: int) -> None:
                job, backup = wave[index % len(wave)][0], index >= len(wave)
                latency_s = clock() - sent[job, backup]
                if backup:
                    from_backup.add(index % len(wave))
                    outcomes[job].backup_latency_s = latency_s
                else:
                    from_backup.discard(index)
                    outcomes[job].latency_s = latency_s

            replies = self._transport.call_many(
                self.user_id,
                calls,
                on_sent=on_sent,
                on_done=on_done,
                backups=backups,
                hedge_after_s=delay_s,
            )
            for index, ((job, slot, _ids), reply) in enumerate(
                zip(wave, replies)
            ):
                outcome = outcomes[job]
                ladder = ladders[job]
                # Every answer was a lookup sent, an error answer too.
                outcome.lookup_messages += 1
                if isinstance(reply, TransportError):
                    outcome.failovers += 1  # like a lost packet
                    continue
                if isinstance(reply, ReproError):
                    raise reply  # a typed server error ends the query
                outcome.response_bytes += reply.wire_bytes(self._share_bytes)
                if index in from_backup:
                    outcome.backup_answered = True
                else:
                    outcome.contacted = True
                if ladder.escalating:
                    outcome.escalations += 1
                else:
                    ladder.successes += 1
                for response in reply.lists:
                    self._merge_response(
                        merged[response.pl_id], slot.slot_index, response
                    )
                if ladder.escalating:
                    ladder.shortfall = {
                        p
                        for p in jobs[job][1]
                        if self._share_shortfall(merged[p], k)
                    }
        for job, ((pod, _lists), outcome) in enumerate(zip(jobs, outcomes)):
            outcome.hedged = (job, True) in sent
            record_span(
                f"fetch:{pod.name}",
                start_s=span_start,
                duration_s=ended[job] - span_start,
                wire_bytes=outcome.response_bytes,
            )
        return outcomes
