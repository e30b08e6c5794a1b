"""The querying user's client (paper §5.4.2, Algorithm 2).

A query is one flat line of stages in :meth:`SearchClient
.fetch_postings` and :meth:`SearchClient.search`. Each stage takes its
inputs as arguments and returns per-list outputs; none leaves a value
on the client for another to read. Algorithm 2's steps map onto them:

1. map query terms to merged posting-list IDs through the public
   mapping table, so only list IDs travel: ``_plan``;
2. fetch the lists from k (or more) index servers, each returning only
   the elements the user's groups may read: ``_fence`` captures the
   cache keys once, ``_l1_get`` reads the searcher-local L1 of
   reconstructed secrets, ``_l2_get`` the shared L2 tier of share
   bundles, ``_fetch`` runs the failover ladder over the rest, and
   ``_l2_fill`` stores what it fetched;
3. join the share streams on the element ID and reconstruct each
   element from any k shares (``decodeShamirsScheme``): ``_reconstruct``
   over :func:`join_columns`, then ``_l1_fill``;
4. filter false positives, the merged-in terms the user did not query
   (``filterElements``): ``_decode``;
5. rank with personalized collection statistics and Fagin's Threshold
   Algorithm: ``_rank``;
6. fetch snippets for the top-K from the hosting peers:
   ``_fetch_snippet``.

The single fleet (§5) is the one-pod cluster (§8), so one fetch stage
serves both. See ``docs/ARCHITECTURE.md``, "Reads".
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import combinations, islice
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.cachetier.l1 import L1PostingCache
from repro.cachetier.wire import decode_entry, encode_entry, entry_key
from repro.client.fetch_round import (
    ClusterDiagnostics,
    ListAnswers,
    PodFetch,
    merge_response,
)
from repro.client.snippets import SnippetService
from repro.core.dictionary import TermDictionary
from repro.core.mapping_table import MappingTable
from repro.core.posting import PostingElement, PostingElementCodec
from repro.errors import (
    ClusterDegradedError,
    ProtocolError,
    ReproError,
    TransportError,
    UnknownEndpointError,
)
from repro.observability.tracing import (
    current_trace,
    record_span,
    span,
    trace_scope,
)
from repro.protocol.messages import (
    CacheGetRequest,
    CachePutRequest,
    FetchListsRequest,
    FetchSnippetRequest,
)
from repro.protocol.transport import Transport
from repro.resilience.deadline import current_deadline, deadline_scope
from repro.ranking.scores import CollectionStatistics, TfIdfScorer
from repro.ranking.threshold import term_tf_maps, threshold_top_k
from repro.secretsharing.field import word_column
from repro.server.auth import AuthToken

if TYPE_CHECKING:
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.membership import Pod

_NO_SECRETS = np.zeros(0, np.uint64)
_NO_SCOPE = nullcontext()


@dataclass(frozen=True)
class SearchResult:
    """One ranked hit as presented to the user.

    Attributes:
        doc_id: the matching document.
        score: its personalized tf-idf score.
        host: hosting peer (from the snippet fetch; "" when snippets off).
        snippet: context text ("" when snippets off).
        matched_terms: the query terms the document contains, each
            once, sorted, also when several owners share its ``doc_id``
            (:func:`~repro.ranking.threshold.term_tf_maps`).
    """

    doc_id: int
    score: float
    host: str = ""
    snippet: str = ""
    matched_terms: tuple[str, ...] = ()


@dataclass
class SearchDiagnostics:
    """Per-query accounting the §7.3 experiments read off.

    Attributes:
        posting_lists_requested: distinct merged-list IDs sent to servers.
        elements_received: elements reconstructed *by this query* (an L1
            hit reconstructs nothing).
        false_positives: reconstructed elements discarded: merged-in
            noise and secrets that do not decode. With every list
            fetched, exactly ``elements_received - elements_matched``.
        elements_matched: elements surviving the term filter.
        response_bytes: lookup and L2 response bytes (``wire_bytes``,
            whatever the transport).
        inconsistent_elements: under ``verify_consistency``, elements
            whose k-subsets of shares disagreed.
        recovered_elements: the inconsistent elements a strict
            plurality of subsets still decided (needs >= k + 2 shares).
    """

    posting_lists_requested: int = 0
    elements_received: int = 0
    false_positives: int = 0
    elements_matched: int = 0
    response_bytes: int = 0
    inconsistent_elements: int = 0
    recovered_elements: int = 0


def join_columns(
    columns: list[tuple[int, list[int], list[int]]], k: int, aligned: bool
) -> list[tuple[tuple[int, ...], list[list[int]]]]:
    """Join one list's ``(x, element_ids, share_ys)`` slot columns on
    the element ID; returns ``(xs, y_columns)`` groups, row ``i`` of a
    group being one element's shares in canonical order.

    ``aligned`` is :meth:`ListAnswers.decide`'s verdict: the columns
    are then the join, row by row, so an ID every column repeats (only
    k seats lying alike serve one) is two elements. Otherwise each
    element keeps its first share per distinct x, and elements short
    of k shares (a lagging or lying server) are dropped.
    """
    if aligned:
        xs = tuple(x for x, _, _ in columns)
        return [(xs, [ys for _, _, ys in columns])] if len(xs) >= k else []
    shares_of: dict[int, dict[int, int]] = defaultdict(dict)
    for x, column_ids, ys in columns:
        for element_id, y in zip(column_ids, ys):
            shares_of[element_id].setdefault(x, y)
    groups: dict[tuple[int, ...], list[list[int]]] = {}
    for by_x in shares_of.values():
        if len(by_x) >= k:
            y_columns = groups.setdefault(tuple(by_x), [[] for _ in by_x])
            for column, y in zip(y_columns, by_x.values()):
                column.append(y)
    return list(groups.items())


class SearchClient:
    """A group member searching the shared index."""

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
        hedge_after_s: float | None = None,
        cache_tier: str | None = None,
        l1_entries: int = 0,
    ) -> None:
        """Args:
        user_id: the searching principal (transport endpoint name too).
        token: enterprise auth ticket.
        coordinator: the control plane (placement, liveness, write
            epochs, the public Shamir parameters).
        mapping_table / dictionary: public term -> list / term_id maps.
        codec: posting-element unpacker.
        snippet_service: optional hosting-peer registry for step 6.
        verify_consistency: over more than k servers, vote each element
            over k-subsets of its shares (:meth:`_cross_check`).
        use_cache: front lookups with the L1 and the L2 tier, when
            either is attached (never under ``verify_consistency``).
        transport: where messages go; the coordinator's by default.
        hedge_after_s: re-send a wave's lookups still unanswered after
            this many seconds to a backup replica pod, first answer
            wins (async socket only; replicas answer byte-identically).
            None (default) never hedges; a negative, NaN or infinite
            delay is a :class:`~repro.errors.ReproError`.
        cache_tier: endpoint of a shared L2 tier; None skips it. A dead
            or unknown tier degrades silently to a fleet fetch.
        l1_entries: capacity of a searcher-local L1 of reconstructed
            secrets, registered with the coordinator for invalidation;
            0 (default) disables it.
        """
        if hedge_after_s is not None and not 0 <= hedge_after_s < math.inf:
            raise ReproError(
                "hedge_after_s must be a finite number >= 0 or None, "
                f"got {hedge_after_s}"
            )
        self.user_id = user_id
        self._token = token
        self._coordinator = coordinator
        self._scheme = coordinator.scheme
        self._mapping = mapping_table
        self._dictionary = dictionary
        self._codec = codec or PostingElementCodec()
        self._snippets = snippet_service
        self._verify = verify_consistency
        self._share_bytes = self._scheme.field.share_bytes
        self._transport = transport or coordinator.transport
        self._use_cache = use_cache
        self._hedge_after_s = hedge_after_s
        self._cache_tier = cache_tier
        self._l1: L1PostingCache | None = None
        if l1_entries:
            self._l1 = L1PostingCache(l1_entries)
            coordinator.register_l1(self._l1)
        self.last_diagnostics = SearchDiagnostics()
        self.last_cluster_diagnostics = ClusterDiagnostics()

    @property
    def l1_cache(self) -> L1PostingCache | None:
        """The searcher-local L1, for observability (None when off)."""
        return self._l1

    # -- steps 1-4: the stages, in order ------------------------------------

    def fetch_postings(
        self, terms: Sequence[str], num_servers: int | None = None
    ) -> list[tuple[int, list[tuple[int, float]]]]:
        """Steps 1-4 of Algorithm 2, one stage after another: ``(term_id,
        [(doc_id, tf), ...])`` per queried term a list holds, in
        ``(pl_id, term_id)`` order, false positives removed. Resets,
        then fills, :attr:`last_diagnostics` and
        :attr:`last_cluster_diagnostics`; counts in the metrics registry.

        The caches step aside under ``verify_consistency``, whose
        cross-check needs fresh shares from > k servers. A list left
        with an element short of k shares (``unresolved``) is cached in
        neither tier: the shares may reappear when a seat recovers.
        """
        self.last_diagnostics = SearchDiagnostics()
        self.last_cluster_diagnostics = ClusterDiagnostics()
        started = time.perf_counter()
        try:
            if not terms:
                return []
            wanted, num_servers = self._plan(terms, num_servers)
            cached = self._use_cache and not self._verify
            l1 = cached and self._l1 is not None
            l2 = cached and self._cache_tier is not None
            keys = self._fence(wanted, num_servers) if l1 or l2 else {}
            secrets_of = self._l1_get(keys) if l1 else {}
            missing = [pl_id for pl_id in wanted if pl_id not in secrets_of]
            if missing:
                l2_keys = {p: entry_key(*keys[p][1:]) for p in missing if l2}
                hits = self._l2_get(l2_keys) if l2 else {}
                need = [pl_id for pl_id in missing if pl_id not in hits]
                fetched, unresolved = self._fetch(need, num_servers)
                if l2:
                    self._l2_fill(l2_keys, fetched, unresolved)
                hits.update(fetched)
                fresh = self._reconstruct({p: hits[p] for p in missing})
                if l1:
                    self._l1_fill(keys, fresh, unresolved)
                secrets_of.update(fresh)
            return self._decode(wanted, secrets_of)
        finally:
            if self._coordinator.metrics is not None:
                self._coordinator.note_search(time.perf_counter() - started)

    def _plan(
        self, terms: Sequence[str], num_servers: int | None
    ) -> tuple[dict[int, set[int]], int]:
        """Step 1: ``{pl_id: queried term ids}`` in list order, by the
        mapping table the owner routes postings by, and the width."""
        wanted: dict[int, set[int]] = {}
        for term in terms:
            term_ids = wanted.setdefault(self._mapping.lookup(term), set())
            term_id = self._dictionary.id_of(term)
            if term_id is not None:
                term_ids.add(term_id)
        self.last_diagnostics.posting_lists_requested = len(wanted)
        k = self._scheme.k
        num_servers = num_servers or k
        if num_servers < k:
            raise ReproError(
                f"must query at least k={k} servers, asked {num_servers}"
            )
        return {pl_id: wanted[pl_id] for pl_id in sorted(wanted)}, num_servers

    def _fence(self, pl_ids, num_servers: int) -> dict[int, tuple]:
        """The cache fence: each list's L1 key ``(user, group
        fingerprint, width, pl_id, write epoch)``, read once before the
        first lookup; the L2 key is the same capture without the user.

        A write bumps its lists' epochs before it empties any tier, and
        again once delivered, so a fill under the epoch captured here
        that raced a write lands under a key no later reader derives.
        Both tiers fill from this one query's read and are emptied by
        the same invalidation, so one capture fences both.
        """
        coordinator, user_id = self._coordinator, self.user_id
        fingerprint = coordinator.group_fingerprint(user_id)
        epoch = coordinator.write_epoch
        return {
            p: (user_id, fingerprint, num_servers, p, epoch(p)) for p in pl_ids
        }

    def _l1_get(self, keys: dict[int, tuple]) -> dict[int, np.ndarray]:
        """The L1 stage: each hit list's reconstructed secrets. An
        entry holds every element the user may read, whatever query
        filled it, so a hit is byte-identical to a fresh fetch."""
        hits = {}
        with span("l1-lookup"):
            for pl_id, key in keys.items():
                entry = self._l1.get(key)
                if entry is not None:
                    hits[pl_id] = entry
        self.last_cluster_diagnostics.l1_hits += len(hits)
        return hits

    def _l2_get(self, keys: dict[int, str]) -> dict[int, ListAnswers]:
        """The L2 stage, one batch of gets: each hit as the
        :class:`ListAnswers` a fetch would produce, decided alike. A
        miss, a tier failure and a torn entry (undecodable, naming
        another list, or a slot twice) are left to the fetch stage."""
        with span("l2-get"):
            replies = self._cache_tier_calls(
                [CacheGetRequest(self._token, key) for key in keys.values()]
            )
        hits = {}
        for pl_id, reply in zip(keys, replies):
            if reply is None:
                continue
            self.last_diagnostics.response_bytes += reply.wire_bytes(
                self._share_bytes
            )
            if not reply.hit:
                continue
            answers = ListAnswers()
            try:
                for slot, response in decode_entry(reply.value):
                    if response.pl_id != pl_id or (
                        answers.setdefault(slot, response) is not response
                    ):
                        raise ProtocolError(f"torn entry for list {pl_id}")
            except ProtocolError:
                continue
            answers.decide(self._scheme.k)
            hits[pl_id] = answers
        self.last_cluster_diagnostics.l2_hits += len(hits)
        return hits

    def _l2_fill(self, keys: dict, fetched: dict, unresolved: set) -> None:
        """The L2 fill, one best-effort batch: each resolved fetched
        list as its ``(slot, response)`` pairs in slot order, shipping
        the column bytes the seats sent."""
        fills = [
            CachePutRequest(
                self._token, keys[p], p, encode_entry(sorted(a.items()))
            )
            for p, a in fetched.items()
            if a and p not in unresolved
        ]
        if fills:
            self._cache_tier_calls(fills)

    def _cache_tier_calls(self, requests: list) -> list:
        """One ``call_many`` to the tier. A dead or unknown tier answers
        None in its slot (the tier is an accelerator, never a
        dependency); any other typed error ends the query."""
        replies = self._transport.call_many(
            self.user_id, [(self._cache_tier, r) for r in requests]
        )
        for reply in replies:
            if isinstance(reply, ReproError) and not isinstance(
                reply, (TransportError, UnknownEndpointError)
            ):
                raise reply
        return [None if isinstance(r, ReproError) else r for r in replies]

    def _fetch(
        self, need: Sequence[int], num_servers: int
    ) -> tuple[dict[int, ListAnswers], set[int]]:
        """The fetch stage: every list from its replica chain, best pod
        first; returns each list's answers (one response per answering
        slot) and the lists still short of k shares for an element.

        Each round gives every unfinished list its next untried replica
        pod, ranked once per replica set (a list with a staleness-ledger
        cell ranks alone), and fetches in waves (:meth:`_fetch_round`).
        A pod assigned a leg claims its breaker's half-open probe. A
        list degrades loudly only when its whole replica chain is
        exhausted below k answered slots. Slot ``s`` of every replica
        holds the same shares, at x ``scheme.x_of(s)``.
        """
        diag = self.last_cluster_diagnostics
        coordinator = self._coordinator
        pods_of, breakers = coordinator.pods_of, coordinator.breakers
        gapped = coordinator.ledger.gapped
        k = self._scheme.k
        merged = {pl_id: ListAnswers() for pl_id in need}
        tried: dict[int, set[str]] = {pl_id: set() for pl_id in need}
        contacted: set[str] = set()
        # The ladder stops at its caller's remaining budget.
        deadline = current_deadline()
        pending = short = need
        while pending:
            if deadline is not None:
                deadline.check("cluster fetch")
            rankings: dict[tuple, list[Pod]] = {}
            assignment: dict[Pod, tuple[list[Pod], list[int]]] = {}
            for pl_id in pending:
                pods = pods_of(pl_id)
                key = (pods, pl_id) if pl_id in gapped else pods
                ranking = rankings.get(key)
                if ranking is None:
                    ranking = rankings[key] = coordinator.read_replicas(pl_id)
                asked = tried[pl_id]
                for pod in ranking:
                    if pod.name not in asked:
                        break
                else:
                    continue  # replica chain exhausted
                if asked:
                    diag.pod_failovers += 1
                asked.add(pod.name)
                if pod not in assignment:
                    assignment[pod] = ranking, []
                    breakers.deprioritize(pod.name)  # the leg's probe claim
                assignment[pod][1].append(pl_id)
            if not assignment:
                break
            jobs = sorted(assignment.items(), key=lambda job: job[0].index)
            fetches = self._fetch_round(jobs, num_servers, merged, tried, diag)
            for fetch in fetches:
                pod, lists = fetch.pod, fetch.lists
                self.last_diagnostics.response_bytes += fetch.response_bytes
                answered = [(pod, fetch.latency_s)] if fetch.contacted else []
                if fetch.backup_sent_at is not None:
                    backup = fetch.backup
                    diag.hedged_fetches += 1
                    # A later failover round must not ask the backup again.
                    for pl_id in lists:
                        tried[pl_id].add(backup.name)
                    if fetch.backup_answered:
                        diag.hedge_wins += 1
                        answered.append((backup, fetch.backup_latency_s))
                for target, latency_s in answered:
                    contacted.add(target.name)
                    breakers.record_success(target.name)
                    coordinator.note_pod_read(
                        target.name, len(lists), latency_s=latency_s
                    )
                if not answered:
                    # Neither pod nor backup answered: the leg failed (a
                    # pod its backup beat was abandoned, not failed).
                    breakers.record_failure(pod.name)
            # The wave that last changed a list's answers decided it.
            short = [
                pl_id
                for pl_id, answers in merged.items()
                if len(answers) < k or answers.short
            ]
            pending = [
                pl_id
                for pl_id in short
                if any(pod.name not in tried[pl_id] for pod in pods_of(pl_id))
            ]
        diag.pods_contacted = len(contacted)
        for pl_id in short:
            if len(merged[pl_id]) < k:
                raise ClusterDegradedError(
                    f"list {pl_id}: only {len(merged[pl_id])} of the "
                    f"required k={k} trusted server slots answered across "
                    f"{len(tried[pl_id])} replica pod(s)"
                )
        return merged, set(short)

    def _fetch_round(
        self,
        jobs: list[tuple[Pod, tuple[list[Pod], list[int]]]],
        num_servers: int,
        merged: dict[int, ListAnswers],
        tried: dict[int, set[str]],
        diag: ClusterDiagnostics,
    ) -> list[PodFetch]:
        """One round of the ladder over ``(pod, (ranking, lists))``
        jobs, in waves; returns each pod's :class:`PodFetch`.

        A seat the staleness ledger marks incomplete for a list is never
        asked for it. A wave sends every pod's next asks in one
        ``call_many`` and consumes the answers in pod order; then each
        list it answered decides once (:meth:`ListAnswers.decide`). A
        pod is timed on the coordinator clock from its first request
        leaving to its last answer arriving. A hedged lookup's backup
        is the same request to the same slot of the first pod of the
        ranking that replicates all its lists, untried for all of them.
        """
        k = self._scheme.k
        # Breakers and the EWMA share the injected clock.
        clock = self._coordinator.clock
        pods_of, ledger = self._coordinator.pods_of, self._coordinator.ledger
        hedge_after_s = self._hedge_after_s
        fetches = []
        for pod, (ranking, lists) in jobs:
            ids = tuple(lists)
            # A seat with no stale list here takes the pod's one ask.
            stale = ledger.stale_lists(pod.name, ids)
            plan = [
                (slot, ids)
                if not stale or slot.server_id not in stale
                else (slot, tuple(sorted(set(ids) - stale[slot.server_id])))
                for slot in pod.slots
            ]
            want = max(k, min(num_servers, len(pod.slots)))
            fetch = PodFetch(pod, ranking, ids, plan, want, merged)
            for backup in ranking if hedge_after_s is not None else ():
                if all(
                    backup.name not in tried[p] and backup in pods_of(p)
                    for p in ids
                ):
                    fetch.backup = backup
                    fetch.backup_stale = ledger.stale_lists(backup.name, ids)
                    break
            fetches.append(fetch)
        # One request object per distinct ask: a pod's seats share
        # theirs, and a backup shares its primary's.
        requests: dict[tuple[int, ...], FetchListsRequest] = {}
        traced = current_trace() is not None
        span_start = time.perf_counter()
        while True:
            wave = []
            for fetch in fetches:
                asks = fetch.next_asks()
                if not asks and traced and fetch.ended is None:
                    fetch.ended = time.perf_counter()
                for slot, ids in asks:
                    request = requests.get(ids)
                    if request is None:
                        request = FetchListsRequest(self._token, ids)
                        requests[ids] = request
                    wave.append((fetch, slot, request))
            if not wave:
                break
            calls = [(slot.server_id, request) for _f, slot, request in wave]
            backups = None
            if hedge_after_s is not None:
                backups = []
                for fetch, slot, request in wave:
                    pod, stale = fetch.backup, fetch.backup_stale
                    seat = pod and pod.slots[slot.slot_index].server_id
                    trusted = seat and (
                        seat not in stale
                        or stale[seat].isdisjoint(request.pl_ids)
                    )
                    backups.append((seat, request) if trusted else None)
            # Leg ``index`` of a wave is an ask, or past the wave's asks
            # the backup of ask ``index - size``.
            size = len(wave)
            legs = [fetch for fetch, _slot, _request in wave] * 2
            from_backup: set[int] = set()

            def on_sent(index: int) -> None:
                fetch = legs[index]
                if index < size:
                    if fetch.sent_at is None:
                        fetch.sent_at = clock()
                elif fetch.backup_sent_at is None:
                    fetch.backup_sent_at = clock()

            def on_done(index: int) -> None:
                fetch = legs[index]
                if index < size:
                    from_backup.discard(index)
                    fetch.latency_s = clock() - fetch.sent_at
                else:
                    from_backup.add(index - size)
                    fetch.backup_latency_s = clock() - fetch.backup_sent_at

            replies = self._transport.call_many(
                self.user_id,
                calls,
                on_sent=on_sent,
                on_done=on_done,
                backups=backups,
                hedge_after_s=hedge_after_s or 0.0,
            )
            # Every answer was a lookup sent, an error answer too.
            diag.lookup_messages += size
            answered: dict[int, ListAnswers] = {}
            for index, reply in enumerate(replies):
                fetch, slot, _request = wave[index]
                if isinstance(reply, TransportError):
                    diag.failovers += 1  # like a lost packet
                    continue
                if isinstance(reply, ReproError):
                    raise reply  # a typed server error ends the query
                if index in from_backup:
                    fetch.backup_answered = True
                else:
                    fetch.contacted = True
                if fetch.successes >= fetch.want:  # escalating
                    diag.escalations += 1
                else:
                    fetch.successes += 1
                slot_index = slot.slot_index
                for response in reply.lists:
                    fetch.response_bytes += response.wire_bytes(
                        self._share_bytes
                    )
                    answers = answered[response.pl_id] = merged[response.pl_id]
                    merge_response(answers, slot_index, response)
            for answers in answered.values():
                answers.decide(k)
        for fetch in fetches if traced else ():
            record_span(
                f"fetch:{fetch.pod.name}",
                start_s=span_start,
                duration_s=fetch.ended - span_start,
                wire_bytes=fetch.response_bytes,
            )
        return fetches

    def _reconstruct(
        self, answers: dict[int, ListAnswers]
    ) -> dict[int, np.ndarray]:
        """Join + reconstruct: each list's secrets, every element the
        user may read. A list's slot columns, in slot order, are joined
        by :func:`join_columns`; every list's groups of one x-tuple (a
        healthy query has one) share one ``reconstruct_batch`` call,
        whose first k columns are the canonical subset.
        """
        scheme, k = self._scheme, self._scheme.k
        with span("reconstruct"):
            batches: dict[tuple[int, ...], list] = defaultdict(list)
            for pl_id, slots in answers.items():
                columns = [
                    (scheme.x_of(slot), answer.element_ids, answer.share_ys)
                    for slot, answer in sorted(slots.items())
                ]
                for xs, y_columns in join_columns(columns, k, slots.aligned):
                    batches[xs].append((pl_id, y_columns))
            parts, received = defaultdict(list), 0
            for xs, members in batches.items():
                y_columns = members[0][1] if len(members) == 1 else [
                    np.concatenate([*map(word_column, column)])
                    for column in zip(*(ys for _, ys in members))
                ]
                column = scheme.reconstruct_batch(xs[:k], y_columns[:k])
                if self._verify and len(xs) > k:
                    column = self._cross_check(xs, y_columns, column)
                start = 0
                for pl_id, ys in members:
                    end = start + len(ys[0])
                    cut = column[start:end] if members[1:] else column
                    parts[pl_id].append(cut)
                    start = end
                received += start
            self.last_diagnostics.elements_received = received
            return {
                pl_id: parts[pl_id][0] if len(parts[pl_id]) == 1 else (
                    np.concatenate([_NO_SECRETS, *parts[pl_id]])
                )
                for pl_id in answers
            }

    def _cross_check(self, xs, y_columns, secrets: np.ndarray) -> np.ndarray:
        """``verify_consistency`` over a group with > k shares per
        element: where the shares disagree, the plurality secret of the
        k-subsets replaces the canonical one, or the element becomes 0,
        which no codec decodes (tf field 0): dropped, but counted.

        Each of (up to 21) k-subsets of the group's x's is one
        ``reconstruct_batch``. One corrupted share among ``m`` poisons
        every subset holding it with a *distinct* value, while the true
        secret repeats across all C(m-1, k) honest subsets, so strict
        plurality finds it whenever m >= k + 2. Servers colluding on
        *identical* wrong shares need verifiable secret sharing, out of
        the paper's scope.
        """
        scheme, diagnostics = self._scheme, self.last_diagnostics
        # The first subset is the canonical one: ``secrets`` already.
        subsets = islice(combinations(range(len(xs)), scheme.k), 1, 21)
        candidates = [
            scheme.reconstruct_batch(
                [xs[i] for i in subset], [y_columns[i] for i in subset]
            )
            for subset in subsets
        ]
        # Per element, how many subsets agree with each subset's value.
        votes = np.array([secrets, *candidates])
        agree = votes[:, None] == votes[None]
        counts = agree.sum(axis=1)
        top = counts.max(axis=0)
        best = votes[counts.argmax(axis=0), np.arange(len(secrets))]
        runner_up = np.where(votes != best, counts, 0).max(axis=0)
        split, won = top < len(votes), top > runner_up
        diagnostics.inconsistent_elements += int(np.count_nonzero(split))
        diagnostics.recovered_elements += int(np.count_nonzero(split & won))
        return np.where(split, np.where(won, best, 0), secrets)

    def _l1_fill(self, keys: dict, secrets_of: dict, unresolved: set) -> None:
        """The L1 fill: each resolved list's secrets, copied (a cut
        keeps its whole batch alive)."""
        for pl_id, secrets in secrets_of.items():
            if pl_id not in unresolved:
                self._l1.put(keys[pl_id], pl_id, secrets.copy())

    def _decode(
        self, wanted: dict[int, set[int]], secrets_of: dict[int, np.ndarray]
    ) -> list[tuple[int, list[tuple[int, float]]]]:
        """Step 4's filter, every list in one pass: only the queried
        terms' secrets are decoded, merged-in terms never built, and a
        secret ``unpack`` would reject (garbage from inconsistent
        shares) is dropped."""
        with span("unpack"):
            found, decoded = self._codec.unpack_terms(
                [(secrets_of[pl_id], terms) for pl_id, terms in wanted.items()]
            )
        matched = sum(len(postings) for _, postings in found)
        self.last_diagnostics.elements_matched = matched
        self.last_diagnostics.false_positives = decoded - matched
        return found

    def fetch_elements(
        self, terms: Sequence[str], num_servers: int | None = None
    ) -> list[PostingElement]:
        """:meth:`fetch_postings` as one :class:`PostingElement` per
        posting, in the same order; :meth:`search` never builds them."""
        return [
            PostingElement(doc_id, term_id, tf)
            for term_id, postings in self.fetch_postings(terms, num_servers)
            for doc_id, tf in postings
        ]

    # -- steps 5-6 ----------------------------------------------------------

    def _rank(self, terms: Sequence[str], found, top_k: int):
        """Step 5: the top-k hits over the term columns as fetched (read,
        never sorted in place), and each hit's matched terms."""
        term_of_id = {
            self._dictionary.id_of(t): t
            for t in terms
            if self._dictionary.id_of(t) is not None
        }
        # A term's lists are joined only when it occurs in more than one.
        by_term: dict[str, list[tuple[int, float]]] = {}
        for term_id, postings in found:
            term = term_of_id[term_id]
            earlier = by_term.get(term)
            by_term[term] = postings if earlier is None else earlier + postings
        # Term order, independent of share arrival order: float summation
        # order must not depend on which server (or pod) answered first.
        postings_by_term = {t: by_term[t] for t in sorted(by_term)}
        # Personalized collection statistics from the accessible
        # postings: a doc listed twice (two owners) counts once. One set
        # of maps serves them, TA and matched_terms.
        tf_of = term_tf_maps(postings_by_term)
        statistics = CollectionStatistics(
            num_documents=len(set().union(*tf_of.values())),
            document_frequencies={t: len(d) for t, d in tf_of.items()},
        )
        scorer = TfIdfScorer(statistics)
        weights = {t: scorer.weight(t) for t in postings_by_term}
        hits = threshold_top_k(postings_by_term, weights, top_k, tf_of=tf_of)
        matched = [
            tuple(t for t, docs in tf_of.items() if hit.doc_id in docs)
            for hit in hits
        ]
        return hits, matched

    def _fetch_snippet(self, doc_id: int, terms: Sequence[str]):
        """Step 6: a protocol message to the hosting peer, falling back
        to a local service read when the peer has no endpoint (an
        unknown peer fails fast with a typed
        :class:`UnknownEndpointError`, cheaper than probing first)."""
        host = self._snippets.host_of(doc_id)
        if host is not None:
            try:
                response = self._transport.call(
                    src=self.user_id,
                    dst=host,
                    request=FetchSnippetRequest(
                        token=self._token, doc_id=doc_id, terms=tuple(terms)
                    ),
                )
                return response.snippet
            except UnknownEndpointError:
                pass  # peer not served by this transport: read locally
        return self._snippets.request_snippet(
            self.user_id, doc_id, list(terms)
        )

    def search(
        self,
        terms: Sequence[str],
        top_k: int = 10,
        num_servers: int | None = None,
        fetch_snippets: bool = True,
        budget_s: float | None = None,
        trace_id: int | None = None,
    ) -> list[SearchResult]:
        """The complete Algorithm 2 pipeline; returns ranked results.

        ``budget_s`` bounds the whole query with one deadline, or it
        fails with a typed :class:`~repro.errors.DeadlineExceededError`;
        None (default) is unbounded, and a NaN or infinite budget is a
        :class:`~repro.errors.ReproError` before any request leaves.
        ``trace_id`` records every stage's span, and rides every request
        frame so server spans join the trace; results are unchanged.
        """
        # An unset scope is the shared no-op, not a generator to enter.
        trace = (
            _NO_SCOPE if trace_id is None else trace_scope(trace_id=trace_id)
        )
        deadline = _NO_SCOPE if budget_s is None else deadline_scope(budget_s)
        with trace, deadline, span("search"):
            with span("fetch-elements"):
                found = self.fetch_postings(terms, num_servers)
            if not found:
                return []
            with span("rank"):
                hits, matched = self._rank(terms, found, top_k)
            with span("snippets"):
                results = []
                for hit, matched_terms in zip(hits, matched):
                    host, snippet = "", ""
                    if fetch_snippets and self._snippets is not None:
                        fetched = self._fetch_snippet(hit.doc_id, terms)
                        host, snippet = fetched.host, fetched.text
                    results.append(SearchResult(
                        hit.doc_id, hit.score, host, snippet, matched_terms
                    ))
            return results
