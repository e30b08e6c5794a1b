"""The querying user's client (paper §5.4.2, Algorithm 2).

Query processing, exactly as Algorithm 2 stages it:

1. map query terms to merged posting-list IDs through the public mapping
   table ("she does not divulge which terms she is querying" — only list
   IDs travel);
2. authenticate to k (or more) index servers and fetch the requested lists;
   each server returns only the elements the user's groups may read;
3. join the share streams on the global element ID and reconstruct each
   element from any k shares (``decodeShamirsScheme``);
4. filter false positives — elements of merged-in terms the user did not
   query (``filterElements``);
5. rank client-side with personalized collection statistics and Fagin's
   Threshold Algorithm;
6. fetch snippets for the top-K from the hosting peers.

Step 2 is one fetch stage whatever the deployment's shape: the paper's
single fleet is one pod of n seats holding every list (§5), the sharded
cluster many pods (§8), and the
:class:`~repro.cluster.coordinator.ClusterCoordinator` places the lists
on them. A query's lists are grouped by pod, and each contacted seat
gets *one* lookup carrying every list it owns that the query needs.
A round ranks replicas once per replica set, plans seats and accounts
once per pod, and decides each list's shortfall and id-column alignment
once per wave, which the join reuses; a healthy round costs little
beyond its lookups. Stale seats are never asked, failed seats are
replaced, short lists escalate, and a pod that cannot finish hands its
lists to the next replica (:meth:`_fetch_with_failover`), in pipelined
waves with optional hedged backups (:meth:`_fetch_round`).
Reads are fronted by the searcher-local L1 of reconstructed secrets
and the shared L2 tier of share bundles, both keyed pod-agnostically
and invalidated before every write (:meth:`_reconstruct_lists`,
:meth:`_fetch_lists`). See ``docs/ARCHITECTURE.md``, "Reads and the
failover ladder".
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations, islice
from typing import TYPE_CHECKING, Sequence

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
from repro.server.auth import AuthToken
from repro.server.index_server import PostingListResponse

if TYPE_CHECKING:
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.membership import Pod


@dataclass(frozen=True)
class SearchResult:
    """One ranked hit as presented to the user.

    Attributes:
        doc_id: the matching document.
        score: its personalized tf-idf score.
        host: hosting peer (from the snippet fetch; "" when snippets off).
        snippet: context text ("" when snippets off).
        matched_terms: the query terms the document actually contains,
            each named once and in sorted order — also when several
            owners share one ``doc_id``, so a term's list carries the
            document more than once. Such a document counts once in a
            term's df, and its tf is the least of its rows in the term
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
        elements_received: elements joined with >= k shares and
            reconstructed *by this query*. A list answered by the
            searcher-local L1 joins nothing, so a full L1 hit reads 0
            here while ``false_positives`` / ``elements_matched`` are
            what a fresh fetch would report.
        false_positives: reconstructed elements discarded: merged-in
            noise and secrets that do not decode. With every list
            fetched, exactly ``elements_received - elements_matched``.
        elements_matched: elements surviving the term filter.
        response_bytes: total lookup response bytes across servers,
            each response sized by its ``wire_bytes``. Counted on every
            lookup, whatever the transport: in process it equals what
            the same lookups read over a socket.
        inconsistent_elements: under ``verify_consistency``, elements
            whose k-subsets of shares reconstructed to more than one
            value (a lying or corrupted server answered).
        recovered_elements: the inconsistent elements a strict
            plurality of subsets still decided (needs >= k + 2 shares);
            the rest were dropped.
    """

    posting_lists_requested: int = 0
    elements_received: int = 0
    false_positives: int = 0
    elements_matched: int = 0
    response_bytes: int = 0
    inconsistent_elements: int = 0
    recovered_elements: int = 0


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
        mapping_table: public term -> posting-list resolver.
        dictionary: public term -> term_id registry.
        codec: posting-element unpacker.
        snippet_service: optional hosting-peer registry for step 6.
        verify_consistency: when querying more than k servers, cross-check
            every element by reconstructing from two different k-subsets
            of its shares; elements whose reconstructions disagree (a
            lying or corrupted server) are dropped and counted in
            :attr:`SearchDiagnostics.inconsistent_elements`.
        use_cache: front lookups with the L1 and the L2 tier, when
            either is attached (never under ``verify_consistency``).
        transport: where protocol messages go; defaults to the
            coordinator's transport (deployments pass their own — the
            in-process registry or a socket client).
        hedge_after_s: when given, re-send a wave's lookups still
            unanswered after this many seconds to a backup replica pod,
            first answer wins; 0 sends each backup right behind its
            primary, and a negative value is a
            :class:`~repro.errors.ReproError`. None (default) never
            hedges. Failover replacements and escalations are hedged
            like first choices. Replicas hold byte-identical slot
            shares, so results never differ; hedging spends extra
            lookup messages. Needs the async socket: in process every
            lookup settles before the delay, so it is a no-op there.
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
        if hedge_after_s is not None and hedge_after_s < 0:
            raise ReproError(
                f"hedge_after_s must be >= 0 or None, got {hedge_after_s}"
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
        #: Lists whose last fetch left an element below k shares (never
        #: cacheable, in any tier), and those whose id columns the fetch
        #: decided aligned (set per _fetch_lists call).
        self._last_unresolved: set[int] = set()
        self._last_aligned: set[int] = set()
        self.last_diagnostics = SearchDiagnostics()
        self.last_cluster_diagnostics = ClusterDiagnostics()

    @property
    def l1_cache(self) -> L1PostingCache | None:
        """The searcher-local L1, for observability (None when off)."""
        return self._l1

    # -- step 2: the fetch stage -----------------------------------------------

    def _fetch_lists(
        self, pl_ids: Sequence[int], num_servers: int
    ) -> list[tuple[int, PostingListResponse]]:
        """Consult the L2 tier, then route, batch, fail over, escalate;
        returns (slot_index, response) pairs, list by list.

        Slot indices repeat across pods, but replica pods of a list hold
        *identical* slot-aligned shares, so the ``(pl_id, element_id)``
        share join never mixes incompatible shares — slot ``s`` of every
        pod shares the x-coordinate ``scheme.x_of(s)``, and the per-list
        merge keeps at most one response per slot.
        """
        self._last_unresolved = self._last_aligned = set()
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
        out: list[tuple[int, PostingListResponse]] = []
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
                out += entry
        if not need:
            return out
        merged, unresolved = self._fetch_with_failover(
            need, num_servers, diag
        )
        self._last_unresolved = unresolved
        self._last_aligned = {p for p in need if merged[p].aligned}
        fills = []
        for pl_id in need:
            pairs = sorted(merged[pl_id].items())
            out += pairs
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

    def _fetch_with_failover(
        self,
        need: Sequence[int],
        num_servers: int,
        diag: ClusterDiagnostics,
    ) -> tuple[dict[int, ListAnswers], set[int]]:
        """Fetch every list from its replica chain, best pod first.

        Each round assigns every unfinished list to its next untried
        replica pod, ranked once per replica set by
        :meth:`ClusterCoordinator.read_replicas` of the set's first list
        (a list with a staleness-ledger cell ranks alone, so a cell
        moves only its own list), and fetches from the assigned pods in
        waves (:meth:`_fetch_round`). A pod assigned a leg claims its
        breaker's half-open probe; ranking claims nothing. A list is
        finished when >= k slots answered and no element is short of k
        shares; it degrades loudly only when the whole replica chain is
        exhausted below k answered slots.

        Returns ``(merged, unresolved)`` — per list, one response per
        answering slot; and the lists that still contain an element with
        fewer than k shares after the whole ladder (uncacheable).
        """
        coordinator = self._coordinator
        pods_of, breakers = coordinator.pods_of, coordinator.breakers
        gapped = coordinator.ledger.gapped
        k = self._scheme.k
        merged = {pl_id: ListAnswers() for pl_id in need}
        tried: dict[int, set[str]] = {pl_id: set() for pl_id in need}
        contacted: set[str] = set()
        # Every failover round checks it: a degraded query walks the
        # replica chain only as far as its caller's remaining budget
        # allows, never past it.
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
                    # The backup was asked: a later failover round must
                    # not ask it again.
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
                    # No seat of the pod or its backup answered: the leg
                    # failed. (A partly degraded pod that answered is a
                    # success, and one whose backup answered everything
                    # first was abandoned, not failed.)
                    breakers.record_failure(pod.name)
            # Each list's shortfall was decided by the wave that last
            # changed its answers.
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
        # ``short``, taken on the final answers, holds every list below
        # k answered slots, and is what is left with a shortfall.
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
        asked for it (its answer is wrong in ways no shortfall signal
        catches); each pod's seat plan comes from one ledger read. A
        wave sends every pod's next asks in one ``call_many``, consumes
        the answers in pod order, then every list it answered decides
        its alignment and shortfall once (:meth:`ListAnswers.decide`).
        A pod is timed on the coordinator clock from its first request
        leaving to its last answer arriving. Never raises on a degraded
        pod. With ``hedge_after_s`` set, a lookup's backup is the same
        request to the same slot of the pod's backup: the first pod of
        the ranking that replicates all its lists, untried for all of
        them, unless the ledger marks that seat incomplete.
        """
        k = self._scheme.k
        # The injected clock times pods: breakers and the EWMA share
        # one source, so a fake clock moves them together.
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
                    kept = answers.setdefault(slot_index, response)
                    if kept is not response:
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

    # -- steps 3-4: join, reconstruct, filter ---------------------------------

    def _reconstruct_lists(
        self, pl_ids: Sequence[int], num_servers: int
    ) -> dict[int, list[int]]:
        """Steps 2-3 for the named lists: fetch, join, reconstruct.

        Works on columns, no object per element: each answering slot
        contributes an ``(x, element_id[], share_y[])`` column per list;
        joined, a whole column is reconstructed at once.

        Returns each list's reconstructed secrets, every element the
        user may read, merged-in terms and undecodable secrets included
        (:meth:`fetch_postings` decodes the queried terms alone). The
        result depends only on (user's groups, num_servers, list),
        never on which query asked, so the searcher-local L1 (see
        :class:`repro.cachetier.L1PostingCache`) fronts it when one is
        attached: an entry is one list's secrets for this exact (user,
        group fingerprint, width), the inputs that determine a fresh
        fetch's bytes, so a hit is byte-identical by construction. Only
        the misses are fetched; a list with an unresolved shortfall is
        never stored, and ``verify_consistency`` bypasses the L1 like
        every other cache. A list with no reconstructible elements maps
        to an empty list — emptiness is a cacheable fact too.
        """
        scheme, k = self._scheme, self._scheme.k
        secrets_of: dict[int, list[int]] = {}
        l1 = self._l1 if self._use_cache and not self._verify else None
        missing = list(pl_ids)
        if l1 is not None:
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
            missing = []
            with span("l1-lookup"):
                for pl_id in pl_ids:
                    entry = l1.get(keys[pl_id])
                    if entry is None:
                        missing.append(pl_id)
                    else:
                        secrets_of[pl_id] = entry
            self.last_cluster_diagnostics.l1_hits += len(pl_ids) - len(missing)
            if not missing:
                return secrets_of
        columns_of: dict[int, list] = {pl_id: [] for pl_id in missing}
        fetched = self._fetch_lists(missing, num_servers)
        with span("reconstruct"):
            for slot_index, response in fetched:
                columns_of[response.pl_id].append(
                    (
                        scheme.x_of(slot_index),
                        response.element_ids,
                        response.share_ys,
                    )
                )
            received = 0
            for pl_id, columns in columns_of.items():
                secrets = secrets_of[pl_id] = []
                aligned = pl_id in self._last_aligned
                for xs, y_columns in self._join_columns(columns, aligned):
                    # Every row shares the x-tuple, hence one weight
                    # vector; the first k columns are the canonical subset.
                    column = scheme.reconstruct_batch(xs[:k], y_columns[:k])
                    received += len(column)
                    if self._verify and len(xs) > k:
                        column = self._cross_check(xs, y_columns, column)
                    secrets += column
            self.last_diagnostics.elements_received = received
        if l1 is not None:
            for pl_id in missing:
                if pl_id not in self._last_unresolved:
                    l1.put(keys[pl_id], pl_id, secrets_of[pl_id])
        return secrets_of

    def _join_columns(
        self, columns: list[tuple[int, list[int], list[int]]], aligned: bool
    ) -> list[tuple[tuple[int, ...], list[list[int]]]]:
        """Join one list's slot columns on the element ID.

        Returns ``(xs, y_columns)`` groups; row ``i`` of a group is one
        element's shares in canonical order. When the slots are distinct
        and every column names the same IDs in the same order (the
        healthy fetch), the columns are the join and their rows are
        taken as they come. ``aligned`` says the fetch already decided
        that (:meth:`ListAnswers.decide`); otherwise (an L2 entry) it is
        checked here. Failing it: first occurrence per distinct x,
        arrival order, and elements short of k shares (a lagging or
        lying server) are dropped here.

        The aligned rule takes a repeated ID as two elements. No seat
        ever serves one (every write path refuses or replaces it, see
        :class:`~repro.server.index_server.SeatList`), so aligned
        columns repeat an ID only if every answering seat lies alike:
        k colluding seats (or the L2 tier, which holds k shares), which
        can forge any posting with fresh IDs anyway, so a uniqueness
        check here would catch nothing.
        """
        k = self._scheme.k
        xs = tuple(x for x, _, _ in columns)
        ids = columns[0][1] if columns else []
        if aligned or len(set(xs)) == len(xs) and all(
            other == ids for _, other, _ in columns[1:]
        ):
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

    def _cross_check(self, xs, y_columns, secrets: list[int]) -> list[int]:
        """``verify_consistency`` over a group with > k shares per
        element: where the shares disagree, the plurality secret of the
        k-subsets replaces the canonical one, or the element becomes 0,
        which no codec decodes (tf field 0): dropped, but counted.

        Each of (up to 21) k-subsets of the group's distinct x's is one
        :meth:`~repro.secretsharing.shamir.ShamirScheme.reconstruct_batch`
        over its columns. A single corrupted share among ``m`` shares
        poisons every subset containing it with a *distinct* garbage
        value, while the true secret repeats across all C(m-1, k) honest
        subsets — so strict plurality identifies it whenever m >= k + 2
        (standard error-correction bound: detection needs k + 1,
        correction k + 2e); a tie is detection without correction.
        Colluding servers injecting *identical* wrong shares can defeat
        plurality; that stronger adversary needs verifiable secret
        sharing, out of the paper's scope.
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
        checked = []
        for values in zip(secrets, *candidates):
            counts = Counter(values)
            secret = values[0]
            if len(counts) > 1:
                diagnostics.inconsistent_elements += 1
                (value, top), (_, runner_up) = counts.most_common(2)
                if top > runner_up:
                    diagnostics.recovered_elements += 1
                    secret = value
                else:
                    secret = 0
            checked.append(secret)
        return checked

    def fetch_postings(
        self, terms: Sequence[str], num_servers: int | None = None
    ) -> list[tuple[int, list[tuple[int, float]]]]:
        """Steps 1-4 of Algorithm 2: fetch, join, reconstruct, filter.

        Returns ``(term_id, [(doc_id, tf), ...])`` for each queried term
        a fetched list holds, in ``(pl_id, term_id)`` order, false
        positives already removed; every call decodes its own, the L1
        holds secrets. Resets :attr:`last_diagnostics` and
        :attr:`last_cluster_diagnostics` first (an empty query reads
        zeros in both), then populates them.

        Every call also lands in the coordinator's metrics registry:
        ``zerber_search_queries_total`` and the fetch-latency histogram,
        which ``repro cluster top`` derives its qps and quantile columns
        from. Both :meth:`search` and :meth:`fetch_elements` fetch
        through here, so each counts once.
        """
        self.last_diagnostics = SearchDiagnostics()
        self.last_cluster_diagnostics = ClusterDiagnostics()
        started = time.perf_counter()
        try:
            if not terms:
                return []
            # The owner routes a term's postings by the same mapping
            # table, so each list is filtered for its own queried terms.
            wanted: dict[int, set[int]] = {}
            for term in terms:
                term_ids = wanted.setdefault(self._mapping.lookup(term), set())
                term_id = self._dictionary.id_of(term)
                if term_id is not None:
                    term_ids.add(term_id)
            pl_ids = sorted(wanted)
            self.last_diagnostics.posting_lists_requested = len(pl_ids)
            k = self._scheme.k
            num_servers = num_servers or k
            if num_servers < k:
                raise ReproError(
                    f"must query at least k={k} servers, asked {num_servers}"
                )
            secrets_of = self._reconstruct_lists(pl_ids, num_servers)
            found: list[tuple[int, list[tuple[int, float]]]] = []
            decoded = matched = 0
            codec = self._codec
            # Step 4's filter first: only the queried terms' secrets are
            # decoded, merged-in terms are never built. Inconsistent
            # shares decode to garbage; the bulk decode drops what
            # unpack() would reject.
            with span("unpack"):
                for pl_id in pl_ids:
                    term_ids = wanted[pl_id]
                    by_term, count = codec.unpack_terms(
                        secrets_of[pl_id], term_ids
                    )
                    decoded += count
                    for term_id in sorted(term_ids):
                        postings = by_term.get(term_id)
                        if postings:
                            found.append((term_id, postings))
                            matched += len(postings)
            self.last_diagnostics.elements_matched = matched
            self.last_diagnostics.false_positives = decoded - matched
            return found
        finally:
            if self._coordinator.metrics is not None:
                self._coordinator.note_search(time.perf_counter() - started)

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

    def _fetch_snippet(self, doc_id: int, terms: Sequence[str]):
        """Step 6 of Algorithm 2: a protocol message to the hosting peer,
        falling back to a local service read when the peer has no
        endpoint.

        The attempt-then-fall-back shape matters on the socket backend:
        probing ``has_endpoint`` first would cost an extra discovery
        round-trip per hit, while an unknown peer already fails fast
        with a typed :class:`UnknownEndpointError`.
        """
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

    # -- full query path ----------------------------------------------------------

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

        ``budget_s`` bounds the whole pipeline with one deadline: every
        fetch, failover round, retry backoff, and snippet call sees the
        same shrinking budget (transports put the remainder on the
        wire), and the query fails with a typed
        :class:`~repro.errors.DeadlineExceededError` rather than ever
        outliving it. None (default) keeps the pipeline unbounded.

        ``trace_id`` turns on wire-level tracing for this one query: the
        pipeline runs under a trace scope, every stage (fetch, cache
        lookups, per-pod legs, reconstruction, ranking, snippets)
        records a span into the process span buffer, and the id rides
        every request frame so server-side spans join the same trace.
        Tracing is strictly passive — results are byte-identical with
        it on or off. None (default) records nothing.
        """
        if trace_id is not None:
            with trace_scope(trace_id=trace_id):
                return self.search(
                    terms,
                    top_k=top_k,
                    num_servers=num_servers,
                    fetch_snippets=fetch_snippets,
                    budget_s=budget_s,
                )
        if budget_s is not None:
            with deadline_scope(budget_s=budget_s):
                return self.search(
                    terms,
                    top_k=top_k,
                    num_servers=num_servers,
                    fetch_snippets=fetch_snippets,
                )
        with span("search"):
            with span("fetch-elements"):
                found = self.fetch_postings(terms, num_servers)
            if not found:
                return []
            with span("rank"):
                term_of_id = {
                    self._dictionary.id_of(t): t
                    for t in terms
                    if self._dictionary.id_of(t) is not None
                }
                # Rank on the term columns as fetched: they are read,
                # never sorted in place, and a term's lists are joined
                # only when it occurs in more than one.
                collected: dict[str, list[tuple[int, float]]] = {}
                for term_id, postings in found:
                    term = term_of_id[term_id]
                    earlier = collected.get(term)
                    collected[term] = (
                        postings if earlier is None else earlier + postings
                    )
                # Term order, independent of share arrival order: float
                # summation order must not depend on which server (or
                # pod) answered first, or byte-identical ranking across
                # deployments breaks in the last bit.
                postings_by_term = {t: collected[t] for t in sorted(collected)}
                # Personalized collection statistics from the accessible
                # postings: a doc listed twice (two owners) counts once.
                # One set of maps serves them, TA and matched_terms.
                tf_of = term_tf_maps(postings_by_term)
                statistics = CollectionStatistics(
                    num_documents=len(set().union(*tf_of.values())),
                    document_frequencies={t: len(d) for t, d in tf_of.items()},
                )
                scorer = TfIdfScorer(statistics)
                weights = {t: scorer.weight(t) for t in postings_by_term}
                hits = threshold_top_k(
                    postings_by_term, weights, top_k, tf_of=tf_of
                )
                matched = [
                    tuple(t for t, docs in tf_of.items() if hit.doc_id in docs)
                    for hit in hits
                ]
            with span("snippets"):
                results = []
                for hit, matched_terms in zip(hits, matched):
                    host, snippet = "", ""
                    if fetch_snippets and self._snippets is not None:
                        fetched = self._fetch_snippet(hit.doc_id, terms)
                        host, snippet = fetched.host, fetched.text
                    results.append(
                        SearchResult(
                            doc_id=hit.doc_id,
                            score=hit.score,
                            host=host,
                            snippet=snippet,
                            matched_terms=matched_terms,
                        )
                    )
            return results
