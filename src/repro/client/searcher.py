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
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Sequence

from repro.client.snippets import SnippetService
from repro.core.dictionary import TermDictionary
from repro.core.mapping_table import MappingTable
from repro.core.posting import PostingElement, PostingElementCodec
from repro.errors import ReproError, UnknownEndpointError
from repro.observability.tracing import span, trace_scope
from repro.protocol.messages import FetchListsRequest, FetchSnippetRequest
from repro.protocol.service import fleet_resolver
from repro.protocol.transport import InProcessTransport, Transport
from repro.resilience.deadline import deadline_scope
from repro.ranking.scores import CollectionStatistics, TfIdfScorer
from repro.ranking.threshold import term_tf_maps, threshold_top_k
from repro.secretsharing.shamir import ShamirScheme
from repro.server.auth import AuthToken
from repro.server.index_server import PostingListResponse


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
        scheme: ShamirScheme,
        mapping_table: MappingTable,
        dictionary: TermDictionary,
        servers: Sequence | None,
        codec: PostingElementCodec | None = None,
        snippet_service: SnippetService | None = None,
        verify_consistency: bool = False,
        transport: Transport | None = None,
    ) -> None:
        """Args:
        user_id: the searching principal (transport endpoint name too).
        token: enterprise auth ticket.
        scheme: public Shamir parameters (k, n, x-coordinates).
        mapping_table: public term -> posting-list resolver.
        dictionary: public term -> term_id registry.
        servers: the full server fleet, index-aligned with the scheme.
            Subclasses that override :meth:`_fetch_lists` with their own
            routing (the cluster client) pass None instead.
        codec: posting-element unpacker.
        snippet_service: optional hosting-peer registry for step 6.
        verify_consistency: when querying more than k servers, cross-check
            every element by reconstructing from two different k-subsets
            of its shares; elements whose reconstructions disagree (a
            lying or corrupted server) are dropped and counted in
            :attr:`SearchDiagnostics.inconsistent_elements`.
        transport: where protocol messages go. Deployments pass their
            shared transport (in-process or socket); when omitted, a
            private in-process transport over ``servers`` is built.
        """
        if servers is not None and len(servers) != scheme.n:
            raise ReproError(
                f"scheme expects {scheme.n} servers, got {len(servers)}"
            )
        self.user_id = user_id
        self._token = token
        self._scheme = scheme
        self._mapping = mapping_table
        self._dictionary = dictionary
        # Live reference: fleet extension must be visible to old clients.
        self._servers = servers
        self._codec = codec or PostingElementCodec()
        self._snippets = snippet_service
        self._verify = verify_consistency
        self._share_bytes = scheme.field.share_bytes
        if transport is None:
            transport = InProcessTransport(resolver=fleet_resolver(servers))
        self._transport = transport
        self.last_diagnostics = SearchDiagnostics()

    # -- low level: fetch + decrypt -------------------------------------------

    def _fetch_lists(
        self, pl_ids: Sequence[int], num_servers: int
    ) -> list[tuple[int, list[PostingListResponse]]]:
        """Ask ``num_servers`` servers for the lists; returns (server_index, responses)."""
        if self._servers is None:
            raise ReproError(
                "no server fleet attached; servers=None is only valid for "
                "subclasses that override _fetch_lists with their own routing"
            )
        chosen = list(range(len(self._servers)))[:num_servers]
        request = FetchListsRequest(token=self._token, pl_ids=tuple(pl_ids))
        out = []
        for server_index in chosen:
            response = self._transport.call(
                src=self.user_id,
                dst=self._servers[server_index].server_id,
                request=request,
            )
            self.last_diagnostics.response_bytes += response.wire_bytes(
                self._share_bytes
            )
            out.append((server_index, list(response.lists)))
        return out

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
        never on which query asked: that is what makes it safely
        cacheable by the searcher-local L1 (see
        :class:`repro.cachetier.L1PostingCache`). A list with no
        reconstructible elements maps to an empty list — emptiness is a
        cacheable fact too.
        """
        scheme, k = self._scheme, self._scheme.k
        columns_of: dict[int, list] = {pl_id: [] for pl_id in pl_ids}
        fetched = self._fetch_lists(pl_ids, num_servers)
        with span("reconstruct"):
            for server_index, responses in fetched:
                x = scheme.x_of(server_index)
                for response in responses:
                    columns_of[response.pl_id].append(
                        (x, response.element_ids, response.share_ys)
                    )
            secrets_of: dict[int, list[int]] = {}
            received = 0
            for pl_id, columns in columns_of.items():
                secrets = secrets_of[pl_id] = []
                for xs, y_columns in self._join_columns(columns):
                    # Every row shares the x-tuple, hence one weight
                    # vector; the first k columns are the canonical subset.
                    column = scheme.reconstruct_batch(xs[:k], y_columns[:k])
                    received += len(column)
                    if self._verify and len(xs) > k:
                        column = self._cross_check(xs, y_columns, column)
                    secrets += column
            self.last_diagnostics.elements_received = received
        return secrets_of

    def _join_columns(
        self, columns: list[tuple[int, list[int], list[int]]]
    ) -> list[tuple[tuple[int, ...], list[list[int]]]]:
        """Join one list's slot columns on the element ID.

        Returns ``(xs, y_columns)`` groups; row ``i`` of a group is one
        element's shares in canonical order. When the slots are distinct
        and every column names the same IDs in the same order (the
        healthy fetch), the columns are the join and their rows are
        taken as they come. Otherwise: first occurrence per distinct x,
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
        if len(set(xs)) == len(xs) and all(
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

    def _elements_by_list(
        self, pl_ids: Sequence[int], num_servers: int
    ) -> dict[int, list[int]]:
        """Override point for caching tiers that sit past reconstruction
        (the cluster client's L1); the base client always reconstructs."""
        return self._reconstruct_lists(pl_ids, num_servers)

    def fetch_postings(
        self, terms: Sequence[str], num_servers: int | None = None
    ) -> list[tuple[int, list[tuple[int, float]]]]:
        """Steps 1-4 of Algorithm 2: fetch, join, reconstruct, filter.

        Returns ``(term_id, [(doc_id, tf), ...])`` for each queried term
        a fetched list holds, in ``(pl_id, term_id)`` order, false
        positives already removed; every call decodes its own, the L1
        holds secrets. Populates :attr:`last_diagnostics`.
        """
        self.last_diagnostics = SearchDiagnostics()
        if not terms:
            return []
        # The owner routes a term's postings by the same mapping table,
        # so each list is filtered for its own queried terms only.
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
        secrets_of = self._elements_by_list(pl_ids, num_servers)
        found: list[tuple[int, list[tuple[int, float]]]] = []
        decoded = matched = 0
        codec = self._codec
        # Step 4's filter first: only the queried terms' secrets are
        # decoded, merged-in terms are never built. Inconsistent shares
        # decode to garbage; the bulk decode drops what unpack() would
        # reject.
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
