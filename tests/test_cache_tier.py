"""The tiered cache subsystem: store, wire format, service,
searcher-local L1, and full-cluster integration over every transport.

The acceptance property throughout: a cached read is byte-identical to
an uncached read — the tiers may only change *cost*, never answers.
"""

from __future__ import annotations

import copy
import gc
import random
import sys
import threading
from collections import Counter

import pytest

from helpers import make_cluster, make_documents, rewrite_stored_list
from repro.client.batching import BatchPolicy
from repro.cachetier import (
    CACHE_TIER_ENDPOINT,
    CacheTierService,
    CacheTierStore,
    L1PostingCache,
    decode_entry,
    encode_entry,
    entry_key,
)
from repro.cachetier.wire import parse_key
from repro.cluster import ClusterDeployment
from repro.core.mapping_table import MappingTable
from repro.corpus.document import Document
from repro.errors import (
    AccessDeniedError,
    AuthError,
    ClusterError,
    ProtocolError,
    UnknownEndpointError,
)
from repro.protocol.messages import (
    CacheGetRequest,
    CacheInvalidateRequest,
    CachePutRequest,
    FetchListsRequest,
)
from repro.observability.metrics import SampleView
from repro.protocol.transport import (
    _RETRY_SAFE,
    InProcessTransport,
    Transport,
)
from repro.resilience.faults import FaultPlan
from repro.server.auth import AuthService, AuthToken
from repro.server.groups import GroupDirectory
from repro.server.index_server import PostingListResponse, ShareRecord


class TestCacheTierStore:
    def test_get_put_and_counters(self):
        store = CacheTierStore(capacity=8)
        assert store.get("k") is None
        assert store.put("k", pl_id=3, value=b"v")
        assert store.get("k") == b"v"
        snap = store.stats_snapshot()
        assert (snap["hits"], snap["misses"], snap["entries"]) == (1, 1, 1)

    def test_lru_eviction_at_capacity(self):
        store = CacheTierStore(capacity=2)
        store.put("a", 0, b"0")
        store.put("b", 1, b"1")
        store.get("a")  # refresh: b is the LRU victim
        store.put("c", 2, b"2")
        assert store.get("b") is None
        assert store.get("a") == b"0"
        assert store.evictions == 1

    def test_overwrite_refreshes_recency(self):
        store = CacheTierStore(capacity=2)
        store.put("a", 0, b"0")
        store.put("b", 1, b"1")
        store.put("a", 0, b"0'")  # overwrite: b is the LRU victim
        store.put("c", 2, b"2")
        assert store.get("b") is None
        assert store.get("a") == b"0'"
        assert store.evictions == 1

    def test_invalidate_evicts_every_key_of_the_list(self):
        store = CacheTierStore(capacity=8)
        store.put("g1|3|7", 7, b"x")
        store.put("g2|3|7", 7, b"y")
        store.put("g1|3|8", 8, b"z")
        assert store.invalidate(7) == 2
        assert store.get("g1|3|7") is None
        assert store.get("g1|3|8") == b"z"
        assert store.invalidate(7) == 0  # idempotent

    def test_update_in_place_reindexes_pl(self):
        store = CacheTierStore(capacity=8)
        store.put("k", 1, b"old")
        store.put("k", 2, b"new")
        assert store.invalidate(1) == 0
        assert store.invalidate(2) == 1

    def test_capacity_zero_disables(self):
        store = CacheTierStore(capacity=0)
        assert not store.put("k", 0, b"v")
        assert store.get("k") is None


class TestWireFormat:
    def _pairs(self):
        return [
            (
                0,
                PostingListResponse.from_records(
                    pl_id=5,
                    records=(
                        ShareRecord(element_id=9, group_id=1, share_y=123),
                        ShareRecord(element_id=10, group_id=2, share_y=7),
                    ),
                ),
            ),
            (2, PostingListResponse.from_records(5, ())),
        ]

    def test_entry_round_trip(self):
        pairs = self._pairs()
        assert decode_entry(encode_entry(pairs)) == pairs
        assert decode_entry(encode_entry([])) == []

    def test_corrupt_entry_fails_loudly(self):
        blob = encode_entry(self._pairs())
        with pytest.raises(ProtocolError):
            decode_entry(blob + b"\x00")
        for cut in range(len(blob)):
            with pytest.raises(ProtocolError):
                decode_entry(blob[:cut])

    def test_entry_is_the_wire_column_form(self):
        """An L2 value is the codec's column form per (slot, list):
        fixed-width share columns, so two-limb shares and empty lists
        round-trip and a forged width byte is typed."""
        wide = PostingListResponse(
            7, [1, 70_000], [1, 2], [2**64 + 12, 2**71 + 99]
        )
        pairs = [(0, wide), (1, wide), (3, PostingListResponse(7, [], [], []))]
        blob = encode_entry(pairs)
        assert decode_entry(blob) == pairs
        # pairs(1) slot(1) pl_id(1) count(1), then the first width byte.
        assert blob[4] == 3  # element ids need 3 bytes
        forged = bytearray(blob)
        forged[4] = 0
        with pytest.raises(ProtocolError):
            decode_entry(bytes(forged))
        # Smaller than three varints per record (the previous form).
        assert len(blob) < 2 * 2 * (3 + 1 + 11) + 10

    def test_entry_key_is_user_free_and_order_insensitive(self):
        assert entry_key(frozenset({2, 1}), 3, 9, 4) == "1,2|3|9|4"
        # identical group sets -> identical key, whoever asks
        assert entry_key([1, 2], 3, 9) == entry_key((2, 1), 3, 9)

    def test_entry_key_rotates_with_the_write_epoch(self):
        # The epoch is the anti-stale-fill fence: a fill captured at
        # epoch e must never be reachable by a reader at epoch e+1.
        assert entry_key({1}, 3, 9, 0) != entry_key({1}, 3, 9, 1)

    def test_parse_key_round_trips_and_rejects_garbage(self):
        assert parse_key(entry_key(frozenset({2, 1}), 3, 9, 7)) == (
            frozenset({1, 2}),
            3,
            9,
            7,
        )
        assert parse_key(entry_key(frozenset(), 3, 9)) == (
            frozenset(),
            3,
            9,
            0,
        )
        for bad in ("", "1,2|3", "1,2|3|9", "a|3|9|0", "1|x|9|0"):
            with pytest.raises(ProtocolError):
                parse_key(bad)


class TestCacheTierService:
    def _tier(self):
        """A transport-registered tier plus an enrolled member of
        group 1 ('alice') and a non-member ('mallory', group 2)."""
        auth = AuthService()
        groups = GroupDirectory()
        groups.create_group(1, "alice")
        groups.create_group(2, "mallory")
        tokens = {
            user: auth.issue_token(user, auth.register_user(user))
            for user in ("alice", "mallory")
        }
        transport = InProcessTransport()
        transport.register(
            CACHE_TIER_ENDPOINT,
            CacheTierService(
                CacheTierStore(capacity=8), auth=auth, groups=groups
            ),
        )
        return transport, auth, tokens

    def test_protocol_round_trip(self):
        """Get, put and invalidate over the wire; the tier's counters
        come back in the deployment's metrics registry."""
        cluster = make_cluster(make_documents(num_docs=4), cache_tier="lru")
        with cluster:
            cluster.add_member(1, "alice", actor="owner1")
            token = cluster.enroll_user("alice")
            key = entry_key({1}, 3, 4)

            def call(request):
                return cluster.transport.call(
                    src="client", dst=CACHE_TIER_ENDPOINT, request=request
                )

            assert call(CacheGetRequest(token=token, key=key)).hit is False
            assert (
                call(
                    CachePutRequest(token=token, key=key, pl_id=4, value=b"v")
                ).count
                == 1
            )
            got = call(CacheGetRequest(token=token, key=key))
            assert (got.hit, got.value) == (True, b"v")
            assert call(CacheInvalidateRequest(pl_ids=(4, 5))).count == 1
            assert call(CacheGetRequest(token=token, key=key)).hit is False
            view = SampleView(cluster.metrics.samples())
            assert view.value("zerber_cache_tier_hits") == 1
            assert view.value("zerber_cache_tier_misses") == 2

    def test_forged_key_for_foreign_group_is_rejected(self):
        """The high-severity regression: a key claims a fingerprint the
        caller does not hold — the tier must refuse both directions
        (get: reconstructible shares of someone else's groups; put:
        poisoning entries other users are served)."""
        transport, _auth, tokens = self._tier()
        alice_key = entry_key({1}, 3, 4)
        foreign = tokens["mallory"]  # member of group 2, not 1
        with pytest.raises(AccessDeniedError):
            transport.call(
                src="mallory",
                dst=CACHE_TIER_ENDPOINT,
                request=CacheGetRequest(token=foreign, key=alice_key),
            )
        with pytest.raises(AccessDeniedError):
            transport.call(
                src="mallory",
                dst=CACHE_TIER_ENDPOINT,
                request=CachePutRequest(
                    token=foreign, key=alice_key, pl_id=4, value=b"evil"
                ),
            )

    def test_subset_and_superset_fingerprints_are_rejected(self):
        # Exact match only: the key must equal the caller's whole live
        # group set, just as an honest client would derive it.
        transport, _auth, tokens = self._tier()
        token = tokens["alice"]  # groups == {1}
        for claimed in ({1, 2}, set()):
            with pytest.raises(AccessDeniedError):
                transport.call(
                    src="alice",
                    dst=CACHE_TIER_ENDPOINT,
                    request=CacheGetRequest(
                        token=token, key=entry_key(claimed, 3, 4)
                    ),
                )

    def test_invalid_tokens_are_rejected(self):
        transport, auth, tokens = self._tier()
        key = entry_key({1}, 3, 4)
        forged = AuthToken(
            user_id="alice",
            issued_at=0,
            expires_at=10**6,
            signature=b"\x00" * 32,
        )
        with pytest.raises(AuthError):
            transport.call(
                src="alice",
                dst=CACHE_TIER_ENDPOINT,
                request=CacheGetRequest(token=forged, key=key),
            )
        # An expired ticket dies too — same rule as the index servers.
        auth.advance_clock(10**9)
        with pytest.raises(AuthError):
            transport.call(
                src="alice",
                dst=CACHE_TIER_ENDPOINT,
                request=CacheGetRequest(token=tokens["alice"], key=key),
            )

    def test_malformed_keys_are_rejected_before_the_store(self):
        transport, _auth, tokens = self._tier()
        with pytest.raises(ProtocolError):
            transport.call(
                src="alice",
                dst=CACHE_TIER_ENDPOINT,
                request=CacheGetRequest(token=tokens["alice"], key="k"),
            )

    def test_non_cache_messages_rejected(self):
        auth = AuthService()
        service = CacheTierService(
            CacheTierStore(), auth=auth, groups=GroupDirectory()
        )
        with pytest.raises(ProtocolError):
            service.handle(FetchListsRequest(token="t", pl_ids=(1,)))

    def test_retry_safety_membership(self):
        # Reads and idempotent invalidations may be re-sent; a put is a
        # write and must fail fast like every other write.
        assert CacheGetRequest in _RETRY_SAFE
        assert CacheInvalidateRequest in _RETRY_SAFE
        assert CachePutRequest not in _RETRY_SAFE


class TestL1PostingCache:
    def test_hit_miss_and_lru_eviction(self):
        l1 = L1PostingCache(capacity=2)
        key_a = ("u", frozenset({1}), 3, 0)
        key_b = ("u", frozenset({1}), 3, 1)
        assert l1.get(key_a) is None
        l1.put(key_a, 0, ("ea",))
        l1.put(key_b, 1, ("eb",))
        assert l1.get(key_a) == ("ea",)
        l1.put(("u", frozenset({1}), 3, 2), 2, ("ec",))  # evicts b
        assert l1.get(key_b) is None
        assert l1.counts["evictions"] == 1

    def test_invalidate_by_list(self):
        l1 = L1PostingCache(capacity=8)
        l1.put(("u", frozenset({1}), 3, 5), 5, ("e",))
        l1.put(("v", frozenset({2}), 3, 5), 5, ("f",))
        l1.put(("u", frozenset({1}), 3, 6), 6, ("g",))
        assert l1.invalidate(5) == 2
        assert len(l1) == 1

    def test_evict_user_only_touches_that_user(self):
        l1 = L1PostingCache(capacity=8)
        l1.put(("alice", frozenset({1}), 3, 5), 5, ("e",))
        l1.put(("bob", frozenset({1}), 3, 5), 5, ("f",))
        assert l1.evict_user("alice") == 1
        assert l1.get(("bob", frozenset({1}), 3, 5)) == ("f",)

    def test_capacity_zero_is_inert(self):
        l1 = L1PostingCache(capacity=0)
        l1.put(("u", frozenset(), 3, 0), 0, ("e",))
        assert len(l1) == 0

    def test_concurrent_mutation_is_safe(self):
        """The coordinator invalidates/evicts registered L1s from other
        threads while the owning searcher runs get/put — hammer both
        sides and require clean internal state (the plain-OrderedDict
        version corrupts or raises RuntimeError here)."""
        import threading

        l1 = L1PostingCache(capacity=64)
        stop = threading.Event()
        errors: list[BaseException] = []

        def searcher_side():
            try:
                i = 0
                while not stop.is_set():
                    pl_id = i % 8
                    key = ("u", frozenset({1}), 3, pl_id, i % 3)
                    l1.put(key, pl_id, ("e", i))
                    l1.get(key)
                    i += 1
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def coordinator_side():
            try:
                i = 0
                while not stop.is_set():
                    l1.invalidate(i % 8)
                    l1.evict_user("u" if i % 5 else "v")
                    i += 1
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=searcher_side),
            threading.Thread(target=coordinator_side),
        ]
        for t in threads:
            t.start()
        import time

        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join(timeout=5)
        assert not errors
        # Index and entry map must agree after the storm.
        indexed = set().union(*l1._keys_of_pl.values()) if l1._keys_of_pl else set()
        assert indexed == set(l1._entries)


def _result_bytes(results):
    return [(r.doc_id, r.score) for r in results]


class TestClusterIntegration:
    """The tiers against a real cluster, over every transport backend."""

    @pytest.mark.parametrize("transport", ["in-process", "async-socket"])
    def test_cached_reads_byte_identical_with_midrun_invalidation(
        self, transport
    ):
        documents = make_documents(num_docs=10)
        plain = make_cluster(documents, n=3, transport=transport)
        cached = make_cluster(
            documents,
            n=3,
            transport=transport,
            cache_tier="lru",
            l1_entries=32,
        )
        try:
            for cluster in (plain, cached):
                cluster.add_member(0, "alice", actor="owner0")
            searcher = cached.searcher("alice")
            queries = [["w3", "w5"], ["w1"], ["w3", "w5"], ["w3", "w5"]]
            for terms in queries:
                expected = plain.search("alice", terms, use_cache=False)
                got = searcher.search(terms)
                assert _result_bytes(got) == _result_bytes(expected)
            diag = searcher.last_cluster_diagnostics
            assert diag.l1_hits > 0  # the repeats actually hit
            # Mid-run write: invalidation must beat the next read.
            newdoc = Document(
                doc_id=900, group_id=0, host="host0",
                term_counts={"w3": 5}, length=5, text="w3",
            )
            for cluster in (plain, cached):
                cluster.share_document("owner0", newdoc)
                cluster.flush_all()
            expected = plain.search("alice", ["w3"], use_cache=False)
            got = searcher.search(["w3"])
            assert _result_bytes(got) == _result_bytes(expected)
            assert 900 in {r.doc_id for r in got}
            view = SampleView(cached.metrics.samples())
            assert view.value("zerber_cache_tier_invalidations") > 0
        finally:
            plain.close()
            cached.close()

    def test_l1_hit_matches_miss_results_and_filter_counts(self):
        """The L1 value is the list's reconstructed secrets, so a hit
        decodes the queried terms like a miss — same elements, same
        filter counts, nothing joined."""
        documents = make_documents(num_docs=10)
        cluster = make_cluster(
            documents, n=3, l1_entries=32
        )
        try:
            cluster.add_member(0, "alice", actor="owner0")
            searcher = cluster.searcher("alice")
            readable = sorted(
                {t for d in documents if d.group_id == 0 for t in d.term_counts}
            )
            noise = 0
            for terms in (readable[:2], readable[2:3], readable[1:6:2]):
                searcher.l1_cache.clear()
                miss = searcher.fetch_elements(terms)
                cold = searcher.last_diagnostics
                assert searcher.last_cluster_diagnostics.l1_hits == 0
                hit = searcher.fetch_elements(terms)
                warm = searcher.last_diagnostics
                assert searcher.last_cluster_diagnostics.l1_hits == (
                    cold.posting_lists_requested
                )
                assert hit == miss and miss
                assert warm.false_positives == cold.false_positives
                assert warm.elements_matched == cold.elements_matched
                assert cold.elements_received == (
                    cold.false_positives + cold.elements_matched
                )
                assert warm.elements_received == 0
                noise += warm.false_positives
                assert _result_bytes(searcher.search(terms)) == (
                    _result_bytes(
                        cluster.search("alice", terms, use_cache=False)
                    )
                )
            assert noise > 0  # the merged lists did carry other terms
        finally:
            cluster.close()

    def test_lying_seat_filter_counts_match_with_the_l1_on_and_off(self):
        """A seat lying about every share of a list but the first, each
        by a delta drawn uniformly from Z_p: the garbage secrets are
        discarded like merged-in noise, whether the L1 holds the
        secrets (a fill, then a hit) or the uncached path decodes
        them."""
        documents = make_documents(num_docs=10)
        cluster = make_cluster(documents, n=3, l1_entries=32)
        with cluster:
            cluster.add_member(0, "alice", actor="owner0")
            readable = sorted(
                {t for d in documents if d.group_id == 0 for t in d.term_counts}
            )
            terms = readable[:3]
            plain = cluster.searcher("alice", use_cache=False)
            honest = len(plain.fetch_elements(terms))
            pl_id = cluster.mapping_table.lookup(terms[0])
            p = cluster.scheme.field.p
            draw = random.Random(11)
            rewrite_stored_list(
                cluster.coordinator.pod_of(pl_id).servers[0],
                pl_id,
                lambda records: [
                    ShareRecord(
                        r.element_id,
                        r.group_id,
                        (r.share_y + (draw.randrange(p) if i else 0)) % p,
                    )
                    for i, r in enumerate(records)
                ],
            )
            expected = plain.fetch_elements(terms)
            off = plain.last_diagnostics
            assert len(expected) < honest  # the lie reached the decode
            assert off.false_positives == (
                off.elements_received - off.elements_matched
            )
            cached = cluster.searcher("alice")
            for l1_hits in (0, off.posting_lists_requested):
                assert cached.fetch_elements(terms) == expected
                on = cached.last_diagnostics
                assert cached.last_cluster_diagnostics.l1_hits == l1_hits
                assert (on.false_positives, on.elements_matched) == (
                    off.false_positives,
                    off.elements_matched,
                )
            assert cluster.search("alice", terms, use_cache=False) == (
                cached.search(terms)
            )

    def test_a_small_lie_shifts_secrets_and_only_verification_drops_it(self):
        """A seat at x = 1 adding ``i`` to the i-th share of a list. Under
        the canonical weights (2, -1) each secret moves by ``2i``, so the
        lied rows decode as plausible postings: without
        ``verify_consistency`` the answer silently differs from the
        honest one. With it, over all n = 3 seats, every lied element
        disagrees across the k-subsets, counts as inconsistent and is
        dropped (three shares detect, they cannot correct): the answer
        is the honest list without the lied rows."""
        documents = make_documents(num_docs=10)
        cluster = make_cluster(documents, n=3)
        with cluster:
            cluster.add_member(0, "alice", actor="owner0")
            readable = sorted(
                {t for d in documents if d.group_id == 0 for t in d.term_counts}
            )
            terms = readable[:3]
            plain = cluster.searcher("alice", use_cache=False)
            honest = plain.fetch_elements(terms)
            pl_id = cluster.mapping_table.lookup(terms[0])
            seats = cluster.coordinator.pod_of(pl_id).servers
            assert seats[0].x_coordinate == 1
            records = seats[0].export_posting_list(pl_id)
            lied = {
                r.element_id
                for i, r in enumerate(records)
                if i and r.group_id == 0  # the rows alice can read
            }
            assert lied
            p = cluster.scheme.field.p
            rewrite_stored_list(
                seats[0],
                pl_id,
                lambda records: [
                    ShareRecord(r.element_id, r.group_id, (r.share_y + i) % p)
                    for i, r in enumerate(records)
                ],
            )
            # The shifted rows survive the decode: a changed answer of
            # the same length, nothing flagged.
            lying = plain.fetch_elements(terms)
            assert lying != honest and len(lying) == len(honest)
            checker = cluster.searcher("alice", verify_consistency=True)
            verified = checker.fetch_elements(terms, num_servers=3)
            diagnostics = checker.last_diagnostics
            assert diagnostics.inconsistent_elements == len(lied)
            assert diagnostics.recovered_elements == 0
            verified_hits = checker.search(terms, num_servers=3)
            # The same answer as an honest fleet that never held the
            # lied rows.
            for seat in seats:
                rewrite_stored_list(
                    seat,
                    pl_id,
                    lambda stored: [
                        r for r in stored if r.element_id not in lied
                    ],
                )
            assert verified == plain.fetch_elements(terms) != honest
            assert verified_hits == plain.search(terms)

    def test_ranking_never_mutates_the_l1_entries_it_reads(self):
        """The decode and rank stages read the L1's own secrets lists:
        after many repeat searches every entry is still the very object
        stored, with the value it was stored with — no in-place sort."""
        documents = make_documents(num_docs=16)
        cluster = make_cluster(
            documents, n=3, l1_entries=32
        )
        with cluster:
            cluster.add_member(0, "alice", actor="owner0")
            searcher = cluster.searcher("alice")
            stored = {}
            original_put = searcher.l1_cache.put

            def recording_put(key, pl_id, postings):
                stored[key] = (postings, copy.deepcopy(postings))
                original_put(key, pl_id, postings)

            searcher.l1_cache.put = recording_put
            readable = sorted(
                {t for d in documents if d.group_id == 0 for t in d.term_counts}
            )
            queries = [readable[:3], readable[2:5], readable[::2], readable]
            for _ in range(3):
                for terms in queries:
                    for top_k in (1, 10):
                        searcher.search(terms, top_k=top_k)
            assert searcher.l1_cache.counts["hits"] > 0
            entries = dict(searcher.l1_cache._entries)
            assert entries and entries.keys() <= stored.keys()
            for key, entry in entries.items():
                original, snapshot = stored[key]
                assert entry is original
                assert entry.tolist() == snapshot.tolist()

    def test_l2_serves_a_fresh_searcher(self):
        documents = make_documents(num_docs=10)
        cluster = make_cluster(documents, cache_tier="lru")
        try:
            cluster.add_member(0, "alice", actor="owner0")
            first = cluster.searcher("alice")
            r1 = first.search(["w3", "w5"])
            # A brand new searcher has a cold L1 but shares the tier.
            second = cluster.searcher("alice")
            r2 = second.search(["w3", "w5"])
            assert _result_bytes(r1) == _result_bytes(r2)
            assert second.last_cluster_diagnostics.l2_hits > 0
        finally:
            cluster.close()

    def test_corrupt_l2_value_is_a_miss(self):
        """A torn or poisoned tier value must cost a refetch, never an
        answer: the searcher treats it as a miss."""
        documents = make_documents(num_docs=10)
        cluster = make_cluster(documents, cache_tier="lru")
        try:
            cluster.add_member(0, "alice", actor="owner0")
            r1 = cluster.searcher("alice").search(["w3", "w5"])
            store = cluster.cache_tier_store
            for key, (pl_id, value) in list(store._entries.items()):
                store.put(key, pl_id, value[:-1])
            second = cluster.searcher("alice")
            r2 = second.search(["w3", "w5"])
            assert _result_bytes(r1) == _result_bytes(r2)
            assert second.last_cluster_diagnostics.l2_hits == 0
            # The refetch re-filled the tier with sound values.
            third = cluster.searcher("alice")
            assert _result_bytes(third.search(["w3", "w5"])) == _result_bytes(r1)
            assert third.last_cluster_diagnostics.l2_hits > 0
        finally:
            cluster.close()

    @pytest.mark.parametrize(
        "tear", ["an unasked list", "another queried list", "a slot twice"]
    )
    def test_an_entry_naming_the_wrong_list_or_slot_is_a_miss(self, tear):
        """An L2 entry is checked against the list it was asked for: one
        whose responses name a list the query did not ask for, another
        list of the same query, or one slot twice is torn. It costs a
        refetch, never a crash or shares joined into the wrong list."""
        documents = make_documents(num_docs=10)
        cluster = make_cluster(documents, cache_tier="lru")
        try:
            cluster.add_member(0, "alice", actor="owner0")
            by_list = {}
            for term in _readable_terms(documents):
                by_list.setdefault(cluster.mapping_table.lookup(term), term)
            terms = list(by_list.values())[:2]
            clean = cluster.searcher("alice").search(terms, top_k=5)
            store = cluster.cache_tier_store
            (key, (pl_id, value)), (_, (other, other_value)) = sorted(
                store._entries.items(), key=lambda item: item[1][0]
            )
            pairs = decode_entry(value)
            torn = {
                "an unasked list": [
                    (slot, PostingListResponse(9999, *r.columns))
                    for slot, r in pairs
                ],
                "another queried list": decode_entry(other_value),
                "a slot twice": pairs + pairs[:1],
            }[tear]
            store.put(key, pl_id, encode_entry(torn))
            second = cluster.searcher("alice")
            got = second.search(terms, top_k=5)
            assert _result_bytes(got) == _result_bytes(clean)
            assert second.last_cluster_diagnostics.l2_hits == 1
            # The refetch filled the list's key with its sound entry.
            assert store._entries[key] == (pl_id, value)
        finally:
            cluster.close()

    def test_verify_mode_bypasses_the_tiers(self):
        documents = make_documents(num_docs=8)
        cluster = make_cluster(
            documents, cache_tier="lru", l1_entries=32
        )
        try:
            cluster.add_member(0, "alice", actor="owner0")
            searcher = cluster.searcher("alice")
            searcher.search(["w3"])
            checker = cluster.searcher("alice", verify_consistency=True)
            checker.search(["w3"])
            diag = checker.last_cluster_diagnostics
            assert diag.l1_hits == 0 and diag.l2_hits == 0
        finally:
            cluster.close()

    def test_revoked_group_read_is_eagerly_evicted(self):
        """Satellite regression: revocation evicts the L1 *now*, not
        whenever fingerprint rotation happens to age the entry out."""
        documents = make_documents(num_docs=10)
        cluster = make_cluster(
            documents, cache_tier="lru", l1_entries=32
        )
        try:
            cluster.add_member(0, "alice", actor="owner0")
            searcher = cluster.searcher("alice")
            warm = searcher.search(["w3", "w5"])
            assert warm  # the L1 now holds alice's postings
            assert len(searcher.l1_cache) > 0
            cluster.remove_member(0, "alice", actor="owner0")
            # Eager: her entries are gone before any further query.
            assert all(
                key[0] != "alice" for key in searcher.l1_cache._entries
            )
            assert searcher.search(["w3", "w5"]) == []
        finally:
            cluster.close()

    def test_membership_change_of_one_user_spares_others(self):
        documents = make_documents(num_docs=10)
        cluster = make_cluster(
            documents, cache_tier="lru", l1_entries=32
        )
        try:
            cluster.add_member(0, "alice", actor="owner0")
            cluster.add_member(0, "bob", actor="owner0")
            alice = cluster.searcher("alice")
            alice.search(["w3", "w5"])
            before = len(alice.l1_cache)
            assert before > 0
            # bob's revocation must not evict alice's entries…
            cluster.remove_member(0, "bob", actor="owner0")
            assert len(alice.l1_cache) == before
            # …and her repeat query still hits.
            alice.search(["w3", "w5"])
            assert alice.last_cluster_diagnostics.l1_hits > 0
        finally:
            cluster.close()

    def test_l1_counters_surface_in_the_registry(self):
        """Hit/miss/eviction counters of the searcher-local L1 reach the
        metrics registry that ``repro cluster status`` renders."""
        documents = make_documents(num_docs=8)
        cluster = make_cluster(documents, l1_entries=16)
        with cluster:
            cluster.add_member(0, "alice", actor="owner0")
            searcher = cluster.searcher("alice")
            searcher.search(["w3"])
            searcher.search(["w3"])
            view = SampleView(cluster.metrics.samples())
            for field in (
                "caches", "hits", "misses", "evictions", "invalidations",
                "entries", "capacity",
            ):
                assert view.value(f"zerber_l1_{field}") is not None
            assert view.value("zerber_l1_hits") > 0
            assert view.value("zerber_l1_capacity") == 16
            assert not any(
                sample.name.startswith("zerber_share_")
                for sample in view.samples
            )

    def test_l1_counters_are_lifetime_totals(self):
        """A dropped searcher's hits stay counted, and a fleet with no
        live L1 reports no entries and no capacity."""
        documents = make_documents(num_docs=8)
        cluster = make_cluster(documents, l1_entries=16)

        def read(name):
            return SampleView(cluster.metrics.samples()).value(name)

        with cluster:
            cluster.add_member(0, "alice", actor="owner0")
            first = cluster.searcher("alice")
            for _ in range(3):
                first.search(["w3", "w5", "w7"], fetch_snippets=False)
            lists = first.last_diagnostics.posting_lists_requested
            assert lists > 1
            assert read("zerber_l1_hits") == 2 * lists
            assert read("zerber_search_queries_total") == 3
            del first
            gc.collect()
            assert read("zerber_l1_caches") == 0
            assert read("zerber_l1_entries") == 0
            assert read("zerber_l1_capacity") == 0
            assert read("zerber_l1_hits") == 2 * lists
            second = cluster.searcher("alice")
            for _ in range(2):
                second.search(["w3", "w5", "w7"], fetch_snippets=False)
            assert read("zerber_l1_hits") == 3 * lists
            assert read("zerber_l1_misses") == 2 * lists
            assert read("zerber_search_queries_total") == 5

    def test_l1_totals_lose_no_update_when_searchers_die_concurrently(self):
        """Finalizers fold dying L1s' counters from whichever thread
        drops the last reference; none of those folds may be lost."""
        with ClusterDeployment(
            MappingTable({}, num_lists=4), num_pods=1
        ) as cluster:
            coordinator = cluster.coordinator
            workers, caches_each, gets_each = 8, 25, 4

            def churn():
                for _ in range(caches_each):
                    l1 = L1PostingCache(4)
                    coordinator.register_l1(l1)
                    for key in range(gets_each):
                        l1.get(("u", None, 2, key, 0))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [
                    threading.Thread(target=churn) for _ in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            gc.collect()
            totals = coordinator.l1_totals()
            assert totals["misses"] == workers * caches_each * gets_each
            assert totals["caches"] == 0 and totals["entries"] == 0

    def test_cache_entries_accepts_only_zero(self):
        """The coordinator share cache is gone: a non-zero
        ``cache_entries`` is a typed error pointing at ``l1_entries``."""
        table = MappingTable({}, num_lists=4)
        with pytest.raises(ClusterError, match="l1_entries"):
            ClusterDeployment(table, num_pods=1, cache_entries=4096)
        ClusterDeployment(table, num_pods=1, cache_entries=0).close()

    @pytest.mark.parametrize("name", ["tinylfu", "clock"])
    def test_cache_tier_accepts_only_lru(self, name, tmp_path):
        """The L2 has one eviction policy: any other name is a typed
        error naming ``lru``, raised before any seat store exists."""
        table = MappingTable({}, num_lists=4)
        with pytest.raises(ClusterError, match="'lru'"):
            ClusterDeployment(table, cache_tier=name, wal_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_racing_fill_cannot_reinstall_pre_write_shares(self):
        """Fill-race regression: a reader holding pre-write shares runs
        its L2 fill *after* a concurrent write's invalidation already
        swept the tier. Without the epoch fence the stale fill is
        served fleet-wide until the next write; with it, the fill lands
        under the pre-write epoch's key, which no post-write reader
        derives."""
        documents = make_documents(num_docs=10)
        cluster = make_cluster(documents, cache_tier="lru")
        try:
            cluster.add_member(0, "alice", actor="owner0")
            searcher = cluster.searcher("alice")
            real = searcher._fetch
            raced = []

            def racing_fetch(need, num_servers):
                # The fleet fetch returns pre-write shares; before the
                # caller can fill the L2, a write lands and invalidates
                # every tier. The fill then executes with stale bytes.
                out = real(need, num_servers)
                if not raced:
                    raced.append(True)
                    newdoc = Document(
                        doc_id=902, group_id=0, host="host0",
                        term_counts={"w3": 4}, length=4, text="w3",
                    )
                    cluster.share_document("owner0", newdoc)
                    cluster.flush_all()
                return out

            searcher._fetch = racing_fetch
            searcher.search(["w3"])  # executes the doomed fill
            searcher._fetch = real
            # A cold searcher consults the tier first: it must miss the
            # stale entry and refetch the post-write truth.
            fresh = cluster.searcher("alice")
            got = fresh.search(["w3"])
            assert fresh.last_cluster_diagnostics.l2_hits == 0
            assert 902 in {r.doc_id for r in got}
        finally:
            cluster.close()

    def test_cache_tier_failure_degrades_reads_but_fails_writes(self):
        """The tier is an accelerator for reads (silent fallback) but a
        dependency for write invalidation (loud failure keeps it from
        ever serving pre-write bytes)."""
        documents = make_documents(num_docs=8)
        cluster = make_cluster(documents, cache_tier="lru")
        try:
            cluster.add_member(0, "alice", actor="owner0")
            searcher = cluster.searcher("alice")
            expected = _result_bytes(searcher.search(["w3", "w5"]))
            # Tear the tier's endpoint down mid-flight.
            cluster.registry.unregister(CACHE_TIER_ENDPOINT)
            got = searcher.search(["w3", "w5"])
            assert _result_bytes(got) == expected  # reads degrade fine
            newdoc = Document(
                doc_id=901, group_id=0, host="host0",
                term_counts={"w3": 2}, length=2, text="w3",
            )
            with pytest.raises(Exception):
                cluster.share_document("owner0", newdoc)
                cluster.flush_all()
        finally:
            cluster.close()


    # -- the L1's safety rules, one small cluster ------------------------

    @pytest.fixture()
    def budget_cluster(self):
        cluster = ClusterDeployment(
            MappingTable({}, num_lists=6),
            num_pods=2,
            k=2,
            n=3,
            batch_policy=BatchPolicy(min_documents=1),
            seed=11,
            l1_entries=16,
        )
        cluster.create_group(0, coordinator="alice")
        cluster.share_document(
            "alice", _doc(1, ["budget", "merger"], group_id=0)
        )
        cluster.flush_all()
        with cluster:
            yield cluster

    def test_insert_invalidates_and_refetch_sees_new_document(
        self, budget_cluster
    ):
        cluster = budget_cluster
        searcher = cluster.searcher("alice")
        first = searcher.search(["budget"], top_k=5, fetch_snippets=False)
        assert {h.doc_id for h in first} == {1}
        # Warm: a repeat is served from the L1.
        searcher.search(["budget"], top_k=5, fetch_snippets=False)
        assert searcher.last_cluster_diagnostics.l1_hits > 0
        cluster.share_document("alice", _doc(2, ["budget"], group_id=0))
        cluster.flush_all()
        after = searcher.search(["budget"], top_k=5, fetch_snippets=False)
        assert {h.doc_id for h in after} == {1, 2}
        assert searcher.last_cluster_diagnostics.l1_hits == 0
        assert searcher.last_cluster_diagnostics.lookup_messages > 0

    def test_delete_invalidates_and_refetch_drops_document(
        self, budget_cluster
    ):
        cluster = budget_cluster
        searcher = cluster.searcher("alice")
        searcher.search(["budget"], top_k=5, fetch_snippets=False)
        cluster.owner("alice").delete_document(1)
        assert searcher.search(["budget"], top_k=5,
                               fetch_snippets=False) == []

    def test_unrelated_lists_stay_cached(self, budget_cluster):
        """A write only evicts its own posting list's entries."""
        cluster = budget_cluster
        table = cluster.mapping_table
        assert table.lookup("budget") != table.lookup("merger")
        searcher = cluster.searcher("alice")
        searcher.search(["budget", "merger"], top_k=5, fetch_snippets=False)
        cluster.share_document("alice", _doc(2, ["budget"], group_id=0))
        cluster.flush_all()
        searcher.search(["budget", "merger"], top_k=5, fetch_snippets=False)
        assert searcher.last_cluster_diagnostics.l1_hits == 1

    def test_shortfall_fetches_are_not_cached(self, budget_cluster):
        """A fetch that dropped an under-k element must not be cached.

        Regression: slot 1 silently loses its shares of the budget list
        (disk rot — nothing in the staleness ledger) and slot 2 dies.
        Every budget element now has one live share, so the read drops
        them — but once slot 2 recovers, the *same cached searcher*
        must see the elements again instead of serving the short entry
        forever.
        """
        cluster = budget_cluster
        cluster.share_document("alice", _doc(3, ["budget"], group_id=0))
        cluster.flush_all()
        pl_id = cluster.mapping_table.lookup("budget")
        pod_index = cluster.coordinator.pod_of(pl_id).index
        pod = cluster.pods[pod_index]
        assert pod.slots[1].server.drop_posting_list(pl_id)
        cluster.kill_server(pod_index, 2)
        searcher = cluster.searcher("alice")
        degraded = searcher.search(["budget"], top_k=5,
                                   fetch_snippets=False)
        assert 3 not in {h.doc_id for h in degraded}
        cluster.restart_server(pod_index, 2)  # the missing shares return
        recovered = searcher.search(["budget"], top_k=5,
                                    fetch_snippets=False)
        assert 3 in {h.doc_id for h in recovered}

    def test_verify_consistency_bypasses_cache(self, budget_cluster):
        """k-share cached entries must not starve the > k cross-check."""
        cluster = budget_cluster
        verifier = cluster.searcher("alice", verify_consistency=True)
        for _ in range(2):
            hits = verifier.search(
                ["budget"], top_k=5, num_servers=3, fetch_snippets=False
            )
            assert {h.doc_id for h in hits} == {1}
            assert verifier.last_cluster_diagnostics.l1_hits == 0
            assert verifier.last_cluster_diagnostics.lookup_messages > 0

    def test_wider_requests_miss_narrower_entries(self, budget_cluster):
        """num_servers is part of the cache key."""
        searcher = budget_cluster.searcher("alice")
        searcher.search(["budget"], top_k=5, fetch_snippets=False)
        searcher.search(
            ["budget"], top_k=5, num_servers=3, fetch_snippets=False
        )
        assert searcher.last_cluster_diagnostics.l1_hits == 0
        assert searcher.last_cluster_diagnostics.lookup_messages > 0

    def test_revoked_member_stops_seeing_cached_results(
        self, budget_cluster
    ):
        cluster = budget_cluster
        cluster.add_member(0, "carol", actor="alice")
        searcher = cluster.searcher("carol")
        hits = searcher.search(["budget"], top_k=5, fetch_snippets=False)
        assert {h.doc_id for h in hits} == {1}
        cluster.remove_member(0, "carol", actor="alice")
        # The L1 entry was keyed to carol's old group set and evicted
        # eagerly; the servers enforce the revocation on the refetch.
        assert searcher.search(
            ["budget"], top_k=5, fetch_snippets=False
        ) == []
        assert searcher.last_cluster_diagnostics.l1_hits == 0

    def test_new_member_gets_fresh_results_not_another_users_cache(
        self, budget_cluster
    ):
        cluster = budget_cluster
        alice_searcher = cluster.searcher("alice")
        alice_searcher.search(["budget"], top_k=5, fetch_snippets=False)
        cluster.enroll_user("mallory")  # never in group 0
        mallory = cluster.searcher("mallory")
        assert mallory.search(
            ["budget"], top_k=5, fetch_snippets=False
        ) == []
        assert mallory.last_cluster_diagnostics.l1_hits == 0


# -- one invalidation per flush, still before the write -----------------------


class _TierSpy:
    """Fronts the cache-tier service: records every invalidation, and
    runs ``on_invalidate`` once the tier has evicted — after the
    coordinator bumped the epochs, before any seat received the batch."""

    def __init__(self, cluster, on_invalidate=None):
        self.inner = cluster.registry._resolve(CACHE_TIER_ENDPOINT)
        self.invalidations: list[tuple[int, ...]] = []
        self.on_invalidate = on_invalidate
        cluster.registry.unregister(CACHE_TIER_ENDPOINT)
        cluster.registry.register(CACHE_TIER_ENDPOINT, self)

    def handle(self, request):
        response = self.inner.handle(request)
        if isinstance(request, CacheInvalidateRequest):
            self.invalidations.append(request.pl_ids)
            if self.on_invalidate is not None:
                self.on_invalidate()
        return response


def _batching_writer(cluster, group_id=7):
    """An owner of its own group that flushes only when told to."""
    name = f"owner{group_id}"
    cluster.create_group(group_id, coordinator=name)
    return cluster.owner(name, batch_policy=BatchPolicy(min_documents=50))


def _doc(doc_id, terms, group_id=7):
    return Document(
        doc_id=doc_id, group_id=group_id, host="host0",
        term_counts=dict.fromkeys(terms, 1), length=len(terms),
        text=" ".join(terms),
    )


def _stored_ids(cluster):
    return {
        (slot.server_id, pl_id, record.element_id)
        for pod in cluster.coordinator.pods
        for slot in pod.slots
        for pl_id in range(8)
        for record in slot.server.export_posting_list(pl_id)
    }


class TestOneInvalidationPerFlush:
    def _cluster(self):
        return make_cluster(make_documents(num_docs=6), cache_tier="lru")

    def test_a_flush_names_every_list_in_one_invalidation(self):
        cluster = self._cluster()
        try:
            owner = _batching_writer(cluster)
            coordinator = cluster.coordinator
            docs = [_doc(800, ["w1", "w2"]), _doc(801, ["w2", "w9"]),
                    _doc(802, ["w4"])]
            for doc in docs:
                owner.share_document(doc)
            spy = _TierSpy(cluster)
            before = {pl: coordinator.write_epoch(pl) for pl in range(8)}
            assert owner.flush_updates() == 5
            touched = {
                pl_id for doc in docs for pl_id, _ in owner.elements_of(doc.doc_id)
            }
            assert 1 < len(touched) < 8
            # One message for the whole flush, each list named once.
            assert len(spy.invalidations) == 1
            assert sorted(spy.invalidations[0]) == sorted(touched)
            # Invalidate + completion fence: two bumps per touched list.
            assert {
                pl: coordinator.write_epoch(pl) - before[pl] for pl in range(8)
            } == {pl: 2 if pl in touched else 0 for pl in range(8)}
        finally:
            cluster.close()

    def test_a_delete_names_its_lists_in_one_invalidation(self):
        cluster = self._cluster()
        try:
            owner = _batching_writer(cluster)
            owner.share_document(_doc(810, ["w1", "w2", "w4", "w9", "w11"]))
            owner.flush_updates()
            lists = {pl_id for pl_id, _ in owner.elements_of(810)}
            assert len(lists) > 1
            spy = _TierSpy(cluster)
            assert owner.delete_document(810) == 5
            assert len(spy.invalidations) == 1
            assert sorted(spy.invalidations[0]) == sorted(lists)
        finally:
            cluster.close()

    def test_a_failing_tier_aborts_the_flush_before_any_seat_is_written(self):
        cluster = self._cluster()
        try:
            owner = _batching_writer(cluster)
            for doc in (_doc(820, ["w1", "w2"]), _doc(821, ["w4", "w9"])):
                owner.share_document(doc)
            before = _stored_ids(cluster)
            cluster.registry.unregister(CACHE_TIER_ENDPOINT)
            with pytest.raises(UnknownEndpointError):
                owner.flush_updates()
            assert _stored_ids(cluster) == before
        finally:
            cluster.close()

    def test_a_fill_between_invalidation_and_delivery_is_never_hit(self):
        """The completion fence over a multi-list batch: a reader that
        runs after the one invalidation and before the first delivery
        captures post-invalidate epochs, fetches pre-write shares and
        fills the L2 with them. The second bump of every list of the
        batch strands those fills."""
        cluster = self._cluster()
        try:
            cluster.create_group(7, coordinator="owner7")
            cluster.add_member(7, "alice", actor="owner7")
            owner = cluster.owner(
                "owner7", batch_policy=BatchPolicy(min_documents=50)
            )
            owner.share_document(_doc(830, ["w1", "w2", "w4"]))
            owner.flush_updates()
            window = []

            def read_inside_the_window():
                reader = cluster.searcher("alice")
                got = reader.search(["w1", "w2", "w4"], fetch_snippets=False)
                window.append({r.doc_id for r in got})

            spy = _TierSpy(cluster, on_invalidate=read_inside_the_window)
            owner.share_document(_doc(831, ["w1", "w2"]))
            owner.share_document(_doc(832, ["w4"]))
            owner.flush_updates()
            assert len(spy.invalidations) == 1
            # The window reader saw (and cached) the pre-write index.
            assert window == [{830}]
            fresh = cluster.searcher("alice")
            got = fresh.search(["w1", "w2", "w4"], fetch_snippets=False)
            assert fresh.last_cluster_diagnostics.l2_hits == 0
            assert {r.doc_id for r in got} == {830, 831, 832}
        finally:
            cluster.close()


class _CountingTransport(Transport):
    """Passes every call through to ``inner`` and records each batch:
    a ``call`` as a batch of one, a ``call_many`` as its calls."""

    def __init__(self, inner):
        self.inner = inner
        self.batches: list[list[tuple[str, object]]] = []

    def call(self, src, dst, request):
        self.batches.append([(dst, request)])
        return self.inner.call(src, dst, request)

    def call_many(self, src, calls, **kwargs):
        self.batches.append(list(calls))
        return self.inner.call_many(src, calls, **kwargs)

    def tier_batches(self):
        return [
            [type(request) for _dst, request in batch]
            for batch in self.batches
            if any(dst == CACHE_TIER_ENDPOINT for dst, _ in batch)
        ]


def _hex_results(results):
    return [(r.doc_id, r.score.hex()) for r in results]


def _readable_terms(documents, group_id=0):
    return sorted(
        {t for d in documents if d.group_id == group_id for t in d.term_counts}
    )


class TestTierRoundTrips:
    """A query's L2 gets leave in one batch and its fills in one more;
    a fill ships the column bytes the seats sent; the L1 holds a list's
    secrets, so a hit decodes whichever terms the query names."""

    def _cluster(self, transport, **kwargs):
        documents = make_documents(num_docs=16)
        cluster = make_cluster(
            documents, n=3, transport=transport, cache_tier="lru", **kwargs
        )
        cluster.add_member(0, "alice", actor="owner0")
        return documents, cluster

    def test_a_cold_query_pays_one_get_batch_and_one_fill_batch(self):
        documents, cluster = self._cluster("async-socket", l1_entries=32)
        with cluster:
            by_list = {}
            for term in _readable_terms(documents):
                by_list.setdefault(cluster.mapping_table.lookup(term), term)
            terms = list(by_list.values())[:3]
            assert len(terms) == 3
            counting = _CountingTransport(cluster.transport)
            searcher = cluster.searcher("alice", transport=counting)
            got = searcher.search(terms, fetch_snippets=False)
            diag = searcher.last_cluster_diagnostics
            assert (diag.l1_hits, diag.l2_hits) == (0, 0)
            assert counting.tier_batches() == [
                [CacheGetRequest] * 3,
                [CachePutRequest] * 3,
            ]
            assert _hex_results(got) == _hex_results(
                cluster.search("alice", terms, use_cache=False)
            )

    @pytest.mark.parametrize("transport", ["in-process", "async-socket"])
    @pytest.mark.parametrize("fault", ["unregistered", "reset"])
    def test_a_failing_tier_answers_like_no_cache(self, transport, fault):
        documents, cluster = self._cluster(transport, l1_entries=32)
        with cluster:
            terms = _readable_terms(documents)[:4]
            expected = _hex_results(
                cluster.search("alice", terms, use_cache=False)
            )
            off = cluster.searcher("alice", use_cache=False)
            off.fetch_elements(terms)
            if fault == "unregistered":
                cluster.registry.unregister(CACHE_TIER_ENDPOINT)
            else:
                cluster.registry.fault_plan = FaultPlan(
                    seed=3, reset_rate=1.0, endpoints=[CACHE_TIER_ENDPOINT]
                )
            try:
                searcher = cluster.searcher("alice")
                for _ in range(2):  # a miss, then an L1 hit
                    got = searcher.search(terms, fetch_snippets=False)
                    assert _hex_results(got) == expected
                    assert searcher.last_cluster_diagnostics.l2_hits == 0
                    searcher.fetch_elements(terms)
                    on = searcher.last_diagnostics
                    assert (on.false_positives, on.elements_matched) == (
                        off.last_diagnostics.false_positives,
                        off.last_diagnostics.elements_matched,
                    )
                if fault == "reset":
                    assert cluster.registry.fault_plan.injected["reset"] > 0
            finally:
                cluster.registry.fault_plan = None

    @pytest.mark.parametrize("transport", ["in-process", "async-socket"])
    def test_one_fence_capture_keys_both_tiers(self, transport, monkeypatch):
        """A query with the L1 and the L2 on reads the group fingerprint
        once and each list's write epoch once: a cold query, which gets
        and fills both tiers, and one that hits the L2."""
        documents, cluster = self._cluster(transport, l1_entries=32)
        with cluster:
            by_list = {}
            for term in _readable_terms(documents):
                by_list.setdefault(cluster.mapping_table.lookup(term), term)
            terms = list(by_list.values())[:3]
            coordinator = cluster.coordinator
            searchers = [cluster.searcher("alice") for _ in range(2)]
            calls = Counter()
            for name in ("group_fingerprint", "write_epoch"):
                real = getattr(coordinator, name)
                monkeypatch.setattr(
                    coordinator,
                    name,
                    lambda arg, _real=real, _name=name: calls.update(
                        [(_name, arg)]
                    ) or _real(arg),
                )
            expected = Counter(
                [("group_fingerprint", "alice")]
                + [("write_epoch", pl_id) for pl_id in by_list if (
                    by_list[pl_id] in terms
                )]
            )
            for searcher, l2_hits in zip(searchers, (0, 3)):
                calls.clear()
                searcher.search(terms, fetch_snippets=False)
                assert searcher.last_cluster_diagnostics.l2_hits == l2_hits
                assert calls == expected

    @pytest.mark.parametrize("transport", ["in-process", "async-socket"])
    def test_a_fill_is_the_entry_of_freshly_encoded_columns(self, transport):
        documents, cluster = self._cluster(transport)
        with cluster:
            searcher = cluster.searcher("alice")
            fetched = {}
            real = searcher._fetch

            def recording_fetch(need, num_servers):
                merged, unresolved = real(need, num_servers)
                for pl_id in need:
                    fetched[pl_id] = sorted(merged[pl_id].items())
                return merged, unresolved

            searcher._fetch = recording_fetch
            terms = _readable_terms(documents)[:4]
            searcher.search(terms, fetch_snippets=False)
            if transport == "async-socket":
                # The responses kept the bytes they arrived as.
                assert all(
                    response.packed is not None
                    for pairs in fetched.values()
                    for _slot, response in pairs
                )
            stored = dict(cluster.cache_tier_store._entries.values())
            assert stored.keys() == fetched.keys() and stored
            for pl_id, pairs in fetched.items():
                fresh = [
                    (slot, PostingListResponse(
                        r.pl_id, *(list(column) for column in r.columns)
                    ))
                    for slot, r in pairs
                ]
                assert all(r.packed is None for _slot, r in fresh)
                assert stored[pl_id] == encode_entry(fresh)

    def test_an_l1_hit_serves_another_term_set_over_the_same_list(self):
        documents, cluster = self._cluster("in-process", l1_entries=32)
        with cluster:
            by_list = {}
            for term in _readable_terms(documents):
                by_list.setdefault(
                    cluster.mapping_table.lookup(term), []
                ).append(term)
            first, second = next(
                terms for terms in by_list.values() if len(terms) >= 2
            )[:2]
            searcher = cluster.searcher("alice")
            plain = cluster.searcher("alice", use_cache=False)
            searcher.search([first], fetch_snippets=False)
            assert searcher.last_cluster_diagnostics.l1_hits == 0
            for terms in ([second], [first, second]):
                got = searcher.search(terms, fetch_snippets=False)
                assert searcher.last_cluster_diagnostics.l1_hits == 1
                hit = searcher.last_diagnostics
                expected = plain.search(terms, fetch_snippets=False)
                assert got and _hex_results(got) == _hex_results(expected)
                miss = plain.last_diagnostics
                assert (hit.false_positives, hit.elements_matched) == (
                    miss.false_positives,
                    miss.elements_matched,
                )
