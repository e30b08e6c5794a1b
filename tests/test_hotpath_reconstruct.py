"""The columnar read path against an independent oracle (ISSUE 14).

The benchmark's oracle fleet runs the same ``SearchClient
._reconstruct_lists`` as the cluster under test, so its digest cannot
catch a reconstruction bug. Here Hypothesis fabricates what the fetch
stage hands the client — slot columns of ``(element_id, share_y)``
with missing elements, permuted order, a repeated x, duplicated ids, a
lying column, and secrets the codec must reject — and drives the real
join + ``reconstruct_batch`` + bulk decode. The oracle shares none of
it: per element, the shares in arrival order go through the naive
``reconstruct_secret(method="lagrange")`` and
``PostingElementCodec.unpack``, with ``InsufficientSharesError`` and
``PackingError`` as drops. An aligned fetch (distinct slots, one id
column) joins row by row, so the oracle too takes an id that every
slot repeats as two elements. ``method="gaussian"`` is held to the same
oracle at the scheme level; further tests pin ``reconstruct_batch``'s
contract, the weight memo and the field helpers.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from itertools import combinations, islice
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.client.searcher import SearchClient
from repro.core.posting import (
    PackingSpec,
    PostingElement,
    PostingElementCodec,
)
from repro.errors import (
    FieldError,
    InsufficientSharesError,
    PackingError,
    SecretSharingError,
)
from repro.secretsharing.field import DEFAULT_PRIME, PrimeField
from repro.secretsharing.shamir import (
    ShamirScheme,
    Share,
    reconstruct_secret,
)
from repro.server.index_server import PostingListResponse, ShareRecord
from tests.helpers import unpack_by_term

#: The deployed layout (64-bit secrets in Z_(2^64+13)) and a tiny one
#: that leaves most of the field *outside* the packed width, so a
#: corrupted reconstruction is usually a PackingError. Both in the one
#: field the column kernel serves.
LAYOUTS = (
    (DEFAULT_PRIME, PackingSpec()),
    (DEFAULT_PRIME, PackingSpec(doc_id_bits=6, term_id_bits=3, tf_bits=3)),
)
PL_ID = 7

relaxed = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class ColumnClient(SearchClient):
    """The real client over a canned fetch stage."""

    def __init__(self, scheme, codec, fetched, verify=False):
        super().__init__(
            user_id="u",
            token=None,
            coordinator=SimpleNamespace(scheme=scheme, metrics=None),
            mapping_table=None,
            dictionary=None,
            codec=codec,
            verify_consistency=verify,
            transport=object(),
        )
        self._fetched = fetched

    def _fetch_lists(self, pl_ids, num_servers):
        return [(slot, r) for slot, responses in self._fetched for r in responses]


def _response(column):
    return PostingListResponse.from_records(
        pl_id=PL_ID,
        records=tuple(
            ShareRecord(element_id=element_id, group_id=0, share_y=y)
            for element_id, y in column
        ),
    )


def _decoded(client, num_servers):
    """The client's reconstructed secrets of ``PL_ID``, grouped by term
    as ``(by_term, count)`` by the bulk decode."""
    secrets = client._reconstruct_lists([PL_ID], num_servers)[PL_ID]
    return unpack_by_term(client._codec, secrets)


def _flatten(by_term):
    return sorted(
        (term_id, doc_id, tf)
        for term_id, postings in by_term.items()
        for doc_id, tf in postings
    )


def _element_shares(scheme, fetched):
    """Each joined element's shares, in arrival order.

    Aligned columns (distinct slots, every one naming the same IDs in
    the same order) join row by row, so an ID every slot repeats is two
    elements. Any other fetch joins per distinct ID (the naive
    reconstruction then keeps the first share per x).
    """
    columns = [
        (scheme.x_of(slot), response.records)
        for slot, responses in fetched
        for response in responses
    ]
    ids = [[record.element_id for record in records] for _, records in columns]
    xs = [x for x, _ in columns]
    if columns and len(set(xs)) == len(xs) and all(i == ids[0] for i in ids):
        return [
            [Share(x=x, y=records[row].share_y) for x, records in columns]
            for row in range(len(ids[0]))
        ]
    shares_of = defaultdict(list)
    for x, records in columns:
        for record in records:
            shares_of[record.element_id].append(Share(x=x, y=record.share_y))
    return list(shares_of.values())


def _columns_of(layout, k, n, rng, size):
    """A scheme, a codec, ``size`` secrets by element ID, and every
    slot's column of ``(element_id, share_y)`` in one order."""
    p, spec = layout
    field = PrimeField(p)
    scheme = ShamirScheme(k=k, n=n, field=field, rng=rng)
    codec = PostingElementCodec(spec)
    limit = 1 << spec.secret_bits
    secrets = {}
    for element_id in rng.sample(range(10_000), size):
        kind = rng.random()
        if kind < 0.15:  # does not fit the packed width
            secret = rng.randrange(limit, p)
        elif kind < 0.3:  # tf field of zero
            secret = rng.randrange(limit) & ~spec.tf_scale
        else:
            secret = codec.pack(
                PostingElement(
                    doc_id=rng.randrange(spec.max_doc_id + 1),
                    term_id=rng.randrange(min(spec.max_term_id + 1, 5)),
                    tf=rng.uniform(0.01, 1.0),
                )
            )
        secrets[element_id] = secret
    shares = {e: scheme.split(s, rng) for e, s in secrets.items()}
    columns = {
        slot: [(e, shares[e][slot].y) for e in secrets] for slot in range(n)
    }
    return scheme, codec, secrets, columns


def _repeat_in_every_slot(columns, row, p):
    """Every slot names the element at ``row`` again, its shares y + 1."""
    for _, column in columns:
        element_id, y = column[row]
        column.append((element_id, (y + 1) % p))


def every_slot_repeats(layout, k, n, m, seed, size=6):
    """A fetch with no mutation but "every slot repeats one id": m of n
    aligned slot columns, the aligned join's one case with a repeat."""
    rng = random.Random(seed)
    scheme, codec, secrets, by_slot = _columns_of(layout, k, n, rng, size)
    columns = [(slot, by_slot[slot]) for slot in rng.sample(range(n), m)]
    _repeat_in_every_slot(columns, rng.randrange(size), layout[0])
    fetched = [(slot, [_response(column)]) for slot, column in columns]
    return scheme, codec, fetched, secrets


@st.composite
def fetched_list(draw, min_extra=0, mutate=True):
    """A scheme, a codec, and one list's fetched slot columns."""
    layout = draw(st.sampled_from(LAYOUTS))
    k = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=k + min_extra, max_value=k + 3))
    rng = random.Random(draw(st.integers(0, 2**24)))
    size = draw(st.integers(0, 16))
    scheme, codec, secrets, by_slot = _columns_of(layout, k, n, rng, size)
    p = layout[0]
    # Fewer than k columns is a legal fetch: everything is dropped.
    fewest = k + min_extra if min_extra else k - 1
    m = draw(st.integers(min_value=fewest, max_value=n))
    columns = [(slot, by_slot[slot]) for slot in rng.sample(range(n), m)]
    if mutate:
        if secrets and rng.random() < 0.2:  # every slot repeats one id
            _repeat_in_every_slot(columns, rng.randrange(len(secrets)), p)
        for _, column in columns:
            fate = rng.random()
            if fate < 0.25:  # a lagging server: elements missing
                del column[: rng.randint(0, len(column))]
            elif fate < 0.5:  # same elements, another order
                rng.shuffle(column)
            elif fate < 0.6 and column:  # an id answered twice
                element_id, y = rng.choice(column)
                column.append((element_id, (y + 1) % p))
        if rng.random() < 0.3:  # a repeated x, disagreeing with itself
            slot, column = rng.choice(columns)
            columns.append(
                (slot, [(e, (y + rng.randrange(p)) % p) for e, y in column])
            )
        if rng.random() < 0.4:  # one lying column
            slot, column = columns.pop(rng.randrange(len(columns)))
            lies = [(e, (y + 1 + rng.randrange(p - 1)) % p) for e, y in column]
            columns.append((slot, lies))
            rng.shuffle(columns)
    fetched = [(slot, [_response(column)]) for slot, column in columns]
    return scheme, codec, fetched, secrets


#: The branch "every slot repeats one id" untouched by the other
#: mutations, which random draws reach in about 1 % of examples: below,
#: at and above k columns, on both layouts.
_EVERY_SLOT_REPEATS = (
    every_slot_repeats(LAYOUTS[0], k=2, n=3, m=2, seed=1),
    every_slot_repeats(LAYOUTS[0], k=2, n=4, m=4, seed=2),
    every_slot_repeats(LAYOUTS[1], k=3, n=6, m=5, seed=3),
    every_slot_repeats(LAYOUTS[1], k=2, n=3, m=1, seed=4),
)


def with_every_slot_repeating(test):
    for case in _EVERY_SLOT_REPEATS:
        test = example(case)(test)
    return test


@relaxed
@given(fetched_list())
@with_every_slot_repeating
def test_columnar_path_matches_per_element_oracle(case):
    scheme, codec, fetched, _ = case
    expected, joined = [], 0
    for shares in _element_shares(scheme, fetched):
        try:
            secret = reconstruct_secret(
                shares, scheme.k, scheme.field, "lagrange"
            )
        except InsufficientSharesError:
            continue
        joined += 1
        assert secret == reconstruct_secret(
            shares, scheme.k, scheme.field, "gaussian"
        )
        try:
            element = codec.unpack(secret)
        except PackingError:
            continue
        expected.append((element.term_id, element.doc_id, element.tf))
    client = ColumnClient(scheme, codec, fetched)
    by_term, count = _decoded(client, scheme.k)
    assert _flatten(by_term) == sorted(expected)
    # The count is every reconstructed secret, undecodable ones included.
    assert count == joined
    assert client.last_diagnostics.elements_received == joined


@relaxed
@given(fetched_list())
@with_every_slot_repeating
def test_verify_consistency_matches_naive_subset_vote(case):
    """The vote, redone with naive Lagrange over the same k-subsets."""
    scheme, codec, fetched, _ = case
    k, field = scheme.k, scheme.field
    expected, inconsistent, recovered = [], 0, 0
    for shares in _element_shares(scheme, fetched):
        first_per_x = {}
        for share in shares:
            first_per_x.setdefault(share.x, share)
        distinct = list(first_per_x.values())
        if len(distinct) < k:
            continue
        secret = reconstruct_secret(distinct, k, field, "lagrange")
        if len(distinct) > k:
            votes = Counter(
                reconstruct_secret(subset, k, field, "lagrange")
                for subset in islice(combinations(distinct, k), 21)
            ).most_common(2)
            if len(votes) > 1:
                inconsistent += 1
                if votes[0][1] == votes[1][1]:
                    continue
                recovered += 1
                secret = votes[0][0]
        try:
            element = codec.unpack(secret)
        except PackingError:
            continue
        expected.append((element.term_id, element.doc_id, element.tf))
    client = ColumnClient(scheme, codec, fetched, verify=True)
    by_term, _ = _decoded(client, scheme.n)
    assert _flatten(by_term) == sorted(expected)
    diagnostics = client.last_diagnostics
    assert diagnostics.inconsistent_elements == inconsistent
    assert diagnostics.recovered_elements == recovered


@relaxed
@given(fetched_list(min_extra=2, mutate=False), st.data())
def test_one_liar_among_k_plus_2_is_outvoted(case, data):
    """m >= k + 2 aligned columns, one of them lying about every
    element: the verified answer is the honest one (as long as the
    vote's 21-subset cap still covers every subset)."""
    scheme, codec, fetched, secrets = case
    assume(math.comb(len(fetched), scheme.k) <= 21)
    p = scheme.field.p
    liar = data.draw(st.integers(0, len(fetched) - 1))
    slot, (response,) = fetched[liar]
    lies = [(r.element_id, (r.share_y + 1) % p) for r in response.records]
    fetched[liar] = (slot, [_response(lies)])
    truth = []
    for secret in secrets.values():
        try:
            element = codec.unpack(secret)
        except PackingError:
            continue
        truth.append((element.term_id, element.doc_id, element.tf))
    client = ColumnClient(scheme, codec, fetched, verify=True)
    by_term, _ = _decoded(client, scheme.n)
    assert _flatten(by_term) == sorted(truth)
    diagnostics = client.last_diagnostics
    assert diagnostics.inconsistent_elements == len(secrets)
    assert diagnostics.recovered_elements == len(secrets)


class TestJoin:
    def _case(self, k=2, n=3):
        scheme = ShamirScheme(k=k, n=n, rng=random.Random(4))
        codec = PostingElementCodec()
        elements = {
            element_id: PostingElement(doc_id=element_id, term_id=1, tf=0.5)
            for element_id in (11, 22, 33)
        }
        shares = {
            e: scheme.split(codec.pack(element))
            for e, element in elements.items()
        }
        return scheme, codec, shares

    def test_short_first_column_reconstructs_from_later_columns(self):
        scheme, codec, shares = self._case()
        column = lambda slot, ids: (  # noqa: E731
            slot,
            [_response([(e, shares[e][slot].y) for e in ids])],
        )
        fetched = [
            column(0, (11, 33)),  # slot 0 never saw element 22
            column(1, (11, 22, 33)),
            column(2, (11, 22, 33)),
        ]
        client = ColumnClient(scheme, codec, fetched)
        by_term, count = _decoded(client, 3)
        assert sorted(doc for doc, _ in by_term[1]) == [11, 22, 33]
        assert count == client.last_diagnostics.elements_received == 3

    def test_element_short_of_k_shares_is_dropped(self):
        scheme, codec, shares = self._case()
        fetched = [
            (0, [_response([(e, shares[e][0].y) for e in (11, 22)])]),
            (1, [_response([(11, shares[11][1].y)])]),
        ]
        client = ColumnClient(scheme, codec, fetched)
        by_term, count = _decoded(client, 2)
        assert [doc for doc, _ in by_term[1]] == [11] and count == 1
        assert client.last_diagnostics.elements_received == 1

    def test_every_column_repeating_an_id_is_taken_row_by_row(self):
        """Aligned columns are the join, rows taken as they come: both
        columns name ID 42 twice, the second row's shares are y + 1,
        and both rows are reconstructed (the second as secret + 1, one
        tf quantum more). Seats never serve a repeated ID, so only
        columns that all lie alike look like this. Ranking keeps the
        least tf per document, so the answer is the honest one."""
        scheme = ShamirScheme(k=2, n=2, rng=random.Random(4))
        codec = PostingElementCodec()
        tf_scale, p = codec.spec.tf_scale, scheme.field.p
        quantized = round(0.5 * tf_scale)
        shares = scheme.split(
            codec.pack(PostingElement(doc_id=42, term_id=1, tf=0.5))
        )

        def client(*deltas):
            fetched = [
                (slot, [_response(
                    [(42, (shares[slot].y + delta) % p) for delta in deltas]
                )])
                for slot in (0, 1)
            ]
            searcher = ColumnClient(scheme, codec, fetched)
            searcher._mapping = SimpleNamespace(lookup=lambda term: PL_ID)
            searcher._dictionary = SimpleNamespace(id_of=lambda term: 1)
            return searcher

        repeated = client(0, 1)
        by_term, count = _decoded(repeated, 2)
        assert by_term == {
            1: [(42, quantized / tf_scale), (42, (quantized + 1) / tf_scale)]
        }
        assert count == repeated.last_diagnostics.elements_received == 2
        hits = repeated.search(["t"], fetch_snippets=False)
        assert repeated.last_diagnostics.elements_received == 2
        assert hits == client(0).search(["t"], fetch_snippets=False)
        assert [hit.doc_id for hit in hits] == [42]

    def test_healthy_fetch_is_one_batch_call_per_list(self, monkeypatch):
        scheme, codec, shares = self._case()
        fetched = [
            (slot, [_response([(e, shares[e][slot].y) for e in shares])])
            for slot in (2, 0)
        ]
        calls = []
        original = ShamirScheme.reconstruct_batch

        def counting(self, xs, y_columns):
            calls.append(tuple(xs))
            return original(self, xs, y_columns)

        monkeypatch.setattr(ShamirScheme, "reconstruct_batch", counting)
        client = ColumnClient(scheme, codec, fetched)
        by_term, _ = _decoded(client, 2)
        assert calls == [(scheme.x_of(2), scheme.x_of(0))]
        assert sorted(doc for doc, _ in by_term[1]) == [11, 22, 33]


class TestReconstructBatch:
    def _scheme(self, k=3, n=5, seed=5):
        return ShamirScheme(k=k, n=n, rng=random.Random(seed))

    def _columns(self, scheme, secrets, slots):
        rows = [scheme.split(s) for s in secrets]
        return (
            [scheme.x_of(slot) for slot in slots],
            [[row[slot].y for row in rows] for slot in slots],
        )

    def test_column_matches_naive_row_by_row(self):
        scheme = self._scheme()
        secrets = [11, 22, 33, 65536, 0, (1 << 64) - 1, DEFAULT_PRIME - 1]
        xs, y_columns = self._columns(scheme, secrets, (4, 1, 2))
        assert scheme.reconstruct_batch(xs, y_columns).tolist() == secrets
        assert scheme.reconstruct_batch(xs, [[], [], []]).tolist() == []

    def test_weights_memoized_per_x_tuple(self):
        scheme = self._scheme()
        for slots in ((0, 1, 2), (0, 1, 2), (1, 2, 3)):
            scheme.reconstruct_batch(*self._columns(scheme, [5, 6], slots))
        # Same slot subset -> one memo entry; a new subset -> a second.
        assert len(scheme._weight_memo) == 2
        xs, y_columns = self._columns(scheme, [42], (0, 1, 2))
        assert scheme.reconstruct_batch(xs, y_columns).tolist() == [42]
        assert len(scheme._weight_memo) == 2

    def test_weights_match_lagrange_basis(self):
        scheme = self._scheme()
        field = scheme.field
        xs = scheme.x_coordinates[: scheme.k]
        weights = scheme.lagrange_weights(tuple(xs))
        # Dot product with the weights == interpolation at zero, for
        # arbitrary y-columns (not just consistent polynomials).
        rng = random.Random(9)
        y_columns = [[rng.randrange(field.p) for _ in range(20)] for _ in xs]
        direct = [
            field.lagrange_at_zero(list(zip(xs, ys)))
            for ys in zip(*y_columns)
        ]
        assert scheme.reconstruct_batch(xs, y_columns).tolist() == direct
        assert direct[0] == (
            sum(w * column[0] for w, column in zip(weights, y_columns))
            % field.p
        )

    @pytest.mark.parametrize("p", [DEFAULT_PRIME, 65537, 101])
    def test_weights_are_least_magnitude_and_congruent(self, p):
        field = PrimeField(p)
        scheme = ShamirScheme(k=2, n=6, field=field)
        for k in (2, 3, 4):
            for xs in combinations(range(1, 7), k):
                weights = scheme.lagrange_weights(xs)
                assert all(-p < 2 * w <= p for w in weights)
                assert tuple(
                    w % p for w in weights
                ) == field.lagrange_weights_at_zero(xs)
        assert scheme.lagrange_weights((1, 2)) == (2, -1)
        assert scheme.lagrange_weights((1, 2, 3)) == (3, -3, 1)
        # A failover subset's weights are ~p/2 wide: 3/2 and -1/2.
        if p == DEFAULT_PRIME:
            w1, w3 = scheme.lagrange_weights((1, 3))
            assert w1.bit_length() == w3.bit_length() == 64
            assert (2 * w1 - 3) % p == (2 * w3 + 1) % p == 0

    def test_too_few_columns_raise_like_naive(self):
        scheme = self._scheme(k=3, n=5)
        shares = scheme.split(42)
        dup = [shares[0], shares[0], shares[1]]  # 2 distinct < k=3
        with pytest.raises(InsufficientSharesError):
            scheme.reconstruct(dup, method="lagrange")
        with pytest.raises(InsufficientSharesError):
            scheme.reconstruct(dup, method="gaussian")
        xs, y_columns = self._columns(scheme, [42], (0, 1))
        with pytest.raises(InsufficientSharesError):
            scheme.reconstruct_batch(xs, y_columns)

    def test_malformed_columns_rejected(self):
        scheme = self._scheme(k=2, n=4)
        xs, y_columns = self._columns(scheme, [7, 8], (0, 1, 2))
        with pytest.raises(SecretSharingError):
            scheme.reconstruct_batch(xs, y_columns)  # more than k
        with pytest.raises(SecretSharingError):
            scheme.reconstruct_batch(
                xs[:2], [y_columns[0], y_columns[1][:1]]
            )  # ragged
        with pytest.raises(FieldError):
            scheme.reconstruct_batch([xs[0], xs[0]], y_columns[:2])

    def test_duplicate_x_first_occurrence_wins_everywhere(self):
        """A server echoing another's x-coordinate with a different y:
        the canonical subset keeps the first occurrence, so every
        back-end — and the column join — reconstructs the same value."""
        scheme = self._scheme(k=2, n=3)
        shares = scheme.split(7)
        echo = Share(x=shares[0].x, y=(shares[0].y + 5) % DEFAULT_PRIME)
        fetched = [shares[0], echo, shares[1]]
        # The join's canonical columns: first occurrence per x.
        assert (
            scheme.reconstruct(fetched, "lagrange")
            == scheme.reconstruct(fetched, "gaussian")
            == scheme.reconstruct_batch(
                [shares[0].x, shares[1].x], [[shares[0].y], [shares[1].y]]
            )[0]
            == 7
        )


class TestBulkDecode:
    def test_matches_unpack_and_drops_what_it_rejects(self):
        codec = PostingElementCodec()
        rng = random.Random(2)
        good = [
            PostingElement(
                doc_id=rng.randrange(1 << 30),
                term_id=rng.randrange(4),
                tf=rng.uniform(0.001, 1.0),
            )
            for _ in range(50)
        ]
        secrets = [codec.pack(e) for e in good]
        bad = [1 << 64, DEFAULT_PRIME - 1, secrets[0] & ~0xFFF, 0]
        for secret in bad:
            with pytest.raises(PackingError):
                codec.unpack(secret)
        found, count = codec.unpack_terms(
            [(secrets[:25] + bad + secrets[25:], range(4))]
        )
        assert count == 54
        assert _flatten(dict(found)) == sorted(
            (e.term_id, e.doc_id, e.tf) for e in map(codec.unpack, secrets)
        )
        assert codec.unpack_terms([]) == codec.unpack_terms([([], {1})])
        assert codec.unpack_terms([]) == ([], 0)


@st.composite
def merged_column(draw):
    """A codec, one list's reconstructed secrets and a wanted set.

    Terms 0-4 fill the list; doc IDs come from a small pool, so a doc
    repeats within a term. The wanted set may be empty, and may name
    IDs (5-7) the list does not hold.
    """
    p, spec = draw(st.sampled_from(LAYOUTS))
    codec = PostingElementCodec(spec)
    limit = 1 << spec.secret_bits
    rng = random.Random(draw(st.integers(0, 2**24)))
    secrets = []
    for _ in range(draw(st.integers(0, 40))):
        kind = rng.random()
        if kind < 0.1:  # does not fit the packed width
            secrets.append(rng.randrange(limit, p))
        elif kind < 0.2:  # tf field of zero
            secrets.append(rng.randrange(limit) & ~spec.tf_scale)
        else:
            secrets.append(
                codec.pack(
                    PostingElement(
                        doc_id=rng.randrange(min(spec.max_doc_id + 1, 6)),
                        term_id=rng.randrange(5),
                        tf=rng.uniform(0.01, 1.0),
                    )
                )
            )
    wanted = draw(st.sets(st.integers(0, 7), max_size=4))
    return codec, secrets, wanted


@relaxed
@given(merged_column())
def test_filtered_decode_is_unpack_restricted_to_the_wanted_terms(case):
    codec, secrets, wanted = case
    expected = defaultdict(list)
    for secret in secrets:
        try:
            element = codec.unpack(secret)
        except PackingError:
            continue
        if element.term_id in wanted:
            expected[element.term_id].append((element.doc_id, element.tf))
    found, count = codec.unpack_terms([(secrets, wanted)])
    assert dict(found) == expected and count == len(secrets)
    assert [t for t, _ in found] == sorted(expected)
    grouped, _ = unpack_by_term(codec, secrets)
    assert dict(found) == {
        t: rows for t, rows in grouped.items() if t in wanted
    }


class TestFieldHelpers:
    def test_batch_inv_matches_single_inv(self):
        field = PrimeField(65537)
        rng = random.Random(3)
        values = [rng.randrange(1, field.p) for _ in range(40)]
        assert field.batch_inv(values) == [field.inv(v) for v in values]
        assert field.batch_inv([]) == []

    def test_batch_inv_rejects_zero(self):
        field = PrimeField(101)
        with pytest.raises(FieldError):
            field.batch_inv([5, 0, 7])

    def test_weights_reject_bad_supports(self):
        field = PrimeField(101)
        with pytest.raises(FieldError):
            field.lagrange_weights_at_zero((3, 3))
        with pytest.raises(FieldError):
            field.lagrange_weights_at_zero((3, 0))
