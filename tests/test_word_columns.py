"""Share and secret columns as 64-bit words, against per-element oracles.

The read path keeps a share column as machine words from the seat to
the secret: ``ShamirScheme.reconstruct_batch`` is one numpy kernel for
p = 2^64 + 13 (32-bit limbs, ``2^64 = -13 (mod p)``), and
``PostingElementCodec.unpack_terms`` decodes a query's lists with
masks, compares and shifts. Here every form a column takes on its way
— a seat's words, a seat column that fell back to a list, a decoded
frame, a plain list, an ndarray — goes through the kernel and is held
to naive per-element Lagrange, and the decode to per-element
``unpack``; share values at the words' edges (0, 2^64 - 1, [2^64, p))
and secrets within 13 of them are forced.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter, defaultdict
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.posting import PackingSpec, PostingElement, PostingElementCodec
from repro.errors import PackingError, SecretSharingError
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.messages import FetchListsResponse
from repro.secretsharing.field import DEFAULT_PRIME, PrimeField
from repro.secretsharing.shamir import ShamirScheme, Share
from repro.server.index_server import PostingListResponse, SeatList
from tests.test_hotpath_reconstruct import ColumnClient, _response

P = DEFAULT_PRIME
EDGES = (0, 1, 12, 13, (1 << 64) - 1, 1 << 64, (1 << 64) + 12)
#: The canonical subsets' small weights and the failover subsets'
#: ~p/2-wide ones.
NAMED_SUBSETS = ((1,), (1, 2), (1, 3), (2, 3), (1, 2, 4), (1, 2, 3), (2, 4, 5))
FORMS = ("words", "seat", "seat-list", "wire", "list", "ndarray")

shares = st.one_of(
    st.integers(0, P - 1),
    st.sampled_from(EDGES),
    st.integers(1 << 64, P - 1),
)
subsets = st.one_of(
    st.sampled_from(NAMED_SUBSETS),
    st.integers(1, 6).flatmap(
        lambda k: st.lists(
            st.integers(1, 8), min_size=k, max_size=k, unique=True
        ).map(tuple)
    ),
)


def _column(values: list[int], form: str):
    """``values`` the way a share column reaches the client."""
    if form in ("seat", "seat-list"):
        plist = SeatList(list(range(len(values))), [1] * len(values), values)
        if form == "seat-list" and type(plist.share_ys) is array:
            plist.widen_shares()
        _stamp, response, _groups = plist.build_snapshot(0)
        return response.share_ys
    if form == "wire":
        response = PostingListResponse(
            0, list(range(len(values))), [1] * len(values), values
        )
        (decoded,) = decode_message(
            encode_message(FetchListsResponse(lists=(response,)))
        ).lists
        return decoded.share_ys
    if form == "words":
        try:
            return array("Q", values)
        except OverflowError:
            return values
    if form == "ndarray":
        try:
            return np.array(values, dtype=np.uint64)
        except OverflowError:
            return np.array(values, dtype=object)
    return values


@st.composite
def share_columns(draw):
    xs = draw(subsets)
    rows = draw(st.lists(st.tuples(*[shares] * len(xs)), max_size=16))
    return xs, rows, draw(st.sampled_from(FORMS))


def _reconstruct_both(xs, rows, form):
    scheme = ShamirScheme(k=len(xs), n=8)
    columns = [_column(list(c), form) for c in zip(*rows)]
    got = scheme.reconstruct_batch(xs, columns or [[]] * len(xs))
    expected = [
        scheme.reconstruct([Share(x, y) for x, y in zip(xs, row)])
        for row in rows
    ]
    return got, expected


@settings(max_examples=300, deadline=None)
@given(share_columns())
@example(((1, 3), [(0, (1 << 64) - 1), (1 << 64, P - 1)], "seat-list"))
@example(((1, 2), [((1 << 64) - 1, 0), (P - 1, 1 << 64)], "wire"))
@example(((1, 2, 4), [(0, 1 << 64, (1 << 64) - 1)] * 3, "seat-list"))
@example(((2, 3), [(P - 1, P - 1), (0, 0)], "words"))
@example(((1,), [(1 << 64,), ((1 << 64) - 1,), (0,)], "seat"))
def test_reconstruct_batch_equals_per_element_reconstruct(case):
    got, expected = _reconstruct_both(*case)
    assert got.tolist() == expected
    # Words unless some secret is past a word.
    assert got.dtype == (object if max(expected, default=0) >> 64 else np.uint64)


@pytest.mark.parametrize("xs", NAMED_SUBSETS)
def test_secrets_at_the_words_edges(xs):
    """A secret within 13 of 0, 2^64 or p is where the kernel's last
    step wraps: split such secrets and read them back from every form."""
    scheme = ShamirScheme(k=len(xs), n=8, rng=random.Random(len(xs)))
    secrets = [*range(27), *range((1 << 64) - 13, P)]
    rows = [
        tuple(share.y for share in scheme.split(s) if share.x in xs)
        for s in secrets
    ]
    for form in FORMS:
        got, expected = _reconstruct_both(xs, rows, form)
        assert got.tolist() == expected == secrets


def test_the_kernel_serves_its_own_field_only():
    scheme = ShamirScheme(k=2, n=3, field=PrimeField(65537))
    with pytest.raises(SecretSharingError, match="2\\^64"):
        scheme.reconstruct_batch((1, 2), [[1], [2]])


def test_verify_consistency_votes_through_the_kernel(monkeypatch):
    """``_cross_check``'s k-subsets are ``reconstruct_batch`` calls, all
    lists of a query in one call per subset, and a lone liar among
    k + 2 seats is outvoted on every element."""
    scheme = ShamirScheme(k=2, n=4, rng=random.Random(3))
    codec = PostingElementCodec()
    truth = {}
    for pl_id in (7, 8):
        for element_id in range(5):
            truth[pl_id, element_id] = codec.pack(
                PostingElement(doc_id=element_id, term_id=pl_id, tf=0.5)
            )
    shares = {key: scheme.split(secret) for key, secret in truth.items()}
    fetched = []
    for slot in range(4):
        lie = (1 << 63) if slot == 2 else 0
        fetched.append((slot, [
            _response_of(pl_id, [
                (e, (shares[pl_id, e][slot].y + lie) % P) for e in range(5)
            ])
            for pl_id in (7, 8)
        ]))
    calls = []
    original = ShamirScheme.reconstruct_batch

    def counting(self, xs, y_columns):
        calls.append((tuple(xs), len(y_columns[0])))
        return original(self, xs, y_columns)

    monkeypatch.setattr(ShamirScheme, "reconstruct_batch", counting)
    client = ColumnClient(scheme, codec, fetched, verify=True)
    secrets_of = client._reconstruct_lists([7, 8], 4)
    xs = tuple(scheme.x_of(slot) for slot in range(4))
    assert calls == [(subset, 10) for subset in combinations(xs, 2)]
    for pl_id in (7, 8):
        assert secrets_of[pl_id].tolist() == [
            truth[pl_id, e] for e in range(5)
        ]
    diagnostics = client.last_diagnostics
    assert diagnostics.inconsistent_elements == 10
    assert diagnostics.recovered_elements == 10


def test_a_query_runs_the_kernel_once_per_x_tuple(monkeypatch):
    """Three lists, two answered by slots (0, 1) and one, after a
    failover, by slots (0, 2): two kernel calls, the first over both
    lists of its x-tuple concatenated, and every list gets its own
    secrets back."""
    scheme = ShamirScheme(k=2, n=3, rng=random.Random(5))
    codec = PostingElementCodec()
    sizes = {7: 3, 8: 4, 9: 2}
    truth = {
        pl_id: [
            codec.pack(PostingElement(doc_id=d, term_id=pl_id, tf=0.25))
            for d in range(size)
        ]
        for pl_id, size in sizes.items()
    }
    shares = {pl_id: [scheme.split(s) for s in v] for pl_id, v in truth.items()}
    slots_of = {7: (0, 1), 8: (0, 2), 9: (0, 1)}
    fetched = [
        (slot, [
            _response_of(pl_id, [
                (e, row[slot].y) for e, row in enumerate(shares[pl_id])
            ])
            for pl_id in sizes
            if slot in slots_of[pl_id]
        ])
        for slot in range(3)
    ]
    calls = []
    original = ShamirScheme.reconstruct_batch

    def counting(self, xs, y_columns):
        calls.append((tuple(xs), len(y_columns[0])))
        return original(self, xs, y_columns)

    monkeypatch.setattr(ShamirScheme, "reconstruct_batch", counting)
    client = ColumnClient(scheme, codec, fetched)
    secrets_of = client._reconstruct_lists([7, 8, 9], 2)
    assert calls == [((1, 2), 5), ((1, 3), 4)]
    assert {p: v.tolist() for p, v in secrets_of.items()} == truth
    assert client.last_diagnostics.elements_received == 9


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 3),
    extra=st.integers(1, 3),
    rows=st.integers(0, 12),
    lies=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 11), st.sampled_from(
            (1, 2, 1 << 63, P - 1)
        )),
        max_size=12,
    ),
)
def test_the_vote_is_the_per_element_plurality(k, extra, rows, lies):
    """``_cross_check``'s vote over the k-subsets equals a per-element
    ``Counter`` plurality: the canonical secret where every subset
    agrees, the strict plurality where one exists, else 0; lies of one
    delta at several seats collude, distinct deltas do not."""
    m = k + extra
    scheme = ShamirScheme(k=k, n=m, rng=random.Random(rows))
    shares = [[s.y for s in scheme.split(r * 7919)] for r in range(rows)]
    for slot, row, delta in lies:
        if slot < m and row < rows:
            shares[row][slot] = (shares[row][slot] + delta) % P
    xs = tuple(scheme.x_of(slot) for slot in range(m))
    y_columns = [[row[j] for row in shares] for j in range(m)]
    subsets = list(combinations(range(m), k))[:21]
    expected, split, won = [], 0, 0
    for row in shares:
        values = [
            scheme.reconstruct([Share(xs[i], row[i]) for i in subset])
            for subset in subsets
        ]
        counts = Counter(values)
        secret = values[0]
        if len(counts) > 1:
            split += 1
            (value, top), (_, runner_up) = counts.most_common(2)
            won += top > runner_up
            secret = value if top > runner_up else 0
        expected.append(secret)
    client = ColumnClient(scheme, PostingElementCodec(), [], verify=True)
    canonical = scheme.reconstruct_batch(xs[:k], y_columns[:k])
    got = client._cross_check(xs, y_columns, canonical)
    assert got.tolist() == expected
    diagnostics = client.last_diagnostics
    assert diagnostics.inconsistent_elements == split
    assert diagnostics.recovered_elements == won


def _response_of(pl_id, rows):
    response = _response(rows)
    return PostingListResponse(pl_id, *response.columns)


# -- the decode ---------------------------------------------------------------

SPECS = (
    PackingSpec(),
    PackingSpec(doc_id_bits=6, term_id_bits=3, tf_bits=3),
    # Wider than a word: the decode works on the ints themselves.
    PackingSpec(doc_id_bits=40, term_id_bits=10, tf_bits=20),
)


@st.composite
def decode_case(draw):
    """A codec and a query's lists: each list's secrets (terms 0-5,
    tf fields of zero, values past the packed width or past 2^64) in
    one column form, and the terms its list was asked for."""
    spec = draw(st.sampled_from(SPECS))
    codec = PostingElementCodec(spec)
    limit = 1 << spec.secret_bits
    rng = random.Random(draw(st.integers(0, 2**24)))
    lists = []
    for _ in range(draw(st.integers(0, 4))):
        secrets = []
        for _ in range(draw(st.integers(0, 24))):
            kind = rng.random()
            if kind < 0.1:  # past the packed width, or past a word
                secrets.append(rng.randrange(min(limit, P), P + limit))
            elif kind < 0.2:  # tf field of zero
                secrets.append(rng.randrange(min(limit, P)) & ~spec.tf_scale)
            elif kind < 0.25:
                secrets.append(rng.choice(EDGES))
            else:
                secrets.append(
                    codec.pack(
                        PostingElement(
                            doc_id=rng.randrange(min(spec.max_doc_id + 1, 9)),
                            term_id=rng.randrange(6),
                            tf=rng.uniform(0.001, 1.0),
                        )
                    )
                )
        form = draw(st.sampled_from(("words", "list", "ndarray")))
        wanted = draw(st.sets(st.integers(0, 7), max_size=3))
        lists.append((_column(secrets, form), wanted, secrets))
    return codec, lists


@settings(max_examples=300, deadline=None)
@given(decode_case())
def test_word_decode_equals_per_element_unpack(case):
    """In list order, then term order, rows in arrival order; a row of
    another list's term (foreign) is dropped like merged-in noise."""
    codec, lists = case
    expected, count = [], 0
    for _column_form, wanted, secrets in lists:
        count += len(secrets)
        by_term = defaultdict(list)
        for secret in secrets:
            try:
                element = codec.unpack(secret)
            except PackingError:
                continue
            if element.term_id in wanted:
                by_term[element.term_id].append((element.doc_id, element.tf))
        expected += [(t, by_term[t]) for t in sorted(by_term)]
    found, decoded = codec.unpack_terms(
        [(column, wanted) for column, wanted, _ in lists]
    )
    assert found == expected and decoded == count
    for (term_id, postings), _ in zip(found, expected):
        assert all(
            type(doc) is int and type(tf) is float for doc, tf in postings
        )
