"""Unit + property tests for Shamir secret sharing (Algorithms 1a/1b)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InsufficientSharesError, SecretSharingError
from repro.protocol.codec import Reader, read_columns, write_columns
from repro.secretsharing.field import DEFAULT_PRIME, PrimeField
from repro.secretsharing.shamir import (
    ShamirScheme,
    Share,
    reconstruct_secret,
    split_secret,
)

PRIME = (1 << 31) - 1
FIELD = PrimeField(PRIME)


def make_rng():
    return random.Random(0x5A5A)


class TestSplit:
    def test_produces_one_share_per_coordinate(self):
        shares = split_secret(42, 2, [1, 2, 3], FIELD, make_rng())
        assert [s.x for s in shares] == [1, 2, 3]

    def test_shares_differ_from_secret(self):
        # With k >= 2 the share values are blinded by random coefficients.
        shares = split_secret(42, 2, [1, 2, 3], FIELD, make_rng())
        assert any(s.y != 42 for s in shares)

    def test_k1_degenerate_scheme_replicates_secret(self):
        # k = 1: the polynomial is the constant secret.
        shares = split_secret(42, 1, [5, 9], FIELD, make_rng())
        assert all(s.y == 42 for s in shares)

    def test_rejects_secret_out_of_range(self):
        with pytest.raises(SecretSharingError):
            split_secret(PRIME, 2, [1, 2, 3], FIELD, make_rng())
        with pytest.raises(SecretSharingError):
            split_secret(-1, 2, [1, 2, 3], FIELD, make_rng())

    def test_rejects_duplicate_coordinates(self):
        with pytest.raises(SecretSharingError):
            split_secret(42, 2, [1, 1, 3], FIELD, make_rng())

    def test_rejects_zero_coordinate(self):
        # f(0) IS the secret; a server at x=0 would hold it in plain.
        with pytest.raises(SecretSharingError):
            split_secret(42, 2, [0, 1, 2], FIELD, make_rng())

    def test_rejects_fewer_recipients_than_threshold(self):
        with pytest.raises(SecretSharingError):
            split_secret(42, 4, [1, 2, 3], FIELD, make_rng())

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(SecretSharingError):
            split_secret(42, 0, [1, 2], FIELD, make_rng())


class TestReconstruct:
    def test_roundtrip(self):
        shares = split_secret(123456, 3, [1, 2, 3, 4, 5], FIELD, make_rng())
        assert reconstruct_secret(shares, 3, FIELD) == 123456

    def test_any_k_subset_suffices(self):
        secret = 987654321
        shares = split_secret(secret, 2, [1, 2, 3], FIELD, make_rng())
        for subset in itertools.combinations(shares, 2):
            assert reconstruct_secret(list(subset), 2, FIELD) == secret

    def test_fewer_than_k_raises(self):
        shares = split_secret(7, 3, [1, 2, 3], FIELD, make_rng())
        with pytest.raises(InsufficientSharesError):
            reconstruct_secret(shares[:2], 3, FIELD)

    def test_duplicate_shares_do_not_count_twice(self):
        shares = split_secret(7, 2, [1, 2], FIELD, make_rng())
        with pytest.raises(InsufficientSharesError):
            reconstruct_secret([shares[0], shares[0]], 2, FIELD)

    def test_gaussian_matches_lagrange(self):
        shares = split_secret(31337, 3, [2, 5, 11, 17], FIELD, make_rng())
        lag = reconstruct_secret(shares, 3, FIELD, method="lagrange")
        gau = reconstruct_secret(shares, 3, FIELD, method="gaussian")
        assert lag == gau == 31337

    def test_unknown_method_raises(self):
        shares = split_secret(1, 2, [1, 2], FIELD, make_rng())
        with pytest.raises(SecretSharingError):
            reconstruct_secret(shares, 2, FIELD, method="magic")

    def test_wrong_k_shares_give_wrong_secret(self):
        # Reconstructing a k=3 split with k=2 must NOT recover the secret
        # (this is the k-1 collusion failure, deterministically).
        shares = split_secret(999, 3, [1, 2, 3], FIELD, make_rng())
        wrong = reconstruct_secret(shares[:2], 2, FIELD)
        assert wrong != 999


@settings(max_examples=40, deadline=None)
@given(
    secret=st.integers(min_value=0, max_value=PRIME - 1),
    k=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_roundtrip_any_k_of_n(secret, k, extra, seed):
    """Any k of the n shares reconstruct; both methods agree."""
    rng = random.Random(seed)
    n = k + extra
    xs = rng.sample(range(1, 10_000), n)
    shares = split_secret(secret, k, xs, FIELD, rng)
    chosen = rng.sample(shares, k)
    assert reconstruct_secret(chosen, k, FIELD, "lagrange") == secret
    assert reconstruct_secret(chosen, k, FIELD, "gaussian") == secret


@settings(max_examples=25, deadline=None)
@given(
    secret=st.integers(min_value=0, max_value=PRIME - 1),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_k_minus_1_shares_are_uninformative(secret, seed):
    """Reconstruction from k-1 shares yields an unrelated field element.

    (The distributional zero-information property is tested in
    test_attacks_collusion; here we pin the mechanical failure.)
    """
    rng = random.Random(seed)
    shares = split_secret(secret, 3, [1, 2, 3, 4], FIELD, rng)
    with pytest.raises(InsufficientSharesError):
        reconstruct_secret(shares[:2], 3, FIELD)


class TestShamirScheme:
    def test_coordinates_distinct_nonzero(self):
        scheme = ShamirScheme(k=2, n=5, field=FIELD, rng=make_rng())
        xs = scheme.x_coordinates
        assert len(set(xs)) == 5
        assert all(x != 0 for x in xs)

    def test_invalid_k_n(self):
        with pytest.raises(SecretSharingError):
            ShamirScheme(k=4, n=3, field=FIELD)
        with pytest.raises(SecretSharingError):
            ShamirScheme(k=0, n=3, field=FIELD)

    def test_explicit_coordinates_validated(self):
        with pytest.raises(SecretSharingError):
            ShamirScheme(k=2, n=3, field=FIELD, x_coordinates=[1, 1, 2])
        with pytest.raises(SecretSharingError):
            ShamirScheme(k=2, n=3, field=FIELD, x_coordinates=[0, 1, 2])
        with pytest.raises(SecretSharingError):
            ShamirScheme(k=2, n=3, field=FIELD, x_coordinates=[1, 2])

    def test_split_reconstruct(self):
        scheme = ShamirScheme(k=2, n=3, field=FIELD, rng=make_rng())
        shares = scheme.split(777)
        assert scheme.reconstruct(shares[:2]) == 777
        assert scheme.reconstruct(shares[1:]) == 777

    @settings(max_examples=60, deadline=None)
    @given(
        field=st.sampled_from([FIELD, PrimeField(DEFAULT_PRIME)]),
        k_n=st.integers(1, 5).flatmap(
            lambda k: st.tuples(st.just(k), st.integers(k, 7))
        ),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_split_many(self, field, k_n, seed, data):
        """The column form against Algorithm 1a, one secret at a time."""
        k, n = k_n
        scheme = ShamirScheme(k=k, n=n, field=field, rng=random.Random(seed))
        secrets_ = data.draw(
            st.lists(st.integers(0, field.p - 1), max_size=12), label="secrets"
        )
        column_rng, oracle_rng = random.Random(seed), random.Random(seed)
        columns = scheme.split_many(secrets_, column_rng)
        oracle = [scheme.split(secret, oracle_rng) for secret in secrets_]
        # Draw order pinned: share for share what successive splits give,
        # and the rng left where they leave it.
        assert columns == [
            [shares[j].y for shares in oracle] for j in range(n)
        ]
        assert column_rng.getstate() == oracle_rng.getstate()
        if k == 1:
            assert columns == [secrets_] * n
        # Any k columns give the secrets back, column-wise and row-wise.
        slots = data.draw(st.permutations(range(n)), label="slots")[:k]
        xs = [scheme.x_of(j) for j in slots]
        assert (
            scheme.reconstruct_batch(xs, [columns[j] for j in slots])
            == secrets_
        )
        for method in ("lagrange", "gaussian"):
            assert [
                reconstruct_secret(
                    [Share(x, columns[j][i]) for x, j in zip(xs, slots)],
                    k,
                    field,
                    method=method,
                )
                for i in range(len(secrets_))
            ] == secrets_

    def test_split_many_edge_secrets_and_two_limb_shares(self):
        p = DEFAULT_PRIME
        secrets_ = [0, 1, p - 1, 1 << 64, (1 << 64) + 12]
        scheme = ShamirScheme(k=2, n=3, rng=make_rng())
        columns = scheme.split_many(secrets_, make_rng())
        assert scheme.reconstruct_batch(
            scheme.x_coordinates[1:], columns[1:]
        ) == secrets_

        class ZeroCoefficients(random.Random):
            def randrange(self, *args):
                return 0

        # A zero slope makes every share its secret: 2**64 and p - 1 are
        # shares that need a second 64-bit limb on the wire.
        columns = scheme.split_many(secrets_, ZeroCoefficients())
        assert columns == [secrets_] * 3
        assert max(columns[0]) >= 1 << 64
        out = bytearray()
        write_columns(out, *columns)
        assert out[1] == 9  # the first column's width byte
        assert read_columns(Reader(bytes(out)), 3) == columns

    @settings(max_examples=120, deadline=None)
    @given(
        field=st.sampled_from([FIELD, PrimeField(DEFAULT_PRIME)]),
        k=st.integers(2, 5),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_reconstruct_batch_equals_the_weighted_sum(
        self, field, k, seed, data
    ):
        """The k - 1 multiply form is the plain weighted sum mod p for
        any integers: shares in the field, past p, past 2^64, negative."""
        scheme = ShamirScheme(
            k=k, n=k + 2, field=field, rng=random.Random(seed)
        )
        slots = data.draw(st.permutations(range(k + 2)), label="slots")[:k]
        xs = [scheme.x_of(j) for j in slots]
        ys = st.integers(0, field.p - 1) | st.integers(-(2**80), 2**80)
        rows = data.draw(st.lists(st.tuples(*[ys] * k), max_size=12))
        y_columns = [list(column) for column in zip(*rows)] or [[]] * k
        weights = scheme.lagrange_weights(tuple(xs))
        expected = [
            sum(w * y for w, y in zip(weights, row)) % field.p for row in rows
        ]
        assert scheme.reconstruct_batch(xs, y_columns) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        field=st.sampled_from([FIELD, PrimeField(DEFAULT_PRIME)]),
        k=st.integers(2, 5),
        extra=st.integers(0, 3),
        data=st.data(),
    )
    def test_reconstruct_batch_over_every_subset_of_the_default_xs(
        self, field, k, extra, data
    ):
        """x = 1..n by default; over every k-subset of it, consecutive
        or not, the column form equals naive Lagrange per row and the
        field-weighted sum, for shares in the field, past p, past 2^64
        and negative."""
        n = k + extra
        scheme = ShamirScheme(k=k, n=n, field=field)
        assert scheme.x_coordinates == tuple(range(1, n + 1))
        ys = (
            st.integers(0, field.p - 1)
            | st.integers(field.p, 2**80)
            | st.integers(-(2**80), -1)
        )
        rows = data.draw(st.lists(st.tuples(*[ys] * k), max_size=8))
        y_columns = [list(column) for column in zip(*rows)] or [[]] * k
        for xs in itertools.combinations(scheme.x_coordinates, k):
            field_weights = field.lagrange_weights_at_zero(xs)
            assert scheme.reconstruct_batch(xs, y_columns) == [
                field.lagrange_at_zero(list(zip(xs, row))) for row in rows
            ] == [
                sum(w * y for w, y in zip(field_weights, row)) % field.p
                for row in rows
            ]

    def test_split_many_empty_input_gives_n_empty_columns(self):
        for k, n in ((1, 1), (2, 3), (3, 5)):
            scheme = ShamirScheme(k=k, n=n, field=FIELD, rng=make_rng())
            rng = make_rng()
            assert scheme.split_many([], rng) == [[] for _ in range(n)]
            assert rng.getstate() == make_rng().getstate()

    @pytest.mark.parametrize("bad", [-1, PRIME, PRIME + 5])
    def test_split_many_rejects_a_secret_before_any_draw(self, bad):
        scheme = ShamirScheme(k=3, n=5, field=FIELD, rng=make_rng())
        rng = make_rng()
        with pytest.raises(SecretSharingError):
            scheme.split_many([1, 2, 3, bad], rng)  # offender last
        assert rng.getstate() == make_rng().getstate()

    def test_split_many_defaults_to_the_csprng_adapter(self, monkeypatch):
        scheme = ShamirScheme(k=3, n=4, field=FIELD, x_coordinates=[1, 2, 3, 4])
        drawn = []

        def counting_randbelow(bound):
            drawn.append(bound)
            return 7

        monkeypatch.setattr(
            "repro.secretsharing.shamir.secrets.randbelow", counting_randbelow
        )
        twister_state = random.getstate()
        columns = scheme.split_many([10, 20, 30])
        # Two coefficients per secret, all from the OS CSPRNG; the
        # module-level Mersenne Twister was never consulted.
        assert drawn == [PRIME] * 6
        assert random.getstate() == twister_state
        assert columns == [
            [(7 * x * x + 7 * x + s) % PRIME for s in (10, 20, 30)]
            for x in (1, 2, 3, 4)
        ]

    def test_extend_adds_fresh_coordinates(self):
        scheme = ShamirScheme(k=2, n=3, field=FIELD, rng=make_rng())
        before = set(scheme.x_coordinates)
        new = scheme.extend(2)
        assert scheme.n == 5
        assert len(new) == 2
        assert before.isdisjoint(new)

    def test_default_coordinates_draw_nothing_and_extend_continues_them(
        self,
    ):
        rng = make_rng()
        scheme = ShamirScheme(k=2, n=3, field=FIELD, rng=rng)
        assert rng.getstate() == make_rng().getstate()
        assert scheme.x_coordinates == (1, 2, 3)
        assert scheme.extend(2) == [4, 5]
        assert scheme.x_coordinates == (1, 2, 3, 4, 5)
        assert scheme.x_of(4) == 5
        assert rng.getstate() == make_rng().getstate()

    def test_default_coordinates_need_a_field_wider_than_n(self):
        small = PrimeField(7)
        with pytest.raises(SecretSharingError):
            ShamirScheme(k=2, n=7, field=small)  # x = 7 is 0 in Z_7
        scheme = ShamirScheme(k=2, n=5, field=small)
        with pytest.raises(SecretSharingError):
            scheme.extend(2)
        assert scheme.extend(1) == [6]

    def test_extend_requires_positive(self):
        scheme = ShamirScheme(k=2, n=3, field=FIELD, rng=make_rng())
        with pytest.raises(SecretSharingError):
            scheme.extend(0)

    def test_share_for_new_server_joins_existing_polynomial(self):
        # §5.1: "dynamic extension of the number n of servers without
        # recalculating the existing secret shares".
        scheme = ShamirScheme(
            k=2, n=3, field=FIELD, rng=make_rng(), x_coordinates=[10, 20, 30]
        )
        secret = 5150
        shares = scheme.split(secret)
        new_share = scheme.share_for_new_server(secret, shares, new_x=40)
        # Old share + new share still reconstruct the same secret.
        assert scheme.reconstruct([shares[0], new_share]) == secret

    def test_share_for_new_server_rejects_wrong_secret(self):
        scheme = ShamirScheme(
            k=2, n=3, field=FIELD, rng=make_rng(), x_coordinates=[10, 20, 30]
        )
        shares = scheme.split(5150)
        with pytest.raises(SecretSharingError):
            scheme.share_for_new_server(9999, shares, new_x=40)

    def test_share_for_new_server_needs_k_shares(self):
        scheme = ShamirScheme(
            k=3, n=4, field=FIELD, rng=make_rng(), x_coordinates=[1, 2, 3, 4]
        )
        shares = scheme.split(11)
        with pytest.raises(InsufficientSharesError):
            scheme.share_for_new_server(11, shares[:2], new_x=9)

    def test_default_rng_is_crypto_backed(self):
        # Without an injected rng, two splits of the same secret must
        # produce different blinding (overwhelmingly).
        scheme = ShamirScheme(k=2, n=3, field=FIELD, x_coordinates=[1, 2, 3])
        a = scheme.split(5)
        b = scheme.split(5)
        assert [s.y for s in a] != [s.y for s in b]
