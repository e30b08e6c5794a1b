"""Shamir k-out-of-n secret sharing (paper §5.1, Algorithms 1a/1b).

Zerber encrypts every posting element with Shamir's scheme instead of keyed
encryption: the document owner builds a random polynomial ``f`` of degree
``k - 1`` whose constant term is the secret, and hands server ``i`` the point
``f(x_i)`` where ``x_i`` is that server's public x-coordinate. Any ``k``
shares reconstruct the secret; ``k - 1`` shares are information-theoretically
useless under any public, distinct, non-zero x's, so server ``s`` gets the
textbook ``x = s + 1``: the first k servers' Lagrange weights at zero are
then small signed integers, (2, -1) at k = 2. This module implements:

- :func:`split_secret` — Algorithm 1a (compute k-out-of-n shares);
- :func:`reconstruct_secret` — Algorithm 1b, with two interchangeable
  back-ends: Gaussian elimination over the Vandermonde system (exactly as the
  paper describes, O(k^3)) and Lagrange interpolation at zero (O(k^2), the
  back-end used by default);
- :class:`ShamirScheme` — a configured (k, n, field, x-coordinates) bundle
  that owners and servers share, supporting dynamic extension of ``n``
  ("Shamir's secret sharing scheme allows dynamic extension of the number n
  of servers without recalculating the existing secret shares").
"""

from __future__ import annotations

import random
import secrets
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from repro.errors import InsufficientSharesError, SecretSharingError
from repro.secretsharing.field import DEFAULT_PRIME, PrimeField

ReconstructMethod = Literal["lagrange", "gaussian"]


class _SystemRandomAdapter(random.Random):
    """A ``random.Random`` backed by the OS CSPRNG.

    Shamir coefficient randomness is security-critical (a predictable
    coefficient leaks the secret), so when callers do not inject an rng we
    use this adapter rather than the default Mersenne Twister. Tests inject
    seeded ``random.Random`` instances for determinism.
    """

    def random(self) -> float:  # pragma: no cover - delegated
        return secrets.SystemRandom().random()

    def getrandbits(self, k: int) -> int:
        return secrets.randbits(k)

    def randrange(self, start, stop=None, step=1) -> int:  # type: ignore[override]
        if stop is None:
            start, stop = 0, start
        width = stop - start
        if width <= 0:
            raise ValueError("empty range for randrange")
        return start + secrets.randbelow(width)

    def seed(self, *args, **kwargs) -> None:  # pragma: no cover - stateless
        return None


_DEFAULT_RNG = _SystemRandomAdapter()


@dataclass(frozen=True, slots=True)
class Share:
    """One server's share of one secret: the point ``(x, y)`` on ``f``.

    Attributes:
        x: the server's public x-coordinate in Z_p.
        y: ``f(x)`` — the confidential share value held by that server.
    """

    x: int
    y: int


def split_secret(
    secret: int,
    k: int,
    x_coordinates: Sequence[int],
    field: PrimeField | None = None,
    rng: random.Random | None = None,
) -> list[Share]:
    """Algorithm 1a: split ``secret`` into ``len(x_coordinates)`` shares.

    Builds ``f(x) = a_{k-1} x^{k-1} + ... + a_1 x + secret mod p`` with
    uniformly random coefficients and returns ``f(x_i)`` for each server
    x-coordinate.

    Args:
        secret: the value to protect; must lie in ``[0, p)``.
        k: reconstruction threshold (polynomial degree is ``k - 1``).
        x_coordinates: the public, distinct, non-zero x-coordinate of every
            share recipient (one per index server).
        field: the Z_p field; defaults to the library-wide 64-bit+ prime.
        rng: coefficient randomness; defaults to a CSPRNG.

    Returns:
        One :class:`Share` per x-coordinate, in the same order.

    Raises:
        SecretSharingError: on out-of-range secret, bad threshold, or
            duplicate / zero x-coordinates.
    """
    field = field or PrimeField(DEFAULT_PRIME)
    rng = rng or _DEFAULT_RNG
    n = len(x_coordinates)
    if k < 1:
        raise SecretSharingError(f"threshold k={k} must be >= 1")
    if n < k:
        raise SecretSharingError(f"need at least k={k} recipients, got {n}")
    if not 0 <= secret < field.p:
        raise SecretSharingError(
            f"secret {secret} outside field range [0, {field.p})"
        )
    normalized = [field.normalize(x) for x in x_coordinates]
    if len(set(normalized)) != n:
        raise SecretSharingError("x-coordinates must be distinct")
    if any(x == 0 for x in normalized):
        raise SecretSharingError("x-coordinate 0 would expose the secret")
    coefficients = [secret] + [field.random_element(rng) for _ in range(k - 1)]
    return [Share(x=x, y=field.poly_eval(coefficients, x)) for x in normalized]


def _reconstruct_gaussian(
    shares: Sequence[Share], k: int, field: PrimeField
) -> int:
    """Solve the k x k Vandermonde system ``y_i = sum a_j x_i^j`` for a_0.

    This is the verbatim Algorithm 1b: "Recover a0 by solving the following
    system of k linear equations ... with Gaussian elimination methods".
    """
    subset = shares[:k]
    matrix = [
        [field.pow(s.x, j) for j in range(k)]
        for s in subset
    ]
    rhs = [s.y for s in subset]
    solution = field.solve_linear_system(matrix, rhs)
    return solution[0]


def _choose_k_shares(
    shares: Iterable[Share], k: int, field: PrimeField
) -> list[Share]:
    """The canonical k-share subset every reconstruction back-end uses.

    First occurrence wins per distinct (normalized) x-coordinate, then
    the first ``k`` in arrival order — shared by the naive and Gaussian
    paths (the searcher's column join applies the same rule) so that,
    when shares disagree (a lying server), every back-end reconstructs
    from the *same* subset and stays byte-identical.
    """
    unique: dict[int, Share] = {}
    for share in shares:
        unique.setdefault(field.normalize(share.x), share)
    if len(unique) < k:
        raise InsufficientSharesError(
            f"need {k} distinct shares, got {len(unique)}"
        )
    return list(unique.values())[:k]


def reconstruct_secret(
    shares: Iterable[Share],
    k: int,
    field: PrimeField | None = None,
    method: ReconstructMethod = "lagrange",
) -> int:
    """Algorithm 1b: recover the secret from any ``k`` of the ``n`` shares.

    Args:
        shares: at least ``k`` shares with distinct x-coordinates. Extra
            shares beyond the first ``k`` are ignored (any k suffice).
        k: the reconstruction threshold used at split time.
        field: the Z_p field; must match the split-time field.
        method: ``"lagrange"`` (default, O(k^2)) or ``"gaussian"`` (the
            paper's O(k^3) linear-system formulation). Both return identical
            results; the benchmark harness compares their speed.

    Returns:
        The original secret (the polynomial's constant term).

    Raises:
        InsufficientSharesError: fewer than ``k`` distinct shares supplied.
        SecretSharingError: duplicate x-coordinates among the chosen shares.
    """
    field = field or PrimeField(DEFAULT_PRIME)
    chosen = _choose_k_shares(shares, k, field)
    if method == "gaussian":
        return _reconstruct_gaussian(chosen, k, field)
    if method == "lagrange":
        return field.lagrange_at_zero([(s.x, s.y) for s in chosen])
    raise SecretSharingError(f"unknown reconstruction method {method!r}")


class ShamirScheme:
    """A configured k-out-of-n deployment shared by owners and servers.

    The scheme owns the public parameters the paper says "are made public, so
    all users know them": the prime ``p`` and each server's x-coordinate
    ``x_i``. Document owners call :meth:`split`; querying clients call
    :meth:`reconstruct`; operators call :meth:`extend` to add servers without
    touching existing shares.
    """

    def __init__(
        self,
        k: int,
        n: int,
        field: PrimeField | None = None,
        rng: random.Random | None = None,
        x_coordinates: Sequence[int] | None = None,
    ) -> None:
        """Create a scheme with ``n`` servers and threshold ``k``.

        Args:
            k: reconstruction threshold (1 <= k <= n).
            n: number of index servers.
            field: field to operate in; defaults to the 64-bit+ prime.
            rng: share randomness when no per-call rng is given; the
                x-coordinates draw nothing from it.
            x_coordinates: explicit server x-coordinates (distinct, non-zero).
                When omitted, server ``s`` gets ``x = s + 1``.
        """
        if k < 1 or n < k:
            raise SecretSharingError(f"require 1 <= k <= n, got k={k} n={n}")
        self.field = field or PrimeField(DEFAULT_PRIME)
        self.k = k
        self._rng = rng or _DEFAULT_RNG
        if x_coordinates is None:
            x_coordinates = range(1, n + 1)
        coords = [self.field.normalize(x) for x in x_coordinates]
        if len(coords) != n:
            raise SecretSharingError(
                f"expected {n} x-coordinates, got {len(coords)}"
            )
        if len(set(coords)) != n or any(x == 0 for x in coords):
            raise SecretSharingError(
                "x-coordinates must be distinct and non-zero"
            )
        self._x_coordinates = coords
        #: Lagrange-at-zero basis weights, memoized per frozen x-tuple.
        #: The weights depend only on which server slots answered, so a
        #: query reconstructing thousands of posting elements from the
        #: same k slots pays the basis (and its modular inversions)
        #: exactly once; afterwards each element is a k-term dot product
        #: mod p. Values are idempotent, so concurrent readers may
        #: recompute the same entry harmlessly (no lock needed).
        self._weight_memo: dict[tuple[int, ...], tuple[int, ...]] = {}

    # -- public parameters -------------------------------------------------

    @property
    def n(self) -> int:
        """Current number of servers."""
        return len(self._x_coordinates)

    @property
    def x_coordinates(self) -> tuple[int, ...]:
        """The public x-coordinate of each server, index-aligned."""
        return tuple(self._x_coordinates)

    def x_of(self, server_index: int) -> int:
        """x-coordinate of server ``server_index`` (0-based)."""
        return self._x_coordinates[server_index]

    # -- operations ----------------------------------------------------------

    def split(self, secret: int, rng: random.Random | None = None) -> list[Share]:
        """Split ``secret`` into one share per configured server."""
        return split_secret(
            secret, self.k, self._x_coordinates, self.field, rng or self._rng
        )

    def split_many(
        self, secrets_: Sequence[int], rng: random.Random | None = None
    ) -> list[list[int]]:
        """Split a column of secrets into n share columns.

        Column ``j`` is aligned with ``x_coordinates[j]``, row ``i`` with
        ``secrets_[i]``: the share values :meth:`split` gives secret by
        secret ("the owner repeats this process to split all the
        elements for the document across the n servers", O(nN)) with no
        :class:`Share` per point. The k-1 coefficients are drawn secret
        by secret, exactly the draws successive :meth:`split` calls
        make — an equally seeded rng gives equal shares — and Horner's
        rule then runs once per server over whole coefficient columns.

        Raises:
            SecretSharingError: a secret outside ``[0, p)`` — checked
                for every secret before the first draw.
        """
        field, p = self.field, self.field.p
        rng = rng or self._rng
        secrets_ = list(secrets_)
        for secret in secrets_:
            if not 0 <= secret < p:
                raise SecretSharingError(
                    f"secret {secret} outside field range [0, {p})"
                )
        drawn = range(self.k - 1)
        draws = [[field.random_element(rng) for _ in drawn] for _ in secrets_]
        # Highest degree first, the constant term (the secret) last.
        coefficient_columns = [*zip(*draws)][::-1] + [secrets_]
        share_columns = []
        for x in self._x_coordinates:
            acc = list(coefficient_columns[0])
            for column in coefficient_columns[1:]:
                acc = [(a * x + c) % p for a, c in zip(acc, column)]
            share_columns.append(acc)
        return share_columns

    def reconstruct(
        self,
        shares: Iterable[Share],
        method: ReconstructMethod = "lagrange",
    ) -> int:
        """Recover a secret from any ``k`` of its shares.

        The naive ``"lagrange"`` / ``"gaussian"`` back-ends: the reference
        :meth:`reconstruct_batch` is benchmarked and property-tested
        against.
        """
        return reconstruct_secret(shares, self.k, self.field, method)

    def lagrange_weights(self, xs: tuple[int, ...]) -> tuple[int, ...]:
        """Memoized Lagrange-at-zero basis weights for one x-tuple, each
        its least-magnitude representative in (-p/2, p/2]: congruent to
        the field weight, and (2, -1) at x = (1, 2), (3, -3, 1) at
        x = (1, 2, 3). ``xs`` must already be normalized into [0, p) —
        the memo is keyed on the tuple verbatim.
        """
        weights = self._weight_memo.get(xs)
        if weights is None:
            p = self.field.p
            field_weights = self.field.lagrange_weights_at_zero(xs)
            weights = tuple(w - p if w > p >> 1 else w for w in field_weights)
            self._weight_memo[xs] = weights
        return weights

    def reconstruct_batch(
        self, xs: Sequence[int], y_columns: Sequence[Sequence[int]]
    ) -> list[int]:
        """Reconstruct a whole column of secrets from k share columns.

        The query hot path joins each fetched list into columns: the
        slot at ``xs[j]`` contributes ``y_columns[j]``, and row ``i``
        across the columns is one element's canonical k shares. The
        memoised weights of the x-tuple turn the column into list passes
        over plain ints — no per-element objects. At k = 2 that is one
        pass of ``(a + w1 * (b - a)) % p``, since the weights sum to 1;
        above it, k multiply-accumulate passes and one ``% p`` pass (the
        subtraction form there costs an int per term more than the
        multiply it saves). Least-magnitude weights keep each product
        narrow over x = (1, 2, ...): ``w1 = -1`` at k = 2. Either form
        equals the plain weighted sum mod p for any integer shares.
        Returns the secrets, row for row.

        Raises:
            InsufficientSharesError: fewer than k columns.
            SecretSharingError: more than k, or ragged, columns.
        """
        k = self.k
        if len(xs) < k or len(y_columns) < k:
            raise InsufficientSharesError(
                f"need {k} share columns, got {min(len(xs), len(y_columns))}"
            )
        if not len(xs) == len(y_columns) == k or any(
            len(column) != len(y_columns[0]) for column in y_columns
        ):
            raise SecretSharingError(
                f"need exactly {k} equally long share columns"
            )
        normalize = self.field.normalize
        weights = self.lagrange_weights(tuple(normalize(x) for x in xs))
        p = self.field.p
        if k == 2:
            # The weights sum to 1 mod p, so w0*a + w1*b = a + w1*(b - a)
            # mod p: one multiply an element, in one pass.
            w1 = weights[1]
            return [(a + w1 * (b - a)) % p for a, b in zip(*y_columns)]
        sums = [weights[0] * y for y in y_columns[0]]
        for weight, column in zip(weights[1:], y_columns[1:]):
            sums = [s + weight * y for s, y in zip(sums, column)]
        return [s % p for s in sums]

    def extend(self, additional_servers: int) -> list[int]:
        """Dynamically add servers by "just selecting additional points on the
        polynomial curve": x-coordinates past the largest, ``n+1 .. n+m``.

        Existing shares are untouched; the caller is responsible for
        re-running :meth:`split` (or a resharing protocol) to populate the
        new servers with shares of pre-existing secrets, or for only using
        the new coordinates for documents indexed from now on.

        Returns:
            The newly assigned x-coordinates, in server order.
        """
        if additional_servers < 1:
            raise SecretSharingError("must add at least one server")
        start = max(self._x_coordinates) + 1
        if start + additional_servers > self.field.p:
            raise SecretSharingError("no x-coordinates left in the field")
        new_coords = list(range(start, start + additional_servers))
        self._x_coordinates.extend(new_coords)
        return new_coords

    def share_for_new_server(
        self, secret: int, existing_shares: Sequence[Share], new_x: int
    ) -> Share:
        """Compute the share a newly added server would hold for an existing
        secret, given ``k`` existing shares (owner-side resharing helper).

        Reconstructs the full polynomial through the k points and evaluates
        it at ``new_x``; the secret itself never needs to be re-split.
        """
        if len(existing_shares) < self.k:
            raise InsufficientSharesError(
                f"need {self.k} shares to extend, got {len(existing_shares)}"
            )
        chosen = list(existing_shares)[: self.k]
        matrix = [[self.field.pow(s.x, j) for j in range(self.k)] for s in chosen]
        rhs = [s.y for s in chosen]
        coefficients = self.field.solve_linear_system(matrix, rhs)
        if coefficients[0] != self.field.normalize(secret):
            raise SecretSharingError(
                "existing shares do not reconstruct the claimed secret"
            )
        return Share(x=new_x, y=self.field.poly_eval(coefficients, new_x))
