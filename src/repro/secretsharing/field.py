"""Prime-field arithmetic for Shamir secret sharing (paper §5.1).

The paper performs "all the operations ... in the finite field Z_p" where the
prime ``p`` is chosen large enough that any posting element (a 64-bit packed
``[doc_ID, term_ID, tf]`` triple, §5.2/§7.3) is a valid secret. We default to
``p = 2**64 + 13``, the smallest prime above 2**64, so every 64-bit wire
element is representable, and expose the field as an explicit object so tests
and benchmarks can use small fields.

Primality is checked with a deterministic Miller–Rabin: for moduli below
3.3 * 10**24 the witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} is
provably sufficient; larger moduli fall back to 64 random-basis rounds, which
is overwhelming for any practical use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import FieldError

# Smallest prime above 2**64; every 64-bit packed posting element fits.
DEFAULT_PRIME = (1 << 64) + 13

# Deterministic Miller-Rabin witnesses, valid for all n < 3.317e24
# (Sorenson & Webster 2015).
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
)


def _miller_rabin_round(n: int, d: int, s: int, a: int) -> bool:
    """One Miller-Rabin round: return True if ``a`` witnesses compositeness."""
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(s - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int, rng: random.Random | None = None) -> bool:
    """Primality test: deterministic Miller–Rabin below ~3.3e24, probabilistic above.

    Args:
        n: candidate integer.
        rng: randomness source for the probabilistic fallback (only consulted
            for ``n`` beyond the deterministic bound).

    Returns:
        True iff ``n`` is (with overwhelming probability, for huge ``n``) prime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _DETERMINISTIC_BOUND:
        witnesses = [a for a in _DETERMINISTIC_WITNESSES if a < n - 1]
    else:
        rng = rng or random.Random(0x5EED)
        witnesses = [rng.randrange(2, n - 1) for _ in range(64)]
    return not any(_miller_rabin_round(n, d, s, a) for a in witnesses)


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than ``n`` (used to size custom fields)."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


@dataclass(frozen=True)
class PrimeField:
    """The finite field Z_p that all secret-sharing arithmetic runs in.

    Instances are immutable and cheap; all methods reduce their operands
    modulo ``p`` so callers may pass any integers.

    Attributes:
        p: the prime modulus. Must be prime — verified at construction.
    """

    p: int

    def __post_init__(self) -> None:
        if self.p < 2 or not is_prime(self.p):
            raise FieldError(f"modulus {self.p} is not prime")

    @property
    def share_bytes(self) -> int:
        """Wire width of one share value: ceil(bits(p) / 8) bytes."""
        return (self.p.bit_length() + 7) // 8

    # -- basic operations -------------------------------------------------

    def normalize(self, a: int) -> int:
        """Map any integer into the canonical range [0, p)."""
        return a % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat's little theorem.

        Raises:
            FieldError: if ``a`` is congruent to 0 (zero has no inverse).
        """
        a %= self.p
        if a == 0:
            raise FieldError("0 has no multiplicative inverse")
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def batch_inv(self, values: list[int]) -> list[int]:
        """Invert many nonzero elements with one modular exponentiation.

        Montgomery's trick: multiply the values into a prefix-product
        chain, invert only the final product, then peel the individual
        inverses back off the chain. Cuts ``len(values)`` Fermat
        exponentiations down to one — the difference between a Lagrange
        basis costing k modexps and costing one.

        Raises:
            FieldError: if any value is congruent to 0.
        """
        if not values:
            return []
        prefix: list[int] = []
        acc = 1
        for v in values:
            v %= self.p
            if v == 0:
                raise FieldError("0 has no multiplicative inverse")
            prefix.append(acc)
            acc = (acc * v) % self.p
        inv_acc = self.inv(acc)
        out = [0] * len(values)
        for i in range(len(values) - 1, -1, -1):
            out[i] = (inv_acc * prefix[i]) % self.p
            inv_acc = (inv_acc * values[i]) % self.p
        return out

    def pow(self, a: int, e: int) -> int:
        return pow(a % self.p, e, self.p)

    # -- polynomials -------------------------------------------------------

    def poly_eval(self, coefficients: list[int], x: int) -> int:
        """Evaluate ``sum(c_i * x**i)`` by Horner's rule in the field.

        ``coefficients[0]`` is the constant term — for Shamir, the secret.
        """
        acc = 0
        for c in reversed(coefficients):
            acc = (acc * x + c) % self.p
        return acc

    def random_element(self, rng: random.Random) -> int:
        """Uniform element of Z_p (used for Shamir coefficients)."""
        return rng.randrange(self.p)

    # -- linear algebra ----------------------------------------------------

    def solve_linear_system(
        self, matrix: list[list[int]], rhs: list[int]
    ) -> list[int]:
        """Solve ``A x = b`` over Z_p by Gaussian elimination with pivoting.

        This is the reconstruction path the paper specifies in Algorithm 1b
        ("Recover a0 by solving the following system of k linear equations",
        O(k^3)). Lagrange interpolation in :mod:`.shamir` is the faster
        alternative for recovering only the constant term.

        Args:
            matrix: square coefficient matrix (rows of equal length).
            rhs: right-hand-side vector, one entry per row.

        Returns:
            The solution vector.

        Raises:
            FieldError: if the matrix is singular or malformed.
        """
        n = len(matrix)
        if n == 0 or len(rhs) != n or any(len(row) != n for row in matrix):
            raise FieldError("linear system must be square with matching rhs")
        # Work on an augmented copy so callers' data is untouched.
        aug = [
            [self.normalize(v) for v in row] + [self.normalize(b)]
            for row, b in zip(matrix, rhs)
        ]
        for col in range(n):
            pivot_row = next(
                (r for r in range(col, n) if aug[r][col] != 0), None
            )
            if pivot_row is None:
                raise FieldError("singular matrix: shares are not independent")
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            inv_pivot = self.inv(aug[col][col])
            aug[col] = [(v * inv_pivot) % self.p for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    factor = aug[r][col]
                    aug[r] = [
                        (vr - factor * vc) % self.p
                        for vr, vc in zip(aug[r], aug[col])
                    ]
        return [row[n] for row in aug]

    def lagrange_eval(self, points: list[tuple[int, int]], x: int) -> int:
        """Interpolate the unique polynomial through ``points`` and evaluate
        it at ``x``.

        Used for Shamir reconstruction (x = 0) and for the §5.1 dynamic
        server extension ("just selecting additional points on the
        polynomial curve": evaluate at the new server's x-coordinate).

        Args:
            points: distinct ``(x_i, y_i)`` pairs.
            x: evaluation point.

        Raises:
            FieldError: if any two x-coordinates coincide.
        """
        xs = [self.normalize(px) for px, _ in points]
        if len(set(xs)) != len(xs):
            raise FieldError("duplicate x-coordinates in interpolation")
        x = self.normalize(x)
        total = 0
        for i, (xi, yi) in enumerate(points):
            num, den = 1, 1
            for j, (xj, _) in enumerate(points):
                if i == j:
                    continue
                num = (num * (x - xj)) % self.p
                den = (den * (xi - xj)) % self.p
            total = (total + yi * num * self.inv(den)) % self.p
        return total

    def lagrange_at_zero(self, points: list[tuple[int, int]]) -> int:
        """Recover a Shamir secret: interpolate through ``points`` at x=0."""
        return self.lagrange_eval(points, 0)

    def lagrange_weights_at_zero(self, xs: tuple[int, ...]) -> tuple[int, ...]:
        """The Lagrange basis evaluated at x=0 for the support ``xs``.

        Returns weights ``w_i = prod_{j != i} x_j / (x_j - x_i)`` such
        that any polynomial ``f`` of degree ``< len(xs)`` through points
        ``(x_i, y_i)`` satisfies ``f(0) = sum w_i * y_i  (mod p)``. The
        weights depend only on the x-coordinates, never on the shares —
        which is what makes them cacheable across every posting element
        fetched from the same server slots.

        Computed with a single modular inversion (:meth:`batch_inv`).

        Raises:
            FieldError: on duplicate or zero x-coordinates (x=0 in the
                support would mean a share *is* the secret).
        """
        normalized = [self.normalize(x) for x in xs]
        if len(set(normalized)) != len(normalized):
            raise FieldError("duplicate x-coordinates in interpolation")
        if any(x == 0 for x in normalized):
            raise FieldError("x-coordinate 0 in a Lagrange-at-zero basis")
        numerators: list[int] = []
        denominators: list[int] = []
        for i, xi in enumerate(normalized):
            num, den = 1, 1
            for j, xj in enumerate(normalized):
                if i == j:
                    continue
                num = (num * xj) % self.p
                den = (den * (xj - xi)) % self.p
            numerators.append(num)
            denominators.append(den)
        inverses = self.batch_inv(denominators)
        return tuple(
            (num * inv) % self.p for num, inv in zip(numerators, inverses)
        )
