"""k-out-of-n secret sharing over a prime field (paper §5.1, [29]).

This package is the cryptographic substrate of Zerber. It implements:

- :mod:`repro.secretsharing.field` — arithmetic in Z_p with primality
  checking, the finite field that Algorithm 1a/1b operate in;
- :mod:`repro.secretsharing.shamir` — Shamir's scheme: polynomial share
  generation (Algorithm 1a), reconstruction by Gaussian elimination
  (Algorithm 1b, as written in the paper) and by Lagrange interpolation
  (the standard faster path), and dynamic extension of ``n``.
"""

from repro.secretsharing.field import PrimeField, is_prime, DEFAULT_PRIME
from repro.secretsharing.shamir import (
    Share,
    ShamirScheme,
    split_secret,
    reconstruct_secret,
)

__all__ = [
    "PrimeField",
    "is_prime",
    "DEFAULT_PRIME",
    "Share",
    "ShamirScheme",
    "split_secret",
    "reconstruct_secret",
]
