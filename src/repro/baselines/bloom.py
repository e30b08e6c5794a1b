"""A from-scratch Bloom filter (substrate for the μ-Serv baseline [3]).

Standard construction: ``m`` bits, ``h`` independent hash functions derived
from SHA-256 with an index salt (Kirsch–Mitzenmacher double hashing), sized
from the usual optimum ``m = -n ln(f) / (ln 2)^2``, ``h = (m/n) ln 2``.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

from repro.errors import ReproError


class BloomFilter:
    """Fixed-size Bloom filter over UTF-8 strings."""

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        """Args:
        num_bits: m, size of the bit array.
        num_hashes: h, number of probe positions per element.
        """
        if num_bits < 8:
            raise ReproError("Bloom filter needs at least 8 bits")
        if num_hashes < 1:
            raise ReproError("Bloom filter needs at least one hash")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def with_false_positive_rate(
        cls, expected_items: int, fp_rate: float
    ) -> "BloomFilter":
        """Optimally sized filter for ``expected_items`` at ``fp_rate``.

        μ-Serv's confidentiality knob lives here: a *small* filter (high
        fp rate) makes the central index vague about which site holds
        which term.
        """
        if expected_items < 1:
            raise ReproError("expected_items must be >= 1")
        if not 0.0 < fp_rate < 1.0:
            raise ReproError(f"fp_rate must be in (0, 1), got {fp_rate}")
        ln2 = math.log(2)
        num_bits = max(8, math.ceil(-expected_items * math.log(fp_rate) / ln2**2))
        num_hashes = max(1, round((num_bits / expected_items) * ln2))
        return cls(num_bits=num_bits, num_hashes=num_hashes)

    # -- hashing ---------------------------------------------------------------

    def _positions(self, item: str) -> Iterable[int]:
        digest = hashlib.sha256(item.encode("utf-8")).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1  # odd => full-period
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    # -- operations ----------------------------------------------------------------

    def add(self, item: str) -> None:
        for pos in self._positions(item):
            self._bits[pos // 8] |= 1 << (pos % 8)

    def add_all(self, items: Iterable[str]) -> None:
        for item in items:
            self.add(item)

    def __contains__(self, item: str) -> bool:
        return all(
            self._bits[pos // 8] & (1 << (pos % 8)) for pos in self._positions(item)
        )

    # -- statistics --------------------------------------------------------------------

    @property
    def fill_ratio(self) -> float:
        """Fraction of set bits."""
        set_bits = sum(bin(b).count("1") for b in self._bits)
        return set_bits / self.num_bits

    def estimated_fp_rate(self) -> float:
        """Current false-positive probability, ``fill_ratio ** h``."""
        return self.fill_ratio ** self.num_hashes
