"""Eviction/admission policies for the shared cache tier.

Two policies, one interface:

- :class:`LRUPolicy` — the baseline: admit everything, evict the least
  recently used entry — the searcher-local L1's discipline, behind a
  policy interface so the bench can compare it head-to-head with
  smarter admission.
- :class:`TinyLFUPolicy` — LRU eviction order plus a TinyLFU-style
  admission filter: a count-min sketch estimates how often each key has
  been *asked for* lately, and a new key is only admitted when its
  estimated frequency beats the would-be LRU victim's. Under a Zipf
  query log this keeps one-hit wonders from flushing the hot head of
  the distribution out of a small cache. The sketch halves all counters
  every ``sample_size`` observations, so "lately" really means lately
  (the aging step from the TinyLFU paper).

A policy tracks *keys and ordering only*; the store owns the values.
The store drives the policy with three calls:

- ``touch(key)`` on every lookup (hit or miss) — frequency feed + LRU
  refresh;
- ``admit(key)`` when inserting into a full cache — returns the key to
  evict, or ``None`` to reject the insertion;
- ``record_insert(key)`` / ``record_evict(key)`` to keep the policy's
  key ordering in sync with the store.

Determinism is part of the contract: the sketch hashes with
:func:`zlib.crc32` under fixed per-row seeds (Python's builtin ``hash``
is salted per process), so the same query log replayed against the same
policy always makes the same admission decisions — BENCH_cache.json is
reproducible by construction.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict

from repro.errors import ClusterError


class LRUPolicy:
    """Admit always, evict least-recently-used."""

    name = "lru"

    def __init__(self) -> None:
        self._order: OrderedDict[str, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._order)

    def touch(self, key: str) -> None:
        if key in self._order:
            self._order.move_to_end(key)

    def admit(self, key: str) -> str | None:
        """The victim to evict so ``key`` can come in (cache is full)."""
        return next(iter(self._order))

    def record_insert(self, key: str) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def record_evict(self, key: str) -> None:
        self._order.pop(key, None)


class FrequencySketch:
    """A count-min sketch with 4-bit-style saturation and periodic aging.

    ``depth`` rows of ``width`` counters; a key increments one counter
    per row (min-of-rows is the estimate). Counters saturate at 15 and
    every counter is halved once ``sample_size`` increments have been
    fed, so the sketch tracks *recent* popularity, not all-time counts.
    """

    _MAX_COUNT = 15

    def __init__(self, width: int, depth: int = 4,
                 sample_size: int | None = None) -> None:
        if width <= 0:
            raise ClusterError(f"sketch width must be positive, got {width}")
        self.width = width
        self.depth = depth
        self.sample_size = sample_size if sample_size else 10 * width
        self._rows = [[0] * width for _ in range(depth)]
        self._observed = 0

    def _indexes(self, key: str) -> list[int]:
        raw = key.encode("utf-8")
        return [
            zlib.crc32(raw, row * 0x9E3779B9 & 0xFFFFFFFF) % self.width
            for row in range(self.depth)
        ]

    def increment(self, key: str) -> None:
        for row, index in zip(self._rows, self._indexes(key)):
            if row[index] < self._MAX_COUNT:
                row[index] += 1
        self._observed += 1
        if self._observed >= self.sample_size:
            self._age()

    def estimate(self, key: str) -> int:
        return min(
            row[index]
            for row, index in zip(self._rows, self._indexes(key))
        )

    def _age(self) -> None:
        for row in self._rows:
            for i, count in enumerate(row):
                row[i] = count >> 1
        self._observed >>= 1


class TinyLFUPolicy:
    """LRU eviction order gated by a frequency-sketch admission filter.

    On a full cache, a candidate key is admitted only if the sketch
    thinks it has been requested at least as often as the LRU victim
    lately — otherwise the candidate is rejected and the cache keeps
    the victim. Rejected keys still feed the sketch (via ``touch`` on
    their lookups), so sustained demand eventually wins admission.
    """

    name = "tinylfu"

    def __init__(self, capacity: int) -> None:
        self._order: OrderedDict[str, None] = OrderedDict()
        self._sketch = FrequencySketch(width=max(16, 4 * max(capacity, 1)))

    def __len__(self) -> int:
        return len(self._order)

    def touch(self, key: str) -> None:
        self._sketch.increment(key)
        if key in self._order:
            self._order.move_to_end(key)

    def admit(self, key: str) -> str | None:
        victim = next(iter(self._order))
        if self._sketch.estimate(key) >= self._sketch.estimate(victim):
            return victim
        return None

    def record_insert(self, key: str) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def record_evict(self, key: str) -> None:
        self._order.pop(key, None)


#: policy name -> factory(capacity). The CLI and deployment look
#: policies up here, so adding one is a one-line change.
POLICIES = {
    "lru": lambda capacity: LRUPolicy(),
    "tinylfu": lambda capacity: TinyLFUPolicy(capacity),
}


def make_policy(name: str, capacity: int):
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ClusterError(
            f"unknown cache policy {name!r}; known: {sorted(POLICIES)}"
        ) from None
    return factory(capacity)
