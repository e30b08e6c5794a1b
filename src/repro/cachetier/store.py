"""The shared cache tier's key-value store.

Memcache-shaped on purpose: opaque string keys, opaque byte values,
exact-match get/put, plus the one Zerber-specific verb — invalidate by
posting-list id. The store never interprets keys or values; the key
scheme (group fingerprint × fan-out width × posting list × write
epoch) and the value format (encoded slot-aligned share responses, see
:mod:`repro.cachetier.wire`) are client-side conventions, and access
control — token verification plus the fingerprint check — lives in the
protocol layer (:class:`repro.cachetier.service.CacheTierService`),
not here. Note the values are share-*encoded* but not share-*safe*: an
entry aggregates >= k shares per element, so the host this store runs
on sits inside the trust boundary (see ``docs/ARCHITECTURE.md``).

Eviction is least-recently-used, the searcher-local L1's discipline: a
hit or an overwrite refreshes a key, a miss touches nothing, and a new
key at capacity evicts the oldest one.

Thread safety: the socket and async servers dispatch requests from
multiple connection threads, so every public method takes the store
lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ClusterError


class CacheTierStore:
    """A bounded, LRU-evicting, invalidation-indexed byte store."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise ClusterError(
                f"cache-tier capacity must be >= 0, got {capacity}"
            )
        self.capacity = capacity
        #: key -> (pl_id, value), least recently used first
        self._entries: OrderedDict[str, tuple[int, bytes]] = OrderedDict()
        #: pl_id -> keys currently cached for that list (the
        #: invalidation index — a write must evict every entry of its
        #: list without scanning the store).
        self._keys_of_pl: dict[int, set[str]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> bytes | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]

    def put(self, key: str, pl_id: int, value: bytes) -> bool:
        """Store ``value``; returns False when the capacity is 0."""
        if self.capacity == 0:
            return False
        with self._lock:
            if key in self._entries:
                old_pl, _ = self._entries[key]
                if old_pl != pl_id:
                    self._unindex(key, old_pl)
                    self._keys_of_pl.setdefault(pl_id, set()).add(key)
                self._entries[key] = (pl_id, value)
                self._entries.move_to_end(key)
                return True
            if len(self._entries) >= self.capacity:
                victim, (victim_pl, _) = self._entries.popitem(last=False)
                self._unindex(victim, victim_pl)
                self.evictions += 1
            self._entries[key] = (pl_id, value)
            self._keys_of_pl.setdefault(pl_id, set()).add(key)
            return True

    def invalidate(self, pl_id: int) -> int:
        """Evict every entry of the list; returns how many went."""
        with self._lock:
            keys = self._keys_of_pl.pop(pl_id, None)
            if not keys:
                return 0
            for key in keys:
                self._entries.pop(key, None)
            self.invalidations += len(keys)
            return len(keys)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._keys_of_pl.clear()

    def _unindex(self, key: str, pl_id: int) -> None:
        keys = self._keys_of_pl.get(pl_id)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._keys_of_pl[pl_id]

    def stats_snapshot(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
