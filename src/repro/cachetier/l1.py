"""The searcher-local L1: reconstructed secrets, zero network on a hit.

Where the L2 tier stores *shares* (a hit still pays Lagrange
reconstruction), the L1 sits past the reconstruction stage: it holds
the secrets ``reconstruct_batch`` produced for one merged list and one
``(user, group fingerprint, width)`` context, every readable element,
as a word array, so a hot repeat query costs no messages, no bytes and
no field arithmetic, only the decode every read pays (``unpack_terms``:
the queried terms alone, in one vectorised pass with the query's other
lists). An entry does not depend on the query that
filled it, so a hit serves any term set over the list. Entries are
shared with the reader, not copied: the searcher only ever reads them.

Because the values are plaintext secrets, the L1 is strictly
*searcher-local* — it lives inside the querying user's own client,
which already sees these postings; nothing here weakens the §5 model.
It is the only process-local read cache: the coordinator keeps none,
so the control plane never holds k shares of a cached element.
Two safety rules keep it byte-identical to a fresh fetch:

- **invalidate-before-write**: the coordinator fans every write's
  invalidation out to all registered L1s (weakly referenced — a
  dropped searcher unregisters itself by dying) before any seat sees
  the write;
- **eager membership eviction**: a group add/remove evicts every entry
  of the affected user immediately (:meth:`evict_user`) — the
  fingerprint in the key would rotate anyway, but eager eviction frees
  the space and guarantees a revoked user cannot be served even if a
  stale fingerprint is somehow replayed.

Shortfall entries are never stored: a list fetched with any element
below k shares is served but uncacheable, same rule as the L2 tier.

Thread safety: the owning searcher runs get/put on its query thread,
but the coordinator mutates registered L1s from *other* threads —
``invalidate_list`` on the write path and the membership-change
subscription call ``invalidate()``/``evict_user()`` — so every public
method takes the cache lock, mirroring :class:`~repro.cachetier.store
.CacheTierStore`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence

from repro.errors import ClusterError

#: key = (user_id, group fingerprint, num_servers, pl_id[, epoch])
L1Key = tuple


class L1PostingCache:
    """A small LRU of reconstructed, unfiltered secrets, one list each."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ClusterError(f"L1 capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[L1Key, Sequence[int]] = OrderedDict()
        self._keys_of_pl: dict[int, set[L1Key]] = {}
        self._lock = threading.Lock()
        #: Lifetime hits / misses / evictions / invalidations. One dict
        #: the cache only ever mutates, so the coordinator can fold its
        #: totals into the fleet's after the cache itself is gone
        #: (:meth:`~repro.cluster.ClusterCoordinator.register_l1`).
        self.counts = dict.fromkeys(
            ("hits", "misses", "evictions", "invalidations"), 0
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: L1Key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.counts["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self.counts["hits"] += 1
            return entry

    def put(self, key: L1Key, pl_id: int, secrets: Sequence[int]) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._drop(key)
            while len(self._entries) >= self.capacity:
                victim, _ = self._entries.popitem(last=False)
                self._unindex(victim)
                self.counts["evictions"] += 1
            self._entries[key] = secrets
            self._keys_of_pl.setdefault(pl_id, set()).add(key)

    def invalidate(self, pl_id: int) -> int:
        """A write landed on the list: every entry of it must go."""
        with self._lock:
            keys = self._keys_of_pl.pop(pl_id, None)
            if not keys:
                return 0
            for key in keys:
                self._entries.pop(key, None)
            self.counts["invalidations"] += len(keys)
            return len(keys)

    def evict_user(self, user_id: str) -> int:
        """Membership changed for ``user_id``: drop their entries now."""
        with self._lock:
            doomed = [key for key in self._entries if key[0] == user_id]
            for key in doomed:
                self._drop(key)
            self.counts["invalidations"] += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._keys_of_pl.clear()

    def _drop(self, key: L1Key) -> None:
        """Caller holds :attr:`_lock`."""
        self._entries.pop(key, None)
        self._unindex(key)

    def _unindex(self, key: L1Key) -> None:
        """Caller holds :attr:`_lock`."""
        pl_id = key[3]
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
                **self.counts,
            }
