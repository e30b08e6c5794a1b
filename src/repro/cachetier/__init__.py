"""The tiered cache subsystem: searcher-local L1 + shared L2 tier.

Two tiers in front of the server fleet:

- **L1** (:mod:`repro.cachetier.l1`): a searcher-local cache of
  reconstructed postings — a hit skips the network *and* Lagrange
  reconstruction entirely;
- **L2** (:mod:`repro.cachetier.store` / :mod:`~repro.cachetier.service`):
  a memcache-shaped cache-tier server holding share-level entries,
  reachable as an ordinary protocol endpoint over every transport
  backend, evicting least-recently-used entries.

Both tiers obey the same two safety rules — invalidate before any
write is delivered, re-key (and eagerly evict) on membership change —
which is what keeps a cached read byte-identical to an uncached one.
The L1 is the only process-local read cache; the coordinator keeps
none of its own.
"""

from repro.cachetier.l1 import L1PostingCache
from repro.cachetier.service import CACHE_TIER_ENDPOINT, CacheTierService
from repro.cachetier.store import CacheTierStore
from repro.cachetier.wire import (
    decode_entry,
    encode_entry,
    entry_key,
    parse_key,
)

__all__ = [
    "CACHE_TIER_ENDPOINT",
    "CacheTierService",
    "CacheTierStore",
    "L1PostingCache",
    "decode_entry",
    "encode_entry",
    "entry_key",
    "parse_key",
]
