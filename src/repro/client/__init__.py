"""Client-side Zerber: document owners and querying users (paper §5.4).

- :mod:`repro.client.batching` — update batching policies ("Batch size,
  frequency, and other batch parameters can be tuned by each document owner
  to trade off security and index freshness", §5.4.1);
- :mod:`repro.client.owner` — the document owner's daemon: parse, build
  posting elements, Shamir-split, distribute to the n servers through
  the coordinator, track local changes, and delete element-by-element;
- :mod:`repro.client.searcher` — the querying user: resolve terms through
  the mapping table, gather ≥ k shares, reconstruct, filter false
  positives, rank with Fagin's TA, fetch snippets (Algorithm 2), over
  one fetch stage for every deployment shape;
- :mod:`repro.client.fetch_round` — that fetch stage's per-round
  bookkeeping (diagnostics, the seat ladder, slot-map merges);
- :mod:`repro.client.snippets` — the hosting peers' snippet service.
"""

from repro.client.batching import BatchPolicy, UpdateBatcher
from repro.client.owner import DocumentOwner
from repro.client.searcher import SearchClient, SearchResult
from repro.client.snippets import SnippetService

__all__ = [
    "BatchPolicy",
    "UpdateBatcher",
    "DocumentOwner",
    "SearchClient",
    "SearchResult",
    "SnippetService",
]
