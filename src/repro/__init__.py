"""repro — a full reproduction of *Zerber: r-Confidential Indexing for
Distributed Documents* (Zerr et al., EDBT 2008).

Zerber is an inverted index for sensitive documents shared inside
collaboration groups. Posting elements are protected with k-out-of-n
Shamir secret sharing across n largely-untrusted index servers (no keys to
manage, no re-encryption on membership change), and posting lists are
*merged* so that the index leaks at most a tunable factor ``r`` beyond an
adversary's background knowledge — even if she takes over ``k - 1``
servers.

Package map (see DESIGN.md for the paper-section cross-reference):

- :mod:`repro.core` — r-confidentiality, posting elements, merging
  heuristics (DFM/BFM/UDM/hash), mapping table, deployment facade;
- :mod:`repro.secretsharing` — Z_p arithmetic, Shamir split/reconstruct,
  proactive refresh;
- :mod:`repro.invindex` — the ordinary inverted index substrate;
- :mod:`repro.server` — index servers, auth, groups;
- :mod:`repro.client` — owner daemon, search client, batching, snippets;
- :mod:`repro.ranking` — personalized tf-idf and Fagin's TA;
- :mod:`repro.baselines` — ordinary index, ideal trusted index, μ-Serv;
- :mod:`repro.corpus` — synthetic ODP / Stud IP corpora and query logs;
- :mod:`repro.attacks` — the §7.1 adversary simulations;
- :mod:`repro.analysis` — workload/bandwidth/storage models (§7.2–7.4);
- :mod:`repro.extensions` — the paper's future-work features;
- :mod:`repro.cluster` — the sharded multi-pod cluster engine (pods,
  placement, batched lookups, failover, share caching);
- :mod:`repro.protocol` — the wire-protocol service API: versioned
  messages, binary codec, server-side dispatch, and the pluggable
  in-process / socket transports.
"""

__version__ = "1.1.0"

# core must finish initializing before cluster (which builds on the
# client/core facade) — keep this import first.
from repro.core.zerber_index import ZerberDeployment, ZerberSearchResult

from repro.cluster.deployment import ClusterDeployment

__all__ = [
    "ClusterDeployment",
    "ZerberDeployment",
    "ZerberSearchResult",
    "__version__",
]
