"""The n largely-untrusted index servers and their environment (paper §5.3–§5.4).

"Zerber relies on a centralized set of largely untrusted index servers that
hold posting list elements encrypted with a k out of n secret sharing
scheme." Each server exposes only the narrow interface of §5 — "only
insert, delete, and look up posting list elements" — authenticates every
caller against the enterprise authentication service, and filters posting
elements through its user-group table (Fig. 3) before answering.

- :mod:`repro.server.auth` — the enterprise authentication facility
  ("Kerberos or any other approach to authentication in distributed systems
  can be adopted here");
- :mod:`repro.server.groups` — the user-group metadata tables;
- :mod:`repro.server.index_server` — the index server proper, including the
  compromise hook the §7.1 attack experiments use;
- :mod:`repro.server.transport` — a simulated network with per-link
  bandwidth accounting for the §7.3 experiments.
"""

from repro.server.auth import AuthService, AuthToken
from repro.server.groups import GroupDirectory
from repro.server.index_server import (
    CompromisedView,
    IndexServer,
    PostingListResponse,
    SeatList,
    ShareRecord,
)
from repro.server.transport import NetworkStats, SimulatedNetwork, LinkSpec

__all__ = [
    "AuthService",
    "AuthToken",
    "GroupDirectory",
    "IndexServer",
    "ShareRecord",
    "SeatList",
    "PostingListResponse",
    "CompromisedView",
    "SimulatedNetwork",
    "NetworkStats",
    "LinkSpec",
]
