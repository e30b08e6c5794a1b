"""The cache tier as a protocol endpoint.

:class:`CacheTierService` is just another PR 4 service: it answers the
three cache messages and nothing else, so registering it on a transport
registry makes it reachable over the in-process, socket, and async
backends alike — the transports neither know nor care that the endpoint
is a cache.

Reachable-by-anyone is exactly why the tier enforces its own access
control instead of trusting keys: an L2 value bundles the whole
slot-aligned fetch for a list — at least k shares per element, enough
to Lagrange-reconstruct plaintext postings — and the key that names it
is trivially forgeable. So ``CacheGet`` and ``CachePut`` carry the same
enterprise :class:`~repro.server.auth.AuthToken` every index-server
request carries; the tier verifies it and then checks that the key's
group fingerprint equals the caller's *live* group set (looked up in
the shared :class:`~repro.server.groups.GroupDirectory`, never taken
from the key). A client can therefore only read or write entries its
index-server-filtered fetches would have produced anyway — the tier
cannot be used to bypass the servers' token/group filtering, and a put
cannot poison entries served to other fingerprints.

``CacheInvalidate`` stays token-free: invalidation only evicts (always
correctness-safe — the worst a forged invalidation costs is a refetch)
and is issued by the coordinator, which holds no user token. The tier's
counters leave through the deployment's ``MetricsDump`` as the
``zerber_cache_tier_*`` series.
"""

from __future__ import annotations

from repro.cachetier.store import CacheTierStore
from repro.cachetier.wire import parse_key
from repro.errors import AccessDeniedError, ProtocolError
from repro.protocol.messages import (
    CacheGetRequest,
    CacheInvalidateRequest,
    CachePutRequest,
    CacheValueResponse,
    OpCountResponse,
)
from repro.server.auth import AuthService, AuthToken
from repro.server.groups import GroupDirectory

#: The conventional endpoint name deployments register the tier under.
CACHE_TIER_ENDPOINT = "cache-tier"


class CacheTierService:
    """Protocol dispatch for one cache-tier store."""

    def __init__(
        self,
        store: CacheTierStore,
        auth: AuthService,
        groups: GroupDirectory,
    ) -> None:
        """Args:
        store: the byte store behind the endpoint.
        auth: the enterprise token verifier (the same trust anchor
            every index server holds).
        groups: the live group directory the fingerprint check reads.
        """
        self.store = store
        self._auth = auth
        self._groups = groups

    def _authorize(self, token: AuthToken, key: str) -> None:
        """Verify the token and match the key's fingerprint to the
        caller's live groups.

        Raises:
            AuthError: bad, expired, or revoked token.
            AccessDeniedError: the key claims a group set the caller
                does not currently hold.
            ProtocolError: the key does not follow the key scheme.
        """
        user_id = self._auth.verify(token)
        claimed, _num_servers, _pl_id, _epoch = parse_key(key)
        if claimed != self._groups.groups_of(user_id):
            raise AccessDeniedError(
                f"user {user_id!r} is not authorized for cache entries "
                f"of group fingerprint {sorted(claimed)}"
            )

    def handle(self, request):
        if isinstance(request, CacheGetRequest):
            self._authorize(request.token, request.key)
            value = self.store.get(request.key)
            if value is None:
                return CacheValueResponse(hit=False)
            return CacheValueResponse(hit=True, value=value)
        if isinstance(request, CachePutRequest):
            self._authorize(request.token, request.key)
            admitted = self.store.put(
                request.key, request.pl_id, request.value
            )
            return OpCountResponse(count=1 if admitted else 0)
        if isinstance(request, CacheInvalidateRequest):
            evicted = sum(
                self.store.invalidate(pl_id) for pl_id in request.pl_ids
            )
            return OpCountResponse(count=evicted)
        raise ProtocolError(
            f"cache tier cannot handle {type(request).__name__}"
        )
