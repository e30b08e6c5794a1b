"""Enterprise authentication service (paper §2, §5.4.2).

"Members are, however, willing to trust the enterprise's authentication
facilities" and "the index servers rely on an enterprise-wide authentication
service, such as one normally finds in today's large enterprises; Kerberos
or any other approach to authentication in distributed systems can be
adopted here."

We model that facility as a token service: users authenticate once with a
credential and receive an HMAC-signed, expiring token; every index server
holds the service's verification key (the enterprise trust anchor) and
verifies tokens locally — no round trip per request, like a Kerberos ticket.
The tokens carry no key material for the *index content*; Zerber remains
key-management-free for documents.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass

from repro.errors import AuthError


@dataclass(frozen=True, slots=True)
class AuthToken:
    """A signed authentication ticket.

    Attributes:
        user_id: the authenticated principal.
        issued_at: logical issue time (service clock tick).
        expires_at: logical expiry tick.
        signature: HMAC-SHA256 over the other fields.
    """

    user_id: str
    issued_at: int
    expires_at: int
    signature: bytes

    def payload(self) -> bytes:
        """The byte string the signature covers."""
        return f"{self.user_id}\x00{self.issued_at}\x00{self.expires_at}".encode()


class AuthService:
    """The enterprise-wide token issuer and verifier.

    A logical clock stands in for wall time so tests control expiry
    deterministically. Credentials are random per-user secrets distributed
    out of band (the enterprise's existing account provisioning).
    """

    def __init__(self, token_lifetime: int = 1000) -> None:
        """Args:
        token_lifetime: validity window in logical ticks.
        """
        if token_lifetime < 1:
            raise AuthError("token lifetime must be positive")
        self._signing_key = secrets.token_bytes(32)
        self._credentials: dict[str, bytes] = {}
        self._revoked_users: set[str] = set()
        self._clock = 0
        self._token_lifetime = token_lifetime

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> int:
        return self._clock

    def advance_clock(self, ticks: int = 1) -> int:
        """Advance logical time (tests use this to expire tokens)."""
        if ticks < 0:
            raise AuthError("time only moves forward")
        self._clock += ticks
        return self._clock

    # -- provisioning ----------------------------------------------------------

    def register_user(self, user_id: str) -> bytes:
        """Provision an account; returns the credential handed to the user."""
        if not user_id:
            raise AuthError("user_id must be non-empty")
        if user_id in self._credentials:
            raise AuthError(f"user {user_id!r} already registered")
        credential = secrets.token_bytes(16)
        self._credentials[user_id] = credential
        self._revoked_users.discard(user_id)
        return credential

    def deprovision_user(self, user_id: str) -> None:
        """Disable an account; outstanding tokens are rejected immediately."""
        self._credentials.pop(user_id, None)
        self._revoked_users.add(user_id)

    # -- tokens -------------------------------------------------------------------

    def _sign(self, payload: bytes) -> bytes:
        return hmac.new(self._signing_key, payload, hashlib.sha256).digest()

    def issue_token(self, user_id: str, credential: bytes) -> AuthToken:
        """Authenticate with a credential and obtain a ticket.

        Raises:
            AuthError: unknown user or wrong credential.
        """
        stored = self._credentials.get(user_id)
        if stored is None or not hmac.compare_digest(stored, credential):
            raise AuthError(f"authentication failed for {user_id!r}")
        token = AuthToken(
            user_id=user_id,
            issued_at=self._clock,
            expires_at=self._clock + self._token_lifetime,
            signature=b"",
        )
        return AuthToken(
            user_id=token.user_id,
            issued_at=token.issued_at,
            expires_at=token.expires_at,
            signature=self._sign(token.payload()),
        )

    def verify(self, token: AuthToken) -> str:
        """Validate a ticket and return the principal.

        Index servers call this on every request ("Each non-compromised
        index server authenticates the user ... before giving her an
        element in response to her query").

        Raises:
            AuthError: bad signature, expired ticket, or revoked account.
        """
        if token.user_id in self._revoked_users:
            raise AuthError(f"user {token.user_id!r} is deprovisioned")
        if token.user_id not in self._credentials:
            raise AuthError(f"unknown user {token.user_id!r}")
        if not hmac.compare_digest(self._sign(token.payload()), token.signature):
            raise AuthError("token signature invalid")
        if token.expires_at <= self._clock:
            raise AuthError("token expired")
        return token.user_id
