"""Tests for the enterprise authentication service (§2, §5.4.2)."""

from __future__ import annotations

import pytest

from repro.errors import AuthError
from repro.protocol.codec import encode_message
from repro.protocol.messages import FetchListsRequest
from repro.server.auth import AuthService, AuthToken


@pytest.fixture()
def service():
    return AuthService(token_lifetime=100)


class TestProvisioning:
    def test_register_and_authenticate(self, service):
        credential = service.register_user("alice")
        token = service.issue_token("alice", credential)
        assert service.verify(token) == "alice"

    def test_duplicate_registration_rejected(self, service):
        service.register_user("alice")
        with pytest.raises(AuthError):
            service.register_user("alice")

    def test_empty_user_rejected(self, service):
        with pytest.raises(AuthError):
            service.register_user("")

    def test_wrong_credential_rejected(self, service):
        service.register_user("alice")
        with pytest.raises(AuthError):
            service.issue_token("alice", b"wrong-credential")

    def test_unknown_user_rejected(self, service):
        with pytest.raises(AuthError):
            service.issue_token("ghost", b"x")


class TestTokens:
    def test_expiry(self, service):
        credential = service.register_user("alice")
        token = service.issue_token("alice", credential)
        service.advance_clock(100)
        with pytest.raises(AuthError):
            service.verify(token)

    def test_valid_just_before_expiry(self, service):
        credential = service.register_user("alice")
        token = service.issue_token("alice", credential)
        service.advance_clock(99)
        assert service.verify(token) == "alice"

    def test_tampered_user_rejected(self, service):
        credential = service.register_user("alice")
        token = service.issue_token("alice", credential)
        service.register_user("mallory")
        forged = AuthToken(
            user_id="mallory",
            issued_at=token.issued_at,
            expires_at=token.expires_at,
            signature=token.signature,
        )
        with pytest.raises(AuthError):
            service.verify(forged)

    def test_tampered_expiry_rejected(self, service):
        credential = service.register_user("alice")
        token = service.issue_token("alice", credential)
        forged = AuthToken(
            user_id=token.user_id,
            issued_at=token.issued_at,
            expires_at=token.expires_at + 10_000,
            signature=token.signature,
        )
        with pytest.raises(AuthError):
            service.verify(forged)

    def test_deprovision_revokes_outstanding_tokens(self, service):
        credential = service.register_user("alice")
        token = service.issue_token("alice", credential)
        service.deprovision_user("alice")
        with pytest.raises(AuthError):
            service.verify(token)

    def test_clock_cannot_rewind(self, service):
        with pytest.raises(AuthError):
            service.advance_clock(-1)

    def test_wire_bytes_positive(self, service):
        # Measured on the real wire: a token-only lookup request is
        # the user id, two timestamps and a 32-byte MAC, plus framing.
        credential = service.register_user("alice")
        token = service.issue_token("alice", credential)
        request = FetchListsRequest(token=token, pl_ids=())
        assert len(encode_message(request)) > 40

    def test_lifetime_validation(self):
        with pytest.raises(AuthError):
            AuthService(token_lifetime=0)
