"""Tests for the in-process endpoint registry (:class:`InProcessTransport`).

The registry is the only place in-process endpoints live: services
register by name, calls dispatch to them, and the failures a caller can
race (a duplicate name, a missing endpoint) are typed.
"""

from __future__ import annotations

import pytest

from repro.errors import TransportError, UnknownEndpointError
from repro.protocol.transport import InProcessTransport


class _Echo:
    """A service answering every request with ``(name, request)``."""

    def __init__(self, name: str) -> None:
        self.name = name

    def handle(self, request):
        return self.name, request


class TestNetwork:
    """Endpoints by name: register, dispatch, typed failures."""

    def test_register_and_call(self):
        registry = InProcessTransport()
        registry.register("server", _Echo("server"))
        assert registry.call("client", "server", "hello") == (
            "server",
            "hello",
        )

    def test_duplicate_endpoint_rejected(self):
        registry = InProcessTransport()
        registry.register("a", _Echo("a"))
        with pytest.raises(TransportError):
            registry.register("a", _Echo("a"))

    def test_unknown_destination(self):
        registry = InProcessTransport()
        with pytest.raises(UnknownEndpointError) as excinfo:
            registry.call("c", "missing", None)
        assert excinfo.value.endpoint == "missing"

    def test_endpoints_listing(self):
        registry = InProcessTransport()
        registry.register("b", _Echo("b"))
        registry.register("a", _Echo("a"))
        assert registry.endpoints() == ["a", "b"]
