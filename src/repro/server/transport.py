"""Simulated network with bandwidth accounting (paper §7.3).

§7.3's evaluation is algebra over message sizes and link rates: "users
connect over a 55 Mb/s wireless LAN, while servers use 100 Mb/s LAN
connections." This module provides the substrate for reproducing those
numbers: named endpoints, per-link bandwidth/latency, and an accounting
ledger of every byte that crossed each link, broken down by message kind
(insert / delete / lookup / snippet).

The network does not move real packets — handlers are invoked in-process —
but every call charges its wire size against the link, so the §7.3 bench
can report bytes-per-operation and derived queries-per-second exactly the
way the paper does.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import TransportError, UnknownEndpointError

#: §7.3 link presets.
WLAN_55_MBPS = 55_000_000.0
LAN_100_MBPS = 100_000_000.0


@dataclass(frozen=True)
class LinkSpec:
    """One directed link's characteristics.

    Attributes:
        bandwidth_bps: rated bandwidth in bits per second.
        latency_s: one-way propagation delay in seconds.
    """

    bandwidth_bps: float = LAN_100_MBPS
    latency_s: float = 0.0005

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise TransportError("bandwidth must be positive")
        if self.latency_s < 0:
            raise TransportError("latency must be non-negative")

    def transfer_time(self, payload_bytes: int) -> float:
        """Seconds to move ``payload_bytes`` across this link."""
        if payload_bytes < 0:
            raise TransportError("negative payload size")
        return self.latency_s + (payload_bytes * 8) / self.bandwidth_bps


@dataclass
class NetworkStats:
    """Accumulated traffic ledger."""

    bytes_by_link: dict[tuple[str, str], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    bytes_by_kind: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    messages_by_kind: dict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    simulated_seconds: float = 0.0

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_by_link.values())

    def reset(self) -> None:
        self.bytes_by_link.clear()
        self.bytes_by_kind.clear()
        self.messages_by_kind.clear()
        self.simulated_seconds = 0.0


class SimulatedNetwork:
    """Endpoint registry + message router + traffic ledger."""

    def __init__(self, default_link: LinkSpec | None = None) -> None:
        self._endpoints: dict[str, Callable[[str, Any], Any]] = {}
        self._links: dict[tuple[str, str], LinkSpec] = {}
        self._default_link = default_link or LinkSpec()
        self.stats = NetworkStats()
        # The parallel read fan-out issues calls from worker threads;
        # the ledger increments must not lose updates. Handlers run
        # outside the lock (they may be slow, or call back in).
        self._stats_lock = threading.Lock()

    # -- topology ------------------------------------------------------------

    def register(
        self, name: str, handler: Callable[[str, Any], Any]
    ) -> None:
        """Attach an endpoint. ``handler(kind, message) -> response``."""
        if name in self._endpoints:
            raise TransportError(f"endpoint {name!r} already registered")
        self._endpoints[name] = handler

    def unregister(self, name: str) -> None:
        """Detach an endpoint (a decommissioned server leaves the network)."""
        if name not in self._endpoints:
            raise UnknownEndpointError(
                name, f"endpoint {name!r} is not registered"
            )
        del self._endpoints[name]

    def set_link(self, src: str, dst: str, spec: LinkSpec) -> None:
        """Configure one directed link (both directions need two calls)."""
        self._links[(src, dst)] = spec

    def link(self, src: str, dst: str) -> LinkSpec:
        return self._links.get((src, dst), self._default_link)

    def endpoints(self) -> list[str]:
        return sorted(self._endpoints)

    def has_endpoint(self, name: str) -> bool:
        return name in self._endpoints

    # -- messaging --------------------------------------------------------------

    def call(
        self,
        src: str,
        dst: str,
        kind: str,
        message: Any,
        request_bytes: int,
        response_bytes_of: Callable[[Any], int] | None = None,
    ) -> Any:
        """Deliver ``message`` to ``dst`` and account the traffic.

        Args:
            src: sender endpoint name (need not be registered).
            dst: receiver endpoint name (must be registered).
            kind: message kind for the per-kind ledger (e.g. "lookup").
            message: the payload object handed to the handler.
            request_bytes: wire size of the request.
            response_bytes_of: sizer for the handler's response; defaults
                to 0 (fire-and-forget accounting).

        Returns:
            The handler's response.

        Raises:
            UnknownEndpointError: unknown destination — typed, and naming
                the endpoint, because the caller may legitimately race a
                pod retirement (the failover ladder catches it as an
                ordinary :class:`TransportError` and moves on).
        """
        handler = self._endpoints.get(dst)
        if handler is None:
            raise UnknownEndpointError(dst)
        if request_bytes < 0:
            raise TransportError("negative request size")
        forward = self.link(src, dst)
        with self._stats_lock:
            self.stats.bytes_by_link[(src, dst)] += request_bytes
            self.stats.bytes_by_kind[kind] += request_bytes
            self.stats.messages_by_kind[kind] += 1
            self.stats.simulated_seconds += forward.transfer_time(
                request_bytes
            )
        response = handler(kind, message)
        if response_bytes_of is not None:
            size = response_bytes_of(response)
            backward = self.link(dst, src)
            with self._stats_lock:
                self.stats.bytes_by_link[(dst, src)] += size
                self.stats.bytes_by_kind[kind] += size
                self.stats.simulated_seconds += backward.transfer_time(size)
        return response


class ConcurrentDispatcher:
    """The worker pool hedged reads race their legs on.

    A hedged read submits its primary leg, and after the hedge delay a
    backup leg, and takes the first answer; the query thread stays free
    to time the race. The executor is created lazily on the first
    submission and shared across calls (worker threads are reused, not
    churned per query).
    """

    def __init__(
        self,
        max_workers: int = 8,
        thread_name_prefix: str = "zerber-fanout",
    ) -> None:
        """Args:
        max_workers: thread-pool width.
        thread_name_prefix: worker-thread name prefix. Deployments pass
            a per-instance prefix so lifecycle tests can prove *their*
            workers died with the deployment's ``close()``.
        """
        if max_workers < 1:
            raise TransportError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self._max_workers = max_workers
        self.thread_name_prefix = thread_name_prefix
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()

    def submit(self, call: Callable[[], Any]) -> Future:
        """Run one thunk on the pool; returns its :class:`Future`.

        Never runs inline: the caller (a hedged read racing a primary
        leg against a delayed backup leg, first answer wins) needs to
        keep the current thread free to time the race.
        """
        return self._ensure_executor().submit(call)

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix=self.thread_name_prefix,
                )
            return self._executor

    def shutdown(self) -> None:
        """Release the worker threads (idempotent)."""
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
