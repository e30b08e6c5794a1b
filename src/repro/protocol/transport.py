"""Pluggable transports: how protocol messages reach their endpoint.

Two interchangeable backends behind one :class:`Transport` contract:

- :class:`InProcessTransport` — endpoints are services in this process
  and dispatch is a plain function call: no bytes exist, so none are
  counted here. Traffic is counted where it is consumed (the search
  diagnostics, the seats' own logs) or, on the socket, where it crosses.
- :class:`~repro.protocol.async_transport.AsyncSocketServer` /
  :class:`~repro.protocol.async_transport.AsyncSocketTransport`
  (``repro.protocol.async_transport``) — real TCP, real bytes: one
  asyncio connection multiplexes many in-flight requests via correlated
  frames (:data:`CORRELATION_FLAG`), with bounded per-connection write
  queues and graceful drain on close. Server-side failures travel as
  ``ErrorResponse`` messages and re-raise client-side as the same
  :mod:`repro.errors` class.

This module also holds the wire pieces the socket pair shares: the
frame and request-envelope layout and :func:`handle_request_payload`,
the server's whole decode → dispatch → encode leg.

The contract both backends honour, and any future backend
(shared-memory, ...) must too:

- ``call(src, dst, request)`` returns the response message or raises
  the failure the server raised; a dead or missing endpoint raises
  :class:`~repro.errors.TransportError`
  (:class:`~repro.errors.UnknownEndpointError` when the name itself is
  unknown — the kill-pod race), which the cluster failover ladder
  absorbs identically on every backend;
- ``call_many(src, calls)`` answers a batch in call order with each
  failure in its call's place — one write for the whole batch on the
  socket (its hedged backups in one more), one call at a time in
  process;
- responses are byte-identical across backends for identical stores —
  the CI equivalence gate runs the same seeds over both.
"""

from __future__ import annotations

import struct
import time
from typing import Any, Callable, Sequence

from repro.errors import (
    ProtocolError,
    ReproError,
    TransportError,
    UnknownEndpointError,
)
from repro.protocol.codec import decode_message, encode_message
from repro.protocol.messages import (
    CacheGetRequest,
    CacheInvalidateRequest,
    EndpointsRequest,
    EndpointsResponse,
    ErrorResponse,
    FetchListsRequest,
    FetchSnippetRequest,
    MetricsDumpRequest,
    ServerStatusRequest,
    ShipSnapshotRequest,
)
from repro.protocol.service import error_response
# Submodule import (not the repro.observability package __init__): the
# package pulls in its metrics service, which imports this package back.
from repro.observability.tracing import (
    TraceContext,
    current_trace,
    record_span,
    span,
    trace_scope,
)
from repro.resilience.admission import AdmissionController
from repro.resilience.deadline import Deadline, check_deadline
from repro.resilience.faults import FaultPlan

#: A frame longer than this is garbage (or hostile), not a message.
MAX_FRAME_BYTES = 1 << 26  # 64 MiB

#: Requests a broken connection may safely re-send: pure reads. A write
#: (insert/delete/adopt/drop) whose response frame was lost may already
#: have been applied — re-sending it would double-apply server-side
#: bookkeeping (e.g. the §5.4.1 update log the correlation experiments
#: read), so writes fail fast instead and the caller's failover /
#: re-provisioning machinery decides.
_RETRY_SAFE = (
    FetchListsRequest,
    FetchSnippetRequest,
    ShipSnapshotRequest,
    ServerStatusRequest,
    EndpointsRequest,
    # Cache-tier reads are pure; invalidation is idempotent (evicting an
    # already-evicted list is a no-op), so re-sending it is safe. A
    # CachePut is *not* retry-safe by policy: a lost put only costs a
    # future miss, so it fails fast like every other write.
    CacheGetRequest,
    CacheInvalidateRequest,
    # A metrics dump is a pure read of counters and gauges.
    MetricsDumpRequest,
)

_LEN = struct.Struct(">I")

#: High bit of the length prefix: every frame carries a 4-byte
#: correlation id between the length word and the payload, so one
#: connection multiplexes many requests and responses return in
#: completion order, matched by id. Frame lengths are capped at
#: :data:`MAX_FRAME_BYTES` (1 << 26), so the top bits of the length
#: word are free by construction. A frame without the flag (the
#: retired plain form) is unframeable: the reader hangs up, exactly as
#: it does on an oversized length.
CORRELATION_FLAG = 0x8000_0000

#: Second-highest bit, but of the *request envelope's* name-length word
#: (inside the frame payload, see :func:`_pack_request`): the endpoint
#: name is followed by a 4-byte big-endian **remaining deadline budget
#: in microseconds**. Endpoint names can never be anywhere near
#: :data:`MAX_FRAME_BYTES` long, so the bit is free; deadline-free
#: requests leave it clear. The budget is relative, not an absolute
#: instant: wall clocks don't agree across machines, and losing the
#: transit time only makes the server side *more* conservative about a
#: deadline it would enforce anyway.
DEADLINE_FLAG = 0x4000_0000

#: Third-highest bit of the request envelope's name-length word: the
#: request carries a trace context — an **8-byte big-endian trace id
#: plus a 2-byte big-endian hop counter** — after the endpoint name
#: and after the optional deadline budget (both flags may be set). The
#: context is *passive*: a server restores it around dispatch so its
#: span lands under the right trace id, but no routing, retry, or
#: response byte ever depends on it — that is how tracing preserves the
#: byte-identity invariant.
TRACE_FLAG = 0x2000_0000

#: The wire form of a trace context: trace id (8) + hop counter (2).
_TRACE = struct.Struct(">QH")

#: The ``transport`` label of the server-side frame and byte counters.
_SERVER_LABEL = "async-socket"


def _wire_trace() -> tuple[int, int] | None:
    """The ambient trace as ``(trace_id, next hop)`` for the wire."""
    trace = current_trace()
    if trace is None:
        return None
    advanced = trace.next_hop()
    return advanced.trace_id, advanced.hop


class Transport:
    """Where protocol messages go. See the module docstring for the laws."""

    def call(self, src: str, dst: str, request: Any) -> Any:
        raise NotImplementedError

    def call_many(
        self,
        src: str,
        calls: Sequence[tuple[str, Any]],
        on_sent: Callable[[int], None] | None = None,
        on_done: Callable[[int], None] | None = None,
        backups: Sequence[tuple[str, Any] | None] | None = None,
        hedge_after_s: float = 0.0,
    ) -> list[Any]:
        """Send ``[(dst, request), ...]``; results come back in call order,
        a call's ``ReproError`` (dead endpoint, typed server error) in its
        place. ``on_sent(i)`` / ``on_done(i)`` run on the calling thread
        as call ``i`` leaves and as its outcome is taken. ``backups[i]``
        (or None) is call ``i``'s hedge, sent by a pipelining backend if
        the call is unsettled ``hedge_after_s`` after the batch left and
        reported to the hooks as index ``len(calls) + i``. This form
        sends one :meth:`call` at a time, so every call has settled
        before any delay passes and no backup is ever sent.
        """
        results: list[Any] = []
        for index, (dst, request) in enumerate(calls):
            if on_sent is not None:
                on_sent(index)
            try:
                results.append(self.call(src, dst, request))
            except ReproError as exc:
                results.append(exc)
            if on_done is not None:
                on_done(index)
        return results

    def has_endpoint(self, name: str) -> bool:
        raise NotImplementedError

    def endpoints(self) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:  # idempotent everywhere
        pass

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class InProcessTransport(Transport):
    """Endpoint registry dispatching to services in this process.

    The registry is also the one fault seam: every request that reaches
    a registered endpoint passes it, whichever transport carried it.
    Set :attr:`fault_plan` (``cluster.registry.fault_plan = plan``) and
    :meth:`call` acts the plan out in process, the socket server's read
    loop over the wire (see :mod:`repro.resilience.faults`).
    """

    def __init__(self) -> None:
        self._services: dict[str, Any] = {}
        #: The seeded chaos schedule requests to this registry's
        #: endpoints meet (None: no faults, one ``is None`` check).
        self.fault_plan: FaultPlan | None = None

    # -- registry -------------------------------------------------------------

    def register(self, name: str, service: Any) -> None:
        """Attach one endpoint (anything with ``handle(request)``)."""
        if name in self._services:
            raise TransportError(f"endpoint {name!r} already registered")
        self._services[name] = service

    def unregister(self, name: str) -> None:
        """Drop one endpoint (a retired seat leaves the transport)."""
        if name not in self._services:
            raise UnknownEndpointError(
                name, f"endpoint {name!r} is not registered"
            )
        del self._services[name]

    def has_endpoint(self, name: str) -> bool:
        return name in self._services

    def endpoints(self) -> list[str]:
        return sorted(self._services)

    def _resolve(self, name: str) -> Any:
        service = self._services.get(name)
        if service is None:
            raise UnknownEndpointError(name)
        return service

    # -- dispatch ------------------------------------------------------------

    def call(self, src: str, dst: str, request: Any) -> Any:
        plan = self.fault_plan
        if plan is not None and plan.targets(dst):
            fault = plan.draw()
            if fault in ("latency", "stall"):
                time.sleep(plan.hold_s(fault))
            elif fault in ("reset", "drop"):
                lost = "connection reset" if fault == "reset" else "drop"
                error = TransportError(f"injected {lost} for {dst!r}")
                # The socket's classification: a lost pure read is safe
                # to re-send, a lost write may have landed.
                error.retryable = isinstance(request, _RETRY_SAFE)
                raise error
            elif fault == "duplicate" and isinstance(request, _RETRY_SAFE):
                self._resolve(dst).handle(request)  # the first copy
        # In-process there is no wire to carry a budget: caller and
        # service share the thread, so the ambient deadline *is* the
        # propagated one. Enforce it at the same point the socket
        # server does — before dispatch.
        check_deadline(f"call to {dst!r}")
        return self._resolve(dst).handle(request)

    def dispatch_local(self, dst: str, request: Any) -> Any:
        """Hand a request straight to the service, no deadline check.

        The socket server uses this: it checked the request's wire
        budget before dispatch, and serving a frame is not a client
        :meth:`call`.
        """
        return self._resolve(dst).handle(request)


# -- the wire ----------------------------------------------------------------


def handle_request_payload(
    registry: InProcessTransport,
    payload: bytes,
    received_at: float | None = None,
    admission: AdmissionController | None = None,
    metrics: "MetricsRegistry | None" = None,
) -> bytes:
    """One server-side request leg: decode, dispatch, encode; never raise.

    Returns the encoded response message. Every failure (including a
    non-Repro bug inside a service) is answered with a typed
    :class:`ErrorResponse`, so the client sees "server broke", not
    "seat is dead" (which would trigger failover, or a retry for reads).

    A request carrying a wire deadline budget (:data:`DEADLINE_FLAG`)
    is checked *before* dispatch — an already-expired request is pure
    wasted work (its caller has given up) and comes back as a typed
    ``DeadlineExceededError`` instead. ``received_at`` is the monotonic
    instant the frame finished arriving: queueing time between read and
    dispatch counts against the budget, exactly the delay an overloaded
    server adds. When an ``admission`` controller is given, dispatch
    concurrency beyond its bound is shed as a typed retryable
    ``OverloadedError`` rather than queued into latency collapse.
    When a ``metrics`` registry is given, the server's frame and byte
    counters publish into it.

    The envelope is parsed once. A trace context it carries is restored
    around dispatch, so the server-side spans (decode, ``server:<dst>``,
    encode) land under the caller's trace id at the hop the caller
    stamped. Passive: nothing routes, retries, or encodes differently
    because a trace is present.
    """
    if metrics is not None:
        metrics.counter(
            "zerber_server_frames_total", transport=_SERVER_LABEL
        ).inc()
        metrics.counter(
            "zerber_server_request_bytes_total", transport=_SERVER_LABEL
        ).inc(len(payload))
    trace: TraceContext | None = None
    try:
        decode_start = time.perf_counter()
        dst, budget_us, wire_trace, body_start = _unpack_envelope(payload)
        if wire_trace is not None:
            trace = TraceContext(*wire_trace)
        request = decode_message(payload[body_start:])
        decode_s = time.perf_counter() - decode_start
        # No-op without a trace (a server thread has no ambient one).
        record_span("decode", decode_start, decode_s, len(payload), trace)
        deadline: Deadline | None = None
        if budget_us is not None:
            start = (
                received_at if received_at is not None else time.monotonic()
            )
            deadline = Deadline(start + budget_us / 1e6)
            deadline.check(f"request for {dst!r}")
        if isinstance(request, EndpointsRequest):
            response = EndpointsResponse(names=tuple(registry.endpoints()))
        else:
            if admission is not None:
                admission.admit(f"request for {dst!r}")
            try:
                # The budget was checked above; nothing under dispatch
                # reads the ambient deadline, so none is set here.
                with trace_scope(trace=trace), span(
                    f"server:{dst}"
                ) as server_span:
                    server_span.wire_bytes = len(payload)
                    response = registry.dispatch_local(dst, request)
            finally:
                if admission is not None:
                    admission.release()
    except ReproError as exc:
        response = error_response(exc)
    except Exception as exc:  # noqa: BLE001 - a server bug must not
        # kill the connection silently.
        response = ErrorResponse(
            error="ReproError",
            message=f"internal server error: "
            f"{type(exc).__name__}: {exc}",
        )
    start = time.perf_counter()
    blob = encode_message(response)
    record_span(
        "encode", start, time.perf_counter() - start, len(blob), trace
    )
    return blob


def frame_bytes(payload: bytes, corr_id: int) -> bytes:
    """A complete wire frame: flagged length word + correlation id +
    payload."""
    return (
        _LEN.pack(len(payload) | CORRELATION_FLAG)
        + _LEN.pack(corr_id)
        + payload
    )


def _pack_request(
    dst: str,
    request: Any,
    budget_us: int | None = None,
    trace: tuple[int, int] | None = None,
) -> bytes:
    name = dst.encode("utf-8")
    word = len(name)
    tail = b""
    if budget_us is not None:
        word |= DEADLINE_FLAG
        tail += _LEN.pack(budget_us)
    if trace is not None:
        word |= TRACE_FLAG
        trace_id, hop = trace
        tail += _TRACE.pack(trace_id, hop)
    return _LEN.pack(word) + name + tail + encode_message(request)


def _unpack_envelope(
    payload: bytes,
) -> tuple[str, int | None, tuple[int, int] | None, int]:
    """``(dst, remaining budget µs | None, (trace id, hop) | None,
    message offset)`` off one request frame."""
    if len(payload) < _LEN.size:
        raise ProtocolError("request frame shorter than its name header")
    (word,) = _LEN.unpack(payload[: _LEN.size])
    has_deadline = bool(word & DEADLINE_FLAG)
    has_trace = bool(word & TRACE_FLAG)
    name_len = word & ~(DEADLINE_FLAG | TRACE_FLAG)
    body_start = _LEN.size + name_len
    if name_len > MAX_FRAME_BYTES or body_start > len(payload):
        raise ProtocolError("request frame truncated inside endpoint name")
    try:
        dst = payload[_LEN.size : body_start].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("endpoint name is not valid UTF-8") from exc
    budget_us: int | None = None
    if has_deadline:
        budget_end = body_start + _LEN.size
        if budget_end > len(payload):
            raise ProtocolError(
                "request frame truncated inside deadline budget"
            )
        (budget_us,) = _LEN.unpack(payload[body_start:budget_end])
        body_start = budget_end
    trace: tuple[int, int] | None = None
    if has_trace:
        trace_end = body_start + _TRACE.size
        if trace_end > len(payload):
            raise ProtocolError(
                "request frame truncated inside trace context"
            )
        trace = _TRACE.unpack(payload[body_start:trace_end])
        body_start = trace_end
    return dst, budget_us, trace, body_start
