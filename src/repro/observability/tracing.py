"""Wire-level request tracing: ambient trace context + span records.

The design copies :mod:`repro.resilience.deadline` deliberately: a
trace is a thread-local ambient context set by :func:`trace_scope` and
sampled by the transports at send time. A query's whole read path, its
hedged backups included, runs on the query's own thread, so the scope
reaches every frame it sends; the socket server restores the wire
context around dispatch. On the wire the context is an 8-byte trace id plus a 2-byte hop
counter riding the request envelope under ``TRACE_FLAG`` — see
:mod:`repro.protocol.transport`.

Spans are **passive**: recording one never influences routing, replica
ordering, retry decisions, or response bytes, which is how tracing
keeps the byte-identity invariant (results with tracing on equal
results with tracing off, CI-pinned). With no ambient trace,
:func:`span` is a no-op costing one thread-local read.

Spans land in a bounded in-memory ring (:class:`SpanBuffer`); the
process-wide default (:func:`global_spans`) is what the embedded
servers and clients share, dumpable per trace id.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

#: Trace ids are 8 wire bytes; hop counters 2.
MAX_TRACE_ID = 0xFFFF_FFFF_FFFF_FFFF
MAX_HOP = 0xFFFF

_local = threading.local()

# Process-unique, deterministic trace ids: a counter folded with the
# 'ZT' tag in the high bytes so ids are recognizably ours in dumps.
# (No entropy on purpose — seeded runs produce identical trace ids.)
_ids = itertools.count(1)


def new_trace_id() -> int:
    """The next process-unique 64-bit trace id."""
    return (0x5A54 << 48) | (next(_ids) & 0xFFFF_FFFF_FFFF)


@dataclass(frozen=True)
class TraceContext:
    """The ambient identity of one traced request."""

    trace_id: int
    hop: int = 0

    def next_hop(self) -> "TraceContext":
        """The context a downstream peer should run under."""
        return TraceContext(self.trace_id, min(self.hop + 1, MAX_HOP))


@dataclass(slots=True)
class Span:
    """One recorded stage of a traced request."""

    trace_id: int
    hop: int
    stage: str
    start_s: float  # time.perf_counter() at stage entry
    duration_s: float
    wire_bytes: int = 0
    number: int = 0  # recording order within its SpanBuffer

    def render(self) -> str:
        return (
            f"hop {self.hop:2d}  {self.stage:<24s} "
            f"{self.duration_s * 1e3:9.3f} ms  {self.wire_bytes:8d} B"
        )


class SpanBuffer:
    """A bounded, thread-safe ring of spans (oldest evicted first).

    Backed by a ``deque(maxlen=...)`` so recording at capacity is an
    O(1) append-with-evict, and lock-free: a bounded ``deque.append``
    is one thread-safe operation, and spans are numbered from an
    ``itertools.count`` so evictions can be counted afterwards. (Under
    200 searcher threads 7% of sampled threads were parked on a lock
    here, the server loop among them.) Readers take a ``list()`` copy.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("span buffer capacity must be positive")
        self.capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._numbers = itertools.count()
        self._floor = 0  # the number the first span since clear() got

    def record(self, span: Span) -> None:
        span.number = next(self._numbers)
        self._spans.append(span)

    @property
    def dropped(self) -> int:
        """Spans evicted since the last :meth:`clear`."""
        spans = list(self._spans)
        if not spans:
            return 0
        return max(s.number for s in spans) + 1 - self._floor - len(spans)

    def spans_for(self, trace_id: int) -> list[Span]:
        """All retained spans of one trace, in start order."""
        matched = [s for s in list(self._spans) if s.trace_id == trace_id]
        return sorted(matched, key=lambda s: (s.start_s, s.hop))

    def dump(self, trace_id: int) -> str:
        """A human-readable per-trace breakdown."""
        spans = self.spans_for(trace_id)
        header = f"trace {trace_id:#018x}: {len(spans)} spans"
        return "\n".join([header] + [f"  {s.render()}" for s in spans])

    def clear(self) -> None:
        self._spans.clear()
        self._floor = next(self._numbers) + 1

    def __len__(self) -> int:
        return len(self._spans)


_GLOBAL_SPANS = SpanBuffer(capacity=8192)


def global_spans() -> SpanBuffer:
    """The process-wide span ring shared by embedded clients/servers."""
    return _GLOBAL_SPANS


def current_trace() -> TraceContext | None:
    """The calling thread's ambient trace, if a scope is active."""
    return getattr(_local, "trace", None)


@contextmanager
def trace_scope(
    trace: TraceContext | None = None, trace_id: int | None = None
) -> Iterator[TraceContext | None]:
    """Run the body under a trace context (thread-local, nested).

    Pass an existing ``trace`` (restoring the wire context
    server-side) or a bare ``trace_id`` to start hop 0. With neither, the body runs
    untraced — callers can pass through their arguments unconditionally.
    """
    if trace is None:
        if trace_id is None:
            yield None
            return
        trace = TraceContext(trace_id=trace_id, hop=0)
    previous = current_trace()
    _local.trace = trace
    try:
        yield trace
    finally:
        _local.trace = previous


def record_span(
    stage: str,
    start_s: float,
    duration_s: float,
    wire_bytes: int = 0,
    trace: TraceContext | None = None,
    buffer: SpanBuffer | None = None,
) -> None:
    """Record one span against the ambient (or given) trace; no-op
    when no trace is active."""
    if trace is None:
        trace = current_trace()
        if trace is None:
            return
    # Explicit None check: an *empty* SpanBuffer is falsy (__len__), so
    # ``buffer or _GLOBAL_SPANS`` would silently misroute the first span.
    target = _GLOBAL_SPANS if buffer is None else buffer
    target.record(
        Span(trace.trace_id, trace.hop, stage, start_s, duration_s, wire_bytes)
    )


class span:
    """Time the body as one stage of the ambient trace.

    No ambient trace — one thread-local read, nothing recorded. The
    yielded handle's ``wire_bytes`` can be set before exit to tag the
    span with its wire cost. The span is recorded even when the body
    raises: a failed stage still spent its time. (A plain class: half
    the cost per span of a generator context manager, traced or not.)
    """

    __slots__ = ("stage", "buffer", "wire_bytes", "_trace", "_start")

    def __init__(self, stage: str, buffer: SpanBuffer | None = None) -> None:
        self.stage = stage
        self.buffer = buffer
        self.wire_bytes = 0

    def __enter__(self) -> "span":
        self._trace = current_trace()
        if self._trace is not None:
            self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        if self._trace is not None:
            record_span(
                self.stage,
                self._start,
                time.perf_counter() - self._start,
                self.wire_bytes,
                self._trace,
                self.buffer,
            )
