"""Cluster-wide observability: metrics registry, tracing, exposition.

Three pieces, each usable on its own:

- :mod:`repro.observability.metrics` — a thread-safe registry of
  counters and fixed-bucket histograms (p50/p95/p99 readout) that
  every subsystem publishes into. One registry per deployment;
  collectors pull point-in-time state (per-pod seat liveness, breaker
  states, cache occupancy) at dump time so nothing polls in the hot
  path.
- :mod:`repro.observability.tracing` — wire-level request tracing: a
  thread-local trace context (modeled on the deadline scope), per-hop
  span records in a bounded in-memory buffer, and the 8-byte trace id
  + 2-byte hop counter that rides the request envelope under
  ``TRACE_FLAG``.
- :mod:`repro.observability.service` — the ``MetricsDump`` protocol
  endpoint plus the Prometheus-style text writer, so a remote
  operator's probe reads the same numbers `repro cluster top` renders.
"""

from repro.observability.metrics import (
    Counter,
    Histogram,
    MetricSample,
    MetricsRegistry,
    SampleView,
    parse_labels,
    render_prometheus,
)
from repro.observability.tracing import (
    Span,
    SpanBuffer,
    TraceContext,
    current_trace,
    global_spans,
    new_trace_id,
    record_span,
    span,
    trace_scope,
)
from repro.observability.service import METRICS_ENDPOINT, MetricsService

__all__ = [
    "Counter",
    "Histogram",
    "MetricSample",
    "MetricsRegistry",
    "SampleView",
    "parse_labels",
    "render_prometheus",
    "Span",
    "SpanBuffer",
    "TraceContext",
    "current_trace",
    "global_spans",
    "new_trace_id",
    "record_span",
    "span",
    "trace_scope",
    "METRICS_ENDPOINT",
    "MetricsService",
]
