"""The metrics registry as a protocol endpoint.

Like the cache tier, the metrics surface is just another PR 4 service:
register :class:`MetricsService` on a transport registry and the
``MetricsDump`` message answers over the in-process and async-socket
backends alike. ``repro cluster top``, ``repro
cluster status``, and a remote operator's scrape all read through this
one door, so they can never disagree with each other.

The dump is token-free by the same argument as ``ServerStatusRequest``:
it exposes counters, gauges, and latency quantiles only — never shares,
keys, or tokens.
"""

from __future__ import annotations

from repro.errors import ProtocolError
from repro.observability.metrics import MetricsRegistry
from repro.protocol.messages import MetricsDumpRequest, MetricsDumpResponse

#: The conventional endpoint name deployments register the registry under.
METRICS_ENDPOINT = "metrics"


class MetricsService:
    """Protocol dispatch for one metrics registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def handle(self, request):
        if isinstance(request, MetricsDumpRequest):
            return MetricsDumpResponse(
                samples=tuple(
                    (s.name, s.labels, s.value)
                    for s in self.registry.samples()
                )
            )
        raise ProtocolError(
            f"metrics endpoint cannot handle {type(request).__name__}"
        )
