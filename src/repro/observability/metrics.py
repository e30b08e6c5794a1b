"""The metrics registry: counters, fixed-bucket histograms, collectors.

One :class:`MetricsRegistry` per deployment. Subsystems publish two
ways:

- **hot-path instruments** — a counter/histogram handle fetched once
  and updated on every request (transport frames, query latencies,
  cache hits). Updates take one small lock per instrument, never the
  registry lock.
- **collectors** — callbacks registered with :meth:`add_collector`
  that return point-in-time series (per-pod seat liveness, breaker
  states, cache occupancy, repair backlog) when a snapshot is taken.
  State that already lives in a subsystem object is *pulled* at dump
  time instead of being mirrored on every mutation, so the read hot
  path pays nothing for observability it is not using. Nothing a
  collector returns is stored: a series leaves the dump with its
  subject (a retired pod, a drained seat, a forgotten breaker).

Quantiles come from fixed cumulative buckets with linear interpolation
inside the landing bucket — the standard Prometheus estimation. They
are monotone in the quantile by construction (cumulative counts never
decrease across buckets) and safe to read concurrently with writers:
a snapshot is taken under the instrument lock, so totals are never
torn even while many threads record.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

#: Default latency buckets in seconds: 100 µs .. ~13 s, x2 per step.
#: Fine enough to resolve loopback RPCs, wide enough for a stalled pod.
DEFAULT_BUCKETS_S = tuple(100e-6 * 2**i for i in range(18))

#: A collector: called at dump time, returns ``(name, labels, value)``
#: series, ``labels`` a plain dict (empty when unlabelled).
Collector = Callable[[], Iterable[tuple[str, dict[str, str], float]]]


@dataclass(frozen=True)
class MetricSample:
    """One exported time-series point: ``name{labels} value``."""

    name: str
    labels: str  # canonical 'k="v",k2="v2"' form, "" when unlabelled
    value: float


def _label_key(labels: dict[str, str]) -> str:
    """The canonical label string (sorted, Prometheus-quoted)."""
    if not labels:
        return ""
    return ",".join(
        f'{key}="{value}"' for key, value in sorted(labels.items())
    )


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with quantile readout.

    Buckets are upper bounds (``le``); an observation lands in the
    first bucket whose bound is >= the value, or the overflow bucket.
    """

    __slots__ = ("_lock", "bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Iterable[float] = DEFAULT_BUCKETS_S) -> None:
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("a histogram needs at least one bucket")
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)  # +1: overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        # Bisect without the import: bucket counts are small (<=18 by
        # default) and the linear scan stays cache-friendly.
        index = 0
        for bound in self.bounds:
            if value <= bound:
                break
            index += 1
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        """(bucket counts, sum, count) — consistent under the lock."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    def quantile(self, q: float, *, _snapshot=None) -> float:
        """Estimated q-quantile (0 < q <= 1) via bucket interpolation.

        Returns 0.0 for an empty histogram. Estimates are monotone in
        ``q`` for any fixed snapshot: the cumulative counts the search
        walks never decrease.
        """
        counts, _total_sum, count = _snapshot or self.snapshot()
        if count == 0:
            return 0.0
        rank = q * count
        cumulative = 0
        lower = 0.0
        for index, bound in enumerate(self.bounds):
            previous = cumulative
            cumulative += counts[index]
            if cumulative >= rank:
                inside = counts[index]
                fraction = (rank - previous) / inside if inside else 0.0
                return lower + (bound - lower) * fraction
            lower = bound
        return self.bounds[-1]  # landed in the overflow bucket

    def percentiles(self) -> dict[str, float]:
        """The dashboard trio, from one consistent snapshot."""
        snap = self.snapshot()
        return {
            "p50": self.quantile(0.50, _snapshot=snap),
            "p95": self.quantile(0.95, _snapshot=snap),
            "p99": self.quantile(0.99, _snapshot=snap),
        }


class MetricsRegistry:
    """Get-or-create instrument store plus collector callbacks.

    Instruments are identified by ``(name, canonical labels)``; asking
    twice returns the same object, so subsystems can fetch handles
    lazily without coordination. A name is one kind of instrument
    forever — re-registering it as another kind raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, str], object] = {}
        self._kinds: dict[str, type] = {}
        self._collectors: list[Collector] = []

    def _get(self, cls: type, name: str, labels: dict[str, str], **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} is a "
                        f"{type(existing).__name__}, not a {cls.__name__}"
                    )
                return existing
            kind = self._kinds.setdefault(name, cls)
            if kind is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as {kind.__name__}"
                )
            instrument = cls(**kwargs)
            self._instruments[key] = instrument
            return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS_S,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, labels, bounds=buckets)

    def add_collector(self, collector: Collector) -> None:
        """Register a dump-time source of series read from live state."""
        with self._lock:
            self._collectors.append(collector)

    def samples(self) -> list[MetricSample]:
        """All series, the collectors' merged in, sorted by name and
        labels; histograms exploded into ``_bucket``/``_sum``/``_count``
        plus quantile series."""
        with self._lock:
            collectors = list(self._collectors)
        pulled = [
            ((name, _label_key(labels)), float(value))
            for collector in collectors
            for name, labels, value in collector()
        ]
        with self._lock:
            items = sorted(
                [*self._instruments.items(), *pulled], key=lambda item: item[0]
            )
        out: list[MetricSample] = []
        for (name, labels), instrument in items:
            if isinstance(instrument, Counter):
                instrument = instrument.value
            if isinstance(instrument, float):
                out.append(MetricSample(name, labels, instrument))
                continue
            assert isinstance(instrument, Histogram)
            counts, total_sum, count = instrument.snapshot()
            cumulative = 0
            for index, bound in enumerate(instrument.bounds):
                cumulative += counts[index]
                le = _label_key({"le": f"{bound:g}"})
                tag = f"{labels},{le}" if labels else le
                out.append(MetricSample(f"{name}_bucket", tag, cumulative))
            inf = _label_key({"le": "+Inf"})
            tag = f"{labels},{inf}" if labels else inf
            out.append(MetricSample(f"{name}_bucket", tag, count))
            out.append(MetricSample(f"{name}_sum", labels, total_sum))
            out.append(MetricSample(f"{name}_count", labels, count))
            snap = (counts, total_sum, count)
            for q in (0.50, 0.95, 0.99):
                qlabel = _label_key({"quantile": f"{q:g}"})
                tag = f"{labels},{qlabel}" if labels else qlabel
                out.append(
                    MetricSample(
                        name, tag, instrument.quantile(q, _snapshot=snap)
                    )
                )
        return out


def parse_labels(labels: str) -> dict[str, str]:
    """Invert :func:`_label_key`: ``'k="v",k2="v2"'`` -> dict.

    Values are the registry's own canonical quoting (no embedded
    quotes or commas), so a plain split round-trips exactly.
    """
    if not labels:
        return {}
    out: dict[str, str] = {}
    for part in labels.split(","):
        key, _eq, value = part.partition("=")
        out[key] = value.strip('"')
    return out


class SampleView:
    """Read-side index over a dumped sample set.

    Accepts :class:`MetricSample` objects or the wire triples a
    ``MetricsDumpResponse`` carries, so the CLI renders local and
    remote dumps through the same code.
    """

    def __init__(self, samples: Iterable) -> None:
        self.samples: list[MetricSample] = [
            s if isinstance(s, MetricSample) else MetricSample(*s)
            for s in samples
        ]

    def value(
        self, name: str, default: float | None = None, **labels: str
    ) -> float | None:
        """The sample's value at exactly these labels (default: absent)."""
        key = _label_key(labels)
        for sample in self.samples:
            if sample.name == name and sample.labels == key:
                return sample.value
        return default

    def label_values(self, name: str, label: str) -> list[str]:
        """Distinct values one label takes across a series (sorted)."""
        seen = set()
        for sample in self.samples:
            if sample.name != name:
                continue
            value = parse_labels(sample.labels).get(label)
            if value is not None:
                seen.add(value)
        return sorted(seen)

    def by_label(self, name: str, label: str) -> dict[str, float]:
        """label value -> sample value, for single-label series."""
        out: dict[str, float] = {}
        for sample in self.samples:
            if sample.name != name:
                continue
            value = parse_labels(sample.labels).get(label)
            if value is not None:
                out[value] = sample.value
        return out


def render_prometheus(samples: Iterable[MetricSample]) -> str:
    """Prometheus text exposition (format 0.0.4) of a sample set.

    ``# TYPE`` comments are deliberately omitted: the registry's
    sample list interleaves quantile series with raw series under one
    family name, and a wrong type hint is worse than none. Values use
    ``repr``-faithful formatting so a scrape round-trips exactly.
    """
    lines = []
    for sample in samples:
        label_part = f"{{{sample.labels}}}" if sample.labels else ""
        value = sample.value
        if value == math.floor(value) and abs(value) < 1e15:
            rendered = str(int(value))
        else:
            rendered = repr(value)
        lines.append(f"{sample.name}{label_part} {rendered}")
    return "\n".join(lines) + ("\n" if lines else "")
