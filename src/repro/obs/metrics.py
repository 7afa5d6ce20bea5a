"""The metrics registry: counters, gauges and histograms with labels.

One :class:`MetricsRegistry` is the single source of truth for every
number the evaluation chapter reports: network counters
(:class:`~repro.net.stats.NetworkStats` is a thin attribute view over a
registry), crawl aggregates (:class:`~repro.crawler.metrics.CrawlReport`
books each page into one), cache behaviour, retry accounting.

Metrics are addressed by ``(name, sorted label items)``.  All mutators
take an internal lock so a registry may be shared across threads (the
serving tier's request threads).  Registries **merge**: folding the
per-partition registries of an :class:`~repro.parallel.MPAjaxCrawler`
run — in any order or grouping — yields exactly the registry a
single-process crawl of the same work would have produced.  The
property-based tests in ``tests/obs`` assert this associativity /
commutativity; it is what makes partitioned cost accounting trustworthy.

Merge semantics per instrument:

* counters add,
* gauges keep the maximum (the only order-insensitive choice that is
  also useful for high-water marks),
* histograms add bucket-wise (all registries share the same fixed
  bucket bounds, so the merge is exact, not approximate).
"""

from __future__ import annotations

import json
import re
import threading
from typing import Iterator, Mapping, Optional, Sequence

#: (metric name, canonicalized labels) — the registry key.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]

#: Default histogram bucket upper bounds (virtual ms / generic scale).
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                   1000.0, 2500.0, 5000.0, 10000.0, float("inf"))

#: Wall-clock serving latency bounds: loopback cache hits are tens of
#: *micro*seconds, replay tails run to seconds.  The generic bounds
#: start at 1 ms, which collapsed every cache hit into one bucket.
SERVE_LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
                         50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
                         float("inf"))

#: Per-metric histogram bounds, read by :meth:`MetricsRegistry.observe`
#: when it first creates that histogram (every other name gets
#: :data:`DEFAULT_BUCKETS`); everything else (merge exactness,
#: exposition, snapshots) is bounds-agnostic.  A constant, so every
#: registry in a process — and every partition registry that will later
#: merge — agrees on the bounds.
METRIC_BUCKETS = {"serve.request_ms": SERVE_LATENCY_BUCKETS}


def _key(name: str, labels: Mapping[str, object]) -> MetricKey:
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class Histogram:
    """Fixed-bucket histogram; exact under merge."""

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * len(self.bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                break
        self.count += 1
        self.sum += value

    def merge(self, other: "Histogram") -> None:
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.count += other.count
        self.sum += other.sum

    def to_dict(self) -> dict:
        return {
            "buckets": [b if b != float("inf") else "inf" for b in self.bounds],
            "counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
        }


class MetricsRegistry:
    """Lock-protected counters/gauges/histograms, mergeable exactly."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[MetricKey, float] = {}
        self._gauges: dict[MetricKey, float] = {}
        self._histograms: dict[MetricKey, Histogram] = {}

    # -- mutation ---------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` to the counter ``name{labels}``."""
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set the gauge ``name{labels}`` (merge keeps the max)."""
        with self._lock:
            self._gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record ``value`` into the histogram ``name{labels}``."""
        key = _key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram(
                    METRIC_BUCKETS.get(name, DEFAULT_BUCKETS)
                )
            histogram.observe(value)

    # -- reads -------------------------------------------------------------------

    def counter(self, name: str, **labels: object) -> float:
        """Current value of one counter (0.0 when never incremented)."""
        return self._counters.get(_key(name, labels), 0.0)

    def gauge(self, name: str, **labels: object) -> Optional[float]:
        return self._gauges.get(_key(name, labels))

    def histogram(self, name: str, **labels: object) -> Optional[Histogram]:
        return self._histograms.get(_key(name, labels))

    def counters_named(self, name: str) -> Iterator[tuple[dict[str, str], float]]:
        """All label sets of counter ``name`` with their values."""
        for (metric, labels), value in list(self._counters.items()):
            if metric == name:
                yield dict(labels), value

    def labeled_values(self, name: str, label: str) -> dict[str, float]:
        """Counter ``name`` pivoted on one label (insertion-ordered)."""
        out: dict[str, float] = {}
        for labels, value in self.counters_named(name):
            if label in labels:
                out[labels[label]] = value
        return out

    # -- merge --------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (exact, order-insensitive
        up to float-addition rounding)."""
        with other._lock:
            counters = dict(other._counters)
            gauges = dict(other._gauges)
            histograms = {k: h for k, h in other._histograms.items()}
        with self._lock:
            for key, value in counters.items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            for key, value in gauges.items():
                current = self._gauges.get(key)
                self._gauges[key] = value if current is None else max(current, value)
            for key, histogram in histograms.items():
                mine = self._histograms.get(key)
                if mine is None:
                    mine = self._histograms[key] = Histogram(histogram.bounds)
                mine.merge(histogram)

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """A canonical, JSON-able view (sorted keys; comparison-friendly)."""
        def render(key: MetricKey) -> str:
            name, labels = key
            if not labels:
                return name
            inner = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{inner}}}"

        with self._lock:
            return {
                "counters": {render(k): v for k, v in sorted(self._counters.items())},
                "gauges": {render(k): v for k, v in sorted(self._gauges.items())},
                "histograms": {
                    render(k): h.to_dict() for k, h in sorted(self._histograms.items())
                },
            }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2)

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict (CLI files).

        Histogram reconstruction is exact: the snapshot carries bounds,
        bucket counts and the sum, which is the whole state.
        """
        registry = cls()
        for rendered, value in snapshot.get("counters", {}).items():
            name, labels = _parse_rendered(rendered)
            registry.inc(name, value, **labels)
        for rendered, value in snapshot.get("gauges", {}).items():
            name, labels = _parse_rendered(rendered)
            registry.set_gauge(name, value, **labels)
        for rendered, data in snapshot.get("histograms", {}).items():
            name, labels = _parse_rendered(rendered)
            bounds = tuple(
                float("inf") if b == "inf" else float(b) for b in data["buckets"]
            )
            histogram = Histogram(bounds)
            histogram.bucket_counts = list(data["counts"])
            histogram.count = data["count"]
            histogram.sum = data["sum"]
            registry._histograms[_key(name, labels)] = histogram
        return registry

    # -- Prometheus text exposition ------------------------------------------------

    def to_prometheus(self) -> str:
        """Render the registry in Prometheus text-exposition format.

        Metric names are sanitized (``.`` and other illegal characters
        become ``_``), label values escaped per the spec (backslash,
        double quote, newline), histograms expand to cumulative
        ``_bucket{le=...}`` series plus ``_sum``/``_count``.  Output is
        deterministically sorted so it diffs cleanly across runs.
        """
        lines: list[str] = []
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())

        def by_name(items):
            groups: dict[str, list] = {}
            for (name, labels), value in items:
                groups.setdefault(name, []).append((labels, value))
            return sorted(groups.items())

        for name, series in by_name(counters):
            prom = _prom_name(name)
            lines.append(f"# HELP {prom} Counter {name!r} from the repro registry.")
            lines.append(f"# TYPE {prom} counter")
            for labels, value in series:
                lines.append(f"{prom}{_prom_labels(labels)} {_prom_value(value)}")
        for name, series in by_name(gauges):
            prom = _prom_name(name)
            lines.append(f"# HELP {prom} Gauge {name!r} from the repro registry.")
            lines.append(f"# TYPE {prom} gauge")
            for labels, value in series:
                lines.append(f"{prom}{_prom_labels(labels)} {_prom_value(value)}")
        for name, series in by_name(histograms):
            prom = _prom_name(name)
            lines.append(f"# HELP {prom} Histogram {name!r} from the repro registry.")
            lines.append(f"# TYPE {prom} histogram")
            for labels, histogram in series:
                cumulative = 0
                for bound, bucket in zip(histogram.bounds, histogram.bucket_counts):
                    cumulative += bucket
                    le = "+Inf" if bound == float("inf") else _prom_value(bound)
                    lines.append(
                        f"{prom}_bucket{_prom_labels(labels, extra=('le', le))} "
                        f"{cumulative}"
                    )
                if histogram.bounds and histogram.bounds[-1] != float("inf"):
                    lines.append(
                        f"{prom}_bucket{_prom_labels(labels, extra=('le', '+Inf'))} "
                        f"{histogram.count}"
                    )
                lines.append(
                    f"{prom}_sum{_prom_labels(labels)} {_prom_value(histogram.sum)}"
                )
                lines.append(f"{prom}_count{_prom_labels(labels)} {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _parse_rendered(rendered: str) -> tuple[str, dict[str, str]]:
    """Invert ``snapshot()``'s ``name{k=v,...}`` key rendering."""
    if "{" not in rendered:
        return rendered, {}
    name, _, inner = rendered.partition("{")
    inner = inner.rstrip("}")
    labels: dict[str, str] = {}
    for part in inner.split(","):
        if part:
            key, _, value = part.partition("=")
            labels[key] = value
    return name, labels


def _prom_name(name: str) -> str:
    """Sanitize a registry name into a legal Prometheus metric name."""
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_escape(value: str) -> str:
    """Escape a label value per the text-exposition spec."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _prom_labels(
    labels: tuple[tuple[str, str], ...], extra: Optional[tuple[str, str]] = None
) -> str:
    items = list(labels)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{_prom_escape(str(v))}"' for k, v in items)
    return f"{{{inner}}}"


def _prom_value(value: float) -> str:
    """Render a sample value (integers without the trailing ``.0``).

    Non-finite values get the spellings the text-exposition format
    mandates (``+Inf`` / ``-Inf`` / ``NaN``) — ``int(value)`` on them
    raised, so a gauge legitimately set to infinity used to crash the
    whole ``/metrics`` render.
    """
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
