"""Live serving telemetry: windows, sampled traces, SLOs, live doctor.

Everything the serving tier knew about itself used to be post-hoc: the
trace doctor reads finished JSONL files, percentiles existed only in
the load-test report after the run ended.  :class:`ServingTelemetry`
closes that gap in-process:

* **rolling windows** — per-endpoint request/error/latency windows plus
  global cache, throttle and index read-amplification counters, all on
  the service's injectable clock (``/debug/vars``);
* **per-request deep tracing** — every request gets a
  :class:`~repro.obs.reqtrace.RequestTrace`; a deterministic hash
  sample of them is retained in full, and a tail ring *always* keeps
  slow and failed requests, so "what did that one request do" is
  answerable after the fact (``/debug/trace?id=...``) without paying
  for full retention;
* **slow-query log** — the most recent slow ``/search`` requests with
  their query text and index accounting (``/debug/slow``);
* **SLO burn rates** — :class:`~repro.obs.slo.SLOTracker` per
  configured objective (``/debug/slo``);
* **a live doctor** — sliding-window rules (cache collapse, 429 storm,
  segment read amplification) plus the SLO burn-rate findings, emitted
  in the established :class:`~repro.obs.doctor.Finding` format.

The whole layer is wall-clock-frequency work: a few dict/ring updates
per request, no locks held across I/O, nothing on the engine hot path.
``bench_serving`` asserts the telemetry-on/off throughput ratio.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.doctor import Finding
from repro.obs.reqtrace import RequestTrace
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch
from repro.obs.slo import SLO, SLOTracker
from repro.obs.window import RollingCounter, RollingSketch


#: serve-cache-collapse: windowed hit rate below the floor.
CACHE_MIN_HIT_RATE = 0.10
#: throttle-storm: windowed 429 share of admissions above the cap.
THROTTLE_MIN_REQUESTS = 20
THROTTLE_MAX_RATIO = 0.20
#: segment-read-amplification: windowed decoded-block fraction.
AMP_MIN_BLOCKS = 256
AMP_MAX_DECODE_FRACTION = 0.50
#: Capacity of the slow+error tail ring (kept unconditionally).
TAIL_CAPACITY = 64


@dataclass(frozen=True)
class LiveDoctorConfig:
    """Thresholds of the sliding-window serving rules."""

    #: serve-cache-collapse: lookups in the window before the rule may
    #: fire.
    cache_min_lookups: int = 20


#: Default serving SLOs: three nines of availability and 99% of
#: requests under 250 ms, both on a one-hour budget window.
DEFAULT_SLOS = (
    SLO("availability", objective=0.999, window_s=3600.0),
    SLO("latency-p99", objective=0.99, latency_ms=250.0, window_s=3600.0),
)


@dataclass(frozen=True)
class TelemetryConfig:
    """Shape of one serving process's live telemetry."""

    #: Master switch; off restores the exact pre-telemetry serving path.
    enabled: bool = True
    #: Rolling-window length and slot count for the /debug/vars rates.
    window_s: float = 60.0
    slots: int = 12
    #: Keep every Nth request's full trace (deterministic hash of the
    #: request id, so reruns and distributed tiers sample identically).
    sample_every: int = 16
    #: A request at least this slow always lands in the tail ring and
    #: the slow-query log.
    slow_ms: float = 100.0
    #: Ring capacities (sampled traces / slow log).
    trace_capacity: int = 256
    slowlog_capacity: int = 64
    #: Relative accuracy of every latency sketch.
    relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY
    #: Objectives tracked for /debug/slo and the burn-rate doctor
    #: (paged by :data:`repro.obs.slo.DEFAULT_BURN_RULES`).
    slos: tuple[SLO, ...] = DEFAULT_SLOS
    doctor: LiveDoctorConfig = field(default_factory=LiveDoctorConfig)


def sample_request(request_id: str, sample_every: int) -> bool:
    """Deterministic hash sampling: same id -> same decision, anywhere."""
    if sample_every <= 1:
        return True
    return zlib.crc32(request_id.encode("utf-8")) % sample_every == 0


class _EndpointWindows:
    """The per-endpoint rolling aggregates."""

    __slots__ = ("requests", "errors", "latency_ms")

    def __init__(self, config: TelemetryConfig, clock) -> None:
        self.requests = RollingCounter(config.window_s, config.slots, clock)
        self.errors = RollingCounter(config.window_s, config.slots, clock)
        self.latency_ms = RollingSketch(
            config.window_s,
            config.slots,
            clock,
            relative_accuracy=config.relative_accuracy,
        )


class ServingTelemetry:
    """The live telemetry state of one serving process."""

    def __init__(
        self,
        config: TelemetryConfig = TelemetryConfig(),
        clock: Callable[[], float] = time.monotonic,
        registry=None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.registry = registry
        self.started_s = clock()
        window = (config.window_s, config.slots, clock)
        #: endpoint -> rolling request/error/latency windows.
        self._endpoints: dict[str, _EndpointWindows] = {}
        self._endpoints_lock = threading.Lock()
        self.throttled = RollingCounter(*window)
        self.admissions = RollingCounter(*window)
        self.cache_hits = RollingCounter(*window)
        self.cache_misses = RollingCounter(*window)
        self.blocks_decoded = RollingCounter(*window)
        self.blocks_skipped = RollingCounter(*window)
        self.postings_decoded = RollingCounter(*window)
        #: Lifetime latency sketch (all endpoints), for /debug/vars.
        self.lifetime_ms = QuantileSketch(
            relative_accuracy=config.relative_accuracy
        )
        self.trackers = [SLOTracker(slo, clock=clock) for slo in config.slos]
        self._ring_lock = threading.Lock()
        #: request id -> trace dict; LRU rings, newest last.
        self._sampled: "OrderedDict[str, dict]" = OrderedDict()
        self._tail: "OrderedDict[str, dict]" = OrderedDict()
        self._slowlog: deque[dict] = deque(maxlen=config.slowlog_capacity)
        self._id_lock = threading.Lock()
        self._next_id = 0

    # -- request lifecycle --------------------------------------------------------

    def next_request_id(self) -> str:
        """A fresh server-assigned id (clients may send their own)."""
        with self._id_lock:
            self._next_id += 1
            return f"req-{self._next_id:08d}"

    def begin(
        self, endpoint: str, client: str, request_id: Optional[str] = None
    ) -> RequestTrace:
        """Open the trace for one admitted request."""
        if not request_id:
            request_id = self.next_request_id()
        return RequestTrace(
            request_id=request_id,
            endpoint=endpoint,
            client=client,
            started_s=self.clock(),
            sampled=sample_request(request_id, self.config.sample_every),
        )

    def finish(
        self, trace: RequestTrace, status: int, duration_ms: float
    ) -> None:
        """Book one finished request into every live aggregate."""
        trace.status = status
        trace.duration_ms = duration_ms
        windows = self._windows(trace.endpoint)
        windows.requests.add(1.0)
        windows.latency_ms.observe(duration_ms)
        self.lifetime_ms.observe(duration_ms)
        ok = status < 500
        if not ok:
            windows.errors.add(1.0)
        self.admissions.add(1.0)
        cached = trace.fields.get("cached")
        if cached is not None:
            (self.cache_hits if cached else self.cache_misses).add(1.0)
        if trace.blocks_decoded or trace.blocks_skipped:
            self.blocks_decoded.add(trace.blocks_decoded)
            self.blocks_skipped.add(trace.blocks_skipped)
            self.postings_decoded.add(trace.postings_decoded)
        for tracker in self.trackers:
            tracker.record(ok, duration_ms)
        slow = duration_ms >= self.config.slow_ms
        # The tail keeps anything worth a post-hoc look: slow requests
        # and every non-2xx (client errors included — a malformed query
        # is exactly what /debug/trace gets asked about).
        failed = status >= 400
        if trace.sampled or slow or failed:
            rendered = trace.to_dict()
            with self._ring_lock:
                if trace.sampled:
                    self._remember(
                        self._sampled, rendered, self.config.trace_capacity
                    )
                if slow or failed:
                    self._remember(self._tail, rendered, TAIL_CAPACITY)
                if slow:
                    self._slowlog.append(
                        {
                            "request_id": trace.request_id,
                            "endpoint": trace.endpoint,
                            "query": trace.fields.get("query"),
                            "status": status,
                            "duration_ms": duration_ms,
                            "cached": cached,
                            "blocks_decoded": trace.blocks_decoded,
                            "blocks_skipped": trace.blocks_skipped,
                        }
                    )

    def record_rejection(
        self, endpoint: str, client: str, request_id: Optional[str] = None
    ) -> None:
        """Book one 429 (rejected before the endpoint body ran)."""
        self.admissions.add(1.0)
        self.throttled.add(1.0)

    @staticmethod
    def _remember(
        ring: "OrderedDict[str, dict]", rendered: dict, capacity: int
    ) -> None:
        ring[rendered["request_id"]] = rendered
        while len(ring) > capacity:
            ring.popitem(last=False)

    def _windows(self, endpoint: str) -> _EndpointWindows:
        windows = self._endpoints.get(endpoint)
        if windows is None:
            with self._endpoints_lock:
                windows = self._endpoints.get(endpoint)
                if windows is None:
                    windows = _EndpointWindows(self.config, self.clock)
                    self._endpoints[endpoint] = windows
        return windows

    # -- views --------------------------------------------------------------------

    def vars(self) -> dict:
        """The ``/debug/vars`` payload: windowed rates and quantiles."""
        config = self.config
        endpoints = {}
        with self._endpoints_lock:
            items = list(self._endpoints.items())
        for endpoint, windows in sorted(items):
            summary = windows.latency_ms.summary()
            endpoints[endpoint] = {
                "requests": windows.requests.total(),
                "rps": windows.requests.rate_per_s(),
                "errors": windows.errors.total(),
                "latency_ms": summary,
            }
        admissions = self.admissions.total()
        throttled = self.throttled.total()
        hits = self.cache_hits.total()
        misses = self.cache_misses.total()
        decoded = self.blocks_decoded.total()
        skipped = self.blocks_skipped.total()
        visited = decoded + skipped
        return {
            "uptime_s": self.clock() - self.started_s,
            "window_s": config.window_s,
            "endpoints": endpoints,
            "admissions": {
                "requests": admissions,
                "rps": self.admissions.rate_per_s(),
                "throttled": throttled,
                "throttle_ratio": throttled / admissions if admissions else 0.0,
            },
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            },
            "index": {
                "blocks_decoded": decoded,
                "blocks_skipped": skipped,
                "postings_decoded": self.postings_decoded.total(),
                "decode_fraction": decoded / visited if visited else 0.0,
            },
            "lifetime_latency_ms": self.lifetime_ms.summary(),
            "slo": {
                tracker.slo.name: tracker.status()["budget_spent"]
                for tracker in self.trackers
            },
            "traces": {
                "sampled": len(self._sampled),
                "tail": len(self._tail),
                "sample_every": config.sample_every,
                "slow_ms": config.slow_ms,
            },
        }

    def slo_status(self) -> dict:
        """The ``/debug/slo`` payload: objectives, budgets, burn rates."""
        findings = self.diagnose()
        return {
            "slos": [tracker.status() for tracker in self.trackers],
            "findings": [
                {
                    "rule": finding.rule,
                    "severity": finding.severity,
                    "message": finding.message,
                    "signal": finding.signal,
                    "threshold": finding.threshold,
                    "action": finding.action,
                    "evidence": dict(finding.evidence),
                }
                for finding in findings
            ],
        }

    def trace(self, request_id: str) -> Optional[dict]:
        """The retained trace of ``request_id``, if any ring still has it."""
        with self._ring_lock:
            found = self._sampled.get(request_id)
            if found is None:
                found = self._tail.get(request_id)
            return dict(found) if found is not None else None

    def slow_queries(self) -> list[dict]:
        """Newest-first slow-request log."""
        with self._ring_lock:
            return [dict(entry) for entry in reversed(self._slowlog)]

    # -- the live doctor ----------------------------------------------------------

    def diagnose(self) -> list[Finding]:
        """Sliding-window findings; empty when serving looks healthy."""
        config = self.config.doctor
        findings: list[Finding] = []

        hits = self.cache_hits.total()
        lookups = hits + self.cache_misses.total()
        if lookups >= config.cache_min_lookups:
            hit_rate = hits / lookups
            if hit_rate < CACHE_MIN_HIT_RATE:
                findings.append(
                    Finding(
                        rule="serve-cache-collapse",
                        severity="warning",
                        message=(
                            f"query-cache hit rate {hit_rate:.0%} over the "
                            f"last {lookups:.0f} lookups — the cache has "
                            f"stopped absorbing the workload"
                        ),
                        signal=hit_rate,
                        threshold=CACHE_MIN_HIT_RATE,
                        action=(
                            "check for a cache-busting query pattern "
                            "(unique offsets/limits), a TTL shorter than "
                            "the repeat interval, or an undersized LRU"
                        ),
                        evidence={"hits": hits, "lookups": lookups},
                    )
                )

        admissions = self.admissions.total()
        throttled = self.throttled.total()
        if admissions >= THROTTLE_MIN_REQUESTS and throttled:
            ratio = throttled / admissions
            if ratio >= THROTTLE_MAX_RATIO:
                findings.append(
                    Finding(
                        rule="throttle-storm",
                        severity="warning",
                        message=(
                            f"{throttled:.0f}/{admissions:.0f} requests "
                            f"({ratio:.0%}) answered 429 in the window — "
                            f"clients are hammering drained buckets"
                        ),
                        signal=ratio,
                        threshold=THROTTLE_MAX_RATIO,
                        action=(
                            "raise rate_limit_rps/burst if the traffic is "
                            "legitimate, or identify the offending client "
                            "ids before they retry-storm the tier"
                        ),
                        evidence={
                            "throttled": throttled,
                            "admissions": admissions,
                        },
                    )
                )

        decoded = self.blocks_decoded.total()
        visited = decoded + self.blocks_skipped.total()
        if visited >= AMP_MIN_BLOCKS:
            fraction = decoded / visited
            if fraction > AMP_MAX_DECODE_FRACTION:
                findings.append(
                    Finding(
                        rule="segment-read-amplification",
                        severity="warning",
                        message=(
                            f"queries decoded {fraction:.0%} of the posting "
                            f"blocks they visited ({decoded:.0f}/"
                            f"{visited:.0f}) — block-max skipping is not "
                            f"engaging"
                        ),
                        signal=fraction,
                        threshold=AMP_MAX_DECODE_FRACTION,
                        action=(
                            "the workload may be unselective conjunctions, "
                            "or compaction has fallen behind (many small "
                            "segments defeat skip pointers): run "
                            "`repro-ajax index compact`"
                        ),
                        evidence={
                            "blocks_decoded": decoded,
                            "blocks_visited": visited,
                        },
                    )
                )

        for tracker in self.trackers:
            findings.extend(tracker.findings())
        return findings


# -- `repro-ajax top` rendering ---------------------------------------------------


def format_top(data: dict) -> str:
    """Render one ``/debug/vars`` snapshot as the ``top`` screen."""
    lines: list[str] = []
    window = data.get("window_s", 0)
    admissions = data.get("admissions", {})
    cache = data.get("cache", {})
    index = data.get("index", {})
    lines.append(
        f"repro-ajax top — last {window:g}s window, "
        f"uptime {data.get('uptime_s', 0.0):.0f}s"
    )
    lines.append(
        f"  admitted {admissions.get('requests', 0):.0f} req "
        f"({admissions.get('rps', 0.0):.1f} req/s), "
        f"{admissions.get('throttled', 0):.0f} throttled "
        f"({admissions.get('throttle_ratio', 0.0):.0%})"
    )
    lines.append(
        f"  cache    {cache.get('hit_rate', 0.0):6.1%} hit rate "
        f"({cache.get('hits', 0):.0f} hit / {cache.get('misses', 0):.0f} miss)"
    )
    lines.append(
        f"  index    {index.get('blocks_decoded', 0):.0f} blocks decoded / "
        f"{index.get('blocks_skipped', 0):.0f} skipped "
        f"(decode fraction {index.get('decode_fraction', 0.0):.0%})"
    )
    slo = data.get("slo", {})
    if slo:
        spent = ", ".join(
            f"{name} {value:.0%}" for name, value in sorted(slo.items())
        )
        lines.append(f"  slo budget spent: {spent}")
    endpoints = data.get("endpoints", {})
    if endpoints:
        lines.append(
            f"  {'endpoint':<10} {'req':>7} {'rps':>8} {'err':>5} "
            f"{'p50ms':>9} {'p95ms':>9} {'p99ms':>9}"
        )
        for endpoint, stats in sorted(endpoints.items()):
            latency = stats.get("latency_ms", {})
            lines.append(
                f"  {endpoint:<10} {stats.get('requests', 0):>7.0f} "
                f"{stats.get('rps', 0.0):>8.1f} {stats.get('errors', 0):>5.0f} "
                f"{latency.get('p50', 0.0):>9.3f} "
                f"{latency.get('p95', 0.0):>9.3f} "
                f"{latency.get('p99', 0.0):>9.3f}"
            )
    traces = data.get("traces", {})
    if traces:
        lines.append(
            f"  traces   {traces.get('sampled', 0)} sampled (1/"
            f"{traces.get('sample_every', 0)}), {traces.get('tail', 0)} "
            f"slow/error retained (slow >= {traces.get('slow_ms', 0):g}ms)"
        )
    return "\n".join(lines)
