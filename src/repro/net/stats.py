"""Counters for network activity, backed by the metrics registry.

The evaluation chapter reports network calls, avoided (cached) calls and
network time for whole crawls (Figures 7.5-7.7 and Table 7.1), so the
gateway and the hot-node cache both book into a :class:`NetworkStats`.

Since the observability layer landed, :class:`NetworkStats` is a *thin
attribute view* over a :class:`~repro.obs.MetricsRegistry`: every
counter lives in the registry under the ``net.*`` namespace (the single
source of truth, shared with the trace bus and the CLI ``--metrics``
dump), and the historical attributes (``page_fetches``, ``retries``,
...) are read-only properties so every existing caller and test keeps
working.  Mutation still goes through the ``record_*`` methods.

Failures are first-class: every attempt that ends in a 5xx/timeout is
booked (``failed_attempts``, with its latency in both ``network_time_ms``
and ``retry_time_ms``), every re-attempt counts as a retry, and a request
that exhausts its attempts counts as a ``failed_request``.  This gives
the bookkeeping invariant the fault-injection tests assert::

    failed_attempts == retries + failed_requests == faults the plan injected

The registry takes a lock per operation, so a stats object may be shared
across threads (the serving tier's request threads, shared-browser setups).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry

#: Registry namespace of every network counter.
NET_PREFIX = "net."


class NetworkStats:
    """Network counters for one crawl, viewed over a metrics registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: The backing registry; share one to unify accounting, or merge
        #: per-partition registries after a parallel crawl.
        self.registry = registry if registry is not None else MetricsRegistry()

    # -- the historical attribute API (thin properties) -------------------------

    @property
    def page_fetches(self) -> int:
        """Full page fetches performed (successful)."""
        return int(self.registry.counter("net.page_fetches"))

    @property
    def ajax_calls(self) -> int:
        """AJAX calls that actually went to the server (successful)."""
        return int(self.registry.counter("net.ajax_calls"))

    @property
    def cached_hits(self) -> int:
        """AJAX calls answered from the hot-node cache (no network)."""
        return int(self.registry.counter("net.cached_hits"))

    @property
    def bytes_transferred(self) -> int:
        """Total bytes transferred."""
        return int(self.registry.counter("net.bytes_transferred"))

    @property
    def network_time_ms(self) -> float:
        """Virtual milliseconds spent waiting on the network."""
        return self.registry.counter("net.network_time_ms")

    @property
    def failed_attempts(self) -> int:
        """Individual attempts that ended in a server error or timeout."""
        return int(self.registry.counter("net.failed_attempts"))

    @property
    def failed_requests(self) -> int:
        """Requests whose every allowed attempt failed (gateway gave up)."""
        return int(self.registry.counter("net.failed_requests"))

    @property
    def retries(self) -> int:
        """Re-attempts performed after a failed attempt."""
        return int(self.registry.counter("net.retries"))

    @property
    def retry_time_ms(self) -> float:
        """Virtual milliseconds lost to failed attempts and backoff waits."""
        return self.registry.counter("net.retry_time_ms")

    @property
    def requests_by_url(self) -> dict[str, int]:
        """Per-URL request counts, failed attempts included (diagnostics)."""
        return {
            url: int(count)
            for url, count in self.registry.labeled_values("net.requests", "url").items()
        }

    # -- mutation -----------------------------------------------------------------

    def record(self, kind: str, url: str, body_bytes: int, latency_ms: float) -> None:
        """Book one performed network request."""
        if kind not in ("page", "ajax"):
            raise ValueError(f"unknown request kind {kind!r}")
        registry = self.registry
        if kind == "page":
            registry.inc("net.page_fetches")
        else:
            registry.inc("net.ajax_calls")
        registry.inc("net.bytes_transferred", body_bytes)
        registry.inc("net.network_time_ms", latency_ms)
        registry.inc("net.requests", 1, url=url)
        registry.observe("net.latency_ms", latency_ms, kind=kind)

    def record_failure(
        self, kind: str, url: str, body_bytes: int, latency_ms: float
    ) -> None:
        """Book one *failed* attempt: it cost real time and transfer."""
        if kind not in ("page", "ajax"):
            raise ValueError(f"unknown request kind {kind!r}")
        registry = self.registry
        registry.inc("net.failed_attempts")
        registry.inc("net.bytes_transferred", body_bytes)
        registry.inc("net.network_time_ms", latency_ms)
        registry.inc("net.retry_time_ms", latency_ms)
        registry.inc("net.requests", 1, url=url)

    def record_retry(self, backoff_ms: float) -> None:
        """Book one re-attempt and the backoff wait preceding it."""
        registry = self.registry
        registry.inc("net.retries")
        registry.inc("net.network_time_ms", backoff_ms)
        registry.inc("net.retry_time_ms", backoff_ms)

    def record_exhausted(self) -> None:
        """Book one request that failed on every allowed attempt."""
        self.registry.inc("net.failed_requests")

    def record_cache_hit(self) -> None:
        """Book one AJAX call avoided by the hot-node cache."""
        self.registry.inc("net.cached_hits")

    def merge(self, other: "NetworkStats") -> None:
        """Fold another stats object into this one (parallel crawls)."""
        self.registry.merge(other.registry)
