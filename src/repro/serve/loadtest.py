"""Closed-loop load testing of a live search server.

``workers`` threads each own one keep-alive HTTP connection and issue
requests back-to-back (closed loop: the next request leaves when the
previous response lands), walking a query workload round-robin from a
per-worker offset — the Table 7.4 paper workload by default.  The
report aggregates:

* latency percentiles (p50/p95/p99, milliseconds, wall clock) from a
  merged :class:`~repro.obs.sketch.QuantileSketch` — each worker feeds
  its own sketch, so aggregation is O(buckets) instead of a global
  sort, and the same estimator serves live telemetry and load reports,
* throughput (completed requests / wall seconds),
* cache hit rate (from the ``cached`` field of ``/search`` responses),
* status histogram and rate-limit rejections (429s),
* transport errors (connection drops count as errors, not latencies).

``repro-ajax loadtest`` drives it from the CLI;
``benchmarks/bench_serving.py`` boots a server, runs it, and records
``benchmarks/results/BENCH_serving.json`` with loose floors asserted.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence
from urllib.parse import urlencode, urlsplit

from repro.obs.sketch import QuantileSketch


#: Per-request socket timeout, seconds.
TIMEOUT_S = 10.0


@dataclass(frozen=True)
class LoadTestConfig:
    """One load-test run's shape."""

    #: Concurrent closed-loop workers (one connection each).
    workers: int = 4
    #: Requests each worker issues before exiting.
    requests_per_worker: int = 100
    #: Result-page size requested on every query.
    limit: int = 10
    #: When set, worker ``i`` sends ``X-Client-Id: <prefix>-<i>`` so the
    #: server's token buckets see distinct clients; None sends no header
    #: (all workers share the peer-address bucket).
    client_prefix: Optional[str] = "loadtest"


@dataclass
class LoadTestReport:
    """Aggregated outcome of one run (JSON-able via :meth:`to_dict`)."""

    requests: int = 0
    errors: int = 0
    wall_s: float = 0.0
    status_counts: dict[int, int] = field(default_factory=dict)
    cached_responses: int = 0
    rate_limited: int = 0
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    mean_ms: float = 0.0

    @property
    def rps(self) -> float:
        """Completed requests per wall-clock second."""
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Cached responses over successful ``/search`` responses."""
        ok = self.status_counts.get(200, 0)
        return self.cached_responses / ok if ok else 0.0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "wall_s": self.wall_s,
            "rps": self.rps,
            "status_counts": {str(k): v for k, v in sorted(self.status_counts.items())},
            "cached_responses": self.cached_responses,
            "cache_hit_rate": self.cache_hit_rate,
            "rate_limited": self.rate_limited,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
        }

    def summary(self) -> str:
        return (
            f"{self.requests} requests in {self.wall_s:.2f}s "
            f"({self.rps:.0f} req/s), "
            f"p50={self.p50_ms:.2f}ms p95={self.p95_ms:.2f}ms "
            f"p99={self.p99_ms:.2f}ms, "
            f"cache hit rate {self.cache_hit_rate:.0%}, "
            f"{self.rate_limited} rate-limited, {self.errors} error(s)"
        )


class _Worker(threading.Thread):
    """One closed-loop request stream over a keep-alive connection."""

    def __init__(
        self,
        index: int,
        host: str,
        port: int,
        queries: Sequence[str],
        config: LoadTestConfig,
    ) -> None:
        super().__init__(name=f"loadtest-{index}", daemon=True)
        self.index = index
        self.host = host
        self.port = port
        self.queries = queries
        self.config = config
        self.latency_sketch = QuantileSketch()
        self.status_counts: dict[int, int] = {}
        self.cached = 0
        self.errors = 0

    def run(self) -> None:
        headers = {}
        if self.config.client_prefix is not None:
            headers["X-Client-Id"] = f"{self.config.client_prefix}-{self.index}"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=TIMEOUT_S
        )
        try:
            for sequence in range(self.config.requests_per_worker):
                query = self.queries[(self.index + sequence) % len(self.queries)]
                path = "/search?" + urlencode(
                    {"q": query, "limit": self.config.limit}
                )
                start = time.perf_counter()
                try:
                    connection.request("GET", path, headers=headers)
                    response = connection.getresponse()
                    body = response.read()
                except (OSError, http.client.HTTPException):
                    self.errors += 1
                    connection.close()  # reconnect on the next iteration
                    connection = http.client.HTTPConnection(
                        self.host, self.port, timeout=TIMEOUT_S
                    )
                    continue
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                self.latency_sketch.observe(elapsed_ms)
                status = response.status
                self.status_counts[status] = self.status_counts.get(status, 0) + 1
                if status == 200:
                    try:
                        if json.loads(body).get("cached"):
                            self.cached += 1
                    except ValueError:
                        self.errors += 1
        finally:
            connection.close()


def run_loadtest(
    base_url: str,
    queries: Sequence[str],
    config: LoadTestConfig = LoadTestConfig(),
) -> LoadTestReport:
    """Drive ``queries`` against ``base_url`` per ``config``; aggregate."""
    if not queries:
        raise ValueError("loadtest needs at least one query")
    split = urlsplit(base_url)
    host = split.hostname or "127.0.0.1"
    port = split.port or 80
    workers = [
        _Worker(index, host, port, queries, config)
        for index in range(config.workers)
    ]
    start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall_s = time.perf_counter() - start

    report = LoadTestReport(wall_s=wall_s)
    for worker in workers:
        report.errors += worker.errors
        report.cached_responses += worker.cached
        for status, count in worker.status_counts.items():
            report.status_counts[status] = report.status_counts.get(status, 0) + count
    merged = QuantileSketch()
    for worker in workers:
        merged.merge(worker.latency_sketch)
    report.requests = merged.count
    report.rate_limited = report.status_counts.get(429, 0)
    report.p50_ms = merged.quantile(0.50)
    report.p95_ms = merged.quantile(0.95)
    report.p99_ms = merged.quantile(0.99)
    report.mean_ms = merged.mean
    return report
