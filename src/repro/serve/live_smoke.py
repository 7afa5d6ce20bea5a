"""Live-telemetry smoke test: the in-process doctor must fire on a
seeded latency storm and stay silent on a healthy workload.

``python -m repro.serve.live_smoke`` (the ``make obs-live-smoke`` gate)
runs the serving stack twice on a virtual clock:

1. **clean run** — a cache-friendly workload with small injected
   latency: the live doctor must report **no findings**, the SLO
   budgets must be unspent, and /debug/vars must add up;
2. **storm run** — the seeded latency injector is cranked past the
   latency SLO threshold on a cache-busting workload: the
   ``slo-burn-rate`` rule must fire (both burn horizons saturated),
   the slow-query log must fill, and the tail ring must retain the
   slow requests for ``/debug/trace`` lookup.

The injector sleeps by *advancing the virtual clock*, so observed
request latency equals injected latency exactly — the storm is
deterministic (seeded jitter), fast (no real sleeping), and the
assertions are exact rather than statistical.

Exit status 0 on success, 1 with a diagnostic on any violation.
"""

from __future__ import annotations

import sys

from repro.clock import CostModel
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.obs.slo import BURN_RATE_RULE
from repro.search import SearchEngine
from repro.serve.service import SearchService, ServeConfig
from repro.sites import SiteConfig, SyntheticYouTube


class _VirtualClock:
    """A monotonic clock that moves only when told to (or slept on)."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def sleep(self, seconds: float) -> None:
        self.advance(seconds)


def _build_engine(num_videos: int = 8) -> SearchEngine:
    site = SyntheticYouTube(SiteConfig(num_videos=num_videos, seed=7))
    crawler = AjaxCrawler(
        site, CrawlerConfig(), cost_model=CostModel(network_jitter=0.0)
    )
    crawled = crawler.crawl([site.video_url(i) for i in range(num_videos)])
    return SearchEngine.build(crawled.models)


def _service(
    engine: SearchEngine, clock: _VirtualClock, latency_ms: float
) -> SearchService:
    return SearchService(
        engine,
        ServeConfig(latency_ms=latency_ms),
        clock=clock,
        sleep=clock.sleep,
    )


def run_smoke(verbose: bool = True) -> int:
    """Run the clean + storm sequence; returns a process exit status."""
    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    def say(message: str) -> None:
        if verbose:
            print(f"[obs-live-smoke] {message}")

    engine = _build_engine()
    say(f"engine ready: {engine.index.num_states} states indexed")

    # -- 1. clean run: modest latency, cache-friendly workload ------------------
    clock = _VirtualClock()
    service = _service(engine, clock, latency_ms=5.0)
    queries = [f"video {i}" for i in range(8)]
    for _ in range(3):  # repeat rounds hit the cache
        for query in queries:
            service.search({"q": query}, client="clean")
            clock.advance(0.25)
    telemetry = service.telemetry
    findings = telemetry.diagnose()
    check(
        not findings,
        "clean run produced findings: "
        + "; ".join(f"{f.rule}: {f.message}" for f in findings),
    )
    data = telemetry.vars()
    check(
        data["endpoints"]["search"]["requests"] == 24.0,
        f"clean run booked {data['endpoints']['search']['requests']} "
        f"requests, wanted 24",
    )
    check(
        data["cache"]["hit_rate"] > 0.5,
        f"clean run cache hit rate {data['cache']['hit_rate']:.0%}, "
        f"wanted > 50%",
    )
    for name, spent in data["slo"].items():
        check(spent == 0.0, f"clean run spent {spent:.0%} of SLO {name!r}")
    say(
        f"clean run: {data['endpoints']['search']['requests']:.0f} requests, "
        f"cache {data['cache']['hit_rate']:.0%}, no findings"
    )

    # -- 2. storm run: latency past the SLO threshold, cache-busting ------------
    clock = _VirtualClock()
    service = _service(engine, clock, latency_ms=400.0)
    for index in range(20):  # unique queries: every one misses the cache
        rid = f"storm-{index:04d}"
        service.search({"q": f"video clip {index}"}, client="storm", request_id=rid)
        clock.advance(1.0)
    telemetry = service.telemetry
    findings = telemetry.diagnose()
    burn = [f for f in findings if f.rule == BURN_RATE_RULE]
    check(
        bool(burn),
        "storm run fired no slo-burn-rate finding; got "
        + (", ".join(f.rule for f in findings) or "nothing"),
    )
    if burn:
        check(
            any(f.severity == "critical" for f in burn),
            f"storm burn findings are only {[f.severity for f in burn]}",
        )
        say(f"storm run: {burn[0].message}")
    slow = telemetry.slow_queries()
    check(
        len(slow) == 20,
        f"storm run logged {len(slow)} slow queries, wanted 20",
    )
    trace = telemetry.trace("storm-0019")
    check(
        trace is not None and trace["duration_ms"] >= 250.0,
        "storm request 'storm-0019' was not retained in the tail ring",
    )

    if failures:
        for failure in failures:
            print(f"[obs-live-smoke] FAIL: {failure}", file=sys.stderr)
        return 1
    say("ok")
    return 0


if __name__ == "__main__":
    sys.exit(run_smoke())
