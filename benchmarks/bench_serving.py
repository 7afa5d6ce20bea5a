"""Serving-tier load benchmark: latency percentiles, RPS, cache, 429s.

Boots a real :class:`~repro.serve.SearchServer` on an ephemeral port
over a 40-video synthetic YouTube crawl and drives the Table 7.4 paper
workload through closed-loop HTTP workers, four ways:

1. **throughput** — no limits, 8 workers: p50/p95/p99 latency, RPS and
   cache hit rate of the hot serving path (a 99%-hit run: it times the
   LRU);
2. **uncached** — the same load against ``ServeConfig(cache_entries=0)``:
   every request reaches the engine, so this lane times retrieval and
   ranking (the large-corpus version is ``benchmarks/e2e``'s
   ``serve_uncached``);
3. **rate-limited** — a tight token bucket: verifies the 429 path under
   load and records the rejection count;
4. **soak** — 5 ms deterministic injected latency: verifies injection
   actually shapes the observed latency floor.

Live telemetry (windowed counters, sketches, SLO trackers, trace rings)
is not a lane: it is the only serving path, so every lane above pays
for it, and its cost per request is inside what ``benchmarks/e2e``'s
``serve_uncached`` reports as ``serve.service_overhead_ms``.

Results go to ``benchmarks/results/BENCH_serving.json``.  The asserted
floors are deliberately loose (an order of magnitude under the
recording machine) — they catch a serving-path complexity regression,
not machine noise.
"""

import json
from pathlib import Path

from repro.clock import CostModel
from repro.crawler import AjaxCrawler
from repro.net.latency import ConstantLatency
from repro.search import SearchEngine
from repro.serve import (
    LoadTestConfig,
    SearchServer,
    SearchService,
    ServeConfig,
    run_loadtest,
)
from repro.sites import SiteConfig, SyntheticYouTube, paper_queries

RESULT_PATH = Path(__file__).resolve().parent / "results" / "BENCH_serving.json"

NUM_VIDEOS = 40

#: Throughput floors (recording machine: >1000 req/s, sub-ms p50); the
#: uncached lane answers to the same ones.
MIN_RPS = 50.0
MAX_P50_MS = 100.0
MAX_P99_MS = 1000.0
MIN_CACHE_HIT_RATE = 0.5

_CORPUS = None


def _corpus():
    """Crawl + index once; every serving pass shares the read-only engine."""
    global _CORPUS
    if _CORPUS is None:
        site = SyntheticYouTube(SiteConfig(num_videos=NUM_VIDEOS, seed=7))
        crawler = AjaxCrawler(site, cost_model=CostModel(network_jitter=0.0))
        crawled = crawler.crawl([site.video_url(i) for i in range(NUM_VIDEOS)])
        engine = SearchEngine.build(crawled.models)
        _CORPUS = (engine, crawled.models, site)
    return _CORPUS


def _build_service(config: ServeConfig) -> SearchService:
    engine, models, site = _corpus()
    return SearchService(engine, config, models=models, site=site)


def serving_study() -> dict:
    queries = [query.text for query in paper_queries()]

    with SearchServer(_build_service(ServeConfig())) as server:
        throughput = run_loadtest(
            server.url,
            queries,
            LoadTestConfig(workers=8, requests_per_worker=150),
        )
        states = server.service.engine.index.num_states

    with SearchServer(_build_service(ServeConfig(cache_entries=0))) as server:
        uncached = run_loadtest(
            server.url,
            queries,
            LoadTestConfig(workers=8, requests_per_worker=150),
        )

    limited_config = ServeConfig(rate_limit_rps=10.0, rate_limit_burst=5.0)
    with SearchServer(_build_service(limited_config)) as server:
        limited = run_loadtest(
            server.url,
            queries,
            # One shared client id so every worker drains the same bucket.
            LoadTestConfig(workers=4, requests_per_worker=50, client_prefix=None),
        )

    # Cache off: hits skip injection, and a 99%-hit workload would
    # otherwise hide the injected floor entirely.
    soak_config = ServeConfig(
        latency_ms=5.0,
        latency_distribution=ConstantLatency(1.0),
        cache_entries=0,
    )
    with SearchServer(_build_service(soak_config)) as server:
        soak = run_loadtest(
            server.url,
            queries,
            LoadTestConfig(workers=4, requests_per_worker=30),
        )

    report = {
        "dataset": {"num_videos": NUM_VIDEOS, "indexed_states": states},
        "workload": {"queries": len(queries), "source": "Table 7.4"},
        "throughput": throughput.to_dict(),
        "uncached": uncached.to_dict(),
        "rate_limited": limited.to_dict(),
        "soak_latency_5ms": soak.to_dict(),
        "threshold": {
            "min_rps": MIN_RPS,
            "max_p50_ms": MAX_P50_MS,
            "max_p99_ms": MAX_P99_MS,
            "min_cache_hit_rate": MIN_CACHE_HIT_RATE,
        },
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_serving_benchmark(benchmark):
    report = benchmark.pedantic(serving_study, rounds=1, iterations=1)
    throughput = report["throughput"]
    limited = report["rate_limited"]
    soak = report["soak_latency_5ms"]
    print(
        f"\n[serving] {throughput['requests']} requests at "
        f"{throughput['rps']:.0f} req/s, p50={throughput['p50_ms']:.2f}ms "
        f"p95={throughput['p95_ms']:.2f}ms p99={throughput['p99_ms']:.2f}ms, "
        f"cache hit rate {throughput['cache_hit_rate']:.0%}"
    )
    uncached = report["uncached"]
    print(
        f"[serving] uncached pass: {uncached['rps']:.0f} req/s, "
        f"p50={uncached['p50_ms']:.2f}ms p99={uncached['p99_ms']:.2f}ms"
    )
    print(
        f"[serving] rate-limited pass: {limited['rate_limited']} of "
        f"{limited['requests']} rejected with 429"
    )
    print(
        f"[serving] soak pass (5ms injected): p50={soak['p50_ms']:.2f}ms"
    )

    assert throughput["errors"] == 0
    assert throughput["rps"] >= MIN_RPS
    assert throughput["p50_ms"] <= MAX_P50_MS
    assert throughput["p99_ms"] <= MAX_P99_MS
    assert throughput["cache_hit_rate"] >= MIN_CACHE_HIT_RATE
    # With the cache off the engine answers every request.
    assert uncached["errors"] == 0 and uncached["cached_responses"] == 0
    assert uncached["rps"] >= MIN_RPS
    assert uncached["p50_ms"] <= MAX_P50_MS
    assert uncached["p99_ms"] <= MAX_P99_MS
    # The tight bucket must reject most of the closed-loop burst...
    assert limited["rate_limited"] > 0
    assert limited["status_counts"].get("429", 0) == limited["rate_limited"]
    # ...and injected latency must dominate the soak pass's floor.
    assert soak["p50_ms"] >= 4.0
    assert RESULT_PATH.exists()
