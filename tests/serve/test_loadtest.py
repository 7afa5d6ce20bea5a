"""Tests for the closed-loop load-test harness."""

import random

import pytest

from repro.obs.sketch import QuantileSketch
from repro.serve import (
    LoadTestConfig,
    SearchServer,
    SearchService,
    ServeConfig,
    run_loadtest,
)

from tests.obs.test_sketch import percentile


class TestPercentile:
    """The exact nearest-rank reference the report's sketched
    percentiles are held to (below and in ``tests/obs``)."""

    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 0.99) == 7.0

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestSketchEstimator:
    """The report's percentiles now come from per-worker sketches; the
    estimator must stay within the sketch's relative-error bound of the
    exact nearest-rank values the old sort-based path reported."""

    def test_merged_worker_sketches_match_exact_percentiles(self):
        rng = random.Random(7)
        latencies = [rng.lognormvariate(1.0, 1.2) for _ in range(5000)]
        # Round-robin across 4 "workers", like run_loadtest does.
        sketches = [QuantileSketch() for _ in range(4)]
        for index, value in enumerate(latencies):
            sketches[index % 4].observe(value)
        merged = QuantileSketch()
        for sketch in sketches:
            merged.merge(sketch)
        exact = sorted(latencies)
        for fraction in (0.5, 0.95, 0.99):
            truth = percentile(exact, fraction)
            estimate = merged.quantile(fraction)
            assert abs(estimate - truth) <= merged.relative_accuracy * truth
        assert merged.count == len(latencies)
        assert merged.mean == pytest.approx(sum(latencies) / len(latencies))


class TestRunLoadtest:
    @pytest.fixture
    def server(self, engine):
        with SearchServer(SearchService(engine)) as running:
            yield running

    def test_closed_loop_run(self, server):
        config = LoadTestConfig(workers=2, requests_per_worker=15)
        report = run_loadtest(
            server.url, ["morcheeba", "singer", "concert"], config
        )
        assert report.requests == 30
        assert report.errors == 0
        assert report.status_counts == {200: 30}
        # Three distinct (query, limit) keys: everything after the first
        # pass is a cache hit.
        assert report.cached_responses >= 20
        assert report.cache_hit_rate > 0.5
        assert report.rps > 0
        assert 0 < report.p50_ms <= report.p95_ms <= report.p99_ms

    def test_report_round_trips_to_json(self, server):
        report = run_loadtest(
            server.url,
            ["morcheeba"],
            LoadTestConfig(workers=1, requests_per_worker=5),
        )
        data = report.to_dict()
        assert data["requests"] == 5
        assert data["status_counts"] == {"200": 5}
        assert data["rps"] == pytest.approx(report.rps)
        assert report.summary()

    def test_rate_limited_server_reports_429s(self, engine):
        config = ServeConfig(rate_limit_rps=0.001, rate_limit_burst=3.0)
        with SearchServer(SearchService(engine, config)) as server:
            report = run_loadtest(
                server.url,
                ["morcheeba"],
                LoadTestConfig(workers=1, requests_per_worker=10),
            )
        assert report.rate_limited == 7
        assert report.status_counts[200] == 3

    def test_mixed_status_queries(self, engine):
        """400s are counted per status, not as transport errors."""
        with SearchServer(SearchService(engine)) as server:
            report = run_loadtest(
                server.url,
                ["morcheeba", "!!!"],
                LoadTestConfig(workers=1, requests_per_worker=10),
            )
        assert report.errors == 0
        assert report.status_counts[200] == 5
        assert report.status_counts[400] == 5

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            run_loadtest("http://127.0.0.1:1", [])
