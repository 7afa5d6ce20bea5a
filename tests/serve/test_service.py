"""Unit tests for the transport-agnostic serving core (no sockets)."""

import pytest

from repro.clock import CostModel
from repro.crawler import AjaxCrawler
from repro.net.latency import ConstantLatency
from repro.obs import BURN_RATE_RULE, MetricsRegistry, Recorder
from repro.search import InvertedFile, SearchEngine
from repro.serve import (
    BadRequest,
    NotFound,
    RateLimited,
    SearchService,
    ServeConfig,
    UpstreamFailed,
)
from repro.serve.service import MAX_LIMIT
from repro.sites import SiteConfig, SyntheticYouTube

from tests.serve.conftest import FakeClock, pagination_model


@pytest.fixture
def service(engine, fake_clock):
    return SearchService(engine, clock=fake_clock)


class TestSearchValidation:
    def test_missing_q_is_bad_request(self, service):
        with pytest.raises(BadRequest):
            service.search({})

    def test_blank_q_is_bad_request(self, service):
        with pytest.raises(BadRequest):
            service.search({"q": "   "})

    def test_punctuation_only_query_maps_to_400_not_500(self, service):
        """SearchError('empty query') from the engine is a client error."""
        with pytest.raises(BadRequest, match="empty query"):
            service.search({"q": "!!! ???"})

    def test_stopword_only_query_succeeds_via_fallback(self, models, fake_clock):
        """Every token is indexed, so 'the the' is the one-term query
        'the' and answers with its matches — never a 500 or an
        empty-query 400."""
        engine = SearchEngine(InvertedFile().build(models))
        service = SearchService(engine, clock=fake_clock)
        page = service.search({"q": "the the"})
        assert page["total"] == engine.result_count("the") > 0
        assert len(page["results"]) == min(page["total"], page["limit"])

    @pytest.mark.parametrize("raw", ["abc", "1.5", "-1", "0"])
    def test_bad_limit_is_bad_request(self, service, raw):
        with pytest.raises(BadRequest):
            service.search({"q": "morcheeba", "limit": raw})

    def test_limit_above_max_is_bad_request(self, service):
        page = service.search({"q": "morcheeba", "limit": str(MAX_LIMIT)})
        assert page["limit"] == MAX_LIMIT
        with pytest.raises(BadRequest, match="maximum"):
            service.search({"q": "morcheeba", "limit": str(MAX_LIMIT + 1)})

    def test_negative_offset_is_bad_request(self, service):
        with pytest.raises(BadRequest):
            service.search({"q": "morcheeba", "offset": "-1"})

    def test_non_integer_offset_is_bad_request(self, service):
        with pytest.raises(BadRequest):
            service.search({"q": "morcheeba", "offset": "two"})


class TestPagination:
    def test_default_page(self, service):
        page = service.search({"q": "morcheeba"})
        assert page["total"] == 3
        assert len(page["results"]) == 3
        assert page["offset"] == 0
        assert page["cached"] is False

    def test_limit_slices(self, service):
        page = service.search({"q": "morcheeba", "limit": "2"})
        assert page["total"] == 3
        assert len(page["results"]) == 2

    def test_offset_walks_pages_without_overlap(self, service):
        first = service.search({"q": "morcheeba", "limit": "2"})
        second = service.search({"q": "morcheeba", "limit": "2", "offset": "2"})
        keys = [(r["uri"], r["state"]) for r in first["results"]] + [
            (r["uri"], r["state"]) for r in second["results"]
        ]
        assert len(keys) == 3
        assert len(set(keys)) == 3

    def test_offset_beyond_total_is_empty_200(self, service):
        page = service.search({"q": "morcheeba", "offset": "99"})
        assert page["total"] == 3
        assert page["results"] == []

    def test_pages_are_slices_of_the_full_ranking(self, fake_clock):
        """The service asks the engine for ``offset + limit`` results
        only; ``total`` and every page must be what slicing the whole
        ranking gave."""
        deep = SearchEngine.build(
            [
                pagination_model(f"url{page}", [f"word filler{state}" for state in range(9)])
                for page in range(5)
            ]
        )
        service = SearchService(deep, ServeConfig(cache_entries=0), clock=fake_clock)
        full = [
            {"uri": r.uri, "state": r.state_id, "score": r.score, "components": r.components}
            for r in deep.search("word")
        ]
        assert len(full) == deep.result_count("word") == 45
        for limit in (1, 7, 50):
            for offset in (0, 3, 44, 45, 60):
                page = service.search(
                    {"q": "word", "limit": str(limit), "offset": str(offset)}
                )
                assert page["total"] == 45, (limit, offset)
                assert page["results"] == full[offset : offset + limit], (limit, offset)

    def test_results_carry_score_components(self, service):
        page = service.search({"q": "morcheeba"})
        top = page["results"][0]
        assert set(top) == {"uri", "state", "score", "components"}


class TestCacheIntegration:
    def test_second_identical_query_is_cached(self, service):
        assert service.search({"q": "morcheeba"})["cached"] is False
        assert service.search({"q": "morcheeba"})["cached"] is True
        assert service.cache.hits == 1
        assert service.cache.misses == 1

    def test_cached_payload_identical_to_fresh(self, service):
        fresh = service.search({"q": "morcheeba", "limit": "2"})
        cached = service.search({"q": "morcheeba", "limit": "2"})
        assert {k: v for k, v in cached.items() if k != "cached"} == {
            k: v for k, v in fresh.items() if k != "cached"
        }

    def test_distinct_limit_offset_are_distinct_keys(self, service):
        service.search({"q": "morcheeba", "limit": "1"})
        page = service.search({"q": "morcheeba", "limit": "2"})
        assert page["cached"] is False

    def test_ttl_expiry_accounting_on_virtual_clock(self, engine, fake_clock):
        service = SearchService(
            engine, ServeConfig(cache_ttl_s=30.0), clock=fake_clock
        )
        service.search({"q": "morcheeba"})
        fake_clock.advance(29.0)
        assert service.search({"q": "morcheeba"})["cached"] is True
        fake_clock.advance(2.0)
        assert service.search({"q": "morcheeba"})["cached"] is False
        assert service.cache.hits == 1
        assert service.cache.misses == 2
        assert service.registry.counter("serve.cache_expired") == 1

    def test_cache_disabled(self, engine, fake_clock):
        service = SearchService(
            engine, ServeConfig(cache_entries=0), clock=fake_clock
        )
        assert service.search({"q": "morcheeba"})["cached"] is False
        assert service.search({"q": "morcheeba"})["cached"] is False


class TestRateLimiting:
    def test_admit_unlimited_by_default(self, service):
        for _ in range(1000):
            service.admit("anyone")

    def test_admit_raises_with_retry_after(self, engine, fake_clock):
        service = SearchService(
            engine,
            ServeConfig(rate_limit_rps=2.0, rate_limit_burst=1.0),
            clock=fake_clock,
        )
        service.admit("c")
        with pytest.raises(RateLimited) as info:
            service.admit("c")
        assert info.value.status == 429
        assert info.value.retry_after_s == pytest.approx(0.5)

    def test_bucket_refills_on_clock(self, engine, fake_clock):
        service = SearchService(
            engine,
            ServeConfig(rate_limit_rps=2.0, rate_limit_burst=1.0),
            clock=fake_clock,
        )
        service.admit("c")
        fake_clock.advance(0.6)
        service.admit("c")  # does not raise


class TestLatencyInjection:
    def test_disabled_by_default(self, engine, fake_clock):
        slept = []
        service = SearchService(
            engine, clock=fake_clock, sleep=slept.append
        )
        service.search({"q": "morcheeba"})
        assert slept == []

    def test_injects_deterministic_latency(self, engine, fake_clock):
        slept = []
        service = SearchService(
            engine,
            ServeConfig(
                latency_ms=100.0, latency_distribution=ConstantLatency(2.0)
            ),
            clock=fake_clock,
            sleep=slept.append,
        )
        service.search({"q": "morcheeba"})
        assert slept == [pytest.approx(0.2)]
        assert service.registry.counter("serve.latency_injected_ms") == (
            pytest.approx(200.0)
        )

    def test_cache_hits_skip_injection(self, engine, fake_clock):
        slept = []
        service = SearchService(
            engine,
            ServeConfig(
                latency_ms=100.0, latency_distribution=ConstantLatency(1.0)
            ),
            clock=fake_clock,
            sleep=slept.append,
        )
        service.search({"q": "morcheeba"})
        service.search({"q": "morcheeba"})
        assert len(slept) == 1

    def test_latency_storm_burns_the_slo_budget(self, engine):
        """Sleeping advances the virtual clock, so every request takes
        exactly the injected 400 ms: past the latency SLO, exactly."""
        clock = FakeClock(1000.0)
        service = SearchService(
            engine,
            ServeConfig(latency_ms=400.0, latency_distribution=ConstantLatency()),
            clock=clock,
            sleep=clock.advance,
        )
        for index in range(20):  # distinct offsets: every request misses the cache
            service.search(
                {"q": "morcheeba", "offset": str(index)}, request_id=f"storm-{index}"
            )
            clock.advance(1.0)
        telemetry = service.telemetry
        burn = [f for f in telemetry.diagnose() if f.rule == BURN_RATE_RULE]
        assert "critical" in {f.severity for f in burn}
        assert len(telemetry.slow_queries()) == 20
        assert telemetry.trace("storm-19")["duration_ms"] == pytest.approx(400.0)


class TestObservability:
    def test_requests_counted_by_endpoint_and_status(self, service):
        service.search({"q": "morcheeba"})
        with pytest.raises(BadRequest):
            service.search({"q": ""})
        registry = service.registry
        assert registry.counter("serve.requests", endpoint="search", status=200) == 1
        assert registry.counter("serve.requests", endpoint="search", status=400) == 1
        histogram = registry.histogram("serve.request_ms", endpoint="search")
        assert histogram is not None and histogram.count == 2

    def test_serve_request_events_emitted(self, engine, fake_clock):
        recorder = Recorder()
        service = SearchService(
            engine, clock=fake_clock, recorder=recorder
        )
        service.search({"q": "morcheeba"}, client="alice")
        kinds = [event.kind for event in recorder.events]
        assert "serve_request" in kinds
        event = next(e for e in recorder.events if e.kind == "serve_request")
        assert event.fields["endpoint"] == "search"
        assert event.fields["status"] == 200
        assert event.fields["client"] == "alice"

    def test_metrics_text_is_prometheus(self, service):
        service.search({"q": "morcheeba"})
        text = service.metrics_text()
        assert "serve_requests" in text
        assert "# TYPE serve_requests counter" in text

    def test_health(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["states"] == 3


class TestResultEndpoint:
    @pytest.fixture(scope="class")
    def yt(self):
        site = SyntheticYouTube(SiteConfig(num_videos=6, seed=13))
        crawler = AjaxCrawler(site, cost_model=CostModel(network_jitter=0.0))
        crawled = crawler.crawl([site.video_url(i) for i in range(6)])
        return site, crawled.models

    @pytest.fixture
    def yt_service(self, yt, fake_clock):
        site, models = yt
        return SearchService(
            SearchEngine.build(models),
            models=models,
            site=site,
            clock=fake_clock,
        )

    def test_missing_params_is_bad_request(self, yt_service):
        with pytest.raises(BadRequest):
            yt_service.result({"uri": "x"})
        with pytest.raises(BadRequest):
            yt_service.result({"state": "s0"})

    def test_not_configured_is_not_found(self, service):
        with pytest.raises(NotFound, match="not configured"):
            service.result({"uri": "url1", "state": "s0"})

    def test_unknown_uri_is_not_found(self, yt_service):
        with pytest.raises(NotFound):
            yt_service.result({"uri": "http://nope.test/", "state": "s0"})

    def test_unknown_state_is_not_found(self, yt_service):
        uri = next(iter(yt_service.models))
        with pytest.raises(NotFound, match="unknown state"):
            yt_service.result({"uri": uri, "state": "s999"})

    def test_replays_a_deep_state(self, yt_service):
        uri, model = next(
            (url, m)
            for url, m in yt_service.models.items()
            if any(s.depth >= 1 for s in m.states())
        )
        deep = max(model.states(), key=lambda s: s.depth)
        response = yt_service.result({"uri": uri, "state": deep.state_id})
        assert response["uri"] == uri
        assert response["state"] == deep.state_id
        assert "<html" in response["html"].lower()

    def test_drifted_site_maps_to_upstream_failed(self, yt_service):
        uri, model = next(iter(yt_service.models.items()))
        state = model.states()[0]
        original = state.content_hash
        state.content_hash = "0" * 64
        try:
            with pytest.raises(UpstreamFailed) as info:
                yt_service.result({"uri": uri, "state": state.state_id})
            assert info.value.status == 502
        finally:
            state.content_hash = original

    def test_result_failures_counted(self, yt_service):
        with pytest.raises(BadRequest):
            yt_service.result({})
        assert (
            yt_service.registry.counter(
                "serve.requests", endpoint="result", status=400
            )
            == 1
        )


def test_unexpected_engine_failure_counts_as_500(models, fake_clock):
    """A non-ServeError escaping the handler body is booked as 500."""

    class ExplodingEngine(SearchEngine):
        def top(self, query, k=None):
            raise RuntimeError("boom")

    engine = ExplodingEngine(InvertedFile().build(models))
    service = SearchService(engine, clock=fake_clock)
    with pytest.raises(RuntimeError):
        service.search({"q": "morcheeba"})
    assert service.registry.counter(
        "serve.requests", endpoint="search", status=500
    ) == 1


class TestServingLatencyBuckets:
    """serve.request_ms must use the sub-millisecond serving bounds, not
    the generic 1ms-floor defaults that collapsed every cache hit into
    the first bucket."""

    def test_service_histogram_uses_serving_bounds(self, engine):
        from repro.obs import SERVE_LATENCY_BUCKETS

        service = SearchService(engine)
        service.search({"q": "morcheeba"})
        histogram = service.registry.histogram(
            "serve.request_ms", endpoint="search"
        )
        assert histogram.bounds == SERVE_LATENCY_BUCKETS
        assert histogram.bounds[0] == 0.05

    def test_sub_ms_cache_hits_resolve_across_buckets(self):
        from repro.obs import MetricsRegistry, SERVE_LATENCY_BUCKETS

        registry = MetricsRegistry()
        # A 30µs cache hit, a 400µs miss, a 300ms replay: with the old
        # 1ms-floor bounds all three of these landed in bucket 0.
        for value in (0.03, 0.4, 300.0):
            registry.observe("serve.request_ms", value, endpoint="search")
        histogram = registry.histogram("serve.request_ms", endpoint="search")
        occupied = [
            bound
            for bound, count in zip(histogram.bounds, histogram.bucket_counts)
            if count
        ]
        assert len(occupied) == 3
        assert occupied[0] < 1.0  # the cache hit resolved below 1ms
        assert histogram.bucket_counts[0] == 1  # and only it is in bucket 0

    def test_other_histograms_keep_default_bounds(self):
        from repro.obs import DEFAULT_BUCKETS, MetricsRegistry

        registry = MetricsRegistry()
        registry.observe("net.latency_ms", 3.0)
        assert registry.histogram("net.latency_ms").bounds == DEFAULT_BUCKETS
