"""End-to-end HTTP tests: a real server on an ephemeral port."""

import json
import urllib.error
import urllib.request
from urllib.parse import urlencode

import pytest

from repro.clock import CostModel
from repro.crawler import AjaxCrawler
from repro.search import SearchEngine
from repro.serve import CLIENT_HEADER, SearchServer, SearchService, ServeConfig
from repro.sites import SiteConfig, SyntheticYouTube


def get(url, client="test"):
    """(status, parsed JSON or text, headers); 4xx/5xx don't raise."""
    request = urllib.request.Request(url, headers={CLIENT_HEADER: client})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            status, body, headers = (
                response.status,
                response.read(),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        status, body, headers = error.code, error.read(), dict(error.headers)
    text = body.decode("utf-8")
    if headers.get("Content-Type", "").startswith("application/json"):
        return status, json.loads(text), headers
    return status, text, headers


@pytest.fixture
def server(engine):
    with SearchServer(SearchService(engine)) as running:
        yield running


class TestEndpoints:
    def test_search_200(self, server):
        status, body, headers = get(
            f"{server.url}/search?{urlencode({'q': 'morcheeba'})}"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        assert body["total"] == 3
        assert body["results"][0]["uri"]

    def test_search_conjunction(self, server):
        status, body, _ = get(
            f"{server.url}/search?{urlencode({'q': 'morcheeba singer'})}"
        )
        assert status == 200
        assert [(r["uri"], r["state"]) for r in body["results"]] == [("url1", "s1")]

    def test_healthz(self, server):
        status, body, _ = get(f"{server.url}/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_metrics_exposition(self, server):
        get(f"{server.url}/search?q=morcheeba")
        status, text, headers = get(f"{server.url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "serve_requests" in text
        assert 'endpoint="search"' in text

    def test_repeated_query_served_from_cache(self, server):
        get(f"{server.url}/search?q=morcheeba")
        status, body, _ = get(f"{server.url}/search?q=morcheeba")
        assert status == 200
        assert body["cached"] is True


class TestErrorMapping:
    def test_blank_query_400(self, server):
        status, body, _ = get(f"{server.url}/search?q=")
        assert status == 400
        assert "q" in body["error"]

    def test_punctuation_query_400(self, server):
        status, body, _ = get(f"{server.url}/search?{urlencode({'q': '!!!'})}")
        assert status == 400

    def test_bad_limit_400(self, server):
        status, _, _ = get(f"{server.url}/search?q=morcheeba&limit=banana")
        assert status == 400

    def test_unknown_endpoint_404(self, server):
        status, body, _ = get(f"{server.url}/bogus")
        assert status == 404
        assert body["status"] == 404

    def test_result_not_configured_404(self, server):
        status, _, _ = get(f"{server.url}/result?uri=url1&state=s0")
        assert status == 404


def test_result_replays_a_searched_hit():
    """Crawl, search, then replay a hit that sits behind an event (§5.4)."""
    site = SyntheticYouTube(SiteConfig(num_videos=6, seed=13))
    crawler = AjaxCrawler(site, cost_model=CostModel(network_jitter=0.0))
    models = crawler.crawl([site.video_url(i) for i in range(6)]).models
    service = SearchService(SearchEngine.build(models), models=models, site=site)
    with SearchServer(service) as server:
        status, body, _ = get(f"{server.url}/search?q=wow")
        assert status == 200
        uri, state = next(
            (hit["uri"], hit["state"]) for hit in body["results"] if hit["state"] != "s0"
        )
        status, body, _ = get(
            f"{server.url}/result?{urlencode({'uri': uri, 'state': state})}"
        )
    assert status == 200
    assert (body["uri"], body["state"]) == (uri, state)
    assert body["depth"] >= 1
    assert "wow" in body["html"].lower()


class TestRateLimiting:
    @pytest.fixture
    def limited(self, engine):
        config = ServeConfig(rate_limit_rps=0.001, rate_limit_burst=2.0)
        with SearchServer(SearchService(engine, config)) as running:
            yield running

    def test_429_with_retry_after(self, limited):
        statuses = []
        for _ in range(3):
            status, _, headers = get(f"{limited.url}/search?q=morcheeba", "alice")
            statuses.append((status, headers))
        assert [s for s, _ in statuses] == [200, 200, 429]
        _, headers = statuses[-1]
        assert int(headers["Retry-After"]) >= 1

    def test_clients_limited_independently(self, limited):
        assert get(f"{limited.url}/search?q=morcheeba", "a")[0] == 200
        assert get(f"{limited.url}/search?q=morcheeba", "a")[0] == 200
        assert get(f"{limited.url}/search?q=morcheeba", "a")[0] == 429
        assert get(f"{limited.url}/search?q=morcheeba", "b")[0] == 200

    def test_metrics_not_rate_limited(self, limited):
        for _ in range(4):
            get(f"{limited.url}/search?q=morcheeba", "c")
        status, _, _ = get(f"{limited.url}/metrics", "c")
        assert status == 200


class TestLifecycle:
    def test_ephemeral_port_bound(self, engine):
        server = SearchServer(SearchService(engine)).start()
        try:
            assert server.port > 0
            assert get(f"{server.url}/healthz")[0] == 200
        finally:
            assert server.stop() is True

    def test_clean_shutdown_joins_thread(self, engine):
        server = SearchServer(SearchService(engine)).start()
        assert server.stop() is True
        assert server._thread is None

    def test_double_start_rejected(self, engine):
        server = SearchServer(SearchService(engine)).start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()
