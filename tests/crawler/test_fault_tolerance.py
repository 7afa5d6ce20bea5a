"""Crawler fault tolerance."""

import pytest

from repro.clock import CostModel
from repro.crawler import AjaxCrawler, CrawlerConfig, TraditionalCrawler
from repro.errors import BrowserError
from repro.net import FaultInjector, FaultPlan, FaultRule, Response, RoutedServer
from repro.sites import SiteConfig, SyntheticYouTube


def make_tab_server(robots_body=None):
    """A small non-YouTube AJAX app: two tabs updating div#content."""
    server = RoutedServer()

    @server.route(r"/app")
    def app(request, match):
        return Response(
            body="""<html><body>
            <a id="t1" onclick="openTab(1)">one</a>
            <a id="t2" onclick="openTab(2)">two</a>
            <div id="sidebar"><p>static</p></div>
            <div id="content">start</div>
            <script>
            function fetchTab(i) {
                var req = new XMLHttpRequest();
                req.open("GET", "/tab?i=" + i, true);
                req.send(null);
                return req.responseText;
            }
            function openTab(i) {
                var body = fetchTab(i);
                if (body != "") {
                    document.getElementById("content").innerHTML = body;
                }
            }
            </script>
            </body></html>"""
        )

    @server.route(r"/tab")
    def tab(request, match):
        index = request.query.get("i")
        return Response(body=f"<p>tab {index} text</p>")

    if robots_body is not None:
        @server.route(r"/ajax-robots.json")
        def robots(request, match):
            return Response(body=robots_body, content_type="application/json")

    return server


def cost():
    return CostModel(network_jitter=0.0)


@pytest.fixture
def site():
    return SyntheticYouTube(SiteConfig(num_videos=6, seed=3))


class TestFaultTolerance:
    def test_dead_link_recorded_and_skipped(self, site):
        crawler = AjaxCrawler(site, cost_model=cost())
        urls = [site.video_url(0), "http://simtube.test/watch?v=v99999", site.video_url(1)]
        result = crawler.crawl(urls)
        assert result.failed_urls == ["http://simtube.test/watch?v=v99999"]
        assert result.report.num_pages == 2

    def test_fail_fast_raises(self, site):
        crawler = AjaxCrawler(site, cost_model=cost())
        with pytest.raises(BrowserError):
            crawler.crawl(["http://simtube.test/watch?v=v99999"], fail_fast=True)

    def test_all_good_has_no_failures(self, site):
        crawler = TraditionalCrawler(site, cost_model=cost())
        result = crawler.crawl([site.video_url(i) for i in range(3)])
        assert result.failed_urls == []

    def test_merge_carries_failures(self, site):
        from repro.crawler import CrawlResult

        a = CrawlResult(failed_urls=["x"])
        b = CrawlResult(failed_urls=["y"])
        a.merge(b)
        assert a.failed_urls == ["x", "y"]

    def test_failure_report_carries_attempts_and_elapsed(self, site):
        plan = FaultPlan([FaultRule(r"/watch", rate=1.0)])
        config = CrawlerConfig(retry_max_attempts=3)
        crawler = AjaxCrawler(FaultInjector(site, plan), config, cost_model=cost())
        result = crawler.crawl([site.video_url(0), site.video_url(1)])
        assert result.report.num_pages == 0
        assert [f.url for f in result.failures] == result.failed_urls
        assert all(f.attempts == 3 for f in result.failures)
        assert all(f.elapsed_ms > 0 for f in result.failures)
        assert all("status 500" in f.error for f in result.failures)


class TestQuarantine:
    """Dead AJAX endpoints degrade the model, never kill the page crawl."""

    def test_dead_ajax_endpoint_quarantined(self):
        server = make_tab_server()
        plan = FaultPlan([FaultRule(r"/tab", rate=1.0)])
        config = CrawlerConfig(use_hot_node=False, retry_max_attempts=2)
        crawler = AjaxCrawler(FaultInjector(server, plan), config, cost_model=cost())
        result = crawler.crawl_page("http://t.test/app")
        # The page itself survives with just its initial state.
        assert result.model.num_states == 1
        assert result.metrics.events_quarantined >= 2
        # Quarantined events never become transitions.
        assert result.model.num_transitions == 0
        assert crawler.stats.failed_requests > 0

    def test_flaky_endpoint_recovers_and_crawl_is_complete(self):
        server = make_tab_server()
        # Each tab URL fails once, then recovers: retries absorb it all.
        plan = FaultPlan([FaultRule(r"/tab", fail_first=1)])
        config = CrawlerConfig(use_hot_node=False, retry_max_attempts=3)
        crawler = AjaxCrawler(FaultInjector(server, plan), config, cost_model=cost())
        result = crawler.crawl_page("http://t.test/app")
        clean = AjaxCrawler(
            make_tab_server(), CrawlerConfig(use_hot_node=False), cost_model=cost()
        ).crawl_page("http://t.test/app")
        assert result.model.num_states == clean.model.num_states
        assert result.metrics.events_quarantined == 0
        assert crawler.stats.retries == plan.num_injected

    def test_zero_fault_crawl_identical_with_retries_enabled(self, site):
        url = site.video_url(0)
        plain = AjaxCrawler(site, cost_model=cost()).crawl_page(url)
        retrying = AjaxCrawler(
            site, CrawlerConfig(retry_max_attempts=5), cost_model=cost()
        ).crawl_page(url)
        assert plain.model.num_states == retrying.model.num_states
        assert plain.metrics.crawl_time_ms == pytest.approx(retrying.metrics.crawl_time_ms)
        assert plain.metrics.network_time_ms == pytest.approx(
            retrying.metrics.network_time_ms
        )


class TestModifiedRegions:
    """Transition ``modified`` comes from the DOM diff, not a hardcoded id."""

    def test_non_youtube_site_reports_actual_region(self):
        crawler = AjaxCrawler(
            make_tab_server(), CrawlerConfig(use_hot_node=False), cost_model=cost()
        )
        result = crawler.crawl_page("http://t.test/app")
        transitions = list(result.model.transitions())
        real = [t for t in transitions if t.from_state != t.to_state]
        assert real, "tab clicks must produce state-changing transitions"
        for transition in real:
            assert "content" in transition.modified
            assert "recent_comments" not in transition.modified
            assert "sidebar" not in transition.modified
        # Self-loops re-apply identical content: nothing was modified,
        # and the annotation now says so instead of a hardcoded guess.
        for transition in transitions:
            if transition.from_state == transition.to_state:
                assert transition.modified == ()

    def test_youtube_site_still_reports_recent_comments(self, site):
        url = site.video_url(
            next(i for i in range(6) if site.comment_pages_of(i) >= 2)
        )
        result = AjaxCrawler(site, cost_model=cost()).crawl_page(url)
        real = [
            t for t in result.model.transitions() if t.from_state != t.to_state
        ]
        assert real
        assert all("recent_comments" in t.modified for t in real)


class TestGranularityHintTypes:
    """{"max_states": true} must not silently cap a page at one state."""

    def crawl_states(self, robots_body):
        crawler = AjaxCrawler(
            make_tab_server(robots_body=robots_body),
            CrawlerConfig(use_hot_node=False),
            cost_model=cost(),
        )
        return crawler.crawl_page("http://t.test/app").model.num_states

    def test_bool_hint_ignored(self):
        assert self.crawl_states('{"max_states": true}') == self.crawl_states(None)

    def test_integer_hint_still_honoured(self):
        assert self.crawl_states('{"max_states": 1}') == 1
