"""Unit tests for crawl metrics and report aggregation edge cases."""

import pytest

from repro.crawler import CrawlReport, PageMetrics


def page(url="u", **overrides):
    defaults = dict(
        crawl_time_ms=1000.0,
        network_time_ms=400.0,
        js_time_ms=100.0,
        parse_time_ms=50.0,
        states=2,
        events_invoked=5,
        ajax_calls=2,
        cached_hits=3,
    )
    defaults.update(overrides)
    return PageMetrics(url=url, **defaults)


class TestPageMetrics:
    def test_processing_time(self):
        assert page().processing_time_ms == pytest.approx(600.0)

    def test_time_per_state(self):
        report = CrawlReport()
        report.add(page())
        assert report.mean_time_per_state_ms == pytest.approx(500.0)

    def test_time_per_state_zero_states(self):
        report = CrawlReport()
        report.add(page(states=0))
        assert report.mean_time_per_state_ms == 0.0


class TestCrawlReport:
    def test_empty_report_safe(self):
        report = CrawlReport()
        assert report.num_pages == 0
        assert report.mean_time_per_page_ms == 0.0
        assert report.mean_time_per_state_ms == 0.0
        assert report.states_per_second == 0.0
        assert report.mean_events_per_page == 0.0

    def test_totals(self):
        report = CrawlReport()
        report.add(page("a"))
        report.add(page("b", crawl_time_ms=3000.0, states=4))
        assert report.num_pages == 2
        assert report.total_states == 6
        assert report.total_events == 10
        assert report.total_ajax_calls == 4
        assert report.total_cached_hits == 6
        assert report.total_time_ms == pytest.approx(4000.0)
        assert report.total_network_time_ms == pytest.approx(800.0)

    def test_means(self):
        report = CrawlReport()
        report.add(page("a"))
        report.add(page("b", crawl_time_ms=3000.0))
        assert report.mean_time_per_page_ms == pytest.approx(2000.0)
        assert report.mean_time_per_state_ms == pytest.approx(1000.0)
        assert report.mean_events_per_page == pytest.approx(5.0)

    def test_throughput(self):
        report = CrawlReport()
        report.add(page("a", crawl_time_ms=2000.0, states=4))
        assert report.states_per_second == pytest.approx(2.0)

    def test_merge(self):
        one = CrawlReport()
        one.add(page("a"))
        two = CrawlReport()
        two.add(page("b"))
        one.merge(two)
        assert one.num_pages == 2
        assert [p.url for p in one.pages] == ["a", "b"]
