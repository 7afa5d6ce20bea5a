"""SimMail tests: update-event safety (§4.3) and granularity hints."""

import json

import pytest

from repro.clock import CostModel
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.crawler.ajax import UPDATE_EVENT_PATTERNS
from repro.net import Request
from repro.sites import AJAX_ROBOTS_PATH, SyntheticWebmail


@pytest.fixture
def mail():
    return SyntheticWebmail()


def cost():
    return CostModel(network_jitter=0.0)


class TestServer:
    def test_mail_page_serves(self, mail):
        response = mail.handle(Request("GET", mail.inbox_url))
        assert response.ok
        assert "openFolder" in response.body

    def test_folder_endpoint(self, mail):
        response = mail.handle(Request("GET", f"{mail.base_url}/folder?name=spam"))
        assert "urgent business proposal" in response.body

    def test_unknown_folder_404(self, mail):
        assert mail.handle(Request("GET", f"{mail.base_url}/folder?name=x")).status == 404

    def test_delete_endpoint_mutates_state(self, mail):
        assert mail.delete_count == 0
        mail.handle(Request("GET", f"{mail.base_url}/delete?folder=inbox&i=0"))
        assert mail.delete_count == 1
        body = mail.handle(Request("GET", f"{mail.base_url}/folder?name=inbox")).body
        assert "lunch tomorrow" not in body

    def test_granularity_hint_served(self, mail):
        response = mail.handle(Request("GET", mail.base_url + AJAX_ROBOTS_PATH))
        assert response.ok
        assert json.loads(response.body) == {"max_states": 5}


class TestUpdateEventGuard:
    def test_crawler_never_deletes_mail(self, mail):
        """The §4.3 hazard: crawling an inbox must not destroy messages."""
        crawler = AjaxCrawler(mail, cost_model=cost())
        result = crawler.crawl_page(mail.inbox_url)
        assert mail.delete_count == 0
        assert result.metrics.update_events_skipped > 0

    def test_delete_handlers_are_enumerated_and_never_fired(self, mail):
        # Not vacuous: the inbox does offer delete events, the guard
        # matches them, and no transition of the model fired one.
        page = AjaxCrawler(mail, cost_model=cost()).browser.load(mail.inbox_url)
        handlers = [binding.handler.lower() for binding in page.events()]
        guarded = [h for h in handlers if any(p in h for p in UPDATE_EVENT_PATTERNS)]
        assert guarded and len(guarded) < len(handlers)
        result = AjaxCrawler(mail, cost_model=cost()).crawl_page(mail.inbox_url)
        fired = [t.event.handler.lower() for t in result.model.transitions()]
        assert fired and not any(p in h for h in fired for p in UPDATE_EVENT_PATTERNS)
        assert mail.delete_count == 0

    def test_folder_states_still_crawled(self, mail):
        crawler = AjaxCrawler(mail, cost_model=cost())
        result = crawler.crawl_page(mail.inbox_url)
        texts = [state.text for state in result.model.states()]
        assert any("nightly build" in t for t in texts)  # inbox
        assert any("old invoice" in t for t in texts)  # archive
        assert any("urgent business" in t for t in texts)  # spam


class TestGranularityHints:
    def test_hint_caps_states(self):
        mail = SyntheticWebmail(max_states_hint=2)
        crawler = AjaxCrawler(mail, CrawlerConfig(max_additional_states=10), cost_model=cost())
        result = crawler.crawl_page(mail.inbox_url)
        assert result.model.num_states <= 2

    def test_hint_cannot_raise_cap(self):
        mail = SyntheticWebmail(max_states_hint=99)
        crawler = AjaxCrawler(mail, CrawlerConfig(max_additional_states=1), cost_model=cost())
        result = crawler.crawl_page(mail.inbox_url)
        assert result.model.num_states <= 2  # config cap (1+1) wins

    def test_site_without_hint_uses_config(self):
        from repro.sites import SiteConfig, SyntheticYouTube

        site = SyntheticYouTube(SiteConfig(num_videos=5, seed=3))
        crawler = AjaxCrawler(site, cost_model=cost())
        result = crawler.crawl_page(site.video_url(0))
        assert result.model.num_states >= 1  # SimTube serves no hint: no crash

    def test_hint_cached_per_origin(self):
        mail = SyntheticWebmail(max_states_hint=4)
        crawler = AjaxCrawler(mail, cost_model=cost())
        crawler.crawl_page(mail.inbox_url)
        crawler.crawl_page(mail.inbox_url)
        assert crawler._hint_cache == {mail.base_url: 4}
