"""Integration tests: the AJAX crawler against the SimTube site."""

import pytest

from repro.browser import Page
from repro.clock import CostModel
from repro.crawler import AjaxCrawler, CrawlerConfig, TraditionalCrawler
from repro.dom import Node
from repro.sites import SiteConfig, SyntheticYouTube


@pytest.fixture(scope="module")
def site():
    return SyntheticYouTube(SiteConfig(num_videos=40, seed=11))


def cost():
    return CostModel(network_jitter=0.0)


def find_video(site, predicate):
    return next(i for i in range(site.config.num_videos) if predicate(site.comment_pages_of(i)))


class TestStateDiscovery:
    def test_single_page_video_yields_one_state(self, site):
        index = find_video(site, lambda n: n == 1)
        crawler = AjaxCrawler(site, cost_model=cost())
        result = crawler.crawl_page(site.video_url(index))
        assert result.model.num_states == 1
        assert result.metrics.events_invoked == 0

    def test_multi_page_video_yields_all_states(self, site):
        index = find_video(site, lambda n: 3 <= n <= 8)
        pages = site.comment_pages_of(index)
        crawler = AjaxCrawler(site, cost_model=cost())
        result = crawler.crawl_page(site.video_url(index))
        assert result.model.num_states == pages

    def test_state_cap_respected(self, site):
        index = find_video(site, lambda n: n >= 13)
        config = CrawlerConfig(max_additional_states=10)
        crawler = AjaxCrawler(site, config, cost_model=cost())
        result = crawler.crawl_page(site.video_url(index))
        assert result.model.num_states == 11  # initial + 10

    def test_states_contain_comment_text(self, site):
        index = find_video(site, lambda n: 2 <= n <= 5)
        crawler = AjaxCrawler(site, cost_model=cost())
        result = crawler.crawl_page(site.video_url(index))
        texts = [state.text for state in result.model.states()]
        assert any(site.comment_text(index, 1, 0) in t for t in texts)
        assert any(site.comment_text(index, 2, 0) in t for t in texts)

    def test_initial_state_is_page_one(self, site):
        index = find_video(site, lambda n: n >= 2)
        crawler = AjaxCrawler(site, cost_model=cost())
        result = crawler.crawl_page(site.video_url(index))
        assert site.comment_text(index, 1, 0) in result.model.initial_state.text

    def test_depths_follow_pagination(self, site):
        index = find_video(site, lambda n: 4 <= n <= 8)
        crawler = AjaxCrawler(site, cost_model=cost())
        result = crawler.crawl_page(site.video_url(index))
        depths = sorted(state.depth for state in result.model.states())
        assert depths[0] == 0
        assert depths[1] == 1  # page 2 reachable in one event


class TestDuplicateElimination:
    def test_duplicates_detected(self, site):
        """next-then-prev and jump links revisit known states."""
        index = find_video(site, lambda n: 3 <= n <= 8)
        crawler = AjaxCrawler(site, cost_model=cost())
        result = crawler.crawl_page(site.video_url(index))
        assert result.metrics.duplicates_detected > 0

    def test_only_a_new_state_reads_the_page_text(self, site, monkeypatch):
        reads = []
        text = Page.text.fget
        monkeypatch.setattr(Page, "text", property(lambda page: reads.append(1) or text(page)))
        index = find_video(site, lambda n: n >= 13)
        config = CrawlerConfig(max_additional_states=5)
        result = AjaxCrawler(site, config, cost_model=cost()).crawl_page(site.video_url(index))
        # Duplicates resolve by hash alone, capped targets are never built.
        assert result.metrics.duplicates_detected > 0
        assert result.metrics.states_capped > 0
        assert len(reads) == result.model.num_states == 6

    def test_a_markup_is_parsed_once_and_a_tree_copied_only_per_new_state(self, site, monkeypatch):
        import repro.browser.page as page_module

        parsed, clones = [], []
        parse, clone = page_module.parse_fragment, Node.clone
        monkeypatch.setattr(
            page_module, "parse_fragment", lambda markup: parsed.append(markup) or parse(markup)
        )
        monkeypatch.setattr(Node, "clone", lambda node: clones.append(1) or clone(node))
        index = find_video(site, lambda n: 4 <= n <= 8)
        result = AjaxCrawler(site, cost_model=cost()).crawl_page(site.video_url(index))
        # Every event sets a comment page; the page's memo lends what it
        # parsed the first time, and only a snapshot copies nodes.
        assert result.metrics.events_invoked > len(parsed) == len(set(parsed)) > 0
        assert len(clones) == result.model.num_states > 1

    def test_transition_graph_has_back_edges(self, site):
        index = find_video(site, lambda n: 3 <= n <= 8)
        crawler = AjaxCrawler(site, cost_model=cost())
        model = crawler.crawl_page(site.video_url(index)).model
        prev_edges = [t for t in model.transitions() if t.event.handler == "prevPage()"]
        assert prev_edges
        # prev from page 2 leads back to the initial state.
        targets = {t.to_state for t in prev_edges}
        assert model.initial_state_id in targets

    def test_dedup_disabled_explodes_states(self, site):
        index = find_video(site, lambda n: 3 <= n <= 6)
        pages = site.comment_pages_of(index)
        config = CrawlerConfig(deduplicate_states=False, max_additional_states=30)
        crawler = AjaxCrawler(site, config, cost_model=cost())
        result = crawler.crawl_page(site.video_url(index))
        assert result.model.num_states > pages

    def test_event_invocation_guard(self, site):
        index = find_video(site, lambda n: n >= 5)
        config = CrawlerConfig(max_event_invocations=7)
        crawler = AjaxCrawler(site, config, cost_model=cost())
        result = crawler.crawl_page(site.video_url(index))
        assert result.metrics.events_invoked <= 7


class TestHotNodeCaching:
    def test_cache_reduces_network_calls(self, site):
        index = find_video(site, lambda n: 4 <= n <= 8)
        url = site.video_url(index)
        with_cache = AjaxCrawler(site, CrawlerConfig(use_hot_node=True), cost_model=cost())
        without = AjaxCrawler(site, CrawlerConfig(use_hot_node=False), cost_model=cost())
        cached = with_cache.crawl_page(url)
        uncached = without.crawl_page(url)
        assert cached.metrics.ajax_calls < uncached.metrics.ajax_calls
        assert cached.metrics.cached_hits > 0
        assert uncached.metrics.cached_hits == 0

    def test_same_states_with_and_without_cache(self, site):
        """Caching is a pure optimisation: the model must be identical."""
        index = find_video(site, lambda n: 3 <= n <= 8)
        url = site.video_url(index)
        cached = AjaxCrawler(site, CrawlerConfig(use_hot_node=True), cost_model=cost()).crawl_page(url)
        plain = AjaxCrawler(site, CrawlerConfig(use_hot_node=False), cost_model=cost()).crawl_page(url)
        cached_hashes = sorted(s.content_hash for s in cached.model.states())
        plain_hashes = sorted(s.content_hash for s in plain.model.states())
        assert cached_hashes == plain_hashes
        assert cached.model.num_transitions == plain.model.num_transitions

    def test_network_calls_bounded_by_unique_pages(self, site):
        index = find_video(site, lambda n: 4 <= n <= 8)
        pages = site.comment_pages_of(index)
        crawler = AjaxCrawler(site, cost_model=cost())
        result = crawler.crawl_page(site.video_url(index))
        # With the cache each distinct comment page is fetched at most once.
        assert result.metrics.ajax_calls <= pages

    def test_hot_node_identified(self, site):
        index = find_video(site, lambda n: n >= 2)
        crawler = AjaxCrawler(site, cost_model=cost())
        crawler.crawl_page(site.video_url(index))
        assert "getUrl" in crawler.hot_cache.hot_nodes

    def test_every_event_is_attempted(self, site):
        """Caching must not suppress events, only network traffic."""
        index = find_video(site, lambda n: 3 <= n <= 6)
        url = site.video_url(index)
        cached = AjaxCrawler(site, CrawlerConfig(use_hot_node=True), cost_model=cost()).crawl_page(url)
        plain = AjaxCrawler(site, CrawlerConfig(use_hot_node=False), cost_model=cost()).crawl_page(url)
        assert cached.metrics.events_invoked == plain.metrics.events_invoked


class TestMetrics:
    def test_time_accounting_consistent(self, site):
        index = find_video(site, lambda n: 2 <= n <= 6)
        crawler = AjaxCrawler(site, cost_model=cost())
        metrics = crawler.crawl_page(site.video_url(index)).metrics
        assert metrics.crawl_time_ms > 0
        assert 0 < metrics.network_time_ms < metrics.crawl_time_ms
        assert metrics.processing_time_ms > 0
        parts = metrics.network_time_ms + metrics.js_time_ms + metrics.parse_time_ms
        assert parts <= metrics.crawl_time_ms + 1e-6

    def test_crawl_many_pages(self, site):
        crawler = AjaxCrawler(site, cost_model=cost())
        urls = [site.video_url(i) for i in range(8)]
        result = crawler.crawl(urls)
        assert result.report.num_pages == 8
        assert len(result.models) == 8
        expected_states = sum(min(site.comment_pages_of(i), 11) for i in range(8))
        assert result.report.total_states == expected_states

    def test_deterministic_given_seed(self, site):
        index = find_video(site, lambda n: 2 <= n <= 6)
        url = site.video_url(index)
        one = AjaxCrawler(site, cost_model=cost()).crawl_page(url)
        two = AjaxCrawler(site, cost_model=cost()).crawl_page(url)
        assert one.metrics.crawl_time_ms == two.metrics.crawl_time_ms
        assert one.metrics.ajax_calls == two.metrics.ajax_calls


class TestTraditionalBaseline:
    def test_single_state(self, site):
        crawler = TraditionalCrawler(site, cost_model=cost())
        result = crawler.crawl_page(site.video_url(0))
        assert result.model.num_states == 1
        assert result.metrics.ajax_calls == 0
        assert result.metrics.js_time_ms == 0

    def test_sees_first_comment_page_only(self, site):
        index = find_video(site, lambda n: n >= 2)
        crawler = TraditionalCrawler(site, cost_model=cost())
        result = crawler.crawl_page(site.video_url(index))
        text = result.model.initial_state.text
        assert site.comment_text(index, 1, 0) in text
        assert site.comment_text(index, 2, 0) not in text

    def test_ajax_costs_more_than_traditional(self, site):
        urls = [site.video_url(i) for i in range(10)]
        trad = TraditionalCrawler(site, cost_model=cost()).crawl(urls)
        ajax = AjaxCrawler(site, cost_model=cost()).crawl(urls)
        assert ajax.report.total_time_ms > trad.report.total_time_ms
        # Per state, the overhead is far smaller than per page (Table 7.2).
        page_overhead = ajax.report.mean_time_per_page_ms / trad.report.mean_time_per_page_ms
        state_overhead = ajax.report.mean_time_per_state_ms / trad.report.mean_time_per_state_ms
        assert state_overhead < page_overhead
