"""A page frees what it allocated: once a crawl or a replay is done with
a page, its trees, snapshot masters and script heap hold no reference
cycle, so reference counting frees them and the cycle collector finds
none of them."""

import gc

import pytest

from repro.browser import Browser, Page
from repro.clock import CostModel
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.dom import Document, Element, Text
from repro.errors import SearchError
from repro.js import Interpreter
from repro.js.environment import Environment
from repro.js.values import JSFunction
from repro.search import ResultAggregator
from repro.sites import SiteConfig, SyntheticYouTube
from repro.testgen import GeneratedSite, conformance_config, generate_site

#: What a page allocates: none of it may be left for the collector.
PAGE_TYPES = (Element, Text, Document, Page, Interpreter, Environment, JSFunction)


@pytest.fixture
def collector_garbage():
    """``gc.garbage`` after a ``gc.collect()`` that keeps every object it
    would have freed, with the collector off until then."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:

        def collect():
            gc.collect()
            return [type(obj).__name__ for obj in gc.garbage if isinstance(obj, PAGE_TYPES)]

        yield collect
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def cost():
    return CostModel(network_jitter=0.0)


def crawl_and_replay(site, urls, config=CrawlerConfig()):
    crawl = AjaxCrawler(site, config, cost_model=cost()).crawl(urls)
    model = max(crawl.models, key=lambda model: model.num_states)
    deep = max(model.states(), key=lambda state: state.depth)
    assert deep.depth >= 1
    aggregator = ResultAggregator(Browser(site, cost_model=cost()))
    with aggregator.reconstruct(model, deep.state_id) as page:
        assert page.content_hash() == deep.content_hash
    # A replay that misses its state closes the page it loaded.
    deep.content_hash = "0" * 64
    with pytest.raises(SearchError):
        aggregator.reconstruct(model, deep.state_id)
    return crawl


def test_a_simtube_crawl_and_a_replay_leave_no_cyclic_garbage(collector_garbage):
    site = SyntheticYouTube(SiteConfig(num_videos=4, seed=3))
    crawl = crawl_and_replay(site, site.all_video_urls())
    assert crawl.report.total_states > len(crawl.models)
    assert collector_garbage() == []


def test_a_generated_crawl_and_a_replay_leave_no_cyclic_garbage(collector_garbage):
    spec = generate_site(5, num_pages=2, min_states=6, max_states=6, extra_edges=4)
    crawl = crawl_and_replay(GeneratedSite(spec), spec.all_urls(), conformance_config(spec))
    assert crawl.report.total_states == 12
    assert collector_garbage() == []


def test_close_releases_every_tree_and_a_second_close_is_a_no_op(collector_garbage):
    site = SyntheticYouTube(SiteConfig(num_videos=8, seed=3))
    video = next(i for i in range(8) if site.comment_pages_of(i) >= 3)
    page = Browser(site, cost_model=cost()).load(site.video_url(video))
    first = page.snapshot()
    assert first.master is page.document  # the first snapshot adopts the loaded tree
    assert any(page.dispatch(binding) for binding in page.events())
    second = page.snapshot()
    assert second.master is not page.document and page._journal  # a write not undone
    page.close()
    for tree in (page.document, first.master, second.master):
        assert tree.root.children == [] and tree.root._document is None
    assert page.interpreter.global_env.bindings == {} and page.document_host is None
    page.close()
    assert page._snapshots == [] and page.document.root.children == []
    del page, first, second
    assert collector_garbage() == []
