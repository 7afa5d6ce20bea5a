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
from repro.errors import BrowserError, SearchError
from repro.js import Interpreter
from repro.js.environment import Environment
from repro.js.values import JSFunction
from repro.net import StaticServer
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


class FrontierWatch(AjaxCrawler):
    """Records, each time a state is picked for expansion, the frontier's
    size and how many snapshots the page holds."""

    def _crawl_states(self, page, *args):
        self.page, self.sizes = page, []
        return super()._crawl_states(page, *args)

    def _select_next(self, frontier, model):
        self.sizes.append((len(frontier), len(self.page._snapshots)))
        return super()._select_next(frontier, model)


def test_a_deep_crawl_holds_a_master_per_frontier_state_and_one_more(collector_garbage):
    spec = generate_site(7, num_pages=1, min_states=60, max_states=60, extra_edges=60)
    crawler = FrontierWatch(GeneratedSite(spec), conformance_config(spec), cost_model=cost())
    crawl = crawler.crawl(spec.all_urls())
    assert crawl.report.total_states == 60 == len(crawler.sizes)
    # The frontier plus the state whose events were fired last: every
    # other master is freed once its state is expanded.
    assert all(held <= frontier + 1 for frontier, held in crawler.sizes)
    assert max(held for _, held in crawler.sizes) < 60
    del crawler, crawl
    assert collector_garbage() == []


def test_discard_refuses_the_live_snapshot_and_close_stays_idempotent(collector_garbage):
    site = SyntheticYouTube(SiteConfig(num_videos=8, seed=3))
    video = next(i for i in range(8) if site.comment_pages_of(i) >= 3)
    page = Browser(site, cost_model=cost()).load(site.video_url(video))
    first = page.snapshot()
    with pytest.raises(BrowserError, match="live snapshot"):
        page.discard(first)
    assert any(page.dispatch(binding) for binding in page.events())
    second = page.snapshot()
    page.restore(second)
    page.discard(first)
    assert page._snapshots == [second] and first.master.root._document is None
    nodes = [first.master.root, *first.master.root.iter_descendants()]
    assert len(nodes) > 1 and all(node.parent is None for node in nodes)
    page.discard(first)  # a second discard is a no-op
    with pytest.raises(BrowserError, match="discarded"):
        page.restore(first)
    page.close()
    page.close()
    assert page._snapshots == [] and second.master.root.children == []
    del page, first, second
    assert collector_garbage() == []


STALE = """<html><body onload="init()"><h1 id="title">Title</h1><div id="c">x</div>
<a id="go" onclick="show()">go</a><script>
var title;
function init() { title = document.getElementById("title"); }
function show() { document.getElementById("c").innerHTML = "seen " + title.textContent; }
</script></body></html>"""


def test_a_global_holding_an_element_of_a_discarded_master_still_reads_it(collector_garbage):
    # ``title`` is an element of the loaded tree, the first master: from
    # the second state on it names a tree that is no longer live, and
    # once that state is expanded, a discarded one.  It still reads
    # "Title", so firing ``go`` there leads back to the same state.
    url = "http://stale.test/"
    crawl = AjaxCrawler(StaticServer({url: STALE}), cost_model=cost()).crawl([url])
    (model,) = crawl.models
    texts = sorted(" ".join(state.text.split()) for state in model.states())
    assert texts == ["Titleseen Title go", "Titlex go"]
    del crawl, model
    assert collector_garbage() == []
