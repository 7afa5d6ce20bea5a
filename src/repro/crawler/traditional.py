"""The traditional crawler baseline (section 7.1.2).

Reads only what a JavaScript-disabled browser would see: the initial
DOM, including the first comment page that YouTube inlines.  No events
are invoked — not even the body ``onload``.  Its application model has
exactly one state, which makes it directly comparable to the AJAX
crawler's model in the search-quality experiments.
"""

from __future__ import annotations

from typing import Optional

from repro.browser import Browser, JS_ACCOUNT, PARSE_ACCOUNT
from repro.clock import CostModel, SimClock, Stopwatch
from repro.crawler.base import Crawler, PageCrawlResult
from repro.crawler.config import CrawlerConfig, DEFAULT_CONFIG
from repro.crawler.metrics import PageMetrics
from repro.dom import serialize
from repro.model import ApplicationModel
from repro.net import NETWORK_ACCOUNT
from repro.net.server import SimulatedServer
from repro.obs import NULL_RECORDER


class TraditionalCrawler(Crawler):
    """Crawls pages the way a 2008 search engine did: one state per URL."""

    def __init__(
        self,
        server: SimulatedServer,
        config: CrawlerConfig = DEFAULT_CONFIG,
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
        recorder=NULL_RECORDER,
    ) -> None:
        self.config = config
        self.recorder = recorder
        self.browser = Browser(
            server,
            clock=clock,
            cost_model=cost_model,
            javascript_enabled=False,
            retry_policy=config.retry_policy(),
            recorder=recorder,
        )

    @property
    def clock(self) -> SimClock:
        return self.browser.clock

    @property
    def stats(self):
        return self.browser.stats

    def crawl_page(self, url: str) -> PageCrawlResult:
        watch = Stopwatch(self.clock)
        network_before = self.clock.spent_on(NETWORK_ACCOUNT)
        parse_before = self.clock.spent_on(PARSE_ACCOUNT)

        model = ApplicationModel(url)
        with self.browser.load(url) as page:
            html = serialize(page.document) if self.config.store_html else None
            model.add_state(page.content_hash(), page.text, html=html, depth=0)
        self.clock.advance(self.browser.cost_model.model_insert_ms, account="model")

        metrics = PageMetrics(
            url=url,
            crawl_time_ms=watch.elapsed_ms,
            network_time_ms=self.clock.spent_on(NETWORK_ACCOUNT) - network_before,
            js_time_ms=self.clock.spent_on(JS_ACCOUNT),
            parse_time_ms=self.clock.spent_on(PARSE_ACCOUNT) - parse_before,
            states=1,
            events_invoked=0,
            ajax_calls=0,
            cached_hits=0,
        )
        return PageCrawlResult(model=model, metrics=metrics)
