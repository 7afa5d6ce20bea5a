"""The AJAX crawler — the paper's primary contribution.

* :class:`AjaxCrawler` implements the breadth-first state crawl of
  Algorithm 3.1.1 with hash-based duplicate elimination, plus the
  hot-node caching policy of chapter 4 (Algorithm 4.2.1).
* :class:`TraditionalCrawler` is the baseline that reads only the
  initial, JavaScript-free state of each page.
"""

from repro.crawler.ajax import AjaxCrawler
from repro.crawler.base import Crawler, CrawlResult, PageCrawlResult, PageFailure
from repro.crawler.focused import FocusedAjaxCrawler, InterestProfile
from repro.crawler.forms import FORM_EVENT_TYPES, FormFillingAjaxCrawler
from repro.crawler.incremental import CrawlHistory, IncrementalAjaxCrawler
from repro.crawler.config import CrawlerConfig, DEFAULT_CONFIG
from repro.crawler.dedup import BandedLshTable, CollapseOutcome, StateCollapser
from repro.crawler.hotnode import HotNodeCache
from repro.crawler.metrics import CrawlReport, PageMetrics
from repro.crawler.traditional import TraditionalCrawler

__all__ = [
    "AjaxCrawler",
    "TraditionalCrawler",
    "Crawler",
    "CrawlResult",
    "PageCrawlResult",
    "PageFailure",
    "CrawlerConfig",
    "DEFAULT_CONFIG",
    "BandedLshTable",
    "CollapseOutcome",
    "StateCollapser",
    "HotNodeCache",
    "CrawlReport",
    "PageMetrics",
    "CrawlHistory",
    "IncrementalAjaxCrawler",
    "FocusedAjaxCrawler",
    "InterestProfile",
    "FormFillingAjaxCrawler",
    "FORM_EVENT_TYPES",
]
