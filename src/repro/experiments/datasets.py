"""Dataset construction for the chapter-7 experiments.

The thesis evaluates on *YouTube10000* (10 000 video pages) and a
2 500-page subset for query processing.  Crawling that many synthetic
pages is possible but slow in a test harness, so the default sizes here
are scaled down (overridable via environment variables); all reported
quantities are normalized (means, ratios, throughputs), so the *shape*
of every result is preserved.

Crawled datasets are memoized per configuration so that the many
benchmarks sharing one corpus pay for a crawl only once per process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from repro.clock import CostModel
from repro.crawler import AjaxCrawler, CrawlResult, CrawlerConfig, TraditionalCrawler
from repro.parallel import Precrawler, PrecrawlResult
from repro.sites import SiteConfig, SyntheticYouTube


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


#: The "YouTube10000" analogue used by crawling experiments.
FULL_VIDEOS = _env_int("REPRO_FULL_VIDEOS", 400)
#: The "2500-page index" analogue used by query experiments.
QUERY_VIDEOS = _env_int("REPRO_QUERY_VIDEOS", 250)
#: Subset sizes of the caching experiments (§7.3).
CACHING_SUBSETS = (10, 20, 40, 60, 80, 100)
#: The seed every experiment shares.
DATASET_SEED = _env_int("REPRO_DATASET_SEED", 7)


def experiment_cost_model() -> CostModel:
    """The deterministic cost model all experiments use."""
    return CostModel(network_jitter=0.15)


@lru_cache(maxsize=8)
def get_site(num_videos: int = FULL_VIDEOS, seed: int = DATASET_SEED) -> SyntheticYouTube:
    """The shared SimTube instance (pure function of its config)."""
    return SyntheticYouTube(SiteConfig(num_videos=num_videos, seed=seed))


@dataclass(frozen=True)
class CrawledDataset:
    """A site plus the outcome of crawling a prefix of its videos."""

    site: SyntheticYouTube
    urls: tuple[str, ...]
    result: CrawlResult
    crawler: object  # AjaxCrawler or TraditionalCrawler (for stats access)

    @property
    def report(self):
        return self.result.report

    @property
    def models(self):
        return self.result.models


@lru_cache(maxsize=32)
def crawl_ajax(
    num_videos: int,
    use_hot_node: bool = True,
    max_additional_states: int = 10,
    seed: int = DATASET_SEED,
    site_videos: int | None = None,
) -> CrawledDataset:
    """AJAX-crawl the first ``num_videos`` videos (memoized)."""
    site = get_site(site_videos or max(num_videos, FULL_VIDEOS), seed)
    urls = tuple(site.video_url(i) for i in range(num_videos))
    config = CrawlerConfig(
        use_hot_node=use_hot_node,
        max_additional_states=max_additional_states,
    )
    crawler = AjaxCrawler(site, config, cost_model=experiment_cost_model())
    result = crawler.crawl(list(urls))
    return CrawledDataset(site=site, urls=urls, result=result, crawler=crawler)


@lru_cache(maxsize=8)
def crawl_traditional(
    num_videos: int, seed: int = DATASET_SEED, site_videos: int | None = None
) -> CrawledDataset:
    """Traditionally crawl the first ``num_videos`` videos (memoized)."""
    site = get_site(site_videos or max(num_videos, FULL_VIDEOS), seed)
    urls = tuple(site.video_url(i) for i in range(num_videos))
    crawler = TraditionalCrawler(site, cost_model=experiment_cost_model())
    result = crawler.crawl(list(urls))
    return CrawledDataset(site=site, urls=urls, result=result, crawler=crawler)


@lru_cache(maxsize=4)
def precrawl(num_videos: int = FULL_VIDEOS, seed: int = DATASET_SEED) -> PrecrawlResult:
    """Hyperlink graph + PageRank of the first ``num_videos`` videos."""
    site = get_site(num_videos, seed)
    precrawler = Precrawler(site, max_pages=num_videos, cost_model=experiment_cost_model())
    return precrawler.run(site.video_url(0))
