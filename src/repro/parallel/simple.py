"""The SimpleAjaxCrawler (§6.3.2): crawl one partition, store the models.

One instance corresponds to one JVM process of the thesis: it reads the
partition's URL list, applies the crawling algorithm of chapters 3/4 to
every URL, and serializes the resulting application models into the
partition directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.clock import CostModel, SimClock
from repro.crawler import AjaxCrawler, CrawlerConfig, CrawlResult, DEFAULT_CONFIG, TraditionalCrawler
from repro.model import ApplicationModel
from repro.net.server import SimulatedServer
from repro.net.stats import NetworkStats
from repro.obs import NULL_RECORDER
from repro.parallel.partitioner import URLPartitioner

#: The serialized application models of one partition (§6.3.2 stored
#: ajaxapplications.bin etc.; we store one JSON with every model).
MODELS_FILE = "models.json"


@dataclass
class PartitionRunSummary:
    """What one SimpleAjaxCrawler run reports back to the controller."""

    partition: int
    num_pages: int
    total_states: int
    crawl_time_ms: float
    network_time_ms: float
    cpu_time_ms: float
    #: URLs in this partition whose crawl failed even after retries.
    failed_pages: int = 0
    #: The worker's network counters (retries, failures, bytes, ...).
    network: NetworkStats = field(default_factory=NetworkStats)


class SimpleAjaxCrawler:
    """Crawls one URL partition with its own clock and browser."""

    def __init__(
        self,
        server: SimulatedServer,
        config: CrawlerConfig = DEFAULT_CONFIG,
        traditional: bool = False,
        cost_model: Optional[CostModel] = None,
        recorder=NULL_RECORDER,
    ) -> None:
        self.server = server
        self.config = config
        self.traditional = traditional
        self.cost_model = cost_model
        self.recorder = recorder

    def crawl_urls(self, urls: list[str], partition: int = 0) -> tuple[CrawlResult, PartitionRunSummary]:
        """Crawl a URL list; returns models plus a timing summary."""
        clock = SimClock()
        self.recorder.rebind_clock(clock)
        if self.traditional:
            crawler = TraditionalCrawler(
                self.server,
                self.config,
                clock=clock,
                cost_model=self.cost_model,
                recorder=self.recorder,
            )
        else:
            crawler = AjaxCrawler(
                self.server,
                self.config,
                clock=clock,
                cost_model=self.cost_model,
                recorder=self.recorder,
            )
        with self.recorder.span("partition", partition=partition, urls=len(urls)) as span:
            result = crawler.crawl(urls)
            span.annotate(
                pages=result.report.num_pages, states=result.report.total_states
            )
        network = result.report.total_network_time_ms
        total = result.report.total_time_ms
        summary = PartitionRunSummary(
            partition=partition,
            num_pages=result.report.num_pages,
            total_states=result.report.total_states,
            crawl_time_ms=total,
            network_time_ms=network,
            cpu_time_ms=total - network,
            failed_pages=len(result.failures),
            network=crawler.stats,
        )
        return result, summary

    def crawl_partition_dir(self, partition_dir: str | Path) -> tuple[CrawlResult, PartitionRunSummary]:
        """Crawl the partition stored at ``partition_dir`` and persist models."""
        directory = Path(partition_dir)
        urls = URLPartitioner.read(directory)
        number = int(directory.name) if directory.name.isdigit() else 0
        result, summary = self.crawl_urls(urls, partition=number)
        save_models(result.models, directory)
        return result, summary


def save_models(models: list[ApplicationModel], directory: str | Path) -> Path:
    """Serialize a partition's application models to JSON."""
    path = Path(directory) / MODELS_FILE
    payload = [model.to_dict() for model in models]
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def load_models(directory: str | Path) -> list[ApplicationModel]:
    """Load a partition's application models (the ``loadExt()`` step)."""
    path = Path(directory) / MODELS_FILE
    payload = json.loads(path.read_text(encoding="utf-8"))
    return [ApplicationModel.from_dict(data) for data in payload]
