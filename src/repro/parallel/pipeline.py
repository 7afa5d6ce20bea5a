"""The complete search-engine pipeline of Figure 6.1, as one object.

Runs every phase of the parallel architecture in order —

1. **Precrawling**: hyperlink graph + PageRank from a start URL,
2. **Partitioning**: the URL list split for the process lines,
3. **Crawling**: ``MPAjaxCrawler`` process lines over the partitions,
4. **Indexing**: one inverted file per partition (charged to the
   virtual clock per indexed state, §6.4),
5. **Query processing**: a :class:`~repro.parallel.sharding.ShardedSearchEngine`
   with query shipping and merge-time global idf

— and reports the virtual time spent in each phase, so end-to-end
experiments (and the CLI/examples) have a single entry point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.clock import CostModel
from repro.crawler import CrawlerConfig, DEFAULT_CONFIG
from repro.net.server import SimulatedServer
from repro.parallel.mpcrawler import MachineModel, MPAjaxCrawler, ParallelRunResult
from repro.parallel.partitioner import partition_urls
from repro.parallel.precrawler import Precrawler, PrecrawlResult
from repro.parallel.sharding import ShardedSearchEngine
from repro.search.ranking import RankingWeights


@dataclass
class PhaseTimings:
    """Virtual milliseconds spent per pipeline phase."""

    precrawl_ms: float = 0.0
    crawl_makespan_ms: float = 0.0
    indexing_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.precrawl_ms + self.crawl_makespan_ms + self.indexing_ms


@dataclass
class PipelineResult:
    """Everything the pipeline produces."""

    precrawl: PrecrawlResult
    crawl: ParallelRunResult
    engine: ShardedSearchEngine
    timings: PhaseTimings = field(default_factory=PhaseTimings)

    @property
    def num_shards(self) -> int:
        return len(self.engine.shards)


class SearchPipeline:
    """Precrawl → partition → parallel crawl → index → queryable engine."""

    def __init__(
        self,
        server: SimulatedServer,
        num_proc_lines: int = 4,
        partition_size: int = 20,
        config: CrawlerConfig = DEFAULT_CONFIG,
        machine: MachineModel = MachineModel(),
        cost_model: Optional[CostModel] = None,
        weights: RankingWeights = RankingWeights(),
    ) -> None:
        self.server = server
        self.num_proc_lines = num_proc_lines
        self.partition_size = partition_size
        self.config = config
        self.machine = machine
        self.cost_model = cost_model or CostModel()
        self.weights = weights

    def run(self, start_url: str, max_pages: int) -> PipelineResult:
        """Execute the whole pipeline starting from ``start_url``."""
        timings = PhaseTimings()

        # Phase 1: precrawling (sequential, link-following only).
        precrawler = Precrawler(
            self.server, max_pages=max_pages, cost_model=self.cost_model
        )
        precrawl = precrawler.run(start_url)
        timings.precrawl_ms = precrawler.browser.clock.now_ms

        # Phase 2: partitioning (in-memory; negligible cost).
        partitions = partition_urls(precrawl.urls, self.partition_size)

        # Phase 3: parallel crawling on process lines.
        controller = MPAjaxCrawler(
            self.server,
            num_proc_lines=self.num_proc_lines,
            config=self.config,
            machine=self.machine,
            cost_model=self.cost_model,
        )
        crawl = controller.run(partitions)
        timings.crawl_makespan_ms = crawl.makespan_ms

        # Phase 4: per-partition indexes.  Each machine indexes its own
        # models (§6.4); with enough machines this overlaps, so we charge
        # the largest shard's indexing time.
        shard_models: list[list] = [[] for _ in range(max(1, len(partitions)))]
        for model in crawl.result.models:
            shard = self._shard_of(model.url, partitions)
            shard_models[shard].append(model)
        shard_models = [models for models in shard_models if models]
        per_shard_ms = [
            sum(model.num_states for model in models) * self.cost_model.index_state_ms
            for models in shard_models
        ]
        timings.indexing_ms = max(per_shard_ms) if per_shard_ms else 0.0

        # Phase 5: the sharded engine with query shipping.
        engine = ShardedSearchEngine.build(
            shard_models, pageranks=precrawl.pageranks, weights=self.weights
        )
        return PipelineResult(
            precrawl=precrawl, crawl=crawl, engine=engine, timings=timings
        )

    @staticmethod
    def _shard_of(url: str, partitions: list[list[str]]) -> int:
        for index, urls in enumerate(partitions):
            if url in urls:
                return index
        return 0
