"""Parallelization of the AJAX crawler and search engine (chapter 6).

Precrawling (hyperlink graph + PageRank) → URL partitioning → process
lines of SimpleAjaxCrawlers → per-partition indexes → query shipping
with merge-time global idf.
"""

from repro.parallel.aggregation import DistributedResultAggregator
from repro.parallel.backend import BACKENDS, partition_cost_model
from repro.parallel.mpcrawler import MachineModel, MPAjaxCrawler, ParallelRunResult
from repro.parallel.partitioner import URLPartitioner, URLS_TO_CRAWL, partition_urls
from repro.parallel.pipeline import PhaseTimings, PipelineResult, SearchPipeline
from repro.parallel.precrawler import Precrawler, PrecrawlResult
from repro.parallel.sharding import ShardedSearchEngine
from repro.parallel.simple import (
    MODELS_FILE,
    PartitionRunSummary,
    SimpleAjaxCrawler,
    load_models,
    save_models,
)

__all__ = [
    "Precrawler",
    "PrecrawlResult",
    "URLPartitioner",
    "URLS_TO_CRAWL",
    "partition_urls",
    "SimpleAjaxCrawler",
    "PartitionRunSummary",
    "MODELS_FILE",
    "save_models",
    "load_models",
    "MPAjaxCrawler",
    "MachineModel",
    "ParallelRunResult",
    "BACKENDS",
    "partition_cost_model",
    "ShardedSearchEngine",
    "SearchPipeline",
    "PipelineResult",
    "PhaseTimings",
    "DistributedResultAggregator",
]
