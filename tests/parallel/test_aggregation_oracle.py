"""Oracle tests: sharded ranking and distributed aggregation over a
*crawled* corpus must match a single-process single-index run.

``ShardedSearchEngine`` recombines idf from shipped state counts and
document frequencies (§6.5.2); ``DistributedResultAggregator`` routes a
result to the partition holding its model (§6.6).  Both claims are
checked against the obvious oracle — build one index over everything,
reconstruct with the ordinary :class:`ResultAggregator` — on models
produced by real crawls, not hand-built fixtures.
"""

import pytest

from repro.browser import Browser
from repro.clock import CostModel
from repro.parallel import (
    DistributedResultAggregator,
    ShardedSearchEngine,
    SimpleAjaxCrawler,
    partition_urls,
)
from repro.search import SearchEngine
from repro.search.aggregation import ResultAggregator
from repro.sites import SiteConfig, SyntheticYouTube

QUERIES = ["wow", "comments", "video", "first"]


@pytest.fixture(scope="module")
def corpus():
    site = SyntheticYouTube(SiteConfig(num_videos=9, seed=11))
    partitions = partition_urls(site.all_video_urls(), 3)
    model_partitions = []
    for number, urls in enumerate(partitions, start=1):
        worker = SimpleAjaxCrawler(site, cost_model=CostModel(network_jitter=0.0))
        result, _ = worker.crawl_urls(urls, partition=number)
        model_partitions.append(result.models)
    sharded = ShardedSearchEngine.build(model_partitions)
    oracle = SearchEngine.build(
        [model for models in model_partitions for model in models]
    )
    return site, model_partitions, sharded, oracle


class TestShardedRankingOracle:
    @pytest.mark.parametrize("query", QUERIES)
    def test_same_results_same_order(self, corpus, query):
        _, _, sharded, oracle = corpus
        sharded_hits = sharded.search(query)
        oracle_hits = oracle.search(query)
        assert [(h.uri, h.state_id) for h in sharded_hits] == [
            (h.uri, h.state_id) for h in oracle_hits
        ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_scores_match_global_idf_correction(self, corpus, query):
        """Exactly (``==``): the merger recombines idf from the same
        integers the single index divides."""
        _, _, sharded, oracle = corpus
        assert [(h.score, h.components) for h in sharded.search(query)] == [
            (h.score, h.components) for h in oracle.search(query)
        ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_result_count_matches(self, corpus, query):
        _, _, sharded, oracle = corpus
        assert sharded.result_count(query) == oracle.result_count(query)

    def test_corpus_actually_hits(self, corpus):
        _, _, _, oracle = corpus
        assert any(oracle.search(query) for query in QUERIES)


class TestDistributedAggregationOracle:
    def test_routing_matches_crawl_partitions(self, corpus):
        site, model_partitions, _, _ = corpus
        aggregator = DistributedResultAggregator(
            Browser(site, cost_model=CostModel(network_jitter=0.0)), model_partitions
        )
        for number, models in enumerate(model_partitions):
            for model in models:
                assert aggregator.partition_of(model.url) == number

    def test_reconstruction_matches_single_process_oracle(self, corpus):
        site, model_partitions, sharded, _ = corpus
        aggregator = DistributedResultAggregator(
            Browser(site, cost_model=CostModel(network_jitter=0.0)), model_partitions
        )
        oracle_browser = Browser(site, cost_model=CostModel(network_jitter=0.0))
        oracle_aggregator = ResultAggregator(oracle_browser)
        models_by_url = {
            model.url: model for models in model_partitions for model in models
        }
        hits = sharded.search("wow", limit=3)
        assert hits
        for hit in hits:
            distributed = aggregator.reconstruct(hit)
            single = oracle_aggregator.reconstruct(models_by_url[hit.uri], hit.state_id)
            assert distributed.content_hash() == single.content_hash()
