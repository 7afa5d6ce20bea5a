"""Tests for distributed indexes and query shipping (§6.5)."""

import math

import pytest

from repro.errors import SearchError
from repro.model import ApplicationModel, EventAnnotation
from repro.search import RankingWeights, SearchEngine, SegmentedIndex
from repro.parallel import ShardedSearchEngine
from repro.testgen.corpus import corpus_models, corpus_spec


def pagination_model(url, page_texts):
    model = ApplicationModel(url)
    states = []
    for offset, text in enumerate(page_texts):
        state, _ = model.add_state(f"{url}-h{offset}", text, depth=offset)
        states.append(state)
    for offset in range(len(states) - 1):
        model.add_transition(
            states[offset], states[offset + 1], EventAnnotation("#next", "onclick", "nextPage()")
        )
        model.add_transition(
            states[offset + 1], states[offset], EventAnnotation("#prev", "onclick", "prevPage()")
        )
    return model


def ranking(results):
    """Everything a ranking consists of, for exact (``==``) comparison."""
    return [(r.uri, r.state_id, r.score, r.components) for r in results]


@pytest.fixture
def corpus():
    return [
        pagination_model("u1", ["keyword alpha beta", "gamma delta keyword"]),
        pagination_model("u2", ["keyword keyword epsilon"]),
        pagination_model("u3", ["zeta eta theta", "iota kappa"]),
        pagination_model("u4", ["keyword lambda", "mu nu", "xi omicron keyword"]),
    ]


@pytest.fixture
def pageranks():
    return {"u1": 0.4, "u2": 0.3, "u3": 0.2, "u4": 0.1}


class TestGlobalIdf:
    def test_worked_example(self):
        """§6.5.2: Idx1 10 states / 4 with k; Idx2 13 states / 6 with k;
        idf = log(23/10)."""
        shard_a_states = [
            "keyword a" if i < 4 else f"filler{i}" for i in range(10)
        ]
        shard_b_states = [
            "keyword b" if i < 6 else f"other{i}" for i in range(13)
        ]
        shard_a = [pagination_model("a", shard_a_states)]
        shard_b = [pagination_model("b", shard_b_states)]
        sharded = ShardedSearchEngine.build([shard_a, shard_b])
        # Compare with a single engine over everything.
        single = SearchEngine.build(shard_a + shard_b)
        assert single.index.idf("keyword") == pytest.approx(math.log(23 / 10))
        sharded_results = sharded.search("keyword")
        single_results = single.search("keyword")
        assert ranking(single_results) == ranking(sharded_results)


class TestShardingEquivalence:
    """Sharded ranking must equal single-index ranking exactly."""

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_scores_identical(self, corpus, pageranks, num_shards):
        partitions = [corpus[i::num_shards] for i in range(num_shards)]
        partitions = [p for p in partitions if p]
        sharded = ShardedSearchEngine.build(partitions, pageranks=pageranks)
        single = SearchEngine.build(corpus, pageranks=pageranks)
        assert ranking(sharded.search("keyword")) == ranking(single.search("keyword"))

    def test_conjunction_equivalence(self, corpus, pageranks):
        partitions = [corpus[:2], corpus[2:]]
        sharded = ShardedSearchEngine.build(partitions, pageranks=pageranks)
        single = SearchEngine.build(corpus, pageranks=pageranks)
        for query in ("keyword alpha", "mu nu", "keyword epsilon"):
            mine = [(r.uri, r.state_id) for r in sharded.search(query)]
            reference = [(r.uri, r.state_id) for r in single.search(query)]
            assert mine == reference, query

    def test_result_count(self, corpus):
        sharded = ShardedSearchEngine.build([corpus[:2], corpus[2:]])
        assert sharded.result_count("keyword") == 5
        assert sharded.result_count("nothinghere") == 0

    def test_num_states(self, corpus):
        sharded = ShardedSearchEngine.build([corpus[:2], corpus[2:]])
        assert sharded.num_states == 8

    def test_limit(self, corpus):
        sharded = ShardedSearchEngine.build([corpus[:2], corpus[2:]])
        assert len(sharded.search("keyword", limit=2)) == 2

    def test_weights_respected(self, corpus, pageranks):
        weights = RankingWeights(pagerank=1.0, ajaxrank=0.0, tfidf=0.0, proximity=0.0)
        sharded = ShardedSearchEngine.build(
            [corpus[:2], corpus[2:]], pageranks=pageranks, weights=weights
        )
        results = sharded.search("keyword")
        assert results[0].uri == "u1"  # highest PageRank among matches


    def test_empty_query_is_an_error_even_without_shards(self, corpus):
        for engine in (ShardedSearchEngine([]), ShardedSearchEngine.build([corpus])):
            with pytest.raises(SearchError, match="empty query"):
                engine.search("?!...")


class TestBitIdenticalOnGeneratedCorpus:
    """Shards and merger run the single engine's own scoring halves, so
    order, score and every component are equal with ``==`` — for any
    shard count and any index backend behind each shard."""

    QUERIES = ["area", "state", "area state", "visit", "visit area state"]

    @pytest.fixture(scope="class")
    def spec(self):
        return corpus_spec(2000, seed=3)

    @pytest.fixture(scope="class")
    def models(self, spec):
        return corpus_models(spec)

    @pytest.fixture(scope="class")
    def reference(self, spec, models):
        """Single-index rankings: broad words plus one-match page markers."""
        single = SearchEngine.build(models)
        queries = self.QUERIES + [page.markers[0] for page in spec.pages[::40]]
        return {query: ranking(single.search(query)) for query in queries}

    @staticmethod
    def partition(models, num_shards):
        return [models[i::num_shards] for i in range(num_shards)]

    @staticmethod
    def segmented(path):
        return SegmentedIndex(path, flush_threshold=2000, block_size=16)

    def assert_identical(self, sharded, reference):
        assert sum(len(expected) for expected in reference.values()) > 2000
        for query, expected in reference.items():
            assert ranking(sharded.search(query)) == expected, query
            assert sharded.result_count(query) == len(expected), query

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 4])
    def test_in_memory_shards(self, models, reference, num_shards):
        sharded = ShardedSearchEngine.build(self.partition(models, num_shards))
        assert sharded.num_states >= 2000
        self.assert_identical(sharded, reference)

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_segmented_shards(self, models, reference, num_shards, tmp_path):
        shards = [
            SearchEngine.build(part, index=self.segmented(tmp_path / f"shard{number}"))
            for number, part in enumerate(self.partition(models, num_shards))
        ]
        assert all(shard.index.num_segments > 1 for shard in shards)
        self.assert_identical(ShardedSearchEngine(shards), reference)
        for shard in shards:
            shard.index.close()

    def test_mixed_backends(self, models, reference, tmp_path):
        memory_a, disk, memory_b = self.partition(models, 3)
        shards = [
            SearchEngine.build(memory_a),
            SearchEngine.build(disk, index=self.segmented(tmp_path / "disk")),
            SearchEngine.build(memory_b),
        ]
        self.assert_identical(ShardedSearchEngine(shards), reference)
        shards[1].index.close()
