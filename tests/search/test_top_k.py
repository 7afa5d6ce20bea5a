"""The bounded top-k is exact, and it does bounded work.

Exactness: ``search(q, limit=k)`` must be the first ``k`` entries of the
full ranking — scores and ``components`` included — on every backend,
in particular where scores tie and only ``(uri, state_id)`` orders the
results.  Counted work: a small page of a long ranking constructs only
that page, and the block merge decodes exactly what it decoded before
the read path stopped building ``Posting`` objects.
"""

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import ShardedSearchEngine
from repro.search import SearchEngine, SegmentedIndex, evaluate
from repro.search.engine import SearchResult
from repro.search.postings import Posting
from repro.testgen.corpus import corpus_models, corpus_spec

from tests.parallel.test_sharding import ranking
from tests.search.test_segmented_index import make_model

VOCABULARY = ("alpha", "beta", "gamma")


def tied_corpus():
    """Score ties by construction: the same twelve texts under three
    URIs, and within each page the same text in ``s2`` and ``s10`` —
    which the result order ("s10" < "s2") and the canonical merge order
    (2 < 10) rank differently."""
    texts = [f"alpha filler{state}" for state in range(12)]
    texts[2] = texts[10] = "alpha beta twin"
    return [make_model(f"http://tie.test/{name}", texts) for name in ("b", "a", "c")]


def engines_over(models, scratch):
    """The same corpus behind every backend the engine runs on."""
    # One segment per model: every multi-page answer is a k-way merge.
    multi = SegmentedIndex(f"{scratch}/multi", flush_threshold=1, compact_fanin=100)
    engines = {
        "memory": SearchEngine.build(models),
        "segmented": SearchEngine.build(models, index=multi),
        "sharded": ShardedSearchEngine.build([models[0::2], models[1::2]]),
    }
    assert multi.num_segments == len(models)
    return engines, multi


def assert_prefixes(engine, query, label):
    full = engine.search(query)
    total = len(full)
    assert engine.result_count(query) == total, label
    for k in (0, 1, total, total + 1, None):
        count, hits = engine.top(query, k)
        assert count == total, (label, k)
        assert ranking(hits) == ranking(full[:k]), (label, k)
        assert ranking(engine.search(query, limit=k)) == ranking(full[:k]), (label, k)


class TestExactness:
    def test_ties_break_on_uri_then_state_id(self):
        with tempfile.TemporaryDirectory() as scratch:
            engines, multi = engines_over(tied_corpus(), scratch)
            for label, engine in engines.items():
                full = engine.search("alpha")
                assert len(full) == 36
                # The twins tie on score within a page and across pages.
                twins = [(r.uri, r.state_id) for r in full if r.state_id in ("s2", "s10")]
                assert twins == sorted(twins), label
                assert len({r.score for r in full if r.state_id in ("s2", "s10")}) == 1
                for query in ("alpha", "alpha beta", "twin", "absent"):
                    assert_prefixes(engine, query, (label, query))
            assert ranking(engines["memory"].search("alpha")) == ranking(
                engines["segmented"].search("alpha")
            ) == ranking(engines["sharded"].search("alpha"))
            multi.close()

    @settings(max_examples=25, deadline=None)
    @given(
        pages=st.lists(
            st.lists(
                st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=4).map(" ".join),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_limit_is_a_prefix_of_the_full_ranking(self, pages):
        # Every page twice, under two URIs: ties on every score.
        models = [
            make_model(f"http://prop.test/{copy}{number}", texts)
            for number, texts in enumerate(pages)
            for copy in ("x", "y")
        ]
        with tempfile.TemporaryDirectory() as scratch:
            engines, multi = engines_over(models, scratch)
            for label, engine in engines.items():
                for query in ("alpha", "beta gamma", "gamma alpha beta"):
                    assert_prefixes(engine, query, (label, query))
            multi.close()

    def test_negative_limit_is_an_error(self):
        models = tied_corpus()
        for engine in (
            SearchEngine.build(models),
            ShardedSearchEngine.build([models[:1], models[1:]]),
        ):
            with pytest.raises(ValueError, match="limit"):
                engine.search("alpha", limit=-1)
            with pytest.raises(ValueError, match="limit"):
                engine.top("alpha", -1)


# -- counted work ---------------------------------------------------------------------

#: ``(blocks_decoded, blocks_skipped, postings_decoded, postings_total)``
#: of the three pinned conjunctions below, recorded on the commit before
#: the read path went to rows (block_size=16; one segment, then four).
PINNED_MERGE_STATS = {
    "one": {
        "single": (75, 0, 1200, 1200),
        "skewed": (3, 47, 33, 1201),
        "all": (150, 0, 2400, 2400),
    },
    "four": {
        "single": (77, 0, 1200, 1200),
        "skewed": (3, 15, 31, 271),
        "all": (154, 0, 2400, 2400),
    },
}


@pytest.fixture(scope="module")
def counted_corpus():
    spec = corpus_spec(1200, seed=3)
    return spec, corpus_models(spec)


def count_constructions(monkeypatch, cls):
    """Count every ``cls(...)`` from here on; returns the live tally."""
    tally = []
    original = cls.__init__

    def counting(self, *args, **kwargs):
        tally.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return tally


class TestCountedWork:
    def test_a_page_of_ten_builds_ten_results_and_no_posting(
        self, counted_corpus, tmp_path, monkeypatch
    ):
        _, models = counted_corpus
        index = SegmentedIndex(tmp_path / "idx", block_size=16).build(models)
        engine = SearchEngine(index)
        results = count_constructions(monkeypatch, SearchResult)
        postings = count_constructions(monkeypatch, Posting)
        for query in ("area", "area state"):
            total, hits = engine.top(query, 10)
            assert total == 1200 and len(hits) == 10
            assert engine.result_count(query) == 1200
        assert len(results) == 20
        assert len(postings) == 0
        # The objects are for the callers that ask for them.
        assert len(evaluate(index, "area state")) == 1200
        assert len(postings) == 2400
        assert len(engine.search("area")) == 1200
        assert len(results) == 1220
        index.close()

    @pytest.mark.parametrize(
        "layout, options",
        [("one", {}), ("four", {"flush_threshold": 3000, "compact_fanin": 100})],
    )
    def test_merge_stats_equal_the_recorded_ones(
        self, counted_corpus, tmp_path, layout, options
    ):
        spec, models = counted_corpus
        index = SegmentedIndex(tmp_path / "idx", block_size=16, **options).build(models)
        assert index.num_segments == {"one": 1, "four": 4}[layout]
        queries = {
            "single": ["area"],
            "skewed": ["area", spec.pages[-1].markers[-1]],
            "all": ["area", "state"],
        }
        for name, terms in queries.items():
            before = index.merge_stats.to_dict()
            matches = sum(1 for _ in index.conjunction(terms))
            after = index.merge_stats.to_dict()
            assert matches == (1 if name == "skewed" else 1200)
            spent = tuple(
                after[key] - before[key]
                for key in (
                    "blocks_decoded", "blocks_skipped", "postings_decoded", "postings_total"
                )
            )
            assert spent == PINNED_MERGE_STATS[layout][name], (layout, name)
        index.close()
