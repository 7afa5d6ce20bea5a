"""The bounded top-k is exact, and it does bounded work.

Exactness: ``search(q, limit=k)`` must be the first ``k`` entries of the
full ranking — scores and ``components`` included — on every backend,
in particular where scores tie and only ``(uri, state_id)`` orders the
results; and the full ranking must be what a brute-force reference
(every row of ``conjunction`` scored by eq. 5.3, then one full sort)
says it is, whatever the rank tables and weights.  Counted work: a
small page of a long ranking constructs only that page and completes
only the matches whose score bound can still enter it, and the block
merge decodes exactly what it decoded before the read path stopped
building ``Posting`` objects.
"""

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import QUERY_EVAL, MetricsRegistry, Recorder
from repro.parallel import ShardedSearchEngine
from repro.search import InvertedFile, RankingWeights, SearchEngine, SegmentedIndex, evaluate
from repro.search import engine as engine_module
from repro.search.engine import SearchResult
from repro.search.query import Posting, parse_query
from repro.search.ranking import term_proximity
from repro.serve import SearchServer, SearchService
from repro.testgen.corpus import corpus_models, corpus_spec

from tests.parallel.test_sharding import ranking
from tests.serve.test_http import get
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


# -- the brute-force oracle -----------------------------------------------------------


def reference_top(models, query, pageranks, ajaxranks, weights, k):
    """Eq. 5.3 row by row over one in-memory index of ``models``, then
    one full sort by ``(-score, uri, state_id)``: the ground truth every
    engine, backend and shard layout has to reproduce with ``==``."""
    index = InvertedFile().build(models)
    terms = parse_query(query)
    idfs = [index.idf(term) for term in terms]
    scored = []
    for uri, state_id, length, occurrences in index.conjunction(terms):
        tfidf = 0.0
        for positions, idf in zip(occurrences, idfs):
            tfidf += (len(positions) / length if length else 0.0) * idf
        components = {
            "pagerank": pageranks.get(uri, 0.0),
            "ajaxrank": ajaxranks.get((uri, state_id), 0.0),
            "tfidf": tfidf,
            "proximity": term_proximity(occurrences),
        }
        score = (
            weights.pagerank * components["pagerank"]
            + weights.ajaxrank * components["ajaxrank"]
            + weights.tfidf * components["tfidf"]
            + weights.proximity * components["proximity"]
        )
        scored.append((-score, uri, state_id, components))
    scored.sort(key=lambda entry: entry[:3])
    return len(scored), [
        (uri, state_id, -negated, components) for negated, uri, state_id, components in scored
    ][:k]


def layouts_over(models, victim, scratch, pageranks, ajaxranks, weights):
    """``models`` behind every layout the engine ranks on: in memory;
    three segments, one of them holding a retired page (``victim``,
    removed and not compacted away), plus an unflushed buffer; and
    shards over mixed backends."""
    tables = {"pageranks": pageranks, "ajaxranks": ajaxranks, "weights": weights}
    split = max(1, len(models) // 3)
    disk = SegmentedIndex(f"{scratch}/disk", block_size=2, compact_fanin=100)
    for group in (models[:split] + [victim], models[split : 2 * split]):
        disk.build(group)
    segmented = SearchEngine(disk, **tables)  # commits; what follows stays buffered
    assert disk.remove_url(victim.url) == len(list(victim.states()))
    for model in models[2 * split :]:
        disk.add_model(model)
    assert disk.stats()["dead_states"] and len(disk._segments()) == disk.num_segments + 1
    shard_disk = SegmentedIndex(f"{scratch}/shard", block_size=2).build(models[1::3])
    sharded = ShardedSearchEngine(
        [
            SearchEngine(InvertedFile().build(models[0::3]), **tables),
            SearchEngine(shard_disk, **tables),
            # A shard ranks under the merger's weights, never its own.
            SearchEngine(InvertedFile().build(models[2::3]), pageranks, ajaxranks),
        ],
        weights=weights,
    )
    memory = SearchEngine(InvertedFile().build(models), **tables)
    return {"memory": memory, "segmented": segmented, "sharded": sharded}, (disk, shard_disk)


WEIGHT = st.sampled_from([0.0, 0.1, 0.5, 1.0, -0.25])
RANK = st.sampled_from([-0.5, 0.0, 0.125, 0.125, 0.7])


class TestBruteForceOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        pages=st.lists(
            st.lists(
                st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=5).map(" ".join),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=3,
        ),
        weights=st.builds(RankingWeights, WEIGHT, WEIGHT, WEIGHT, WEIGHT),
        terms=st.lists(st.sampled_from(VOCABULARY + ("twin",)), min_size=1, max_size=3, unique=True),
        data=st.data(),
    )
    def test_every_layout_ranks_like_the_row_by_row_reference(self, pages, weights, terms, data):
        # Ties by construction: every drawn page under two URIs, and the
        # s2/s10 twins of tied_corpus among them.
        models = tied_corpus() + [
            make_model(f"http://prop.test/{copy}{number}", texts)
            for number, texts in enumerate(pages)
            for copy in ("x", "y")
        ]
        victim = make_model("http://prop.test/retired", ["alpha beta gamma twin"] * 3)
        uris = [model.url for model in models]
        states = [(model.url, state.state_id) for model in models for state in model.states()]
        # Tables with holes: a missing key ranks 0.0.
        pageranks = data.draw(st.dictionaries(st.sampled_from(uris), RANK))
        ajaxranks = data.draw(st.dictionaries(st.sampled_from(states), RANK, max_size=40))
        query = " ".join(terms)
        with tempfile.TemporaryDirectory() as scratch:
            engines, indexes = layouts_over(models, victim, scratch, pageranks, ajaxranks, weights)
            total, full = reference_top(models, query, pageranks, ajaxranks, weights, None)
            for label, engine in engines.items():
                assert engine.result_count(query) == total, label
                for k in (0, 1, 3, total, total + 1, None):
                    count, hits = engine.top(query, k)
                    assert (count, ranking(hits)) == (total, full[:k]), (label, k)
            for index in indexes:
                index.close()

    @pytest.mark.parametrize("proximity", [0.1, 0.0, -0.3])
    def test_any_sign_of_the_proximity_weight_ranks_exactly(self, proximity):
        # The bound takes the proximity term's maximum over T in [0, 1]
        # for the weight's sign: with a negative weight the *worst*
        # proximity ranks first, and a small k must still find it.
        weights = RankingWeights(proximity=proximity)
        models = tied_corpus() + [
            make_model("http://tie.test/far", ["alpha one two three four five beta"] * 4)
        ]
        victim = make_model("http://tie.test/retired", ["alpha beta"] * 2)
        with tempfile.TemporaryDirectory() as scratch:
            engines, indexes = layouts_over(models, victim, scratch, {}, {}, weights)
            for k in (1, 3, None):
                expected = reference_top(models, "alpha beta", {}, {}, weights, k)
                for label, engine in engines.items():
                    count, hits = engine.top("alpha beta", k)
                    assert (count, ranking(hits)) == expected, (label, k)
            if proximity < 0:
                assert expected[1][0][0] == "http://tie.test/far"
            for index in indexes:
                index.close()


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

#: Matches *completed* — proximity computed, entry built — by
#: ``top(query, 10)`` on the same two layouts, recorded when ranking went
#: columnar; before, each was the query's match count (1200, 554, 1200).
#: ``area``: every score ties, so the first ten in (uri, state id) order
#: stand.  ``state 1``: 240 states hold the phrase (T = 1) and every
#: other match's bound key loses to the k-th key once ten of those are
#: kept — what is completed is what beat the k-th key *as of the last
#: cut* (the selection cuts back to k every k survivors).  ``area
#: state``: T = 2/3 on every state, so no bound with T <= 1 drops below
#: a kept score and all 1200 are completed — what the bound cannot do.
PINNED_COMPLETED = {
    "one": {"area": 10, "state 1": 40, "area state": 1200},
    "four": {"area": 10, "state 1": 60, "area state": 1200},
}

LAYOUTS = [("one", {}), ("four", {"flush_threshold": 3000, "compact_fanin": 100})]


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

    @pytest.mark.parametrize("layout, options", LAYOUTS)
    def test_a_page_of_ten_completes_only_what_can_still_enter_it(
        self, counted_corpus, tmp_path, monkeypatch, layout, options
    ):
        _, models = counted_corpus
        recorder, metrics = Recorder(), MetricsRegistry()
        index = SegmentedIndex(tmp_path / "idx", block_size=16, metrics=metrics, **options)
        engine = SearchEngine(index.build(models), recorder=recorder)
        assert index.num_segments == {"one": 1, "four": 4}[layout]
        results = count_constructions(monkeypatch, SearchResult)
        postings = count_constructions(monkeypatch, Posting)
        proximities = []
        monkeypatch.setattr(
            engine_module,
            "term_proximity",
            lambda groups: proximities.append(groups) or term_proximity(groups),
        )
        full = {query: engine.search(query) for query in PINNED_COMPLETED[layout]}
        assert len(proximities) == sum(map(len, full.values())) == metrics.counter(
            "index.matches_completed"
        )
        for query, pinned in PINNED_COMPLETED[layout].items():
            del proximities[:], results[:], recorder.events[:]
            before = metrics.counter("index.matches_completed")
            total, hits = engine.top(query, 10)
            assert total == len(full[query]) and ranking(hits) == ranking(full[query][:10])
            assert len(proximities) == pinned, (layout, query)
            assert len(results) == 10
            assert metrics.counter("index.matches_completed") - before == pinned
            (event,) = [event for event in recorder.events if event.kind == QUERY_EVAL]
            assert (event.fields["matches"], event.fields["completed"]) == (total, pinned)
        # One URI run: the states of the page the tenth result falls in.
        assert PINNED_COMPLETED[layout]["area"] <= 10 + 5
        assert len(postings) == 0
        index.close()

    @pytest.mark.parametrize("layout, options", LAYOUTS)
    def test_a_deep_page_is_one_bounded_selection(self, counted_corpus, tmp_path, layout, options):
        # /search asks the engine for offset + limit, and offset has no
        # cap: k around and far beyond the match count must stay exact
        # (and is one sort, not an insertion per survivor).
        _, models = counted_corpus
        index = SegmentedIndex(tmp_path / "idx", block_size=16, **options).build(models)
        engine = SearchEngine(index)
        for query in ("area", "state 1"):
            full = engine.search(query)
            total = len(full)
            for k in (total - 1, total, total + 1, 10 * total):
                count, hits = engine.top(query, k)
                assert count == total and ranking(hits) == ranking(full[:k]), (query, k)
        full = [(hit.uri, hit.state_id) for hit in engine.search("area")]
        with SearchServer(SearchService(engine)) as server:
            for offset in (1195, 5000):
                status, page, _ = get(f"{server.url}/search?q=area&offset={offset}&limit=10")
                assert status == 200 and page["total"] == 1200
                hits = [(hit["uri"], hit["state"]) for hit in page["results"]]
                assert hits == full[offset : offset + 10]
        index.close()

    @pytest.mark.parametrize("layout, options", LAYOUTS)
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
