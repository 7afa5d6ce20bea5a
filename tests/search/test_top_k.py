"""The bounded top-k is exact, and it does bounded work.

Exactness: ``search(q, limit=k)`` must be the first ``k`` entries of the
full ranking — scores and ``components`` included — on every backend,
in particular where scores tie and only ``(uri, state_id)`` orders the
results; and the full ranking must be what a brute-force reference
(every row of ``conjunction`` scored by eq. 5.3, then one full sort)
says it is, whatever the rank tables and weights.  Counted work: a
small page of a long ranking constructs only that page and builds
entries only for the matches that can still enter it, and the block
merge decodes exactly what it decoded before the read path stopped
building ``Posting`` objects.
"""

import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import QUERY_EVAL, Recorder
from repro.parallel import ShardedSearchEngine
from repro.search import InvertedFile, RankingWeights, SearchEngine, SegmentedIndex, evaluate
from repro.search import segmented
from repro.search import engine as engine_module
from repro.search.engine import SearchResult
from repro.search.query import Posting, parse_query
from repro.search.ranking import term_proximity
from repro.search.segments import Segment
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
    multi = SegmentedIndex(f"{scratch}/multi", flush_threshold=1)
    with mock.patch.object(segmented, "COMPACT_FANIN", 100):
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


def bits(rows):
    """``(uri, state_id, score, components)`` rows with every float as
    its ``.hex()``, which tells apart what ``==`` on floats does not: the
    two zeros, as a sum taken in another order or a rank table's constant
    computed otherwise can leave them."""
    return [
        (uri, state_id, score.hex(), {name: value.hex() for name, value in components.items()})
        for uri, state_id, score, components in rows
    ]


def layouts_over(models, victim, scratch, pageranks, ajaxranks, weights):
    """``models`` behind every layout the engine ranks on: in memory;
    three segments, one of them holding a retired page (``victim``,
    removed and not compacted away), plus an unflushed buffer; and
    shards over mixed backends."""
    tables = {"pageranks": pageranks, "ajaxranks": ajaxranks, "weights": weights}
    split = max(1, len(models) // 3)
    disk = SegmentedIndex(f"{scratch}/disk", block_size=2)  # three segments: no tier fills
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


#: -0.0 among the weights: with w4 = -0.0 a sign of zero reaches the score.
WEIGHT = st.sampled_from([0.0, -0.0, 0.1, 0.5, 1.0, -0.25])
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
        # Tables with holes (a missing key ranks 0.0), or none at all: an
        # empty table is the constant its lookups would give.
        pageranks = data.draw(st.just({}) | st.dictionaries(st.sampled_from(uris), RANK))
        ajaxranks = data.draw(
            st.just({}) | st.dictionaries(st.sampled_from(states), RANK, max_size=40)
        )
        query = " ".join(terms)
        with tempfile.TemporaryDirectory() as scratch:
            engines, indexes = layouts_over(models, victim, scratch, pageranks, ajaxranks, weights)
            total, full = reference_top(models, query, pageranks, ajaxranks, weights, None)
            for label, engine in engines.items():
                assert engine.result_count(query) == total, label
                for k in (0, 1, 3, total, total + 1, None):
                    count, hits = engine.top(query, k)
                    assert (count, bits(ranking(hits))) == (total, bits(full[:k])), (label, k)
            for index in indexes:
                index.close()

    @pytest.mark.parametrize(
        "weights, zero",
        [(RankingWeights(-0.25, -0.25, -0.25, -0.0), "-0x0.0p+0"),
         (RankingWeights(0.0, -0.25, 0.5, -0.0), "0x0.0p+0")],
    )
    def test_a_score_of_zero_keeps_its_sign_without_rank_tables(self, weights, zero):
        # ``alpha`` is in every state (idf 0), so every score is a zero
        # whose sign is that of ``w1·0 + w2·0``, the constant an empty
        # table gives, carried through the reference's sums.
        models = tied_corpus()
        victim = make_model("http://tie.test/retired", ["alpha beta"] * 2)
        with tempfile.TemporaryDirectory() as scratch:
            engines, indexes = layouts_over(models, victim, scratch, {}, {}, weights)
            total, expected = reference_top(models, "alpha", {}, {}, weights, None)
            assert {score.hex() for _, _, score, _ in expected} == {zero}
            for label, engine in engines.items():
                for k in (1, 10, None):
                    count, hits = engine.top("alpha", k)
                    assert (count, bits(ranking(hits))) == (total, bits(expected[:k])), (label, k)
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

    def test_a_tie_at_the_cut_straddles_a_run_of_s9_s10_s11(self):
        # Two PageRank-favoured states lead; every other state ties, so
        # the k-th key falls inside a twelve-state run whose ordinal
        # order (s9, s10, s11) is not its key order (s10, s11, s2, ...).
        # On the segmented layout "m" is its own segment and "c" and "a"
        # sit in the buffer, before the kept k-th URI.
        def page(name, states):
            return make_model(f"http://tie.test/{name}", ["alpha beta"] * states)

        models = [page("top", 2), page("m", 12), page("c", 12), page("a", 12)]
        pageranks = {"http://tie.test/top": 0.5}
        weights = RankingWeights()
        with tempfile.TemporaryDirectory() as scratch:
            engines, indexes = layouts_over(
                models, page("retired", 12), scratch, pageranks, {}, weights
            )
            for k in (1, 9, 10, 11, None):
                expected = reference_top(models, "alpha beta", pageranks, {}, weights, k)
                for label, engine in engines.items():
                    count, hits = engine.top("alpha beta", k)
                    assert (count, ranking(hits)) == expected, (label, k)
            # Behind the two leaders, "a"'s run in key order: s10 and s11 before s2.
            assert [hit[:2] for hit in expected[1][2:6]] == [
                ("http://tie.test/a", state) for state in ("s0", "s1", "s10", "s11")
            ]
            for index in indexes:
                index.close()


# -- counted work ---------------------------------------------------------------------

#: ``(blocks_decoded, blocks_skipped, postings_decoded, postings_total)``
#: of the four pinned conjunctions below (block_size=16; one segment,
#: then four): ``single``, ``skewed`` and ``all`` recorded on the commit
#: before the read path went to rows, ``pair`` — two corpus words
#: sharing 8 of their states, the partial overlap the merge intersects
#: a decoded window at a time — on the commit before it did.
PINNED_MERGE_STATS = {
    "one": {
        "single": (75, 0, 1200, 1200),
        "skewed": (3, 47, 33, 1201),
        "pair": (18, 1, 279, 280),
        "all": (150, 0, 2400, 2400),
    },
    "four": {
        "single": (77, 0, 1200, 1200),
        "skewed": (3, 15, 31, 271),
        "pair": (21, 0, 280, 280),
        "all": (154, 0, 2400, 2400),
    },
}

#: Matches *completed* — entry built — by ``top(query, 10)`` on the
#: same two layouts.  Recorded when ranking went columnar, with T(q, s)
#: bounded: ``area`` 10 on both, ``state 1`` 40 and 60 (what beat the
#: k-th key as of the last cut back to k), ``area state`` 1200 — T = 2/3
#: on every state, so no bound with T <= 1 fell below a kept score.
#: Re-recorded when T went to closed form and the cut to the k-th exact
#: key: every state here has one position per term except two ``state
#: 1`` matches, so each row but those has its exact key.  A segment
#: builds what beats its cut, and the rows tied at it up to the end of
#: the URI run of the last one needed: ``area`` and ``area state`` tie
#: every score, so the first ten in (uri, state id) order stand;
#: ``state 1`` keeps 240 phrase states (T = 1) ahead, and each of the
#: four segments builds what beats its own k-th key and the kept one.
PINNED_COMPLETED = {
    "one": {"area": 10, "state 1": 12, "area state": 10},
    "four": {"area": 10, "state 1": 26, "area state": 10},
}

LAYOUTS = [("one", {}), ("four", {"flush_threshold": 3000})]

#: Matches completed by ``top(query, 10)`` over :func:`repeat_corpus`,
#: where every match holds ``alpha`` twice, so no row has an exact key
#: before ``term_proximity`` runs: in memory, one segment, and one
#: segment per page.  ``alpha beta`` has T = 1 on every row, so a row's
#: bound is its score and the bound cut stops at the tenth key;
#: ``beta alpha`` has T = 1/2, so the bound sits 0.05 above each score.
#: The single bounded loop that ranked before closed-form T completed
#: 43 and 193 on every layout.
PINNED_REPEAT_COMPLETED = {
    "memory": {"alpha beta": 10, "beta alpha": 58},
    "one": {"alpha beta": 10, "beta alpha": 58},
    "four": {"alpha beta": 19, "beta alpha": 165},
}


def repeat_corpus():
    """Four pages of fifty ``alpha alpha beta`` states padded to forty
    lengths (so tf·idf spreads the scores), and ten states without
    either term (so their idf is not 0)."""
    def texts(page):
        padded = [("pad " * ((7 * page + 3 * state) % 40)).strip() for state in range(50)]
        return [f"alpha alpha beta {pad}".strip() for pad in padded] + ["gamma"] * 10

    return [make_model(f"http://repeat.test/p{page}", texts(page)) for page in range(4)]


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
    @pytest.fixture(autouse=True)
    def four_segments_stay_four(self, monkeypatch):
        monkeypatch.setattr(segmented, "COMPACT_FANIN", 100)

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
        recorder = Recorder()
        index = SegmentedIndex(tmp_path / "idx", block_size=16, **options)
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
        # The full ranking builds one entry per match, and only a state
        # where some term has more than one position calls term_proximity.
        completed = [event.fields["completed"] for event in recorder.events
                     if event.kind == QUERY_EVAL]
        assert sum(map(len, full.values())) == sum(completed)
        assert len(proximities) == 2
        assert all(max(map(len, groups)) > 1 for groups in proximities)
        for query, pinned in PINNED_COMPLETED[layout].items():
            del proximities[:], results[:], recorder.events[:]
            total, hits = engine.top(query, 10)
            assert total == len(full[query]) and ranking(hits) == ranking(full[query][:10])
            assert all(max(map(len, groups)) > 1 for groups in proximities), (layout, query)
            assert len(proximities) == {"state 1": 2}.get(query, 0), (layout, query)
            assert len(results) == 10
            (event,) = [event for event in recorder.events if event.kind == QUERY_EVAL]
            assert (event.fields["matches"], event.fields["completed"]) == (total, pinned)
        # One URI run: the states of the page the tenth result falls in.
        assert PINNED_COMPLETED[layout]["area"] <= 10 + 5
        assert PINNED_COMPLETED[layout]["area state"] <= 2 * 10
        assert len(postings) == 0
        index.close()

    @pytest.mark.parametrize("layout, options", LAYOUTS)
    def test_a_tied_page_of_ten_reads_only_its_entries_uris_and_state_ids(
        self, counted_corpus, tmp_path, monkeypatch, layout, options
    ):
        # With no rank table, nothing asks a match's URI or state id until
        # it enters: the ten, the rest of the tenth's URI run, and per
        # segment at most the tied row whose URI ends that run.
        _, models = counted_corpus
        index = SegmentedIndex(tmp_path / "idx", block_size=16, **options).build(models)
        engine = SearchEngine(index)
        reads = []
        for name, rows in (("state_key", lambda ordinal: 1), ("state_keys", len)):
            def reading(self, ordinals, original=getattr(Segment, name), rows=rows):
                reads.append(rows(ordinals))
                return original(self, ordinals)

            monkeypatch.setattr(Segment, name, reading)
        for query in ("area", "area state"):  # every match ties
            del reads[:]
            terms = parse_query(query)
            idfs = [index.idf(term) for term in terms]
            total, completed, entries = engine.select(terms, idfs, engine.weights, 10)
            assert (total, completed, len(entries)) == (1200, PINNED_COMPLETED[layout][query], 10)
            assert completed <= sum(reads) <= completed + index.num_segments, (layout, query)
        index.close()

    def test_rows_that_repeat_a_term_complete_only_what_their_bound_cannot_rule_out(
        self, tmp_path, monkeypatch
    ):
        models = repeat_corpus()
        engines = {
            "memory": SearchEngine.build(models),
            "one": SearchEngine.build(models, index=SegmentedIndex(tmp_path / "one", block_size=16)),
            "four": SearchEngine.build(
                models, index=SegmentedIndex(tmp_path / "four", block_size=16, flush_threshold=1)
            ),
        }
        assert engines["four"].index.num_segments == 4
        proximities = []
        monkeypatch.setattr(
            engine_module,
            "term_proximity",
            lambda groups: proximities.append(groups) or term_proximity(groups),
        )
        for layout, engine in engines.items():
            for query, pinned in PINNED_REPEAT_COMPLETED[layout].items():
                del proximities[:]
                terms = parse_query(query)
                idfs = [engine.index.idf(term) for term in terms]
                total, completed, _ = engine.select(terms, idfs, engine.weights, 10)
                assert (total, completed) == (200, pinned), (layout, query)
                assert len(proximities) == completed  # every row is a bound row
                tables = engine.pageranks, engine.ajaxranks, engine.weights
                expected = reference_top(models, query, *tables, 10)
                assert (total, ranking(engine.top(query, 10)[1])) == expected, (layout, query)
            assert PINNED_REPEAT_COMPLETED[layout]["alpha beta"] <= 2 * 10
        assert PINNED_REPEAT_COMPLETED["one"]["beta alpha"] <= 200 // 3
        for engine in engines.values():
            if isinstance(engine.index, SegmentedIndex):
                engine.index.close()

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
            "single": (["area"], 1200),
            "skewed": (["area", spec.pages[-1].markers[-1]], 1),
            "pair": (["cobalt", "delta"], 8),
            "all": (["area", "state"], 1200),
        }
        for name, (terms, count) in queries.items():
            before = index.merge_stats.to_dict()
            matches = sum(1 for _ in index.conjunction(terms))
            after = index.merge_stats.to_dict()
            assert matches == count, (layout, name)
            spent = tuple(
                after[key] - before[key]
                for key in (
                    "blocks_decoded", "blocks_skipped", "postings_decoded", "postings_total"
                )
            )
            assert spent == PINNED_MERGE_STATS[layout][name], (layout, name)
        index.close()
