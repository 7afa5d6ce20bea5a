"""Tests for query evaluation and the search-engine facade."""

import pytest

from repro.errors import SearchError
from repro.model import ApplicationModel, EventAnnotation
from repro.search import InvertedFile, RankingWeights, SearchEngine, evaluate


def pagination_model(url, page_texts):
    """A linear next/prev pagination model with given state texts."""
    model = ApplicationModel(url)
    states = []
    for offset, text in enumerate(page_texts):
        state, _ = model.add_state(f"{url}-h{offset}", text, depth=offset)
        states.append(state)
    click = lambda h, s: EventAnnotation(s, "onclick", h)  # noqa: E731
    for offset in range(len(states) - 1):
        model.add_transition(states[offset], states[offset + 1], click("nextPage()", "#next"))
        model.add_transition(states[offset + 1], states[offset], click("prevPage()", "#prev"))
    return model


@pytest.fixture
def models():
    """The motivating example of §1.1."""
    video1 = pagination_model(
        "url1",
        [
            "Morcheeba Enjoy the Ride official video this mysterious video is great",
            "the new morcheeba singer is amazing really",
        ],
    )
    video2 = pagination_model("url2", ["morcheeba live concert morcheeba fans"])
    return [video1, video2]


@pytest.fixture
def engine(models):
    return SearchEngine.build(models, pageranks={"url1": 0.6, "url2": 0.4})


class TestEvaluate:
    def test_simple_keyword(self, models):
        index = InvertedFile().build(models)
        matches = evaluate(index, "morcheeba")
        assert {(m.uri, m.state_id) for m in matches} == {
            ("url1", "s0"),
            ("url1", "s1"),
            ("url2", "s0"),
        }

    def test_conjunction_q3(self, models):
        """Q3 'morcheeba singer' must hit only the second comment page."""
        index = InvertedFile().build(models)
        matches = evaluate(index, "morcheeba singer")
        assert [(m.uri, m.state_id) for m in matches] == [("url1", "s1")]

    def test_conjunction_q2(self, models):
        """Q2 'morcheeba mysterious video' hits the first state of url1."""
        index = InvertedFile().build(models)
        matches = evaluate(index, "morcheeba mysterious video")
        assert [(m.uri, m.state_id) for m in matches] == [("url1", "s0")]

    def test_no_results(self, models):
        index = InvertedFile().build(models)
        assert evaluate(index, "nonexistent") == []

    def test_empty_query_raises(self, models):
        index = InvertedFile().build(models)
        with pytest.raises(SearchError):
            evaluate(index, "   !!! ")

    def test_case_insensitive(self, models):
        index = InvertedFile().build(models)
        assert evaluate(index, "MORCHEEBA Singer")


class TestSearchEngine:
    def test_results_sorted_by_score(self, engine):
        results = engine.search("morcheeba")
        assert len(results) == 3
        scores = [result.score for result in results]
        assert scores == sorted(scores, reverse=True)

    def test_limit(self, engine):
        assert len(engine.search("morcheeba", limit=2)) == 2

    def test_score_components_present(self, engine):
        (top, *_) = engine.search("morcheeba")
        assert set(top.components) == {"pagerank", "ajaxrank", "tfidf", "proximity"}

    def test_higher_tf_ranks_higher_all_else_equal(self):
        dense = pagination_model("dense", ["apple apple pie"])
        sparse = pagination_model("sparse", ["apple and lots of other words here"])
        without = pagination_model("nothing", ["bananas only in this one"])
        engine = SearchEngine.build(
            [dense, sparse, without],
            weights=RankingWeights(pagerank=0, ajaxrank=0, tfidf=1, proximity=0),
        )
        results = engine.search("apple")
        assert [(r.uri) for r in results] == ["dense", "sparse"]
        assert results[0].score > results[1].score

    def test_pagerank_weight_shifts_ranking(self, models):
        pageranks = {"url1": 0.1, "url2": 10.0}
        engine = SearchEngine.build(
            models,
            pageranks=pageranks,
            weights=RankingWeights(pagerank=1, ajaxrank=0, tfidf=0, proximity=0),
        )
        results = engine.search("morcheeba")
        assert results[0].uri == "url2"

    def test_proximity_rewards_verbatim_phrase(self, models):
        engine = SearchEngine.build(
            models, weights=RankingWeights(pagerank=0, ajaxrank=0, tfidf=0, proximity=1)
        )
        (only,) = engine.search("enjoy the ride")
        assert only.components["proximity"] == pytest.approx(1.0)

    def test_result_count(self, engine):
        assert engine.result_count("morcheeba") == 3
        assert engine.result_count("singer") == 1
        assert engine.result_count("nonexistent") == 0

    def test_traditional_vs_ajax_recall(self, models):
        """The paper's headline: AJAX search finds states traditional
        search cannot."""
        ajax_engine = SearchEngine.build(models)
        traditional = SearchEngine.build(models, max_state_index=1)
        assert traditional.result_count("singer") == 0
        assert ajax_engine.result_count("singer") == 1
        assert traditional.result_count("morcheeba") == 2
        assert ajax_engine.result_count("morcheeba") == 3

    def test_build_rejects_prefix_cap_next_to_an_index(self, models):
        """Regression: ``max_state_index`` used to be dropped silently
        when ``index=`` was given; the cap is the index's own."""
        with pytest.raises(ValueError, match="max_state_index"):
            SearchEngine.build(models, max_state_index=1, index=InvertedFile())
        capped = SearchEngine.build(models, index=InvertedFile(max_state_index=1))
        assert capped.index.num_states == 2

    def test_deterministic_tie_break(self, models):
        engine = SearchEngine.build(
            models, weights=RankingWeights(pagerank=0, ajaxrank=0, tfidf=0, proximity=0)
        )
        one = [(r.uri, r.state_id) for r in engine.search("morcheeba")]
        two = [(r.uri, r.state_id) for r in engine.search("morcheeba")]
        assert one == two


class TestDuplicateTermScoring:
    """Regression: duplicate query terms must not double-count tf·idf."""

    def test_repeated_term_scores_like_single(self, engine):
        single = engine.search("morcheeba")
        doubled = engine.search("morcheeba morcheeba")
        assert [(r.uri, r.state_id) for r in doubled] == [
            (r.uri, r.state_id) for r in single
        ]
        for one, two in zip(single, doubled):
            assert two.score == pytest.approx(one.score)
            assert two.components["tfidf"] == pytest.approx(one.components["tfidf"])

    def test_repeated_conjunction_term_scores_like_deduped(self, engine):
        deduped = engine.search("morcheeba singer")
        repeated = engine.search("morcheeba singer morcheeba")
        assert len(repeated) == len(deduped) == 1
        assert repeated[0].score == pytest.approx(deduped[0].score)

    def test_match_postings_parallel_to_deduped_terms(self, models):
        from repro.search import query_terms

        index = InvertedFile().build(models)
        terms = query_terms("morcheeba morcheeba singer")
        assert terms == ["morcheeba", "singer"]
        (match,) = evaluate(index, "morcheeba morcheeba singer")
        assert len(match.postings) == len(terms)

    def test_query_terms_dedupe_preserves_order(self):
        from repro.search import query_terms

        assert query_terms("b a b c a") == ["b", "a", "c"]

    def test_stopword_fallback_also_dedupes(self):
        from repro.search import query_terms

        # A common word is a term like any other, and dedupes like one.
        assert query_terms("the the") == ["the"]
