"""Stopword handling and ranking quality on the motivating example."""

import pytest

from repro.model import ApplicationModel, EventAnnotation
from repro.search import (
    ENGLISH_STOPWORDS,
    InvertedFile,
    RankingWeights,
    SearchEngine,
    query_terms,
    tokenize_with_positions,
)


def pagination_model(url, page_texts):
    model = ApplicationModel(url)
    states = []
    for offset, text in enumerate(page_texts):
        state, _ = model.add_state(f"{url}-h{offset}", text, depth=offset)
        states.append(state)
    for offset in range(len(states) - 1):
        model.add_transition(
            states[offset], states[offset + 1],
            EventAnnotation("#next", "onclick", "nextPage()"),
        )
        model.add_transition(
            states[offset + 1], states[offset],
            EventAnnotation("#prev", "onclick", "prevPage()"),
        )
    return model


class TestStopwordTokenization:
    def test_positions_preserved(self):
        pairs = tokenize_with_positions("the quick fox", stopwords=ENGLISH_STOPWORDS)
        assert pairs == [("quick", 1), ("fox", 2)]

    def test_no_stopwords_by_default(self):
        assert tokenize_with_positions("the fox") == [("the", 0), ("fox", 1)]

    def test_query_terms_filtered(self):
        assert query_terms("the mysterious video", stopwords=ENGLISH_STOPWORDS) == [
            "mysterious",
            "video",
        ]

    def test_all_stopword_query_falls_back(self):
        assert query_terms("to be or", stopwords=ENGLISH_STOPWORDS) == ["to", "be", "or"]


class TestStopwordIndex:
    def test_stopwords_not_indexed(self):
        model = pagination_model("u", ["the enjoy the ride"])
        index = InvertedFile(stopwords=ENGLISH_STOPWORDS).build([model])
        assert list(index.conjunction(["the"])) == []
        assert list(index.conjunction(["enjoy"])) == [("u", "s0", 2, ((1,),))]

    def test_engine_consistent_with_stopword_index(self):
        model = pagination_model("u", ["the enjoy the ride", "a mysterious video"])
        index = InvertedFile(stopwords=ENGLISH_STOPWORDS).build([model])
        engine = SearchEngine(index)
        # "enjoy the ride" evaluates as enjoy AND ride.
        results = engine.search("enjoy the ride")
        assert [(r.uri, r.state_id) for r in results] == [("u", "s0")]

    def test_stopwords_survive_save_load(self, tmp_path):
        model = pagination_model("u", ["the enjoy the ride"])
        index = InvertedFile(stopwords=ENGLISH_STOPWORDS).build([model])
        path = tmp_path / "idx.json"
        index.save(path)
        loaded = InvertedFile.load(path)
        assert loaded.stopwords == ENGLISH_STOPWORDS
        assert list(loaded.conjunction(["the"])) == []

    def test_proximity_honest_across_dropped_stopwords(self):
        """'enjoy the ride': enjoy..ride are 2 apart, not adjacent."""
        from repro.search import term_proximity

        pairs = tokenize_with_positions("enjoy the ride", stopwords=ENGLISH_STOPWORDS)
        positions = [((p,)) for _, p in pairs]
        groups = [tuple([p]) for _, p in pairs]
        assert term_proximity(groups) == pytest.approx(2 / 3)


class TestRankingQuality:
    """The §1.1 scenario must rank the intended state first."""

    @pytest.fixture
    def engine(self):
        video1 = pagination_model(
            "url1",
            [
                "Morcheeba Enjoy the Ride official video mysterious video",
                "the new morcheeba singer is amazing",
                "unrelated chatter about other things",
            ],
        )
        video2 = pagination_model(
            "url2", ["morcheeba concert", "someone mentions a singer once morcheeba"]
        )
        return SearchEngine.build(
            [video1, video2], pageranks={"url1": 0.5, "url2": 0.5}
        )

    def test_q3_ranks_the_singer_comment_page_first(self, engine):
        results = engine.search("morcheeba singer")
        assert (results[0].uri, results[0].state_id) == ("url1", "s1")

    def test_q2_ranks_first_page_first(self, engine):
        results = engine.search("morcheeba mysterious video")
        assert (results[0].uri, results[0].state_id) == ("url1", "s0")

    def test_verbatim_phrase_beats_scattered(self, engine):
        results = engine.search("enjoy the ride")
        assert results[0].components["proximity"] == pytest.approx(1.0)

    def test_zero_weights_all_tie(self):
        model = pagination_model("u", ["apple one", "apple two"])
        engine = SearchEngine.build(
            [model], weights=RankingWeights(0, 0, 0, 0)
        )
        results = engine.search("apple")
        assert all(r.score == 0.0 for r in results)
