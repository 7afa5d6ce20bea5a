"""Common words are terms like any other, and ranking quality on the
motivating example."""

import pytest

from repro.model import ApplicationModel, EventAnnotation
from repro.search import (
    InvertedFile,
    RankingWeights,
    SearchEngine,
    SegmentedIndex,
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
    """Nothing is dropped: every token is indexed and queried, as the
    thesis' recall-oriented boolean engine does."""

    def test_positions_preserved(self):
        pairs = tokenize_with_positions("the quick fox")
        assert pairs == [("the", 0), ("quick", 1), ("fox", 2)]

    def test_no_stopwords_by_default(self):
        assert tokenize_with_positions("the fox") == [("the", 0), ("fox", 1)]

    def test_all_stopword_query_falls_back(self):
        # A query of nothing but common words is its raw terms.
        assert query_terms("to be or") == ["to", "be", "or"]


class TestStopwordIndex:
    def test_engine_consistent_with_stopword_index(self):
        model = pagination_model("u", ["the enjoy the ride", "a mysterious video"])
        engine = SearchEngine(InvertedFile().build([model]))
        # "enjoy the ride" evaluates as enjoy AND the AND ride.
        results = engine.search("enjoy the ride")
        assert [(r.uri, r.state_id) for r in results] == [("u", "s0")]

    def test_stopwords_survive_save_load(self, tmp_path):
        model = pagination_model("u", ["the enjoy the ride"])
        path = tmp_path / "idx"
        SegmentedIndex(path).build([model]).close()
        loaded = SegmentedIndex.open(path)
        assert list(loaded.conjunction(["the"])) == [("u", "s0", 4, ((0, 2),))]
        assert list(loaded.conjunction(["enjoy"])) == [("u", "s0", 4, ((1,),))]
        loaded.close()


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
