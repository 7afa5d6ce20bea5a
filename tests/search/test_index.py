"""Unit tests for the state-granular inverted file."""

import math

import pytest

from repro.errors import SearchError
from repro.model import ApplicationModel
from repro.search import InvertedFile, SegmentedIndex


def rows(index, term):
    """The posting list of ``term``: the one-term conjunction, one
    ``(uri, state_id, state length, (positions,))`` row a state."""
    return list(index.conjunction([term]))


def tf(index, term, uri, state_id):
    """Term frequency (eq. 5.1) as ranking derives it: the state's row of
    the one-term conjunction, occurrences over length; 0.0 without one."""
    for row_uri, row_state, length, (positions,) in rows(index, term):
        if (row_uri, row_state) == (uri, state_id):
            return len(positions) / length
    return 0.0


def state_row(index, uri, state_id):
    """``(length, depth, seq)`` of one live state, or None."""
    for row in index.state_rows():
        if row[:2] == (uri, state_id):
            return row[2:]
    return None


def make_model(url, state_texts):
    model = ApplicationModel(url)
    for offset, text in enumerate(state_texts):
        model.add_state(f"hash-{url}-{offset}", text, depth=offset)
    return model


def morcheeba_videos():
    """The Table 5.1 scenario: two Morcheeba videos."""
    return [
        make_model("url1", ["morcheeba mysterious video", "morcheeba singer here"]),
        make_model("url2", ["morcheeba morcheeba great"]),
    ]


@pytest.fixture
def index():
    return InvertedFile().build(morcheeba_videos())


class TestBuild:
    def test_num_states(self, index):
        assert index.num_states == 3

    def test_vocabulary(self, index):
        # morcheeba, mysterious, video, singer, here, great.
        assert index.vocabulary_size == 6

    def test_postings_sorted_and_counted(self, index):
        assert rows(index, "morcheeba") == [
            ("url1", "s0", 3, ((0,),)),
            ("url1", "s1", 3, ((0,),)),
            ("url2", "s0", 3, ((0, 1),)),
        ]

    def test_missing_term_empty(self, index):
        assert rows(index, "absent") == []

    def test_positions_recorded(self, index):
        ((_, _, _, (positions,)),) = rows(index, "singer")
        assert positions == (1,)

    def test_double_index_rejected(self, index):
        model = make_model("url1", ["again"])
        with pytest.raises(SearchError):
            index.add_model(model)

    def test_state_depth_kept(self, index):
        assert [row[3] for row in index.state_rows()] == [0, 1, 0]
        assert state_row(index, "url1", "s1") == (3, 1, 1)


class TestMaxStateIndex:
    def test_traditional_index_has_first_states_only(self):
        video = make_model("u", ["first page", "second page", "third page"])
        traditional = InvertedFile(max_state_index=1).build([video])
        assert traditional.num_states == 1
        assert rows(traditional, "second") == []
        assert len(rows(traditional, "first")) == 1

    def test_k_state_index(self):
        video = make_model("u", ["one", "two", "three", "four"])
        two_states = InvertedFile(max_state_index=2).build([video])
        assert two_states.num_states == 2
        assert rows(two_states, "two")
        assert not rows(two_states, "three")


class TestStatistics:
    def test_tf(self, index):
        # "morcheeba morcheeba great": 2 of 3 tokens.
        assert tf(index, "morcheeba", "url2", "s0") == pytest.approx(2 / 3)
        assert tf(index, "great", "url2", "s0") == pytest.approx(1 / 3)
        assert tf(index, "absent", "url2", "s0") == 0.0
        assert tf(index, "morcheeba", "nope", "s0") == 0.0

    def test_idf(self, index):
        # morcheeba is in all 3 states -> idf = log(3/3) = 0.
        assert index.idf("morcheeba") == pytest.approx(0.0)
        # singer in 1 of 3 states.
        assert index.idf("singer") == pytest.approx(math.log(3))
        assert index.idf("absent") == 0.0

    def test_worked_example_from_section_652(self):
        """idf = log((10+13)/(4+6)) = log(2.3) — eq. in §6.5.2."""
        states_a = [f"filler{i}" for i in range(10)]
        for i in range(4):
            states_a[i] = f"keyword filler{i}"
        states_b = [f"other{i}" for i in range(13)]
        for i in range(6):
            states_b[i] = f"keyword other{i}"
        index = InvertedFile().build(
            [make_model("a", states_a), make_model("b", states_b)]
        )
        assert index.idf("keyword") == pytest.approx(math.log(23 / 10))

    def test_state_length(self, index):
        assert state_row(index, "url1", "s0")[0] == 3
        assert state_row(index, "nope", "s0") is None


def reopened(models, path, **kwargs):
    """A segmented index over ``models``, closed and opened again."""
    SegmentedIndex(path, **kwargs).build(models).close()
    return SegmentedIndex.open(path)


class TestSerialization:
    """The one persisted form: a segment directory, closed and reopened."""

    def test_round_trip(self, index, tmp_path):
        loaded = reopened(morcheeba_videos(), tmp_path / "idx")
        assert loaded.num_states == index.num_states
        assert loaded.states() == index.states()
        for term in sorted(index.terms()):
            assert rows(loaded, term) == rows(index, term), term
            assert loaded.idf(term) == index.idf(term), term
        assert loaded.state_rows() == index.state_rows()
        assert loaded.max_state_index == index.max_state_index
        loaded.close()

    def test_round_trip_preserves_max_state_index(self, tmp_path):
        video = make_model("u", ["one", "two"])
        loaded = reopened([video], tmp_path / "idx", max_state_index=1)
        assert loaded.max_state_index == 1
        assert loaded.states() == [("u", "s0")]
        loaded.close()


class TestFinalizeThreadSafety:
    """Regression: the first queries of a fresh index used to race on
    the lazy sort in finalize() — today, on the lazy view of the buffer,
    which either backend's first readers build."""

    def test_concurrent_first_postings_calls_are_safe(self, tmp_path):
        import threading

        texts = [f"shared term{i} filler words here" for i in range(40)]
        expected = rows(InvertedFile().build([make_model("u", texts)]), "shared")
        disk = SegmentedIndex(tmp_path / "idx")
        for index in (InvertedFile(), disk):
            index.add_model(make_model("u", texts))
            assert index._generation is None
            barrier = threading.Barrier(8)
            results: list[list] = [None] * 8
            errors: list[BaseException] = []

            def query(slot: int) -> None:
                try:
                    barrier.wait()
                    results[slot] = rows(index, "shared")
                except BaseException as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=query, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert index._generation is not None
            # One view, built once: every reader got the same segment.
            (view,) = index._generation
            assert view.num_states == 40
            for result in results:
                assert result == expected
        disk.close()

    def test_engine_construction_finalizes_eagerly(self):
        from repro.search import SearchEngine

        index = InvertedFile()
        index.add_model(make_model("u", ["hello world"]))
        assert index._generation is None
        SearchEngine(index)
        assert index._generation is not None


class TestTfBisect:
    """A state's tf as ranking reads it — its row of the one-term
    conjunction — must equal a count over the state's own text, for
    every state and for misses on either side of the posting list, in
    memory and over a segment of many blocks."""

    def _naive_tf(self, models, term, uri, state_id):
        for model in models:
            for state in model.states():
                if (model.url, state.state_id) == (uri, state_id):
                    tokens = state.text.split()
                    return tokens.count(term) / len(tokens)
        return 0.0

    def test_probe_matches_scan_everywhere(self, tmp_path):
        models = [
            make_model(
                f"url{page:02d}",
                [f"common unique{page}x{state} extra common" for state in range(5)],
            )
            for page in range(10)
        ]
        memory = InvertedFile().build(models)
        disk = SegmentedIndex(tmp_path / "idx", block_size=4).build(models)
        assert memory.document_frequency("common") == disk.document_frequency("common") == 50
        for index in (memory, disk):
            for uri, state_id in index.states():
                for term in ("common", f"unique{uri[3:]}x0", "absent"):
                    assert tf(index, term, uri, state_id) == self._naive_tf(
                        models, term, uri, state_id
                    ), (term, uri, state_id)
        disk.close()

    def test_probe_misses_between_postings(self):
        # "gap" is in url0 and url2 only; a url1 probe must land between
        # the two postings and return 0 without a false match.
        index = InvertedFile().build(
            [
                make_model("url0", ["gap word"]),
                make_model("url1", ["other word"]),
                make_model("url2", ["gap word"]),
            ]
        )
        assert tf(index, "gap", "url1", "s0") == 0.0
        assert tf(index, "gap", "url0", "s0") == pytest.approx(0.5)
        assert tf(index, "gap", "url2", "s0") == pytest.approx(0.5)

    def test_probe_beyond_last_posting(self):
        index = InvertedFile().build(
            [make_model("a", ["solo term"]), make_model("z", ["filler only"])]
        )
        # "solo" sorts entirely before ("z", 0): past the end of its list.
        assert tf(index, "solo", "z", "s0") == 0.0

    def test_probe_on_unfinalized_index(self):
        # A read must view (sort) the buffer of a fresh index first.
        index = InvertedFile()
        index.add_model(make_model("b", ["term here"]))
        index.add_model(make_model("a", ["term there"]))
        assert index._generation is None
        assert tf(index, "term", "a", "s0") == pytest.approx(0.5)


class TestIndexContract:
    def test_derived_methods_live_on_the_base(self):
        """The read half, the shared write half and what is derived from
        them exist once, on the base, so the backends cannot drift apart
        in them: a backend says where a flush goes, nothing else."""
        from repro.search import SegmentedIndex
        from repro.search.index import Index

        for backend in (InvertedFile, SegmentedIndex):
            assert issubclass(backend, Index)
            for derived in (
                "build", "update_model", "remove_url", "idf", "vocabulary_size",
                "matches", "conjunction", "document_frequency", "num_states", "terms",
                "states", "state_rows", "_take_seq", "_segments", "_publish",
            ):
                assert derived in vars(Index), derived
                assert derived not in vars(backend), (backend.__name__, derived)
            # Every posting leaves a segment through ``matches``, every
            # state through ``state_rows``: no second read, no point lookup.
            for gone in ("postings", "tf", "term_count", "state_length", "state_depth"):
                assert not hasattr(backend, gone), gone

    def test_a_backend_must_supply_every_primitive(self):
        from repro.search.index import Index

        assert Index.__abstractmethods__ == {"finalize"}

        class NoCommit(Index):
            pass

        with pytest.raises(TypeError, match="finalize"):
            NoCommit()
