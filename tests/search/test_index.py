"""Unit tests for the state-granular inverted file."""

import math

import pytest

from repro.errors import SearchError
from repro.model import ApplicationModel
from repro.search import InvertedFile


def rows(index, term):
    """The posting list of ``term``: the one-term conjunction, one
    ``(uri, state_id, state length, (positions,))`` row a state."""
    return list(index.conjunction([term]))


def make_model(url, state_texts):
    model = ApplicationModel(url)
    for offset, text in enumerate(state_texts):
        model.add_state(f"hash-{url}-{offset}", text, depth=offset)
    return model


@pytest.fixture
def index():
    """The Table 5.1 scenario: two Morcheeba videos."""
    video1 = make_model("url1", ["morcheeba mysterious video", "morcheeba singer here"])
    video2 = make_model("url2", ["morcheeba morcheeba great"])
    return InvertedFile().build([video1, video2])


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
        assert index.state_depth("url1", "s1") == 1


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
        assert index.tf("morcheeba", "url2", "s0") == pytest.approx(2 / 3)
        assert index.tf("great", "url2", "s0") == pytest.approx(1 / 3)
        assert index.tf("absent", "url2", "s0") == 0.0
        assert index.tf("morcheeba", "nope", "s0") == 0.0

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
        assert index.state_length("url1", "s0") == 3
        assert index.state_length("nope", "s0") == 0


class TestSerialization:
    def test_round_trip(self, index, tmp_path):
        path = tmp_path / "index.json"
        index.save(path)
        loaded = InvertedFile.load(path)
        assert loaded.num_states == index.num_states
        assert rows(loaded, "morcheeba") == rows(index, "morcheeba")
        assert loaded.idf("singer") == pytest.approx(index.idf("singer"))
        assert loaded.state_depth("url1", "s1") == 1
        assert loaded.max_state_index == index.max_state_index

    def test_json_format_is_pinned(self, tmp_path):
        """The file an earlier version wrote: it must load, and saving
        the same corpus must produce the same bytes (key order, term
        order and state order included)."""
        written = (
            '{"max_state_index": null, "stopwords": null, "postings": '
            '{"b": [["u", "s0", [0]], ["u", "s1", [1]]], "a": [["u", "s0", [1, 2]]], '
            '"c": [["u", "s1", [0]]]}, '
            '"state_lengths": [["u", "s0", 3], ["u", "s1", 2]], '
            '"state_depths": [["u", "s0", 0], ["u", "s1", 1]]}'
        )
        path = tmp_path / "index.json"
        InvertedFile().build([make_model("u", ["b a a", "c b"])]).save(path)
        assert path.read_text(encoding="utf-8") == written
        loaded = InvertedFile.load(path)
        loaded.save(path)
        assert path.read_text(encoding="utf-8") == written
        assert loaded.tf("a", "u", "s0") == pytest.approx(2 / 3)
        # The per-state term registry is rebuilt on load: removal works.
        assert loaded.remove_url("u") == 2
        assert loaded.vocabulary_size == 0

    def test_round_trip_preserves_max_state_index(self, tmp_path):
        video = make_model("u", ["one", "two"])
        index = InvertedFile(max_state_index=1).build([video])
        path = tmp_path / "index.json"
        index.save(path)
        assert InvertedFile.load(path).max_state_index == 1


class TestFinalizeThreadSafety:
    """Regression: the first queries of a fresh index used to race on
    the lazy sort in finalize() — today, on the lazy view of the buffer,
    which either backend's first readers build."""

    def test_concurrent_first_postings_calls_are_safe(self, tmp_path):
        import threading

        from repro.search import SegmentedIndex

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
    """Regression for the O(df) scan in tf(): the binary-search probe
    must return exactly what a full scan of the posting list returns,
    for every state and for misses on either side of the list."""

    def _naive_tf(self, index, term, uri, state_id):
        length = index.state_length(uri, state_id)
        if length == 0:
            return 0.0
        for row_uri, row_state, _, (positions,) in rows(index, term):
            if (row_uri, row_state) == (uri, state_id):
                return len(positions) / length
        return 0.0

    def test_probe_matches_scan_everywhere(self):
        models = [
            make_model(
                f"url{page:02d}",
                [f"common unique{page}x{state} extra" for state in range(5)],
            )
            for page in range(10)
        ]
        index = InvertedFile().build(models)
        assert index.document_frequency("common") == 50
        for uri, state_id in index.states():
            for term in ("common", f"unique{uri[3:]}x0", "absent"):
                assert index.tf(term, uri, state_id) == self._naive_tf(
                    index, term, uri, state_id
                ), (term, uri, state_id)

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
        assert index.tf("gap", "url1", "s0") == 0.0
        assert index.tf("gap", "url0", "s0") == pytest.approx(0.5)
        assert index.tf("gap", "url2", "s0") == pytest.approx(0.5)

    def test_probe_beyond_last_posting(self):
        index = InvertedFile().build(
            [make_model("a", ["solo term"]), make_model("z", ["filler only"])]
        )
        # "solo" sorts entirely before ("z", 0): bisect lands past the end.
        assert index.tf("solo", "z", "s0") == 0.0

    def test_probe_on_unfinalized_index(self):
        # tf() must view (sort) the buffer before bisecting a fresh index.
        index = InvertedFile()
        index.add_model(make_model("b", ["term here"]))
        index.add_model(make_model("a", ["term there"]))
        assert index._generation is None
        assert index.tf("term", "a", "s0") == pytest.approx(0.5)


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
                "build", "update_model", "remove_url", "tf", "idf", "vocabulary_size",
                "matches", "conjunction", "document_frequency", "num_states", "terms",
                "states", "state_length", "state_depth", "term_count",
                "_locate", "_take_seq", "_segments", "_publish",
            ):
                assert derived in vars(Index), derived
                assert derived not in vars(backend), (backend.__name__, derived)
            # Every posting leaves a segment through ``matches``: no second read.
            assert not hasattr(backend, "postings")

    def test_a_backend_must_supply_every_primitive(self):
        from repro.search.index import Index

        assert Index.__abstractmethods__ == {"finalize"}

        class NoCommit(Index):
            pass

        with pytest.raises(TypeError, match="finalize"):
            NoCommit()
