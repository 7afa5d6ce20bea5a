"""Unit and property tests for tokenization and posting-list merging.

The merge under test is ``merge_conjunction_blocks``, the one
conjunction there is; ``conjunction_groups`` puts the posting lists of
these cases behind a segment file and an in-memory segment and hands
back its answer as groups of ``Posting`` objects."""

from hypothesis import given, strategies as st

from repro.model import ApplicationModel
from repro.search import InvertedFile, Posting, evaluate, tokenize, tokenize_with_positions
from tests.search.block_merge import conjunction_groups, posting_key


class TestTokenizer:
    def test_lowercases(self):
        assert tokenize("Morcheeba ROCKS") == ["morcheeba", "rocks"]

    def test_strips_punctuation(self):
        assert tokenize("wow!! this, is... great?") == ["wow", "this", "is", "great"]

    def test_numbers_kept(self):
        assert tokenize("page 2 of 10") == ["page", "2", "of", "10"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("!!! ???") == []

    def test_positions(self):
        assert tokenize_with_positions("a b a") == [("a", 0), ("b", 1), ("a", 2)]


def posting(uri, state, *positions):
    return Posting(uri=uri, state_id=state, positions=tuple(positions))


class TestSortPostings:
    def test_sorts_by_uri_then_state_index(self):
        """A posting list leaves the index in (uri, state index) order,
        whatever order its pages arrived in."""
        pages = []
        for url, states in (("b", 1), ("a", 11)):
            pages.append(ApplicationModel(url))
            for index in range(states):
                pages[-1].add_state(f"{url}{index}", "word" if index in (0, 2, 10) else "other")
        index = InvertedFile().build(pages)
        (ordered,) = zip(*(match.postings for match in evaluate(index, "word")))
        assert [(p.uri, p.state_id) for p in ordered] == [
            ("a", "s0"),
            ("a", "s2"),
            ("a", "s10"),  # numeric, not lexicographic: s2 < s10
            ("b", "s0"),
        ]
        assert all(p.positions == (0,) and p.count == 1 for p in ordered)


class TestMergeConjunction:
    def test_empty_input(self):
        assert conjunction_groups([]) == []

    def test_single_list_passes_through(self):
        lists = [[posting("a", "s0", 1), posting("b", "s1", 2)]]
        groups = conjunction_groups(lists)
        assert [(g[0].uri, g[0].state_id) for g in groups] == [("a", "s0"), ("b", "s1")]

    def test_intersection_on_uri_and_state(self):
        """The Figure 5.2 example: morcheeba AND singer -> (URL1, s2)."""
        morcheeba = [
            posting("url1", "s1", 0),
            posting("url1", "s2", 3),
            posting("url2", "s1", 5),
        ]
        singer = [posting("url1", "s2", 9), posting("url3", "s0", 1)]
        groups = conjunction_groups([morcheeba, singer])
        assert len(groups) == 1
        assert (groups[0][0].uri, groups[0][0].state_id) == ("url1", "s2")
        # Per-term postings preserved for proximity scoring.
        assert groups[0][0].positions == (3,)
        assert groups[0][1].positions == (9,)

    def test_same_uri_different_states_not_matched(self):
        one = [posting("u", "s1", 0)]
        two = [posting("u", "s2", 0)]
        assert conjunction_groups([one, two]) == []

    def test_any_empty_list_empties_result(self):
        assert conjunction_groups([[posting("u", "s0", 1)], []]) == []

    def test_three_way_conjunction(self):
        a = [posting("u", "s0", 0), posting("u", "s1", 0), posting("v", "s0", 0)]
        b = [posting("u", "s1", 1), posting("v", "s0", 1)]
        c = [posting("u", "s1", 2), posting("w", "s0", 2)]
        groups = conjunction_groups([a, b, c])
        assert [(g[0].uri, g[0].state_id) for g in groups] == [("u", "s1")]


# -- property-based: merge == brute-force set intersection ---------------------

keys = st.tuples(
    st.sampled_from(["u1", "u2", "u3"]),
    st.integers(min_value=0, max_value=6),
)


def build_list(pairs):
    return sorted(
        [posting(uri, f"s{idx}", 0) for uri, idx in set(pairs)], key=posting_key
    )


@given(st.lists(keys, max_size=15), st.lists(keys, max_size=15))
def test_merge_matches_set_intersection(pairs_a, pairs_b):
    list_a, list_b = build_list(pairs_a), build_list(pairs_b)
    groups = conjunction_groups([list_a, list_b])
    merged = {(g[0].uri, g[0].state_id) for g in groups}
    expected = {(p.uri, p.state_id) for p in list_a} & {
        (p.uri, p.state_id) for p in list_b
    }
    assert merged == expected


@given(st.lists(keys, min_size=1, max_size=12))
def test_merge_with_self_is_identity(pairs):
    plist = build_list(pairs)
    groups = conjunction_groups([plist, plist])
    assert [(g[0].uri, g[0].state_id) for g in groups] == [
        (p.uri, p.state_id) for p in plist
    ]
