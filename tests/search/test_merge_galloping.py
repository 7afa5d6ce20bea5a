"""Oracle tests for the conjunction merge (§5.3.2, Figure 5.2).

The file is named for the ``Posting``-level galloping merge it was
written against.  That merge is gone; the one conjunction left,
``merge_conjunction_blocks``, is held here to the same linear merge
(``tests/search/block_merge.py``) and to a plain set intersection,
directly over ordinal columns: same ordinals, same per-term position
columns, on a segment file of any block size and in memory.  And to
the per-posting leapfrog it was before it intersected decoded windows
at once: the same answer from the same blocks decoded and skipped.
"""

import dataclasses
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.model import ApplicationModel
from repro.search import InvertedFile, MergeStats, Posting, evaluate
from repro.search.segments import merge_conjunction_blocks
from tests.search.block_merge import (
    block_merge,
    conjunction_groups,
    leapfrog_merge,
    naive_merge,
    segments_over,
    set_intersection,
)


# -- randomized inputs ---------------------------------------------------------

occurrences = st.sets(st.integers(min_value=0, max_value=99), min_size=1, max_size=3).map(
    lambda drawn: tuple(sorted(drawn))
)


def posting_list(ordinals):
    """A strategy for one list: the given ordinals, duplicate-free and
    ascending, each with drawn positions — a long list's derived from
    one drawn salt instead, distinct from its neighbours' all the same."""
    ordinals = sorted(set(ordinals))
    if len(ordinals) > 60:
        return st.integers(min_value=0, max_value=50).map(
            lambda salt: (ordinals, [tuple(range(salt + o % 7, salt + o % 7 + 1 + o % 3)) for o in ordinals])
        )
    return st.tuples(
        st.just(ordinals), st.lists(occurrences, min_size=len(ordinals), max_size=len(ordinals))
    )


def drawn_lists(shape):
    return st.tuples(*map(posting_list, shape))


ordinal_sets = st.lists(st.integers(min_value=0, max_value=60), max_size=40)
#: 1–4 unrelated lists, empty ones included.
free = st.lists(ordinal_sets, min_size=1, max_size=4).flatmap(drawn_lists)
#: Each list a subset of the one before it.
nested = st.lists(ordinal_sets, min_size=2, max_size=4).flatmap(
    lambda sets: drawn_lists([set(sets[0]).intersection(*sets[1 : at + 1]) for at in range(len(sets))])
)
#: No ordinal in two lists: list ``i`` takes the residues ``i`` mod n.
disjoint = st.lists(ordinal_sets, min_size=2, max_size=4).flatmap(
    lambda sets: drawn_lists(
        [[o for o in drawn if o % len(sets) == at] for at, drawn in enumerate(sets)]
    )
)
#: One list everywhere, one nearly nowhere: many blocks to hop.
skewed = st.lists(st.integers(min_value=0, max_value=449), min_size=1, max_size=3).flatmap(
    lambda rare: drawn_lists([range(400), rare])
)


def overlap(count, size, percent, seed):
    """``count`` lists of ``size`` keys each, ``percent`` of them held
    by every list and the rest by that list alone."""
    keys = random.Random(seed).sample(range(2 * count * size), count * size)
    shared = keys[: size * percent // 100]
    own = keys[len(shared) :]
    return [shared + own[at::count][: size - len(shared)] for at in range(count)]


#: 2–3 long lists sharing 5–100% of their keys: decoded windows that
#: hold many matches and cross many blocks.
overlapping = st.builds(
    overlap, st.integers(2, 3), st.integers(300, 600), st.integers(5, 100), st.integers(0, 2**16)
).flatmap(drawn_lists)
block_sizes = st.sampled_from((1, 2, 3, 128))


@pytest.mark.slow
@given(st.one_of(free, nested, disjoint, skewed), block_sizes)
@example(lists=(([], []),), block_size=1)
@example(lists=(([3], [(0,)]), ([], [])), block_size=2)
@example(lists=(([0, 1, 2, 3, 4], [(1,)] * 5), ([4], [(7, 9)])), block_size=2)
@settings(max_examples=150, deadline=None)
def test_galloping_equals_naive_merge(lists, block_size):
    lists = list(lists)
    expected = set_intersection(lists)
    assert naive_merge(lists) == expected
    with segments_over(lists, block_size) as (reader, memory):
        assert block_merge(reader, len(lists)) == expected
        assert block_merge(memory, len(lists)) == expected


def keys_only(*lists):
    return tuple((keys, [(0,)] * len(keys)) for keys in lists)


@pytest.mark.slow
@given(st.one_of(free, nested, disjoint, skewed, overlapping), block_sizes)
# Three lists, where every cursor at its first key >= edge is not where
# the leapfrog stands: the next seek from there would hop a block the
# leapfrog decodes (DESIGN.md decision 27).
@example(
    lists=keys_only(
        [1, 13, 35, 36], [1, 5, 13, 15, 18, 20, 22, 23, 26], [5, 7, 18, 28, 29, 30, 31, 32, 34]
    ),
    block_size=4,
)
@settings(max_examples=150, deadline=None)
def test_block_merge_decodes_what_the_leapfrog_decodes(lists, block_size):
    # The same answer from the same blocks: decoded, skipped, and the
    # postings in them — work_cost and PINNED_MERGE_STATS rest on it.
    with segments_over(list(lists), block_size) as segments:
        for segment in segments:
            spent = []
            for merge in (merge_conjunction_blocks, leapfrog_merge):
                stats = MergeStats()
                spent.append((block_merge(segment, len(lists), stats, merge), stats.to_dict()))
            assert spent[0] == spent[1], type(segment).__name__


@given(st.one_of(free, nested), block_sizes)
@settings(max_examples=50, deadline=None)
def test_result_invariants(lists, block_size):
    with segments_over(list(lists), block_size) as (reader, _):
        ordinals, columns = block_merge(reader, len(lists))
    # One position column per list, parallel to the ordinals.
    assert len(columns) == len(lists)
    assert all(len(column) == len(ordinals) for column in columns)
    # Ascending, each once, each in every list with that list's positions.
    assert ordinals == sorted(set(ordinals))
    for (held, positions), column in zip(lists, columns):
        assert [positions[held.index(ordinal)] for ordinal in ordinals] == column


# -- deterministic edge cases --------------------------------------------------


def p(uri, state, *positions):
    return Posting(uri=uri, state_id=state, positions=tuple(positions))


class TestEdgeCases:
    def test_no_lists(self):
        assert conjunction_groups([]) == []

    def test_any_empty_list_kills_the_conjunction(self):
        assert conjunction_groups([[p("u", "s1", 0)], []]) == []
        assert conjunction_groups([[], [p("u", "s1", 0)]]) == []

    def test_single_list_passes_through_as_groups(self):
        lst = [p("u", "s1", 0), p("u", "s2", 1)]
        assert conjunction_groups([lst]) == [[lst[0]], [lst[1]]]

    def test_disjoint_lists_yield_nothing(self):
        a = [p("u", "s1", 0), p("u", "s3", 0)]
        b = [p("u", "s2", 0), p("u", "s4", 0)]
        assert conjunction_groups([a, b]) == []

    def test_skewed_lists_gallop_to_the_rare_key(self):
        long = [p("u", f"s{i}", 0) for i in range(500)]
        rare = [p("u", "s250", 1), p("u", "s499", 2)]
        assert conjunction_groups([long, rare], block_size=16) == [
            [long[250], rare[0]], [long[499], rare[1]]
        ]
        # The long list's blocks between the rare keys are hopped, not read.
        columns = [(list(range(500)), [(0,)] * 500), ([250, 499], [(1,), (2,)])]
        with segments_over(columns, 16) as (reader, _):
            stats = MergeStats()
            block_merge(reader, 2, stats)
        assert stats.blocks_decoded == 4  # of 33: the rare block, and the long list's first and two hits
        assert stats.blocks_skipped == 29

    def test_double_digit_state_ids_order_numerically(self):
        model = ApplicationModel("u")
        for index in range(11):
            model.add_state(f"h{index}", f"word only{index}")
        index = InvertedFile().build([model])
        rows = list(index.conjunction(["word"]))
        assert [state_id for _, state_id, _, _ in rows][-3:] == ["s8", "s9", "s10"]
        assert [match.state_id for match in evaluate(index, "word")][-2:] == ["s9", "s10"]


class TestSortKeyCaching:
    def test_posting_stays_frozen_and_hashable(self):
        posting = p("u", "s7", 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            posting.uri = "other"
        assert hash(posting) == hash(p("u", "s7", 1))
        assert posting == p("u", "s7", 1)
        assert posting.count == 1
