"""The write buffer of both backends: two columns per term, no object
per posting."""

import gc
import itertools

import pytest

from repro.errors import SearchError
from repro.search import ENGLISH_STOPWORDS, Memtable
from repro.testgen.corpus import corpus_models, corpus_spec


def filled(states, stopwords=None):
    """``states`` are ``(uri, state_id, text)``; sequence numbers from 10."""
    memtable = Memtable(stopwords=stopwords)
    for seq, (uri, state_id, text) in enumerate(states, 10):
        memtable.add_state(uri, state_id, text, depth=0, seq=seq)
    return memtable


def columns(memtable):
    return {term: (memtable._seqs[term], memtable._positions[term]) for term in memtable.terms()}


class TestColumns:
    def test_a_term_holds_sequence_numbers_and_position_tuples(self):
        memtable = filled([("b", "s0", "x y x"), ("a", "s0", "y z")])
        assert columns(memtable) == {
            "x": ([10], [(0, 2)]),
            "y": ([10, 11], [(1,), (0,)]),
            "z": ([11], [(1,)]),
        }
        assert memtable.num_postings == 4
        assert memtable.state_rows() == [("b", "s0", 3, 0, 10), ("a", "s0", 2, 0, 11)]

    def test_stopwords_leave_their_slot_and_the_length(self):
        memtable = filled([("u", "s0", "the cat and the hat")], ENGLISH_STOPWORDS)
        assert columns(memtable) == {"cat": ([10], [(1,)]), "hat": ([10], [(4,)])}
        assert memtable.state_rows() == [("u", "s0", 2, 0, 10)]

    def test_a_state_is_buffered_once(self):
        memtable = filled([("u", "s0", "x")])
        with pytest.raises(SearchError, match="indexed twice"):
            memtable.add_state("u", "s0", "y", depth=0, seq=99)
        assert list(memtable.terms()) == ["x"]

    def test_removal_filters_by_sequence_number(self):
        memtable = filled([("a", "s0", "x y"), ("b", "s0", "x"), ("a", "s1", "y z")])
        assert memtable.remove_urls(["a", "nowhere"]) == 2
        assert columns(memtable) == {"x": ([11], [(0,)])}  # y and z left no empty column
        assert memtable.num_postings == 1
        assert memtable.state_rows() == [("b", "s0", 1, 0, 11)]
        # Re-added, the URI's states sit at the end under new numbers.
        memtable.add_state("a", "s0", "x", depth=0, seq=20)
        assert columns(memtable) == {"x": ([11, 20], [(0,), (0,)])}

    def test_flush_view_ranks_against_the_sorted_rows(self):
        # Inserted against canonical order, s10 after s9: the ordinals
        # are places in the sorted table, not sequence numbers.
        memtable = filled([("b", "s0", "x"), ("a", "s10", "x y"), ("a", "s9", "y x")])
        rows, by_term = memtable.flush_view()
        assert rows == [("a", "s9", 2, 0, 12), ("a", "s10", 2, 0, 11), ("b", "s0", 1, 0, 10)]
        assert list(by_term) == [
            ("x", [0, 1, 2], [(1,), (0,), (0,)]),
            ("y", [0, 1], [(0,), (1,)]),
        ]

    def test_restore_numbers_rows_in_order_and_rejects_orphans(self):
        memtable = Memtable()
        memtable.restore(
            [("b", "s0", 2, 0), ("a", "s0", 1, 1)],
            {"x": [["a", "s0", [0]], ["b", "s0", [0, 1]]]},  # canonical, as saved
        )
        assert columns(memtable) == {"x": ([0, 1], [(0, 1), (0,)])}
        assert memtable.num_postings == 2
        assert memtable.remove_urls(["a"]) == 1
        assert columns(memtable) == {"x": ([0], [(0, 1)])}
        with pytest.raises(SearchError, match="unknown state"):
            Memtable().restore([], {"x": [["a", "s0", [0]]]})


def test_a_filled_memtable_holds_no_object_per_posting():
    # What the write path's speed rests on: the cyclic collector walks
    # every container it tracks on each full pass, so a buffered posting
    # must be an int and a tuple of ints (which it stops tracking), not
    # an object.  Counted, not timed: two lists per term plus the dicts.
    models = corpus_models(corpus_spec(2000, seed=7))
    memtable = Memtable()
    gc.collect()
    before = len(gc.get_objects())
    seq = itertools.count().__next__
    for model in models:
        memtable.add_model(model, seq)
    del model
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert memtable.num_postings > 15_000
    assert grown < memtable.num_postings / 2, (grown, memtable.num_postings)
    assert grown <= 2 * len(memtable.terms()) + 64
