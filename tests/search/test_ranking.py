"""Unit and property tests for the ranking coefficients."""

import pytest
from hypothesis import given, strategies as st

from repro.model import ApplicationModel, EventAnnotation
from repro.search import ajaxrank, pagerank, term_proximity
from repro.search.ranking import _min_ordered_window, proximity_column


class TestPageRank:
    def test_empty_graph(self):
        assert pagerank({}) == {}

    def test_single_node(self):
        ranks = pagerank({"a": []})
        assert ranks == {"a": pytest.approx(1.0)}

    def test_sums_to_one(self):
        graph = {"a": ["b", "c"], "b": ["c"], "c": ["a"], "d": ["a"]}
        ranks = pagerank(graph)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)

    def test_sink_heavy_node_ranks_higher(self):
        graph = {"a": ["hub"], "b": ["hub"], "c": ["hub"], "hub": ["a"]}
        ranks = pagerank(graph)
        assert ranks["hub"] > ranks["b"]

    def test_symmetric_cycle_uniform(self):
        graph = {"a": ["b"], "b": ["c"], "c": ["a"]}
        ranks = pagerank(graph)
        assert ranks["a"] == pytest.approx(ranks["b"])
        assert ranks["b"] == pytest.approx(ranks["c"])

    def test_nodes_only_as_targets_included(self):
        ranks = pagerank({"a": ["b"]})
        assert set(ranks) == {"a", "b"}

    def test_dangling_mass_redistributed(self):
        ranks = pagerank({"a": ["b"], "b": []})
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)


class TestAjaxRank:
    def make_pagination_model(self, pages=3):
        model = ApplicationModel("u")
        states = []
        for page in range(pages):
            state, _ = model.add_state(f"h{page}", f"page {page}")
            states.append(state)
        click = lambda h: EventAnnotation("#nav", "onclick", h)  # noqa: E731
        for page in range(pages - 1):
            model.add_transition(states[page], states[page + 1], click("nextPage()"))
            model.add_transition(states[page + 1], states[page], click("prevPage()"))
        # Jump links towards page 1 from everywhere.
        for page in range(1, pages):
            model.add_transition(states[page], states[0], click("jumpToPage(1)"))
        return model

    def test_rank_per_state(self):
        model = self.make_pagination_model()
        ranks = ajaxrank(model)
        assert set(ranks) == {"s0", "s1", "s2"}
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)

    def test_heavily_linked_state_beats_the_tail(self):
        """Page 1 receives prev/jump edges from everywhere; the deepest
        page receives only one edge, so it must rank below page 1."""
        ranks = ajaxrank(self.make_pagination_model(pages=4))
        assert ranks["s0"] > ranks["s3"]
        assert ranks["s0"] > ranks["s2"]

    def test_single_state_model(self):
        model = ApplicationModel("u")
        model.add_state("h", "text")
        assert ajaxrank(model) == {"s0": pytest.approx(1.0)}


class TestTermProximity:
    def test_single_term_is_one(self):
        assert term_proximity([(5,)]) == 1.0

    def test_adjacent_in_order_is_one(self):
        # "our song" appearing verbatim.
        assert term_proximity([(3,), (4,)]) == pytest.approx(1.0)

    def test_gap_reduces_score(self):
        adjacent = term_proximity([(3,), (4,)])
        spread = term_proximity([(3,), (9,)])
        assert spread < adjacent

    def test_reordered_scores_less_than_ordered(self):
        ordered = term_proximity([(3,), (4,)])
        reordered = term_proximity([(4,), (3,)])
        assert 0 < reordered < ordered

    def test_missing_term_is_zero(self):
        assert term_proximity([(1,), ()]) == 0.0
        assert term_proximity([]) == 0.0

    def test_three_terms_verbatim(self):
        assert term_proximity([(7,), (8,), (9,)]) == pytest.approx(1.0)

    def test_best_occurrence_chosen(self):
        # Second occurrence of term1 is adjacent to term2.
        assert term_proximity([(0, 10), (11,)]) == pytest.approx(1.0)


@given(
    st.lists(
        st.lists(st.integers(0, 50), min_size=1, max_size=4).map(
            lambda xs: tuple(sorted(set(xs)))
        ),
        min_size=1,
        max_size=4,
    )
)
def test_proximity_bounded(groups):
    value = term_proximity(groups)
    assert 0.0 <= value <= 1.0


@given(st.integers(0, 40), st.integers(1, 10))
def test_proximity_monotone_in_gap(start, gap):
    closer = term_proximity([(start,), (start + gap,)])
    farther = term_proximity([(start,), (start + gap + 3,)])
    assert farther <= closer


def reference_ordered_window(position_groups):
    """The ordered window by exhaustive scan — ``ranking``'s function
    before it bisected: per start, the nearest later position of every
    next term, each found by a list over the whole group."""
    best = None
    for start in position_groups[0]:
        current = start
        feasible = True
        for group in position_groups[1:]:
            following = [p for p in group if p > current]
            if not following:
                feasible = False
                break
            current = min(following)
        if feasible:
            window = current - start + 1
            if best is None or window < best:
                best = window
    return best


positions = st.lists(st.integers(0, 30), min_size=1, max_size=6).map(
    lambda xs: tuple(sorted(set(xs)))
)


@given(st.lists(positions, min_size=1, max_size=4), st.data())
def test_ordered_window_equals_the_exhaustive_scan(groups, data):
    # Repeats (a query term twice is one group twice) and reorderings
    # (the same terms in another query order) included.
    groups += data.draw(st.lists(st.sampled_from(groups), max_size=2))
    groups = data.draw(st.permutations(groups))
    assert _min_ordered_window(groups) == reference_ordered_window(groups)


@given(
    st.lists(st.integers(0, 60), min_size=2, max_size=4, unique=True),
    st.integers(0, 3),
    st.data(),
)
def test_closed_form_proximity_is_term_proximity_bit_for_bit(spots, shape, data):
    # One position per term, in any order: adjacent, in query order,
    # reversed, or drawn; then a row where one term has two positions.
    firsts = [
        sorted(spots),
        list(range(spots[0], spots[0] + len(spots))),
        list(range(spots[0] + len(spots), spots[0], -1)),
        spots,
    ][shape]
    rows = [[(position,) for position in firsts]]
    multi = data.draw(st.integers(0, len(firsts) - 1))
    rows.append([(p, p + 61) if term == multi else (p,) for term, p in enumerate(firsts)])
    columns = [list(column) for column in zip(*rows)]
    counts = [list(map(len, column)) for column in columns]
    proximities, bound = proximity_column(columns, counts)
    assert proximities[0].hex() == term_proximity(rows[0]).hex()
    assert bound == [1]
    assert proximity_column(columns[:1], counts[:1]) == ([1.0, 1.0], [])
