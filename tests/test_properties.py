"""Property-based tests of cross-cutting invariants (hypothesis)."""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dom import Element, Text, hash_tree, parse_document, parse_fragment, serialize
from repro.js import Interpreter, to_string
from repro.model import ApplicationModel
from repro.search import InvertedFile, Posting, pagerank, tokenize
from tests.search.block_merge import conjunction_groups, posting_key

# -- HTML round trip over generated trees ------------------------------------------

tag_names = st.sampled_from(["div", "span", "p", "b", "i", "ul", "li", "a"])
attr_names = st.sampled_from(["id", "class", "title", "href", "data-x"])
text_payload = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Zs")),
    min_size=1,
    max_size=12,
)
attr_values = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd")),
    max_size=8,
)


@st.composite
def dom_trees(draw, depth=0):
    element = Element(draw(tag_names))
    for name in draw(st.lists(attr_names, max_size=2, unique=True)):
        element.set_attribute(name, draw(attr_values))
    if depth < 3:
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                element.append_child(Text(draw(text_payload)))
            else:
                element.append_child(draw(dom_trees(depth=depth + 1)))
    return element


@given(dom_trees())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_html_serialize_parse_round_trip(tree):
    """parse(serialize(t)) re-serializes identically (canonical form)."""
    html = serialize(tree)
    (reparsed,) = parse_fragment(html)
    assert serialize(reparsed) == html


@given(dom_trees())
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
def test_state_hash_stable_under_round_trip(tree):
    html = serialize(tree)
    (reparsed,) = parse_fragment(html)
    assert hash_tree(reparsed).state == hash_tree(tree).state


@given(dom_trees())
@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
def test_text_content_preserved_by_round_trip(tree):
    (reparsed,) = parse_fragment(serialize(tree))
    assert reparsed.text_content == tree.text_content


# -- JS arithmetic matches Python reference -----------------------------------------

numbers = st.integers(min_value=-1000, max_value=1000)


@given(numbers, numbers)
def test_js_addition_matches_python(a, b):
    interp = Interpreter()
    assert interp.run(f"{a} + {b};") == float(a + b)


@given(numbers, numbers)
def test_js_multiplication_matches_python(a, b):
    interp = Interpreter()
    assert interp.run(f"({a}) * ({b});") == pytest.approx(float(a * b))


@given(numbers, numbers)
def test_js_comparison_matches_python(a, b):
    interp = Interpreter()
    assert interp.run(f"({a}) < ({b});") is (a < b)
    assert interp.run(f"({a}) == ({b});") is (a == b)


@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), max_size=15))
def test_js_string_round_trip(payload):
    interp = Interpreter()
    escaped = payload.replace("\\", "\\\\").replace("'", "\\'")
    assert interp.run(f"'{escaped}';") == payload


@given(st.lists(numbers, min_size=1, max_size=8))
def test_js_array_sum_matches_python(values):
    interp = Interpreter()
    literal = ", ".join(str(v) for v in values)
    source = f"""
    var xs = [{literal}];
    var total = 0;
    for (var i = 0; i < xs.length; i++) {{ total += xs[i]; }}
    total;
    """
    assert interp.run(source) == float(sum(values))


@given(numbers)
def test_js_to_string_integers(value):
    assert to_string(float(value)) == str(value)


# -- model invariants over synthetic graphs ------------------------------------------

edges = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    min_size=0,
    max_size=15,
)


@given(edges)
def test_model_paths_reach_every_connected_state(edge_list):
    from repro.model import EventAnnotation

    model = ApplicationModel("u")
    states = {}
    for index in range(7):
        state, _ = model.add_state(f"h{index}", f"text {index}")
        states[index] = state
    for source, target in edge_list:
        model.add_transition(
            states[source], states[target], EventAnnotation("#e", "onclick", "f()")
        )
    # BFS reachability reference.
    adjacency = {}
    for source, target in edge_list:
        adjacency.setdefault(source, set()).add(target)
    reachable = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for neighbour in adjacency.get(node, ()):
            if neighbour not in reachable:
                reachable.add(neighbour)
                frontier.append(neighbour)
    from repro.errors import CrawlerError

    for index in range(7):
        if index in reachable:
            path = model.event_path_to(f"s{index}")
            # Path transitions chain from the initial state.
            current = "s0"
            for transition in path:
                assert transition.from_state == current
                current = transition.to_state
            assert current == f"s{index}"
        else:
            with pytest.raises(CrawlerError):
                model.event_path_to(f"s{index}")


@given(edges)
def test_model_round_trip_preserves_structure(edge_list):
    from repro.model import EventAnnotation

    model = ApplicationModel("u")
    states = {}
    for index in range(7):
        state, _ = model.add_state(f"h{index}", f"text {index}")
        states[index] = state
    for source, target in edge_list:
        model.add_transition(
            states[source], states[target], EventAnnotation("#e", "onclick", "f()")
        )
    clone = ApplicationModel.from_dict(model.to_dict())
    assert clone.num_states == model.num_states
    assert clone.num_transitions == model.num_transitions
    for state in model.states():
        assert clone.get_state(state.state_id).content_hash == state.content_hash


# -- pagerank properties ----------------------------------------------------------------

graph_strategy = st.dictionaries(
    st.sampled_from("abcdef"),
    st.lists(st.sampled_from("abcdef"), max_size=4),
    max_size=6,
)


@given(graph_strategy)
def test_pagerank_is_a_distribution(graph):
    ranks = pagerank(graph)
    if not ranks:
        return
    assert all(value >= 0 for value in ranks.values())
    assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)


@given(graph_strategy)
def test_pagerank_deterministic(graph):
    assert pagerank(graph) == pagerank(graph)


# -- index/tf-idf invariants ---------------------------------------------------------------

state_texts = st.lists(
    st.lists(st.sampled_from(["wow", "dance", "kiss", "low", "air"]), min_size=1, max_size=6)
    .map(" ".join),
    min_size=1,
    max_size=5,
)


@given(state_texts)
def test_index_statistics_consistent(texts):
    model = ApplicationModel("u")
    for index, text in enumerate(texts):
        model.add_state(f"h{index}", text)
    index = InvertedFile().build([model])
    assert index.num_states == len(texts)
    lengths = {row[:2]: row[2] for row in index.state_rows()}
    for term in {token for text in texts for token in tokenize(text)}:
        df = index.document_frequency(term)
        assert 1 <= df <= len(texts)
        expected_idf = math.log(len(texts) / df)
        assert index.idf(term) == pytest.approx(expected_idf)
        # A term's rows carry what tf is made of: every occurrence in
        # the state, and the state's token count.
        rows = list(index.conjunction([term]))
        assert len(rows) == df
        for uri, state_id, length, (positions,) in rows:
            tokens = tokenize(texts[int(state_id[1:])])
            assert length == lengths[(uri, state_id)] == len(tokens)
            assert positions == tuple(at for at, token in enumerate(tokens) if token == term)


# -- n-way conjunction equals set intersection -----------------------------------------------

posting_keys = st.tuples(st.sampled_from(["u1", "u2"]), st.integers(0, 5))


def _as_list(pairs):
    return sorted(
        [Posting(uri, f"s{idx}", positions=(0,)) for uri, idx in set(pairs)], key=posting_key
    )


@given(st.lists(st.lists(posting_keys, max_size=10), min_size=1, max_size=4))
def test_nway_merge_matches_set_intersection(groups):
    lists = [_as_list(pairs) for pairs in groups]
    merged = {
        (g[0].uri, g[0].state_id) for g in conjunction_groups(lists)
    }
    sets = [{(p.uri, p.state_id) for p in plist} for plist in lists]
    expected = set.intersection(*sets) if sets else set()
    assert merged == expected
