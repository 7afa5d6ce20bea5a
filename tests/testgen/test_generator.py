"""Generator determinism, graph invariants, and spec serialization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crawler.ajax import UPDATE_EVENT_PATTERNS
from repro.search import tokenize
from repro.testgen.noisy import VOLATILE_MARKER_SUBSTRINGS
from repro.testgen import (
    MIN_STATES,
    SiteSpec,
    WORD_CORPUS,
    generate_page,
    generate_site,
)


def _reachable_from_zero(page) -> set[int]:
    frontier, seen = [0], {0}
    while frontier:
        state = frontier.pop()
        for transition in page.outgoing(state):
            if transition.dst not in seen:
                seen.add(transition.dst)
                frontier.append(transition.dst)
    return seen


def assert_page_invariants(page):
    # Graph shape the conformance oracles rely on.
    assert page.num_states >= MIN_STATES
    pairs = [(t.src, t.dst) for t in page.transitions]
    assert all(src != dst for src, dst in pairs), "self loop sampled"
    assert len(pairs) == len(set(pairs)), "duplicate edge sampled"
    assert _reachable_from_zero(page) == set(range(page.num_states))
    assert any(page.in_degree(s) >= 2 for s in range(page.num_states)), (
        "no state with in-degree >= 2: hot-node saving would be zero"
    )
    # Oracles are mutually consistent.
    assert sum(page.expected_fetches().values()) == len(page.transitions)
    assert page.expected_network_calls(use_hot_node=False) == len(page.transitions)
    assert page.expected_network_calls(use_hot_node=True) == len(
        page.expected_unique_fetches()
    )
    assert page.expected_cached_hits() >= 1
    # Markers: one per state, each a single searchable token.
    assert len(page.markers) == page.num_states
    assert len(set(page.markers)) == page.num_states
    for marker in page.markers:
        assert tokenize(marker) == [marker]
    assert len(page.words) == page.num_states
    for state_words in page.words:
        assert set(state_words) <= set(WORD_CORPUS)


class TestDeterminism:
    def test_same_seed_same_spec(self):
        assert generate_site(42, num_pages=3) == generate_site(42, num_pages=3)
        assert (
            generate_site(42, num_pages=3).to_dict()
            == generate_site(42, num_pages=3).to_dict()
        )

    def test_different_seeds_differ(self):
        specs = {str(generate_site(seed, num_pages=2).to_dict()) for seed in range(8)}
        assert len(specs) == 8

    def test_markers_unique_across_pages(self):
        spec = generate_site(5, num_pages=4)
        markers = [m for page in spec.pages for m in page.markers]
        assert len(markers) == len(set(markers))


class TestInvariants:
    @pytest.mark.parametrize("seed", range(20))
    def test_page_invariants(self, seed):
        for page in generate_site(seed, num_pages=1 + seed % 3).pages:
            assert_page_invariants(page)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        max_states=st.integers(min_value=MIN_STATES, max_value=10),
        extra_edges=st.integers(min_value=0, max_value=8),
    )
    def test_page_invariants_hypothesis(self, seed, max_states, extra_edges):
        page = generate_page(
            random.Random(seed),
            seed=seed,
            page_id=0,
            max_states=max_states,
            extra_edges=extra_edges,
        )
        assert_page_invariants(page)

    def test_rejects_degenerate_parameters(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            generate_page(rng, seed=0, page_id=0, min_states=MIN_STATES - 1)
        with pytest.raises(ValueError):
            generate_page(rng, seed=0, page_id=0, min_states=5, max_states=4)
        with pytest.raises(ValueError):
            generate_site(0, num_pages=0)


class TestSpecOracles:
    def test_site_totals(self):
        spec = generate_site(3, num_pages=2)
        assert spec.total_states == sum(p.num_states for p in spec.pages)
        assert spec.total_transitions == sum(len(p.transitions) for p in spec.pages)
        assert (
            spec.max_additional_states_needed
            == max(p.num_states for p in spec.pages) - 1
        )

    def test_page_urls(self):
        spec = generate_site(3, num_pages=2)
        urls = spec.all_urls()
        assert len(urls) == 2
        for url in urls:
            assert spec.page_for_url(url) is spec.pages[urls.index(url)]
        with pytest.raises(KeyError):
            spec.page_for_url("http://testgen.test/nope")

    def test_marker_state_round_trip(self):
        page = generate_site(9).pages[0]
        for state in range(page.num_states):
            assert page.state_of_marker(page.marker_of(state)) == state


class TestSerialization:
    def test_dict_round_trip(self):
        spec = generate_site(11, num_pages=3)
        assert SiteSpec.from_dict(spec.to_dict()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = generate_site(11, num_pages=2)
        path = tmp_path / "spec.json"
        spec.save(path)
        assert SiteSpec.load(path) == spec


class TestCorpusHygiene:
    """Stable vocabularies must never collide with marker machinery.

    A corpus word containing an ``UPDATE_EVENT_PATTERNS`` substring
    would make the crawler refuse a generated handler; one containing a
    volatile-region marker substring (``vol``/``zz``) could satisfy a
    noisy-twin oracle's text assertion from *stable* prose, masking a
    collapse bug.
    """

    def test_word_corpus_avoids_update_event_patterns(self):
        for word in WORD_CORPUS:
            assert not any(p in word for p in UPDATE_EVENT_PATTERNS), word

    def test_word_corpus_avoids_volatile_marker_substrings(self):
        for word in WORD_CORPUS:
            assert not any(m in word for m in VOLATILE_MARKER_SUBSTRINGS), word
