"""Tests for the noisy-twin site generator and its closed-form oracles."""

import pytest

from repro.clock import CostModel, SimClock
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.crawler.ajax import UPDATE_EVENT_PATTERNS
from repro.dom import parse_document
from repro.dom.simhash import hamming, simhash64, state_features
from repro.testgen.noisy import (
    NEAR_DUP_THRESHOLD,
    NOISY_WORD_CORPUS,
    VOLATILE_MARKER_SUBSTRINGS,
    NoisyGeneratedSite,
    build_noisy_site,
    generate_noisy_site,
)


class TestCorpusHygiene:
    def test_words_avoid_update_event_patterns(self):
        for word in NOISY_WORD_CORPUS:
            assert not any(p in word for p in UPDATE_EVENT_PATTERNS), word

    def test_words_avoid_volatile_marker_substrings(self):
        for word in NOISY_WORD_CORPUS:
            assert not any(m in word for m in VOLATILE_MARKER_SUBSTRINGS), word

    def test_corpus_is_unique_and_lowercase(self):
        assert len(set(NOISY_WORD_CORPUS)) == len(NOISY_WORD_CORPUS)
        assert all(w == w.lower() and w.isalpha() for w in NOISY_WORD_CORPUS)


class TestGenerateNoisySite:
    def test_deterministic_for_seed(self):
        assert generate_noisy_site(7) == generate_noisy_site(7)
        assert generate_noisy_site(7) != generate_noisy_site(8)

    def test_states_draw_disjoint_word_slices(self):
        spec = generate_noisy_site(3, num_pages=2)
        for page in spec.pages:
            seen = set()
            for words in page.words:
                assert words, "every state needs stable vocabulary"
                assert not (set(words) & seen)
                seen.update(words)

    def test_word_budget_enforced(self):
        with pytest.raises(ValueError):
            generate_noisy_site(0, max_states=8, words_per_state=10)

    def test_oracles_consistent(self):
        spec = generate_noisy_site(11, num_pages=2, extra_edges=5)
        for page in spec.pages:
            assert spec.expected_canonical_states(page) == page.num_states
            total_variants = sum(
                spec.expected_variants(page, s) for s in range(page.num_states)
            )
            # Every transition firing plus the page load is observed once.
            assert total_variants == len(page.transitions) + 1
            assert spec.expected_collapses(page) == total_variants - page.num_states
            for state in range(page.num_states):
                mask = spec.expected_volatile_mask(page, state)
                if spec.expected_variants(page, state) > 1:
                    assert mask == tuple(
                        sorted(("content", spec.volatile_region_id(page, state)))
                    )
                else:
                    assert mask == ()

    def test_explosion_oracle_bounds(self):
        spec = generate_noisy_site(11, extra_edges=5)
        page = spec.pages[0]
        cap = 3 * page.num_states
        exploded = spec.expected_exploded_states(page, cap)
        assert page.num_states <= exploded <= cap
        assert spec.expected_exploded_events(page, cap) >= exploded - 1


class TestNoisyGeneratedSite:
    def test_serials_increment_per_page_state(self):
        spec = generate_noisy_site(2)
        site = build_noisy_site(spec)
        page = spec.pages[0]
        first = site.render_fragment(page, 1)
        second = site.render_fragment(page, 1)
        other = site.render_fragment(page, 2)
        assert spec.noise_token(page, 1, 0) in first
        assert spec.noise_token(page, 1, 1) in second
        assert spec.noise_token(page, 2, 0) in other

    def test_twins_differ_only_in_noise_token(self):
        spec = generate_noisy_site(2)
        site = build_noisy_site(spec)
        page = spec.pages[0]
        first = site.render_fragment(page, 1)
        second = site.render_fragment(page, 1)
        assert first != second
        assert first.replace(
            spec.noise_token(page, 1, 0), ""
        ) == second.replace(spec.noise_token(page, 1, 1), "")

    def test_page_chrome_carries_page_token(self):
        spec = generate_noisy_site(2)
        site = build_noisy_site(spec)
        page = spec.pages[0]
        html = site.render_page(page)
        assert spec.page_token(page) in html
        assert spec.volatile_region_id(page, 0) in html


class TestCalibrationMargin:
    """The threshold must separate twins from distinct states with slack.

    Crawl a noisy site with collapse OFF and stored HTML, fingerprint
    every minted state, and check the empirical gap the
    ``NEAR_DUP_THRESHOLD`` calibration (seeds 0..49) relies on: twins of
    one logical state sit at or below the threshold, distinct logical
    states sit strictly above it.
    """

    @pytest.mark.parametrize("seed", [0, 5, 17, 42])
    def test_twin_and_cross_distances_straddle_threshold(self, seed):
        spec = generate_noisy_site(seed)
        page = spec.pages[0]
        config = CrawlerConfig(
            max_additional_states=3 * page.num_states - 1,
            use_hot_node=False,
            max_event_invocations=10_000,
            store_html=True,
        )
        crawler = AjaxCrawler(
            NoisyGeneratedSite(spec),
            config,
            clock=SimClock(),
            cost_model=CostModel(network_jitter=0.0),
        )
        model = crawler.crawl(spec.all_urls()).models[0]
        by_logical: dict[int, list[int]] = {}
        for state in model.states():
            logical = next(
                s
                for s in range(page.num_states)
                if page.marker_of(s) in state.html
            )
            fingerprint = simhash64(state_features(parse_document(state.html)))
            by_logical.setdefault(logical, []).append(fingerprint)
        assert sum(len(v) for v in by_logical.values()) > page.num_states
        twin_max = 0
        cross_min = 64
        logicals = sorted(by_logical)
        for logical in logicals:
            twins = by_logical[logical]
            for i, a in enumerate(twins):
                for b in twins[i + 1 :]:
                    twin_max = max(twin_max, hamming(a, b))
            for other in logicals:
                if other <= logical:
                    continue
                for a in twins:
                    for b in by_logical[other]:
                        cross_min = min(cross_min, hamming(a, b))
        assert twin_max <= NEAR_DUP_THRESHOLD, twin_max
        assert cross_min > NEAR_DUP_THRESHOLD, cross_min
