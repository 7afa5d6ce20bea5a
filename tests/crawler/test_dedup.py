"""Unit tests for the near-duplicate collapse layer and its crawl wiring."""

import pytest

from repro.clock import CostModel, SimClock
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.crawler.dedup import BandedLshTable, StateCollapser
from repro.dom.simhash import simhash64
from repro.net import Response, RoutedServer
from repro.obs import Recorder, STATE_COLLAPSED, STATE_DUPLICATE
from repro.sites import SiteConfig, SyntheticYouTube
from repro.testgen.noisy import (
    NEAR_DUP_THRESHOLD,
    NoisyGeneratedSite,
    generate_noisy_site,
)


class TestBandedLshTable:
    def test_insert_then_probe_same_fingerprint(self):
        table = BandedLshTable(16)
        table.insert(0xDEAD, 0)
        assert table.candidates(0xDEAD) == [0]

    def test_candidates_deduplicated_in_insertion_order(self):
        table = BandedLshTable(4)
        table.insert(0, 7)
        table.insert(0, 3)
        # Fingerprint 0 shares every band with both refs; each appears once.
        assert table.candidates(0) == [7, 3]

    def test_disjoint_bands_no_candidates(self):
        table = BandedLshTable(2)
        table.insert(0, 0)
        # Flip one bit in each 32-bit band: no band matches.
        assert table.candidates((1 << 0) | (1 << 63)) == []

    def test_invalid_band_count_rejected(self):
        with pytest.raises(ValueError):
            BandedLshTable(5)


class TestStateCollapser:
    def test_first_observation_becomes_canonical(self):
        collapser = StateCollapser(8)
        outcome = collapser.observe_fingerprint("h1", 0b1111, regions={})
        assert outcome.canonical_hash == "h1"
        assert not outcome.merged and not outcome.known
        assert collapser.canonical_hashes() == ["h1"]
        assert collapser.states_hashed == 0  # observe() counts, not this

    def test_within_threshold_merges_with_distance(self):
        collapser = StateCollapser(8)
        collapser.observe_fingerprint("h1", 0, regions={"r": "a"})
        outcome = collapser.observe_fingerprint(
            "h2", 0b111, regions={"r": "b"}
        )
        assert outcome.merged
        assert outcome.canonical_hash == "h1"
        assert outcome.distance == 3
        assert collapser.canonical_hashes() == ["h1"]
        assert collapser.variants_of("h1") == 2
        assert collapser.volatile_regions_of("h1") == ("r",)
        assert collapser.partition() == frozenset({frozenset({"h1", "h2"})})

    def test_beyond_threshold_becomes_new_canonical(self):
        collapser = StateCollapser(2)
        collapser.observe_fingerprint("h1", 0, regions={})
        outcome = collapser.observe_fingerprint("h2", 0b1111111, regions={})
        assert not outcome.merged
        assert collapser.canonical_hashes() == ["h1", "h2"]
        assert collapser.partition() == frozenset(
            {frozenset({"h1"}), frozenset({"h2"})}
        )

    def test_exact_rehash_short_circuits_without_fingerprint(self):
        collapser = StateCollapser(8)
        collapser.observe("h1", frozenset({"c!a", "c!b"}), regions={})
        outcome = collapser.observe("h1", frozenset({"c!a", "c!b"}), regions={})
        assert outcome.known
        assert outcome.canonical_hash == "h1"
        assert collapser.states_hashed == 1  # second observation skipped
        assert collapser.variants_of("h1") == 1  # known rehash is not a variant

    def test_merged_variant_rehash_is_known(self):
        collapser = StateCollapser(8)
        collapser.observe_fingerprint("h1", 0, regions={})
        collapser.observe_fingerprint("h2", 1, regions={})
        outcome = collapser.observe_fingerprint("h2", 1, regions={})
        assert outcome.known and outcome.canonical_hash == "h1"

    def test_nearest_canonical_wins(self):
        # Canonicals 10 bits apart (distinct at threshold 8); the probe
        # sits within threshold of both, 3 bits from b and 7 from a.
        collapser = StateCollapser(8)
        collapser.observe_fingerprint("a", 0, regions={})
        collapser.observe_fingerprint("b", 0b1111111111, regions={})
        outcome = collapser.observe_fingerprint("x", 0b0001111111, regions={})
        assert outcome.canonical_hash == "b"
        assert outcome.distance == 3

    def test_counters_accumulate(self):
        collapser = StateCollapser(8)
        collapser.observe("h1", frozenset({"c!a"}), regions={})
        collapser.observe("h1", frozenset({"c!a"}), regions={})  # known rehash
        assert collapser.states_hashed == 1
        twin = simhash64(frozenset({"c!a"})) ^ 1
        collapser.observe_fingerprint("h2", twin, regions={})
        assert collapser.hamming_checks >= 1
        assert collapser.merges == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            StateCollapser(-1)
        with pytest.raises(ValueError):
            StateCollapser(14, bands=8)  # needs >= 15 -> 16
        assert StateCollapser(14, bands=32).table.bands == 32


def noisy_crawl(threshold=NEAR_DUP_THRESHOLD, **config_overrides):
    spec = generate_noisy_site(5)
    page = spec.pages[0]
    max_n = max(p.num_states for p in spec.pages)
    recorder = Recorder(clock=SimClock())
    # Collapse admits exactly the logical states; exact identity needs
    # headroom to explode (the 3x cap the conformance oracle replays).
    cap = max_n if threshold is not None else 3 * max_n
    config = CrawlerConfig(
        max_additional_states=cap - 1,
        use_hot_node=False,
        near_dup_threshold=threshold,
        **config_overrides,
    )
    crawler = AjaxCrawler(
        NoisyGeneratedSite(spec),
        config,
        clock=recorder.clock,
        cost_model=CostModel(network_jitter=0.0),
        recorder=recorder,
    )
    return spec, page, crawler.crawl(spec.all_urls()), recorder


class TestCrawlerWiring:
    def test_noisy_page_collapses_to_logical_states(self):
        spec, page, crawl, recorder = noisy_crawl()
        model = crawl.models[0]
        assert model.num_states == page.num_states
        report_page = crawl.report.pages[0]
        assert report_page.states_collapsed == spec.expected_collapses(page)
        assert report_page.dedup_states_hashed == len(page.transitions) + 1
        collapsed_events = [
            e for e in recorder.events if e.kind == STATE_COLLAPSED
        ]
        assert len(collapsed_events) == spec.expected_collapses(page)
        for event in collapsed_events:
            assert event.fields["distance"] <= NEAR_DUP_THRESHOLD
            assert event.fields["candidates"] >= 1

    def test_canonical_annotations_written(self):
        spec, page, crawl, _ = noisy_crawl()
        model = crawl.models[0]
        annotated = [
            state
            for state in model.states()
            if "near_dup_variants" in state.annotations
        ]
        expected = [
            s for s in range(page.num_states) if spec.expected_variants(page, s) > 1
        ]
        assert len(annotated) == len(expected)
        for state in annotated:
            assert int(state.annotations["near_dup_variants"]) >= 2
            assert "volatile_regions" in state.annotations

    def test_threshold_none_leaves_layer_inert(self):
        spec, page, crawl, recorder = noisy_crawl(threshold=None)
        # Exact identity: every twin mints a state up to the cap.
        assert crawl.models[0].num_states > page.num_states
        assert not any(e.kind == STATE_COLLAPSED for e in recorder.events)
        report_page = crawl.report.pages[0]
        assert report_page.states_collapsed == 0
        assert report_page.dedup_states_hashed == 0

    def test_requires_hash_deduplication(self):
        # Rejected at construction, before any page is fetched.
        with pytest.raises(ValueError, match="deduplicate_states"):
            CrawlerConfig(near_dup_threshold=8, deduplicate_states=False)
        with pytest.raises(ValueError, match="threshold"):
            CrawlerConfig(near_dup_threshold=-1)

    def test_collapse_counts_in_registry(self):
        spec, page, crawl, _ = noisy_crawl()
        counters = crawl.report.registry.snapshot()["counters"]
        assert counters["crawl.states_collapsed"] == spec.expected_collapses(page)
        assert counters["dedup.states_hashed"] == len(page.transitions) + 1

    def test_exact_duplicates_still_counted_as_duplicates(self):
        spec, page, crawl, recorder = noisy_crawl()
        report_page = crawl.report.pages[0]
        # Every collapse is also a duplicate resolution (the canonical's
        # hash resolves to an existing state).
        assert report_page.duplicates_detected >= report_page.states_collapsed
        kinds = {e.kind for e in recorder.events}
        assert STATE_DUPLICATE not in kinds or report_page.duplicates_detected > (
            report_page.states_collapsed
        )


def make_counter_server():
    """Tabs whose fragments differ only by a hidden counter attribute:
    identical visible text, so identical simhash features."""
    server = RoutedServer()
    fetches = {"n": 0}

    @server.route(r"/app")
    def app(request, match):
        return Response(
            body="""<html><body>
            <a id="t1" onclick="openTab(1)">one</a>
            <a id="t2" onclick="openTab(2)">two</a>
            <div id="content">start</div>
            <script>
            function fetchTab(i) {
                var req = new XMLHttpRequest();
                req.open("GET", "/tab?i=" + i, true);
                req.send(null);
                return req.responseText;
            }
            function openTab(i) {
                document.getElementById("content").innerHTML = fetchTab(i);
            }
            </script>
            </body></html>"""
        )

    @server.route(r"/tab")
    def tab(request, match):
        fetches["n"] += 1
        index = request.query.get("i")
        return Response(body=f'<p data-counter="{fetches["n"]}">tab {index} text</p>')

    return server


class TestMarkupOnlyTwins:
    """``near_dup_threshold=0`` folds states that differ in markup only
    (§3.2 / near-duplicate related work)."""

    def crawl(self, server, url, **config_overrides):
        crawler = AjaxCrawler(
            server,
            CrawlerConfig(**config_overrides),
            cost_model=CostModel(network_jitter=0.0),
        )
        return crawler.crawl_page(url)

    def crawl_counter(self, threshold):
        return self.crawl(
            make_counter_server(),
            "http://t.test/app",
            use_hot_node=False,  # force re-fetching: counter increments
            near_dup_threshold=threshold,
            max_additional_states=6,
        )

    def test_exact_identity_sees_markup_twins_as_distinct(self):
        # The counter makes every fetch a "new" DOM state.
        assert self.crawl_counter(None).model.num_states > 3

    def test_threshold_zero_collapses_markup_twins(self):
        result = self.crawl_counter(0)
        # initial + tab1 + tab2, regardless of the attribute churn.
        assert result.model.num_states == 3
        assert result.model.num_transitions == 6
        assert result.metrics.events_invoked == 6
        assert result.metrics.states_collapsed == 4

    def test_threshold_zero_on_stable_site_matches_exact(self):
        site = SyntheticYouTube(SiteConfig(num_videos=6, seed=3))
        url = site.video_url(
            next(i for i in range(6) if site.comment_pages_of(i) >= 2)
        )
        exact = self.crawl(site, url)
        collapsed = self.crawl(site, url, near_dup_threshold=0)
        assert exact.model.num_states == collapsed.model.num_states
        assert collapsed.metrics.states_collapsed == 0
