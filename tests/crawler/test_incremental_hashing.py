"""Merkle hashing at the crawler level: reference equivalence and tracing.

Every hash the crawler puts into a model comes from the incremental
Merkle pass; it must equal what the reference full rewalk
(``reference_state_hash`` / ``reference_region_hashes``) computes over
the same state's stored HTML, while doing far less hashing work.
"""

from repro.clock import CostModel, SimClock
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.dom import (
    HashStats,
    changed_regions,
    clear_digest_memo,
    parse_document,
    reference_region_hashes,
    reference_state_hash,
)
from repro.obs import Recorder
from repro.sites import SiteConfig, SyntheticWebmail, SyntheticYouTube


def crawl(site, urls):
    crawler = AjaxCrawler(
        site, CrawlerConfig(store_html=True), clock=SimClock(), cost_model=CostModel()
    )
    return crawler.crawl(urls)


def crawl_webmail():
    site = SyntheticWebmail()
    return crawl(site, [site.inbox_url])


def reference_fingerprint(model, stats=None):
    """The model's hashes and ``modified`` regions as the reference
    full rewalk derives them from each state's stored HTML."""
    hashes, regions = {}, {}
    for state in model.states():
        document = parse_document(state.html, url=model.url)
        hashes[state.state_id] = reference_state_hash(document, stats=stats)
        regions[state.state_id] = reference_region_hashes(document, stats=stats)
    modified = [
        changed_regions(regions[t.from_state], regions[t.to_state])
        for t in model.transitions()
    ]
    return hashes, modified


def crawled_fingerprint(model):
    return (
        {state.state_id: state.content_hash for state in model.states()},
        [t.modified for t in model.transitions()],
    )


class TestModeEquivalence:
    def test_webmail_matches_reference_rewalk(self):
        result = crawl_webmail()
        (model,) = result.models
        assert model.num_states > 1 and model.num_transitions > 0
        assert any(t.modified for t in model.transitions())
        assert crawled_fingerprint(model) == reference_fingerprint(model)
        assert result.report.pages[0].duplicates_detected > 0

    def test_merkle_hashes_fewer_bytes(self):
        clear_digest_memo()  # start cold: no hashing credit from earlier crawls
        result = crawl_webmail()
        metrics = result.report.pages[0]
        reference = HashStats()
        reference_fingerprint(result.models[0], stats=reference)
        # The whole crawl (a pass per fired event and per rollback) costs
        # the Merkle hasher less than one reference walk of each state.
        assert 0 < metrics.hash_bytes_hashed < reference.bytes_hashed
        assert metrics.hash_incremental_passes > 0
        assert metrics.hash_nodes_skipped > 0
        assert reference.nodes_skipped == 0  # the full rewalk never skips

    def test_youtube_models_identical(self):
        site = SyntheticYouTube(SiteConfig(num_videos=3, seed=7))
        result = crawl(site, [site.video_url(i) for i in range(3)])
        assert result.report.total_states > len(result.models) == 3
        for model in result.models:
            assert crawled_fingerprint(model) == reference_fingerprint(model)


class TestHashTracing:
    def trace(self, config):
        site = SyntheticWebmail()
        recorder = Recorder(clock=SimClock())
        crawler = AjaxCrawler(
            site, config, clock=recorder.clock, cost_model=CostModel(), recorder=recorder
        )
        crawler.crawl_page(site.inbox_url)
        return recorder.events

    def test_default_config_emits_no_hash_events(self):
        events = self.trace(CrawlerConfig())
        assert not [e for e in events if e.kind.startswith("hash_")]
