"""Cross-event trace invariants over seeded crawls.

These assert the *relationships* the event vocabulary promises, over a
spread of random corpora and fault schedules:

* Every event-firing that changed the DOM (and was not quarantined)
  resolves to exactly one of: a discovered state, a duplicate state, or
  a cap rejection.
* With the hot-node cache active, every XHR send is classified as a
  cache hit or a cache miss; fault-free, hits + misses equals the
  ``xhr_call`` count, and under faults the misses whose network request
  ultimately failed show up as ``request_failed(request_kind=ajax)``
  instead.
* Retries never dangle: each ``retry`` is followed by a terminal event
  (success or exhaustion) carrying the same request id.
"""

import pytest

from repro.clock import CostModel, SimClock
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.net.faults import FaultInjector, FaultPlan, FaultRule
from repro.obs import (
    EVENT_FIRED,
    HOTNODE_CACHE_HIT,
    HOTNODE_CACHE_MISS,
    PAGE_FETCH,
    RETRY,
    REQUEST_FAILED,
    Recorder,
    STATE_CAPPED,
    STATE_DISCOVERED,
    STATE_DUPLICATE,
    XHR_CALL,
)
from repro.sites import SiteConfig, SyntheticWebmail, SyntheticYouTube


def traced_crawl(site, urls, config=CrawlerConfig(), plan=None):
    server = FaultInjector(site, plan) if plan is not None else site
    recorder = Recorder(clock=SimClock())
    crawler = AjaxCrawler(
        server, config, clock=recorder.clock, cost_model=CostModel(), recorder=recorder
    )
    crawler.crawl(urls)
    return recorder.events


def count(events, kind, **fields):
    total = 0
    for event in events:
        if event.kind != kind:
            continue
        if all(event.fields.get(name) == value for name, value in fields.items()):
            total += 1
    return total


def corpora(seed):
    site = SyntheticYouTube(SiteConfig(num_videos=4, seed=seed))
    return site, [site.video_url(i) for i in range(3)]


class TestStateAccounting:
    @pytest.mark.parametrize("seed", [3, 7, 21, 42])
    def test_every_dom_change_is_classified(self, seed):
        site, urls = corpora(seed)
        events = traced_crawl(site, urls)
        changed = count(events, EVENT_FIRED, changed=True, quarantined=False)
        discovered = count(events, STATE_DISCOVERED, via_event=True)
        duplicates = count(events, STATE_DUPLICATE)
        capped = count(events, STATE_CAPPED)
        assert discovered + duplicates + capped == changed

    def test_initial_states_are_discovered_without_an_event(self):
        site, urls = corpora(7)
        events = traced_crawl(site, urls)
        assert count(events, STATE_DISCOVERED, via_event=False) == len(urls)

    def test_cap_rejections_fire_state_capped(self):
        # Video 8 of this corpus has six comment pages — far more fresh
        # states than a cap of 2 admits (SimTube serves no granularity
        # hint, so the raw cap is the one hit).
        site = SyntheticYouTube(SiteConfig(num_videos=10, seed=7))
        urls = [site.video_url(8)]
        events = traced_crawl(
            site, urls, config=CrawlerConfig(max_additional_states=2)
        )
        assert count(events, STATE_CAPPED) > 0
        changed = count(events, EVENT_FIRED, changed=True, quarantined=False)
        classified = (
            count(events, STATE_DISCOVERED, via_event=True)
            + count(events, STATE_DUPLICATE)
            + count(events, STATE_CAPPED)
        )
        assert classified == changed


class TestCacheAccounting:
    @pytest.mark.parametrize("seed", [3, 7, 21, 42])
    def test_fault_free_hits_plus_misses_equals_xhr_calls(self, seed):
        site, urls = corpora(seed)
        events = traced_crawl(site, urls)
        hits = count(events, HOTNODE_CACHE_HIT)
        misses = count(events, HOTNODE_CACHE_MISS)
        assert hits + misses == count(events, XHR_CALL)
        # Cache-served and network-served calls partition the total.
        assert hits == count(events, XHR_CALL, from_cache=True)
        assert misses == count(events, XHR_CALL, from_cache=False)

    def test_under_faults_failed_ajax_requests_close_the_gap(self):
        # The comment-heavy video makes XHR traffic, and a high fault
        # rate makes both attempts of some request fail (exhaustion).
        site = SyntheticYouTube(SiteConfig(num_videos=10, seed=7))
        urls = [site.video_url(8), site.video_url(9)]
        plan = FaultPlan([FaultRule(r"/comments", rate=0.8, status=503)], seed=5)
        events = traced_crawl(
            site, urls, config=CrawlerConfig(retry_max_attempts=2), plan=plan
        )
        hits = count(events, HOTNODE_CACHE_HIT)
        misses = count(events, HOTNODE_CACHE_MISS)
        failed_ajax = count(events, REQUEST_FAILED, request_kind="ajax")
        assert failed_ajax > 0  # the schedule actually exercised the gap
        assert hits + misses == count(events, XHR_CALL) + failed_ajax


class TestRetryCorrelation:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_every_retry_reaches_a_terminal_event(self, seed):
        site, urls = corpora(seed)
        plan = FaultPlan(
            [
                FaultRule(r"/comments", rate=0.5, status=503),
                FaultRule(r"/watch", rate=0.2, status=500),
            ],
            seed=seed,
        )
        events = traced_crawl(
            site, urls, config=CrawlerConfig(retry_max_attempts=3), plan=plan
        )
        retried = [e for e in events if e.kind == RETRY]
        assert retried  # the plan actually caused retries
        terminal_kinds = (PAGE_FETCH, XHR_CALL, REQUEST_FAILED)
        by_request: dict[int, list] = {}
        for event in events:
            request_id = event.fields.get("request_id")
            if request_id is not None:
                by_request.setdefault(request_id, []).append(event)
        for retry in retried:
            stream = by_request[retry.fields["request_id"]]
            followers = [e for e in stream if e.seq > retry.seq]
            assert followers, f"retry {retry} dangles"
            assert followers[-1].kind in terminal_kinds
        # Exactly one terminal event per request id, ever.
        for request_id, stream in by_request.items():
            terminals = [e for e in stream if e.kind in terminal_kinds]
            assert len(terminals) == 1, f"request {request_id}: {terminals}"


class TestWebmailSafety:
    def test_quarantined_events_never_mint_states(self):
        site = SyntheticWebmail()
        recorder_events = traced_crawl(site, [site.inbox_url])
        quarantined = count(recorder_events, EVENT_FIRED, quarantined=True)
        changed = count(recorder_events, EVENT_FIRED, changed=True, quarantined=False)
        classified = (
            count(recorder_events, STATE_DISCOVERED, via_event=True)
            + count(recorder_events, STATE_DUPLICATE)
            + count(recorder_events, STATE_CAPPED)
        )
        assert classified == changed
        # Quarantined firings are observed but excluded from the model.
        assert quarantined + changed <= count(recorder_events, EVENT_FIRED)
