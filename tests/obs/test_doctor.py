"""The trace doctor: rules, signal extraction, and end-to-end diagnoses."""

import dataclasses
import re

import pytest

from repro.clock import CostModel, SimClock
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.net.faults import FaultInjector, FaultPlan, FaultRule
from repro.obs import MetricsRegistry
from repro.obs.doctor import (
    QUARANTINE_MIN_COUNT,
    QUARANTINE_MIN_RATIO,
    Signals,
    diagnose,
    format_findings,
    signals_from_events,
    signals_from_metrics,
)
from repro.obs.goldens import golden_path
from repro.obs.profile import folded_stacks, profile_components
from repro.obs.recorder import Recorder
from repro.obs.spans import SpanTree
from repro.obs.trace import normalize_lines  # noqa: F401  (exercised elsewhere)
from repro.obs.events import from_jsonl
from repro.parallel import MPAjaxCrawler
from repro.sites import SiteConfig, SyntheticWebmail, SyntheticYouTube


def rules_of(findings):
    return {finding.rule for finding in findings}


# -- per-rule unit tests over synthetic signals ---------------------------------------


class TestRules:
    def diagnose_signals(self, signals):
        base = Signals()
        base.merge_max(signals)
        findings = []
        from repro.obs.doctor import RULES

        for rule in RULES:
            finding = rule(base)
            if finding is not None:
                findings.append(finding)
        return findings

    def test_quarantine_storm_needs_count_and_ratio(self):
        sick = Signals(events_fired=20, events_quarantined=5)
        assert rules_of(self.diagnose_signals(sick)) == {"quarantine-storm"}
        few = Signals(events_fired=20, events_quarantined=2)  # below min count
        assert not self.diagnose_signals(few)
        diluted = Signals(events_fired=100, events_quarantined=3)  # 3% < 10%
        assert not self.diagnose_signals(diluted)

    def test_quarantine_storm_is_critical(self):
        (finding,) = self.diagnose_signals(Signals(events_fired=10, events_quarantined=5))
        assert finding.severity == "critical"
        assert finding.evidence["events_quarantined"] == 5

    def test_cache_collapse_needs_enough_lookups(self):
        cold = Signals(cache_lookups=50, cache_hits=2)
        assert rules_of(self.diagnose_signals(cold)) == {"cache-collapse"}
        tiny = Signals(cache_lookups=5, cache_hits=0)  # below min lookups
        assert not self.diagnose_signals(tiny)
        healthy = Signals(cache_lookups=50, cache_hits=30)
        assert not self.diagnose_signals(healthy)

    def test_state_cap_fires_on_any_truncation(self):
        (finding,) = self.diagnose_signals(Signals(states_capped=1))
        assert finding.rule == "state-cap-truncation"
        # The remedy must name a knob that exists.
        named = re.findall(r"CrawlerConfig\.(\w+)", finding.action)
        assert named == ["max_additional_states"]
        assert set(named) <= {f.name for f in dataclasses.fields(CrawlerConfig)}
        assert not self.diagnose_signals(Signals(states_capped=0))

    def test_retry_amplification(self):
        flaky = Signals(retries=6, network_requests=8)
        assert rules_of(self.diagnose_signals(flaky)) == {"retry-amplification"}
        rare = Signals(retries=2, network_requests=4)  # below min count
        assert not self.diagnose_signals(rare)
        absorbed = Signals(retries=4, network_requests=100)  # 4% < 50%
        assert not self.diagnose_signals(absorbed)

    def test_partition_skew(self):
        skewed = Signals(partition_durations=[(1, 100.0), (2, 10.0), (3, 10.0)])
        (finding,) = self.diagnose_signals(skewed)
        assert finding.rule == "partition-skew"
        assert finding.evidence["straggler_partition"] == 1
        balanced = Signals(partition_durations=[(1, 50.0), (2, 55.0)])
        assert not self.diagnose_signals(balanced)
        single = Signals(partition_durations=[(1, 100.0)])  # need >= 2
        assert not self.diagnose_signals(single)

    def test_hash_regression(self):
        thrashing = Signals(
            hash_incremental_passes=5, hash_nodes_hashed=90, hash_nodes_skipped=10
        )
        assert rules_of(self.diagnose_signals(thrashing)) == {"hash-regression"}
        healthy = Signals(
            hash_incremental_passes=5, hash_nodes_hashed=10, hash_nodes_skipped=90
        )
        assert not self.diagnose_signals(healthy)
        no_incremental = Signals(hash_nodes_hashed=90, hash_nodes_skipped=10)
        assert not self.diagnose_signals(no_incremental)

    def test_quarantine_storm_fires_at_the_default_thresholds(self):
        # Exactly the minimum count at exactly the minimum ratio fires;
        # one event fewer, or one more fired event, does not.
        count = QUARANTINE_MIN_COUNT
        fired = round(count / QUARANTINE_MIN_RATIO)
        at = Signals(events_fired=fired, events_quarantined=count)
        assert rules_of(self.diagnose_signals(at)) == {"quarantine-storm"}
        assert not self.diagnose_signals(
            Signals(events_fired=fired, events_quarantined=count - 1)
        )
        assert not self.diagnose_signals(
            Signals(events_fired=fired + 1, events_quarantined=count)
        )


# -- signal extraction -----------------------------------------------------------------


class TestSignals:
    def test_from_events_accepts_a_generator(self):
        recorder = Recorder(clock=SimClock(), spans=True)
        with recorder.span("partition", partition=1):
            recorder.clock.advance(5.0)
            recorder.emit("retry", url="u", attempt=1, backoff_ms=10.0)
        # A one-shot iterable must still feed both extraction passes.
        signals = signals_from_events(iter(recorder.events))
        assert signals.retries == 1
        assert signals.partition_durations == [(1, pytest.approx(5.0))]

    def test_diagnose_accepts_a_generator(self):
        # diagnose() hands the stream on as it is: the copy inside
        # signals_from_events is the only one, and both passes need it —
        # the counts (first) and the partition spans (second).
        recorder = Recorder(clock=SimClock(), spans=True)
        for partition, cost in ((1, 100.0), (2, 10.0), (3, 10.0)):
            with recorder.span("partition", partition=partition):
                recorder.clock.advance(cost)
        recorder.emit("state_capped", url="u")
        findings = diagnose(events=(event for event in recorder.events))
        assert rules_of(findings) == {"state-cap-truncation", "partition-skew"}

    def test_from_events_counts_cached_xhr_separately(self):
        recorder = Recorder(clock=SimClock())
        recorder.emit("xhr_call", url="u")
        recorder.emit("xhr_call", url="u", from_cache=True)
        recorder.emit("page_fetch", url="u")
        signals = signals_from_events(recorder.events)
        assert signals.network_requests == 2  # cache hits are not requests

    def test_from_metrics_registry_and_snapshot_agree(self):
        registry = MetricsRegistry()
        registry.inc("crawl.events_invoked", 10)
        registry.inc("crawl.events_quarantined", 4)
        registry.inc("net.retries", 3)
        registry.inc("net.page_fetches", 5)
        registry.inc("net.ajax_calls", 5)
        from_registry = signals_from_metrics(registry)
        from_snapshot = signals_from_metrics(registry.snapshot())
        for signals in (from_registry, from_snapshot):
            assert signals.events_fired == 10
            assert signals.events_quarantined == 4
            assert signals.retries == 3
            assert signals.network_requests == 10

    def test_merge_max_reconciles_sources(self):
        a = Signals(events_fired=10, retries=1)
        b = Signals(events_fired=4, retries=9)
        a.merge_max(b)
        assert a.events_fired == 10
        assert a.retries == 9

    def test_merge_max_keeps_existing_partition_durations(self):
        a = Signals(partition_durations=[(1, 5.0)])
        a.merge_max(Signals(partition_durations=[(2, 9.0)]))
        assert a.partition_durations == [(1, 5.0)]


# -- end-to-end diagnoses --------------------------------------------------------------


class TestDiagnose:
    def test_clean_webmail_golden_has_zero_findings(self):
        events = from_jsonl(golden_path("webmail_spans").read_text(encoding="utf-8"))
        assert diagnose(events=events) == []

    def test_clean_webmail_crawl_has_zero_findings(self):
        site = SyntheticWebmail()
        recorder = Recorder(clock=SimClock(), spans=True)
        crawler = AjaxCrawler(
            site, CrawlerConfig(), clock=recorder.clock,
            cost_model=CostModel(), recorder=recorder,
        )
        result = crawler.crawl([site.inbox_url])
        findings = diagnose(events=recorder.events, metrics=result.report.registry)
        assert findings == [], format_findings(findings)
        # The profile of the same crawl: a valid tree, stacks to fold,
        # and the crawler's own span kinds.
        tree = SpanTree.from_events(recorder.events)
        assert tree.roots and not tree.problems
        assert folded_stacks(tree)
        kinds = {row.kind for row in profile_components(tree)}
        assert {"crawl", "page", "fire_event"} <= kinds, kinds

    def test_seeded_fault_storm_is_diagnosed(self):
        site = SyntheticWebmail()
        plan = FaultPlan([FaultRule("/folder", rate=1.0)], seed=1)
        recorder = Recorder(clock=SimClock(), spans=True)
        crawler = AjaxCrawler(
            FaultInjector(site, plan),
            CrawlerConfig(retry_max_attempts=2),
            clock=recorder.clock,
            cost_model=CostModel(),
            recorder=recorder,
        )
        crawler.crawl([site.inbox_url])
        findings = diagnose(events=recorder.events)
        assert "quarantine-storm" in rules_of(findings)
        storm = next(f for f in findings if f.rule == "quarantine-storm")
        assert storm.severity == "critical"
        assert storm.signal >= storm.threshold

    def test_forced_partition_skew_is_diagnosed(self):
        # The partition spans of the run's trace are the evidence.
        site = SyntheticYouTube(SiteConfig(num_videos=6, seed=7))
        recorder = Recorder(spans=True)
        crawler = MPAjaxCrawler(site, num_proc_lines=2, recorder=recorder)
        crawler.run([[site.video_url(i) for i in range(5)], [site.video_url(5)]])
        findings = diagnose(events=recorder.events)
        assert "partition-skew" in rules_of(findings)
        skew = next(f for f in findings if f.rule == "partition-skew")
        assert skew.evidence["straggler_partition"] == 1

    def test_format_findings_healthy_and_sick(self):
        assert "healthy" in format_findings([])
        findings = diagnose(
            events=[], metrics={"counters": {
                "crawl.events_invoked": 10, "crawl.events_quarantined": 9,
            }},
        )
        text = format_findings(findings)
        assert "quarantine-storm" in text
        assert "action:" in text
