"""Golden-trace regression tests: determinism, goldens, zero-cost-off."""

import pytest

from repro.clock import CostModel, SimClock
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.obs import diff_traces, normalize_lines, to_jsonl
from repro.obs.goldens import (
    CORPORA,
    current_lines,
    golden_path,
    verify,
    webmail_trace,
    youtube_trace,
)
from repro.sites import SiteConfig, SyntheticYouTube


class TestDeterminism:
    def test_two_webmail_runs_are_byte_identical(self):
        assert to_jsonl(webmail_trace()) == to_jsonl(webmail_trace())

    def test_two_youtube_runs_are_byte_identical(self):
        assert to_jsonl(youtube_trace()) == to_jsonl(youtube_trace())


class TestGoldens:
    def test_goldens_are_checked_in(self):
        for corpus in CORPORA:
            assert golden_path(corpus).exists(), f"missing golden for {corpus}"

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_matches_golden(self, corpus):
        assert verify(corpus) == []

    def test_normalizer_makes_goldens_self_consistent(self):
        """The checked-in files are already in canonical normalized form."""
        for corpus in CORPORA:
            raw = golden_path(corpus).read_text(encoding="utf-8").splitlines()
            assert normalize_lines(raw) == [line for line in raw if line.strip()]

    def test_diff_against_tampered_golden_is_readable(self):
        lines = current_lines("youtube")
        tampered = list(lines)
        tampered[4] = tampered[4].replace('"kind":"', '"kind":"x_')
        problems = diff_traces(lines, tampered)
        assert any("event #4 differs" in problem for problem in problems)


class TestZeroCostWhenDisabled:
    def test_untraced_crawl_output_is_unchanged(self):
        """Tracing must not perturb the simulation: the virtual-time and
        state accounting of a traced crawl equals the untraced crawl."""

        def run(**kwargs):
            site = SyntheticYouTube(SiteConfig(num_videos=3, seed=7))
            crawler = AjaxCrawler(
                site,
                CrawlerConfig(),
                clock=kwargs.pop("clock", None) or SimClock(),
                cost_model=CostModel(),
                **kwargs,
            )
            result = crawler.crawl([site.video_url(i) for i in range(3)])
            report = result.report
            return (
                report.total_states,
                report.total_events,
                report.total_time_ms,
                report.total_network_time_ms,
            )

        from repro.obs import Recorder

        clock = SimClock()
        recorder = Recorder(clock=clock)
        assert run() == run(clock=clock, recorder=recorder)
        assert recorder.events  # the traced run actually traced
