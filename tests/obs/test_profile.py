"""Component profiles, flamegraph exports and critical-path analysis."""

import json

import pytest

from repro.clock import SimClock
from repro.obs.profile import (
    PartitionCost,
    critical_path,
    critical_path_from_spans,
    folded_stacks,
    format_component_table,
    format_critical_path,
    format_folded,
    profile_components,
    to_speedscope,
)
from repro.obs.recorder import Recorder
from repro.obs.spans import SpanTree
from repro.parallel import MPAjaxCrawler, MachineModel
from repro.sites import SiteConfig, SyntheticYouTube


def build_tree():
    """crawl(10ms excl 3) > page(7ms excl 2) > [fetch 5ms, js 0ms open-free]."""
    recorder = Recorder(clock=SimClock(), spans=True)
    with recorder.span("crawl"):
        recorder.clock.advance(1.0)
        with recorder.span("page", url="http://a/"):
            with recorder.span("fetch", url="http://a/"):
                recorder.clock.advance(5.0)
                recorder.emit("page_fetch", url="http://a/", bytes=700)
            recorder.clock.advance(2.0)
        recorder.clock.advance(2.0)
    return SpanTree.from_events(recorder.events)


# -- component profile -----------------------------------------------------------------


class TestComponents:
    def test_attribution_sums_and_sorts(self):
        rows = profile_components(build_tree())
        by_kind = {row.kind: row for row in rows}
        assert by_kind["crawl"].inclusive_ms == pytest.approx(10.0)
        assert by_kind["crawl"].exclusive_ms == pytest.approx(3.0)
        assert by_kind["page"].exclusive_ms == pytest.approx(2.0)
        assert by_kind["fetch"].exclusive_ms == pytest.approx(5.0)
        # page_fetch bytes land on the span that owns the point event.
        assert by_kind["fetch"].network_bytes == 700
        assert by_kind["fetch"].network_calls == 1
        assert by_kind["page"].network_calls == 0
        # Sorted by exclusive time, descending.
        assert [row.kind for row in rows][0] == "fetch"

    def test_errors_counted(self):
        recorder = Recorder(clock=SimClock(), spans=True)
        with pytest.raises(RuntimeError):
            with recorder.span("page"):
                raise RuntimeError
        tree = SpanTree.from_events(recorder.events)
        (row,) = profile_components(tree)
        assert row.errors == 1

    def test_table_renders_every_kind(self):
        text = format_component_table(profile_components(build_tree()))
        for kind in ("crawl", "page", "fetch"):
            assert kind in text


# -- flamegraph exports ------------------------------------------------------------------


class TestFlame:
    def test_folded_stacks_weights_are_exclusive_microseconds(self):
        folded = folded_stacks(build_tree())
        assert folded == {
            "crawl": 3000,
            "crawl;page:http://a/": 2000,
            "crawl;page:http://a/;fetch": 5000,
        }

    def test_folded_total_equals_root_inclusive(self):
        tree = build_tree()
        assert sum(folded_stacks(tree).values()) == pytest.approx(
            tree.roots[0].inclusive_ms * 1000.0
        )

    def test_format_folded_is_sorted_lines(self):
        lines = format_folded(folded_stacks(build_tree())).splitlines()
        assert lines == sorted(lines)
        assert lines[0].endswith(" 3000")

    def test_speedscope_document_shape(self):
        doc = to_speedscope(build_tree(), name="t")
        assert doc["$schema"].startswith("https://www.speedscope.app/")
        labels = [frame["name"] for frame in doc["shared"]["frames"]]
        assert "page:http://a/" in labels
        (profile,) = doc["profiles"]
        assert profile["type"] == "evented"
        # Opens and closes are balanced and properly bracketed.
        opens = [e for e in profile["events"] if e["type"] == "O"]
        closes = [e for e in profile["events"] if e["type"] == "C"]
        assert len(opens) == len(closes) == 3
        assert profile["events"][0]["type"] == "O"
        assert profile["events"][-1]["type"] == "C"
        json.dumps(doc)  # must be serializable as-is

    def test_speedscope_one_profile_per_root(self):
        recorder = Recorder(clock=SimClock(), spans=True)
        with recorder.span("partition", partition=1):
            pass
        recorder.rebind_clock(SimClock())  # fresh partition clock
        with recorder.span("partition", partition=2):
            pass
        doc = to_speedscope(SpanTree.from_events(recorder.events))
        assert len(doc["profiles"]) == 2


# -- critical path -----------------------------------------------------------------------


def oracle_schedule(durations, num_lines):
    """An independent earliest-free-line replay (kept deliberately dumb)."""
    lines = [0.0] * num_lines
    for duration in durations:
        best = 0
        for i in range(1, num_lines):
            if lines[i] < lines[best]:
                best = i
        lines[best] += duration
    return lines


class TestCriticalPath:
    def test_matches_oracle_schedule(self):
        durations = [9.0, 3.0, 4.0, 8.0, 2.0, 7.0]
        costs = [PartitionCost(i + 1, d) for i, d in enumerate(durations)]
        report = critical_path(costs, num_lines=2)
        expected = oracle_schedule(durations, 2)
        assert report.line_finish_ms == pytest.approx(expected)
        assert report.makespan_ms == pytest.approx(max(expected))
        assert report.straggler_partition == 1  # the 9.0ms one
        assert report.skew == pytest.approx(9.0 / (sum(durations) / len(durations)))

    def test_report_matches_simulated_run_and_machine_model(self):
        site = SyntheticYouTube(SiteConfig(num_videos=6, seed=7))
        machine = MachineModel()
        crawler = MPAjaxCrawler(site, num_proc_lines=3, machine=machine)
        partitions = [[site.video_url(i), site.video_url(i + 1)] for i in (0, 2, 4)]
        run = crawler.run(partitions)
        costs = [
            PartitionCost(number, duration)
            for number, duration in zip(
                sorted(run.partition_results), run.partition_durations_ms
            )
        ]
        report = critical_path(costs, run.num_proc_lines)
        # The replay must reproduce the scheduler's own accounting.
        assert report.makespan_ms == pytest.approx(run.makespan_ms)
        assert report.line_finish_ms == pytest.approx(run.line_finish_ms)
        # And the durations must decompose per the machine model.
        stretch = machine.cpu_stretch(3)
        for summary, duration in zip(run.summaries, run.partition_durations_ms):
            assert duration == pytest.approx(
                machine.process_startup_ms
                + summary.network_time_ms
                + summary.cpu_time_ms * stretch
            )

    def test_straggler_share_and_critical_line(self):
        costs = [PartitionCost(1, 10.0), PartitionCost(2, 1.0), PartitionCost(3, 1.0)]
        report = critical_path(costs, num_lines=2)
        # L0 gets partition 1 (10ms); L1 gets 2 then 3 (2ms total).
        assert report.assignments == [0, 1, 1]
        assert report.critical_line == 0
        assert report.critical_line_partitions == [1]
        assert report.straggler_share == pytest.approx(1.0)

    def test_from_partition_spans(self):
        recorder = Recorder(clock=SimClock(), spans=True)
        with recorder.span("partition", partition=1):
            recorder.clock.advance(40.0)
        recorder.rebind_clock(SimClock())
        with recorder.span("partition", partition=2):
            recorder.clock.advance(10.0)
        tree = SpanTree.from_events(recorder.events)
        report = critical_path_from_spans(tree, num_lines=2)
        assert [c.partition for c in report.partitions] == [1, 2]
        assert report.makespan_ms == pytest.approx(40.0)
        assert report.straggler_partition == 1

    def test_empty_costs(self):
        report = critical_path([], num_lines=4)
        assert report.makespan_ms == 0.0
        assert report.critical_line_partitions == []

    def test_rejects_zero_lines(self):
        with pytest.raises(ValueError):
            critical_path([], num_lines=0)

    def test_format_names_the_straggler(self):
        report = critical_path([PartitionCost(7, 5.0), PartitionCost(8, 1.0)], 2)
        text = format_critical_path(report)
        assert "straggler     : partition 7" in text
        assert "makespan" in text
