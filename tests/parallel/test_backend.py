"""Execution backends: dispatch by name and the parity contract.

The central claim of :mod:`repro.parallel.backend` is that the engine is
an implementation detail: the simulated and the threaded backend must
produce the same merged crawl — report, models (order included), network
counters, per-partition results — on the same partitions.  Only the
scheduling/wall-clock fields may differ.
"""

import pytest

from repro.clock import CostModel
from repro.obs import Recorder, merge_partition_traces, to_jsonl
from repro.parallel import (
    BACKENDS,
    MPAjaxCrawler,
    partition_cost_model,
    partition_urls,
)
from repro.sites import SiteConfig, SyntheticYouTube

NUM_VIDEOS = 9


@pytest.fixture(scope="module")
def site():
    return SyntheticYouTube(SiteConfig(num_videos=NUM_VIDEOS, seed=19))


def cost():
    return CostModel(network_jitter=0.0)


def report_dict(report):
    """The report's exact identity: its registry snapshot."""
    return report.registry.snapshot()


def make_partitions(site, size=3):
    return partition_urls([site.video_url(i) for i in range(NUM_VIDEOS)], size)


class TestRegistry:
    def test_registry_names(self):
        assert set(BACKENDS) == {"simulated", "threads"}

    def test_unknown_backend_rejected(self, site):
        controller = MPAjaxCrawler(site, num_proc_lines=2, cost_model=cost())
        with pytest.raises(ValueError, match="unknown execution backend"):
            controller.run(make_partitions(site), backend="processes")


class TestDispatch:
    def test_run_defaults_to_simulated(self, site):
        controller = MPAjaxCrawler(site, num_proc_lines=2, cost_model=cost())
        run = controller.run(make_partitions(site))
        assert run.backend == "simulated"
        assert run.wall_time_ms == 0.0

    def test_wrappers_tag_their_backend(self, site):
        partitions = make_partitions(site)
        controller = MPAjaxCrawler(site, num_proc_lines=2, cost_model=cost())
        assert controller.run_simulated(partitions).backend == "simulated"
        assert controller.run_threaded(partitions).backend == "threads"


class TestBackendParity:
    def run_both(self, site, lines=3):
        partitions = make_partitions(site)

        def controller():
            return MPAjaxCrawler(site, num_proc_lines=lines, cost_model=cost())

        simulated = controller().run(partitions, backend="simulated")
        threaded = controller().run(partitions, backend="threads")
        return simulated, threaded

    def test_merged_reports_identical(self, site):
        simulated, threaded = self.run_both(site)
        assert report_dict(simulated.result.report) == report_dict(
            threaded.result.report
        )

    def test_model_lists_identical_in_order(self, site):
        simulated, threaded = self.run_both(site)
        assert [m.url for m in simulated.result.models] == [
            m.url for m in threaded.result.models
        ]
        sim_hashes = [
            [s.content_hash for s in m.states()] for m in simulated.result.models
        ]
        thr_hashes = [
            [s.content_hash for s in m.states()] for m in threaded.result.models
        ]
        assert sim_hashes == thr_hashes

    def test_network_registries_identical(self, site):
        simulated, threaded = self.run_both(site)
        assert (
            simulated.stats.registry.snapshot() == threaded.stats.registry.snapshot()
        )

    def test_partition_results_identical(self, site):
        simulated, threaded = self.run_both(site)
        assert sorted(simulated.partition_results) == sorted(
            threaded.partition_results
        )
        for number, sim_result in simulated.partition_results.items():
            thr_result = threaded.partition_results[number]
            assert report_dict(sim_result.report) == report_dict(thr_result.report)

    def test_wall_fields_are_engine_specific(self, site):
        simulated, threaded = self.run_both(site)
        assert threaded.wall_time_ms > 0.0
        assert simulated.wall_time_ms == 0.0
        # One entry per process line on both engines: virtual finish
        # times on simulated, real busy ms on threads.
        assert len(simulated.line_finish_ms) == len(threaded.line_finish_ms) == 3
        # Virtual makespan is populated by both engines (for figures).
        assert simulated.makespan_ms > 0.0
        assert threaded.makespan_ms > 0.0

    def test_threaded_deterministic_across_reruns(self, site):
        def fingerprint():
            run = MPAjaxCrawler(site, num_proc_lines=4, cost_model=cost()).run(
                make_partitions(site, size=2), backend="threads"
            )
            return (
                report_dict(run.result.report),
                [m.url for m in run.result.models],
                run.stats.registry.snapshot(),
            )

        assert fingerprint() == fingerprint()

    def test_more_workers_than_partitions(self, site):
        run = MPAjaxCrawler(site, num_proc_lines=8, cost_model=cost()).run(
            make_partitions(site), backend="threads"
        )
        assert run.total_pages == NUM_VIDEOS

    def test_empty_partition_list(self, site):
        controller = MPAjaxCrawler(site, num_proc_lines=2, cost_model=cost())
        for backend in ("simulated", "threads"):
            run = controller.run([], backend=backend)
            assert run.total_pages == 0
            assert run.makespan_ms == 0.0

    def test_skewed_partitions_need_no_rebalancing(self, site):
        """One 8-URL partition, then seven 1-URL ones, on 2 workers: a
        static deal would queue half the small ones behind the big one;
        with one shared queue the free worker just takes the next."""
        urls = [site.video_url(i % NUM_VIDEOS) for i in range(15)]
        partitions = [urls[:8]] + [[url] for url in urls[8:]]

        def run(backend):
            return MPAjaxCrawler(site, num_proc_lines=2, cost_model=cost()).run(
                partitions, backend=backend
            )

        simulated, threaded = run("simulated"), run("threads")
        assert report_dict(simulated.result.report) == report_dict(
            threaded.result.report
        )
        assert [m.url for m in simulated.result.models] == [
            m.url for m in threaded.result.models
        ]
        assert (
            simulated.stats.registry.snapshot() == threaded.stats.registry.snapshot()
        )
        assert threaded.partition_numbers == list(range(1, 9))
        assert len(threaded.line_finish_ms) == 2
        # Every measured partition is booked on exactly one worker.
        assert sum(threaded.line_finish_ms) == pytest.approx(
            sum(threaded.partition_durations_ms)
        )


class TestPartitionCostModel:
    def test_none_passes_through(self):
        assert partition_cost_model(None, 3) is None

    def test_clone_shares_constants_not_rng(self):
        base = CostModel(network_jitter=0.25)
        clone_a = partition_cost_model(base, 1)
        clone_b = partition_cost_model(base, 2)
        assert clone_a.network_jitter == base.network_jitter
        assert clone_a.rng is not base.rng
        assert clone_a.rng is not clone_b.rng

    def test_clone_is_deterministic_per_partition(self):
        base = CostModel(network_jitter=0.25)
        draws_one = [partition_cost_model(base, 5).rng.random() for _ in range(3)]
        draws_two = [partition_cost_model(base, 5).rng.random() for _ in range(3)]
        assert draws_one == draws_two


class TestWorkerErrorPropagation:
    def test_partition_failure_surfaces_after_join(self, site):
        class Exploding:
            def fetch_page(self, url):
                raise RuntimeError("boom")

            def fetch_fragment(self, url):  # pragma: no cover
                raise RuntimeError("boom")

        controller = MPAjaxCrawler(Exploding(), num_proc_lines=2, cost_model=cost())
        with pytest.raises(Exception):
            controller.run([["http://x/a"], ["http://x/b"]], backend="threads")


class TestTraceMerging:
    def test_merged_partition_traces_equal_simulated_stream(self, site):
        """Per-partition recorders on the threads backend, merged, give
        the same canonical JSONL as the one shared recorder the
        simulated path streams through — byte for byte."""
        partitions = make_partitions(site)

        single = Recorder()
        controller = MPAjaxCrawler(
            site,
            num_proc_lines=2,
            cost_model=cost(),
            recorder_factory=lambda partition: single,
        )
        controller.run(partitions, backend="simulated")

        recorders = {}

        def factory(partition):
            recorders[partition] = Recorder()
            return recorders[partition]

        controller = MPAjaxCrawler(
            site, num_proc_lines=2, cost_model=cost(), recorder_factory=factory
        )
        controller.run(partitions, backend="threads")
        merged = merge_partition_traces(
            {p: r.events for p, r in recorders.items()}
        )
        assert to_jsonl(merged) == to_jsonl(single.events)

    def test_merge_renumbers_span_ids_into_disjoint_ranges(self, site):
        recorders = {}

        def factory(partition):
            recorders[partition] = Recorder(spans=True)
            return recorders[partition]

        controller = MPAjaxCrawler(
            site, num_proc_lines=3, cost_model=cost(), recorder_factory=factory
        )
        controller.run(make_partitions(site), backend="threads")
        merged = merge_partition_traces(
            {p: r.events for p, r in recorders.items()}
        )
        starts = [e for e in merged if e.kind == "span_start"]
        span_ids = [e.fields["span_id"] for e in starts]
        assert len(span_ids) == len(set(span_ids)), "span ids collide after merge"
        assert [e.seq for e in merged] == list(range(len(merged)))
