"""Tests for SimpleAjaxCrawler, the process-line scheduler and persistence."""

import pytest

from repro.clock import CostModel
from repro.crawler import CrawlerConfig
from repro.parallel import (
    MachineModel,
    MPAjaxCrawler,
    SimpleAjaxCrawler,
    URLPartitioner,
    load_models,
    partition_urls,
)
from repro.sites import SiteConfig, SyntheticYouTube


@pytest.fixture(scope="module")
def site():
    return SyntheticYouTube(SiteConfig(num_videos=24, seed=19))


def cost():
    return CostModel(network_jitter=0.0)


class TestSimpleAjaxCrawler:
    def test_crawls_url_list(self, site):
        worker = SimpleAjaxCrawler(site, cost_model=cost())
        urls = [site.video_url(i) for i in range(4)]
        result, summary = worker.crawl_urls(urls, partition=3)
        assert summary.partition == 3
        assert summary.num_pages == 4
        assert summary.total_states == result.report.total_states
        assert summary.network_time_ms > 0
        assert summary.cpu_time_ms > 0
        assert summary.crawl_time_ms == pytest.approx(
            summary.network_time_ms + summary.cpu_time_ms
        )

    def test_traditional_mode(self, site):
        worker = SimpleAjaxCrawler(site, traditional=True, cost_model=cost())
        result, summary = worker.crawl_urls([site.video_url(0)])
        assert summary.total_states == 1
        assert result.models[0].num_states == 1

    def test_partition_dir_round_trip(self, site, tmp_path):
        urls = [site.video_url(i) for i in range(3)]
        (directory,) = URLPartitioner(10).write(urls, tmp_path)
        worker = SimpleAjaxCrawler(site, cost_model=cost())
        result, _ = worker.crawl_partition_dir(directory)
        loaded = load_models(directory)
        assert [m.url for m in loaded] == [m.url for m in result.models]
        assert sum(m.num_states for m in loaded) == result.report.total_states

    def test_independent_clocks(self, site):
        """Two workers must not share time: the SPMD independence of §6.1."""
        worker = SimpleAjaxCrawler(site, cost_model=cost())
        _, first = worker.crawl_urls([site.video_url(0)])
        _, second = worker.crawl_urls([site.video_url(0)])
        assert first.crawl_time_ms == pytest.approx(second.crawl_time_ms)


class TestMPAjaxCrawler:
    def partitions(self, site, count=12, size=3):
        return partition_urls([site.video_url(i) for i in range(count)], size)

    def test_all_pages_crawled(self, site):
        controller = MPAjaxCrawler(site, num_proc_lines=4, cost_model=cost())
        run = controller.run(self.partitions(site))
        assert run.total_pages == 12
        assert len(run.summaries) == 4  # 12 urls / 3 per partition

    def test_parallel_faster_than_serial(self, site):
        partitions = self.partitions(site)
        serial = MPAjaxCrawler(site, num_proc_lines=1, cost_model=cost()).run(partitions)
        parallel = MPAjaxCrawler(site, num_proc_lines=4, cost_model=cost()).run(partitions)
        assert parallel.makespan_ms < serial.makespan_ms

    def test_speedup_bounded_by_contention(self, site):
        """Four lines on two cores cannot approach a 4x speedup (Fig. 7.8)."""
        partitions = self.partitions(site)
        machine = MachineModel(cores=2)
        serial = MPAjaxCrawler(site, 1, machine=machine, cost_model=cost()).run(partitions)
        parallel = MPAjaxCrawler(site, 4, machine=machine, cost_model=cost()).run(partitions)
        speedup = serial.makespan_ms / parallel.makespan_ms
        assert 1.0 < speedup < 3.0

    def test_line_loads_balanced(self, site):
        controller = MPAjaxCrawler(site, num_proc_lines=4, cost_model=cost())
        run = controller.run(self.partitions(site))
        assert len(run.line_finish_ms) == 4
        assert max(run.line_finish_ms) == run.makespan_ms
        assert all(t > 0 for t in run.line_finish_ms)

    def test_same_models_as_serial_crawl(self, site):
        """Parallelization must not change what is crawled."""
        partitions = self.partitions(site, count=6, size=2)
        parallel = MPAjaxCrawler(site, 3, cost_model=cost()).run(partitions)
        serial_worker = SimpleAjaxCrawler(site, cost_model=cost())
        serial, _ = serial_worker.crawl_urls([site.video_url(i) for i in range(6)])
        parallel_states = sorted(
            s.content_hash for m in parallel.result.models for s in m.states()
        )
        serial_states = sorted(
            s.content_hash for m in serial.models for s in m.states()
        )
        assert parallel_states == serial_states

    def test_zero_lines_rejected(self, site):
        with pytest.raises(ValueError):
            MPAjaxCrawler(site, num_proc_lines=0)

    def test_empty_partitions(self, site):
        run = MPAjaxCrawler(site, 2, cost_model=cost()).run([])
        assert run.makespan_ms == 0.0
        assert run.total_pages == 0

    def test_traditional_parallel(self, site):
        controller = MPAjaxCrawler(site, 4, traditional=True, cost_model=cost())
        run = controller.run(self.partitions(site, count=8, size=2))
        assert run.result.report.total_states == 8


class TestMachineModel:
    def test_single_line_no_stretch(self):
        assert MachineModel(cores=2, serial_fraction=0.0).cpu_stretch(1) == 1.0

    def test_more_lines_than_cores_stretches(self):
        machine = MachineModel(cores=2, serial_fraction=0.0)
        assert machine.cpu_stretch(4) == pytest.approx(2.0)

    def test_serial_fraction_adds_cost(self):
        relaxed = MachineModel(cores=2, serial_fraction=0.0)
        contended = MachineModel(cores=2, serial_fraction=0.5)
        assert contended.cpu_stretch(4) > relaxed.cpu_stretch(4)
