"""``MPAjaxCrawler.run(partitions)``: the one scheduler, at parity with one crawler.

Chapter 6 splits a crawl over process lines only to go faster: the
partitioned run must yield the crawl one ``SimpleAjaxCrawler`` makes of
the same URLs in the same order — report, models (order included),
network counters — and each partition's result must be the one a
standalone worker makes of that partition.  Only the scheduling fields
(``makespan_ms``, ``line_finish_ms``, ``partition_durations_ms``)
describe the partitioning.
"""

import pytest

from repro.clock import CostModel
from repro.parallel import MPAjaxCrawler, SimpleAjaxCrawler, partition_urls
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


def crawl_identity(report):
    """A report's snapshot without what depends on the process-wide
    digest memo (a page hashed before hashes nothing new), with its
    counters rounded (a sum of floats depends on the order of its
    additions)."""
    snapshot = report_dict(report)
    del snapshot["counters"]["crawl.hash_bytes_hashed"]
    snapshot["counters"] = {k: round(v, 6) for k, v in snapshot["counters"].items()}
    return snapshot


def make_partitions(site, size=3):
    return partition_urls([site.video_url(i) for i in range(NUM_VIDEOS)], size)


def models_of(result):
    return [(m.url, [s.content_hash for s in m.states()]) for m in result.models]


def fingerprint(run):
    return (
        report_dict(run.result.report),
        models_of(run.result),
        run.stats.registry.snapshot(),
        run.makespan_ms,
        run.line_finish_ms,
        run.partition_durations_ms,
    )


class TestBackendParity:
    """The partitioned backend against one crawler over the same URLs."""

    def run_both(self, site, lines=3):
        partitions = make_partitions(site)
        partitioned = MPAjaxCrawler(site, num_proc_lines=lines, cost_model=cost()).run(
            partitions
        )
        single = SimpleAjaxCrawler(site, cost_model=cost()).crawl_urls(
            [url for partition in partitions for url in partition]
        )
        return partitioned, single

    def test_merged_reports_identical(self, site):
        partitioned, (single, _) = self.run_both(site)
        assert crawl_identity(partitioned.result.report) == crawl_identity(single.report)

    def test_model_lists_identical_in_order(self, site):
        partitioned, (single, _) = self.run_both(site)
        assert models_of(partitioned.result) == models_of(single)

    def test_network_registries_identical(self, site):
        partitioned, (_, summary) = self.run_both(site)
        assert partitioned.stats.registry.snapshot() == summary.network.registry.snapshot()

    def test_partition_results_identical(self, site):
        partitions = make_partitions(site)
        run = MPAjaxCrawler(site, num_proc_lines=3, cost_model=cost()).run(partitions)
        assert sorted(run.partition_results) == [1, 2, 3]
        for number, urls in enumerate(partitions, start=1):
            alone, _ = SimpleAjaxCrawler(site, cost_model=cost()).crawl_urls(
                urls, partition=number
            )
            ours = run.partition_results[number]
            assert crawl_identity(ours.report) == crawl_identity(alone.report)
            assert models_of(ours) == models_of(alone)

    def test_more_workers_than_partitions(self, site):
        run = MPAjaxCrawler(site, num_proc_lines=8, cost_model=cost()).run(
            make_partitions(site)
        )
        assert run.total_pages == NUM_VIDEOS
        # Five lines never get a partition.
        assert len(run.line_finish_ms) == 8
        assert run.line_finish_ms.count(0.0) == 5

    def test_empty_partition_list(self, site):
        run = MPAjaxCrawler(site, num_proc_lines=2, cost_model=cost()).run([])
        assert run.total_pages == 0
        assert run.makespan_ms == 0.0
        assert run.line_finish_ms == [0.0, 0.0]

    def test_skewed_partitions_need_no_rebalancing(self, site):
        """One 8-URL partition, then seven 1-URL ones, on 2 lines: a
        static deal would queue half the small ones behind the big one;
        with one shared counter the free line just takes the next."""
        urls = [site.video_url(i % NUM_VIDEOS) for i in range(15)]
        partitions = [urls[:8]] + [[url] for url in urls[8:]]
        run = MPAjaxCrawler(site, num_proc_lines=2, cost_model=cost()).run(partitions)
        assert sorted(run.partition_results) == list(range(1, 9))
        assert len(run.line_finish_ms) == 2
        # Every partition is booked on exactly one line.
        assert sum(run.line_finish_ms) == pytest.approx(sum(run.partition_durations_ms))
        # The small partitions fill the line the big one leaves free:
        # the lines end within one partition of each other.
        spread = max(run.line_finish_ms) - min(run.line_finish_ms)
        assert spread <= max(run.partition_durations_ms[1:])

    def test_deterministic_across_reruns(self, site):
        def one_run():
            return fingerprint(
                MPAjaxCrawler(site, num_proc_lines=4, cost_model=cost()).run(
                    make_partitions(site, size=2)
                )
            )

        assert one_run() == one_run()


class TestWorkerErrorPropagation:
    def test_partition_failure_surfaces_after_join(self, site):
        """A page's ``Exception`` costs that page (``Crawler.crawl``
        contains it); anything else ends the run at the partition that
        met it, and no later partition starts."""

        class Abort(BaseException):
            pass

        fetched = []

        class Exploding:
            def handle(self, request):
                fetched.append(request.url)
                raise Abort(request.url)

        controller = MPAjaxCrawler(Exploding(), num_proc_lines=2, cost_model=cost())
        with pytest.raises(Abort):
            controller.run([["http://x/a"], ["http://x/b"]])
        assert len(fetched) == 1
