"""Parallel crawling under injected faults: the crawl must complete.

The acceptance scenario for the fault-tolerance layer: a deterministic
20% 5xx rate on the AJAX endpoints, four partitions, and the run has to
finish with every failure accounted for — the bookkeeping invariant
``failed_requests + retries == faults injected`` must hold exactly.
"""

import threading

import pytest

from repro.clock import CostModel
from repro.crawler import CrawlerConfig
from repro.net import FaultInjector, FaultPlan, FaultRule, NetworkStats
from repro.parallel import MPAjaxCrawler, partition_urls
from repro.sites import SiteConfig, SyntheticYouTube


NUM_VIDEOS = 12


@pytest.fixture
def site():
    return SyntheticYouTube(SiteConfig(num_videos=NUM_VIDEOS, seed=19))


def cost():
    return CostModel(network_jitter=0.0)


def make_run(site, plan, max_attempts=3, lines=4):
    server = FaultInjector(site, plan)
    controller = MPAjaxCrawler(
        server,
        num_proc_lines=lines,
        config=CrawlerConfig(retry_max_attempts=max_attempts),
        cost_model=cost(),
    )
    urls = [site.video_url(i) for i in range(NUM_VIDEOS)]
    return controller, partition_urls(urls, 3)


class TestSimulatedRunUnderFaults:
    def test_completes_and_books_every_injected_fault(self, site):
        plan = FaultPlan([FaultRule(r"/comments", rate=0.2)], seed=5)
        controller, partitions = make_run(site, plan)
        run = controller.run(partitions)  # must not raise
        assert len(run.summaries) == 4
        assert run.total_pages + run.total_failed_pages == NUM_VIDEOS
        assert plan.num_injected > 0
        # The invariant: every injected fault became a retry or
        # exhausted a request — none vanished from the stats.
        assert run.stats.retries + run.stats.failed_requests == plan.num_injected
        assert run.stats.failed_attempts == plan.num_injected
        assert run.stats.retry_time_ms > 0

    def test_failed_pages_reported_with_attempts(self, site):
        # Kill one watch page outright: its URL must appear in the
        # report with the full attempt count, and the rest must crawl.
        dead = site.video_url(0)
        plan = FaultPlan(
            [
                FaultRule(r"watch\?v=v00000", rate=1.0),
                FaultRule(r"/comments", rate=0.2),
            ],
            seed=5,
        )
        controller, partitions = make_run(site, plan, max_attempts=3)
        run = controller.run(partitions)
        assert run.result.failed_urls == [dead]
        (failure,) = run.result.failures
        assert failure.url == dead
        assert failure.attempts == 3
        assert failure.elapsed_ms > 0
        assert run.total_pages == NUM_VIDEOS - 1
        assert run.stats.retries + run.stats.failed_requests == plan.num_injected

    def test_deterministic_across_reruns(self, site):
        def one_run():
            plan = FaultPlan([FaultRule(r"/comments", rate=0.2)], seed=5)
            controller, partitions = make_run(site, plan)
            run = controller.run(partitions)
            return (
                plan.num_injected,
                run.stats.retries,
                run.stats.failed_requests,
                run.makespan_ms,
                sorted(s.content_hash for m in run.result.models for s in m.states()),
            )

        assert one_run() == one_run()

    def test_merged_counters_consistent(self, site):
        """Merged NetworkStats equal the per-partition sums (no lost
        updates)."""
        controller = MPAjaxCrawler(site, num_proc_lines=4, cost_model=cost())
        partitions = partition_urls(
            [site.video_url(i) for i in range(NUM_VIDEOS)], 3
        )
        run = controller.run(partitions)
        assert run.stats.ajax_calls == sum(
            s.network.ajax_calls for s in run.summaries
        )
        assert run.stats.page_fetches == sum(
            s.network.page_fetches for s in run.summaries
        )
        assert run.stats.bytes_transferred == sum(
            s.network.bytes_transferred for s in run.summaries
        )
        assert run.stats.failed_requests == 0

    def test_zero_fault_plan_matches_plain_run(self, site):
        plan = FaultPlan([FaultRule(r"/comments", rate=0.0)], seed=5)
        controller, partitions = make_run(site, plan)
        faulted = controller.run(partitions)
        plain = MPAjaxCrawler(
            site, num_proc_lines=4, cost_model=cost()
        ).run(partitions)
        assert plan.num_injected == 0
        assert faulted.makespan_ms == pytest.approx(plain.makespan_ms)
        assert faulted.stats.retries == 0
        assert faulted.stats.network_time_ms == pytest.approx(
            plain.stats.network_time_ms
        )


class TestNetworkStatsThreadSafety:
    def test_concurrent_records_lose_no_updates(self):
        stats = NetworkStats()
        workers, each = 8, 500

        def hammer(index):
            for i in range(each):
                stats.record("ajax", f"http://s/u{index}", 10, 1.0)
                stats.record_failure("ajax", f"http://s/u{index}", 5, 1.0)
                stats.record_retry(2.0)
                stats.record_cache_hit()

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = workers * each
        assert stats.ajax_calls == total
        assert stats.failed_attempts == total
        assert stats.retries == total
        assert stats.cached_hits == total
        assert stats.bytes_transferred == total * 15
        assert stats.network_time_ms == pytest.approx(total * 4.0)
        assert sum(stats.requests_by_url.values()) == total * 2

    def test_concurrent_merges_lose_no_updates(self):
        merged = NetworkStats()
        part = NetworkStats()
        part.record("page", "u", 100, 10.0)
        part.record_retry(1.0)
        part.record_exhausted()
        workers = 8

        def merge_many():
            for _ in range(100):
                merged.merge(part)

        threads = [threading.Thread(target=merge_many) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert merged.page_fetches == 800
        assert merged.retries == 800
        assert merged.failed_requests == 800
        assert merged.network_time_ms == pytest.approx(800 * 11.0)
