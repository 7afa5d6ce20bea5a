"""Fault-tolerance experiment: throughput vs. injected server-error rate.

The thesis crawls a live site and simply assumes the server behaves; our
fault-injection layer (:mod:`repro.net.faults`) lets us measure how the
parallel crawler degrades when it does not.  For each 5xx rate the
synthetic YouTube site is wrapped in a :class:`FaultInjector` targeting
the AJAX comment endpoints, the crawl runs over four partitions with
retries enabled, and the study records completed pages, quarantined
events, retries and the resulting state throughput.

The headline property: the crawl *completes* at every fault rate —
failures cost throughput, never the partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clock import CostModel
from repro.crawler import CrawlerConfig
from repro.experiments.harness import format_table
from repro.net.faults import FaultInjector, FaultPlan, FaultRule
from repro.parallel import MPAjaxCrawler, partition_urls
from repro.sites import SiteConfig, SyntheticYouTube

#: URL pattern of the AJAX endpoints the synthetic YouTube site serves.
AJAX_URL_PATTERN = r"/comments"


@dataclass(frozen=True)
class FaultPoint:
    """One fault rate of the robustness study."""

    fault_rate: float
    pages: int
    failed_pages: int
    states: int
    quarantined_events: int
    injected_faults: int
    retries: int
    failed_requests: int
    retry_time_ms: float
    makespan_ms: float

    @property
    def states_per_second(self) -> float:
        """State throughput over the run's virtual makespan."""
        seconds = self.makespan_ms / 1000.0
        return self.states / seconds if seconds > 0 else 0.0


def fault_study(
    rates: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3),
    num_videos: int = 12,
    partition_size: int = 3,
    num_proc_lines: int = 4,
    max_attempts: int = 3,
    seed: int = 7,
) -> list[FaultPoint]:
    """Crawl the same site under increasing injected 5xx rates."""
    points = []
    config = CrawlerConfig(retry_max_attempts=max_attempts)
    for rate in rates:
        site = SyntheticYouTube(SiteConfig(num_videos=num_videos, seed=seed))
        plan = FaultPlan([FaultRule(AJAX_URL_PATTERN, rate=rate)], seed=seed)
        server = FaultInjector(site, plan)
        controller = MPAjaxCrawler(
            server,
            num_proc_lines=num_proc_lines,
            config=config,
            cost_model=CostModel(network_jitter=0.0),
        )
        urls = [site.video_url(i) for i in range(num_videos)]
        run = controller.run(partition_urls(urls, partition_size))
        points.append(
            FaultPoint(
                fault_rate=rate,
                pages=run.total_pages,
                failed_pages=run.total_failed_pages,
                states=run.result.report.total_states,
                quarantined_events=run.result.report.total_events_quarantined,
                injected_faults=plan.num_injected,
                retries=run.stats.retries,
                failed_requests=run.stats.failed_requests,
                retry_time_ms=run.stats.retry_time_ms,
                makespan_ms=run.makespan_ms,
            )
        )
    return points


def format_fault_table(points: list[FaultPoint]) -> str:
    rows = [
        (
            f"{p.fault_rate:.0%}",
            p.pages,
            p.failed_pages,
            p.states,
            p.quarantined_events,
            p.injected_faults,
            p.retries,
            f"{p.retry_time_ms / 1000:.1f}",
            f"{p.states_per_second:.3f}",
        )
        for p in points
    ]
    return format_table(
        [
            "5xx rate",
            "Pages",
            "Failed",
            "States",
            "Quarantined",
            "Injected",
            "Retries",
            "Retry s",
            "States/s",
        ],
        rows,
        title="Extension: crawl throughput under injected AJAX server faults",
    )
