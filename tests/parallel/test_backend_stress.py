"""Stress: the partition scheduler under seeded fault injection.

Generated sites from the testgen corpus are crawled by
``MPAjaxCrawler.run`` while a seeded :class:`FaultPlan` injects 5xx
responses into the fragment endpoints.  The run must terminate (retries
lengthen partitions, never loop), lose no pages, and account for every
injected fault exactly:
``retries + failed_requests == plan.num_injected == len(plan.log)``.
"""

import dataclasses

import pytest

from repro.clock import CostModel
from repro.net import FaultInjector, FaultPlan, FaultRule
from repro.parallel import MPAjaxCrawler
from repro.testgen.conformance import (
    _partition,
    conformance_config,
    spec_for_seed,
)
from repro.testgen.site import GeneratedSite

pytestmark = pytest.mark.slow


def run_under_faults(seed, rate, lines=4, num_partitions=4):
    spec = spec_for_seed(seed)
    plan = FaultPlan([FaultRule(r"/fragment", rate=rate)], seed=seed)
    controller = MPAjaxCrawler(
        FaultInjector(GeneratedSite(spec), plan),
        num_proc_lines=lines,
        config=dataclasses.replace(
            conformance_config(spec), retry_max_attempts=3
        ),
        cost_model=CostModel(network_jitter=0.0),
    )
    urls = spec.all_urls()
    run = controller.run(_partition(urls, num_partitions))
    return spec, plan, urls, run


class TestSchedulerUnderFaults:
    @pytest.mark.parametrize("seed", range(0, 12))
    def test_no_deadlock_no_lost_pages_exact_fault_accounting(self, seed):
        spec, plan, urls, run = run_under_faults(seed, rate=0.2)
        # Terminated (we are here) and every URL is accounted for:
        # either a crawled page or a terminal failure.
        assert run.total_pages + run.total_failed_pages == len(urls)
        assert len(run.summaries) == len(run.partition_results)
        # Exact fault bookkeeping across partitions.
        assert (
            run.stats.retries + run.stats.failed_requests == plan.num_injected
        )
        assert plan.num_injected == len(plan.log)
        assert run.stats.failed_attempts == plan.num_injected

    def test_total_fault_rate_kills_fragment_pages_not_the_run(self):
        spec, plan, urls, run = run_under_faults(3, rate=1.0)
        assert run.total_pages + run.total_failed_pages == len(urls)
        assert run.stats.retries + run.stats.failed_requests == plan.num_injected
        assert plan.num_injected == len(plan.log)

    def test_repeated_runs_terminate(self):
        """Many short faulted runs in a row."""
        for round_index in range(5):
            spec, plan, urls, run = run_under_faults(
                seed=20 + round_index, rate=0.3, lines=6, num_partitions=6
            )
            assert run.total_pages + run.total_failed_pages == len(urls)
            assert (
                run.stats.retries + run.stats.failed_requests
                == plan.num_injected
                == len(plan.log)
            )
