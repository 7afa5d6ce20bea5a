"""The MPAjaxCrawler: process lines over URL partitions (§6.3.1).

The thesis runs ``nOfProcLines`` threads, each serially launching
``SimpleAjaxCrawler`` JVM processes until all partitions are consumed.
We reproduce that scheduler as a deterministic discrete-event
simulation over virtual time.  Each process line keeps its own
timeline; a free line grabs the next partition (exactly the
``getPartitionID()`` protocol).  Network waits overlap perfectly across
lines; CPU work (JavaScript, parsing, model maintenance) contends for
the machine's cores, and each launched process pays a startup overhead
— which is why the thesis' measured gain from four process lines on a
dual-core Xeon was only ~26-28% (Figure 7.8), not 4x.  Every golden
trace, figure and table is recorded against this scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.clock import CostModel
from repro.crawler import CrawlerConfig, CrawlResult, DEFAULT_CONFIG
from repro.net.server import SimulatedServer
from repro.net.stats import NetworkStats
from repro.obs import NULL_RECORDER
from repro.obs.profile import earliest_free_lines
from repro.parallel.simple import PartitionRunSummary, SimpleAjaxCrawler


@dataclass(frozen=True)
class MachineModel:
    """The hardware the simulated scheduler runs on.

    Defaults approximate the thesis testbed: a dual-core Xeon where JVM
    startup and model maintenance are expensive.
    """

    #: Physical cores available for CPU-bound crawl work.
    cores: int = 2
    #: Per-process (per partition) startup cost — JVM launch, class
    #: loading, heap warm-up.
    process_startup_ms: float = 4000.0
    #: Fraction of CPU work that is serialized regardless of cores
    #: (shared disk, memory bandwidth, OS scheduling).
    serial_fraction: float = 0.15

    def cpu_stretch(self, active_lines: int) -> float:
        """How much slower CPU work runs per line under contention."""
        parallel_share = max(1.0, active_lines / self.cores)
        return self.serial_fraction * active_lines + (1 - self.serial_fraction) * parallel_share


@dataclass
class ParallelRunResult:
    """Outcome of one MPAjaxCrawler run."""

    result: CrawlResult
    summaries: list[PartitionRunSummary] = field(default_factory=list)
    #: Virtual wall-clock of the whole run (max over process lines).
    makespan_ms: float = 0.0
    #: Per-line virtual finish times.
    line_finish_ms: list[float] = field(default_factory=list)
    #: Network counters merged over every partition worker.
    stats: NetworkStats = field(default_factory=NetworkStats)
    #: Scheduled duration of partitions ``1..n`` on their process lines
    #: (startup + network + stretched CPU) — the critical-path
    #: analyzer's input.
    partition_durations_ms: list[float] = field(default_factory=list)
    #: Process lines the run was scheduled on.
    num_proc_lines: int = 0
    #: Per-partition crawl results, keyed by partition number (model
    #: persistence and per-partition indexing read these; the merged
    #: ``result`` references the same objects).
    partition_results: dict[int, CrawlResult] = field(default_factory=dict)

    @property
    def registry(self):
        """The merged metrics registry over all partitions."""
        return self.stats.registry

    @property
    def total_pages(self) -> int:
        return self.result.report.num_pages

    @property
    def total_failed_pages(self) -> int:
        """URLs that failed even after retries, across all partitions."""
        return len(self.result.failures)

    @property
    def mean_time_per_page_ms(self) -> float:
        return self.makespan_ms / self.total_pages if self.total_pages else 0.0

    @property
    def mean_time_per_state_ms(self) -> float:
        states = self.result.report.total_states
        return self.makespan_ms / states if states else 0.0


class MPAjaxCrawler:
    """Schedules SimpleAjaxCrawler runs over process lines."""

    def __init__(
        self,
        server: SimulatedServer,
        num_proc_lines: int = 4,
        config: CrawlerConfig = DEFAULT_CONFIG,
        traditional: bool = False,
        machine: MachineModel = MachineModel(),
        cost_model: Optional[CostModel] = None,
        recorder=NULL_RECORDER,
    ) -> None:
        if num_proc_lines < 1:
            raise ValueError("need at least one process line")
        self.server = server
        self.num_proc_lines = num_proc_lines
        self.config = config
        self.traditional = traditional
        self.machine = machine
        self.cost_model = cost_model
        #: Every partition's worker records through this one recorder:
        #: partitions run in turn, so the stream is one deterministic
        #: sequence.
        self.recorder = recorder

    def run(self, partitions: list[list[str]]) -> ParallelRunResult:
        """Crawl every partition, in order, each with a fresh worker that
        owns every piece of mutable crawl state (clock, browser, model
        store, hash caches, stats), and schedule it onto the
        earliest-free process line with contention-stretched CPU time —
        the ``getPartitionID()`` protocol of §6.3.1."""
        lines = self.num_proc_lines
        machine = self.machine
        stretch = machine.cpu_stretch(min(lines, max(len(partitions), 1)))
        run = ParallelRunResult(result=CrawlResult(), num_proc_lines=lines)
        for number, urls in enumerate(partitions, start=1):
            worker = SimpleAjaxCrawler(
                self.server,
                self.config,
                traditional=self.traditional,
                cost_model=self.cost_model,
                recorder=self.recorder,
            )
            result, summary = worker.crawl_urls(urls, partition=number)
            run.result.merge(result)
            run.stats.merge(summary.network)
            run.summaries.append(summary)
            run.partition_results[number] = result
            run.partition_durations_ms.append(
                machine.process_startup_ms
                + summary.network_time_ms
                + summary.cpu_time_ms * stretch
            )
        run.line_finish_ms = earliest_free_lines(run.partition_durations_ms, lines)[0]
        run.makespan_ms = max(run.line_finish_ms)
        return run
