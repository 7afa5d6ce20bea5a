"""The MPAjaxCrawler: process lines over URL partitions (§6.3.1).

The thesis runs ``nOfProcLines`` threads, each serially launching
``SimpleAjaxCrawler`` JVM processes until all partitions are consumed.
We reproduce that scheduler with two execution engines
(:mod:`repro.parallel.backend`), selected by name:

* ``backend="simulated"`` (default) — a deterministic discrete-event
  simulation over virtual time.  Each process line keeps its own
  timeline; a free line grabs the next partition (exactly the
  ``getPartitionID()`` protocol).  Network waits overlap perfectly
  across lines; CPU work (JavaScript, parsing, model maintenance)
  contends for the machine's cores, and each launched process pays a
  startup overhead — which is why the thesis' measured gain from four
  process lines on a dual-core Xeon was only ~26-28% (Figure 7.8), not
  4x.  Every golden trace, figure and table is recorded against this
  engine.

* ``backend="threads"`` — a real ``ThreadPoolExecutor`` engine for
  wall-clock use (each partition crawl is fully independent, the SPMD
  observation of §6.1); the executor's queue is the shared
  ``getPartitionID()`` counter.  Its merged crawl output is identical
  to the simulated engine's; only scheduling/wall-clock fields differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.clock import CostModel
from repro.crawler import CrawlerConfig, CrawlResult, DEFAULT_CONFIG
from repro.net.server import SimulatedServer
from repro.net.stats import NetworkStats
from repro.obs import NULL_RECORDER
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
    #: Per-line finish times: virtual ms on the simulated backend, real
    #: per-worker busy ms on the threads backend.
    line_finish_ms: list[float] = field(default_factory=list)
    #: Network counters merged over every partition worker.
    stats: NetworkStats = field(default_factory=NetworkStats)
    #: Partition numbers in scheduling order (parallel to
    #: ``partition_durations_ms``) — the critical-path analyzer's input.
    partition_numbers: list[int] = field(default_factory=list)
    #: Scheduled duration of each partition on its process line
    #: (startup + network + stretched CPU for the simulated runner,
    #: measured wall ms for the threaded one).
    partition_durations_ms: list[float] = field(default_factory=list)
    #: Process lines the run was scheduled on.
    num_proc_lines: int = 0
    #: The execution backend that produced this result.
    backend: str = "simulated"
    #: Per-partition crawl results, keyed by partition number (model
    #: persistence and per-partition indexing read these; the merged
    #: ``result`` references the same objects).
    partition_results: dict[int, CrawlResult] = field(default_factory=dict)
    #: Real elapsed milliseconds of the whole run (threads backend;
    #: 0.0 on the simulated backend, which runs on virtual time only).
    wall_time_ms: float = 0.0

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
        recorder_factory: Optional[Callable[[int], object]] = None,
    ) -> None:
        if num_proc_lines < 1:
            raise ValueError("need at least one process line")
        self.server = server
        self.num_proc_lines = num_proc_lines
        self.config = config
        self.traditional = traditional
        self.machine = machine
        self.cost_model = cost_model
        #: Optional per-partition trace recorders: called with the
        #: partition number, returns the recorder that partition's
        #: worker uses.  Traces cannot share one sequence across
        #: concurrent partitions without losing determinism, so each
        #: partition gets its own recorder; the per-partition streams
        #: recombine with :func:`repro.obs.merge_partition_traces`.  A
        #: factory handing every recorder the same
        #: :class:`~repro.obs.JsonlTraceSink` is safe on the threads
        #: backend — the sink serializes writers internally.
        self.recorder_factory = recorder_factory

    def _recorder_for(self, partition: int):
        """The trace recorder one partition's worker should use."""
        if self.recorder_factory is None:
            return NULL_RECORDER
        return self.recorder_factory(partition)

    def crawl_partition(
        self,
        number: int,
        urls: list[str],
        cost_model: Optional[CostModel] = None,
    ) -> tuple[CrawlResult, PartitionRunSummary]:
        """Crawl one numbered partition with a fresh worker.

        The worker owns every piece of mutable crawl state (clock,
        browser, model store, hash caches, stats), which is what makes
        partition crawls backend-agnostic: the simulated engine calls
        this serially, the threaded engine concurrently.
        ``cost_model`` overrides the controller's (the threaded engine
        passes per-partition RNG clones); ``None`` uses the shared one.
        """
        worker = SimpleAjaxCrawler(
            self.server,
            self.config,
            traditional=self.traditional,
            cost_model=cost_model if cost_model is not None else self.cost_model,
            recorder=self._recorder_for(number),
        )
        return worker.crawl_urls(urls, partition=number)

    # -- backend dispatch ------------------------------------------------------------

    def run(
        self, partitions: list[list[str]], backend: str = "simulated"
    ) -> ParallelRunResult:
        """Crawl all partitions on the named engine.

        ``backend`` is ``"simulated"`` or ``"threads"``.  The merged
        crawl output is backend-independent; the scheduling and
        wall-clock fields are not.
        """
        from repro.parallel.backend import BACKENDS

        if backend not in BACKENDS:
            raise ValueError(
                f"unknown execution backend {backend!r} (have {sorted(BACKENDS)})"
            )
        return BACKENDS[backend](self, partitions)

    def run_simulated(self, partitions: list[list[str]]) -> ParallelRunResult:
        """Crawl all partitions on virtual time (the default backend)."""
        return self.run(partitions, backend="simulated")

    def run_threaded(self, partitions: list[list[str]]) -> ParallelRunResult:
        """Crawl partitions on real threads (wall-clock parallelism)."""
        return self.run(partitions, backend="threads")
