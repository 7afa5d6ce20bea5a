"""Parallelization experiments: Table 7.3 and Figure 7.8 (§7.4)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.experiments import datasets
from repro.experiments.exp_crawl import OverheadRow
from repro.experiments.harness import format_table
from repro.parallel import MachineModel, MPAjaxCrawler, partition_urls

#: Partition size used by the parallel experiments (§8.2 example uses 50;
#: scaled with the dataset).
PARTITION_SIZE = 20
#: The thesis ran four parallel crawler processes (§7.4).
PROC_LINES = 4
#: The testbed: a dual-core Xeon.
MACHINE = MachineModel(cores=2, process_startup_ms=4000.0, serial_fraction=0.35)


@lru_cache(maxsize=16)
def _run(num_videos: int, lines: int, traditional: bool):
    site = datasets.get_site(max(num_videos, datasets.FULL_VIDEOS))
    urls = [site.video_url(i) for i in range(num_videos)]
    partitions = partition_urls(urls, PARTITION_SIZE)
    controller = MPAjaxCrawler(
        site,
        num_proc_lines=lines,
        traditional=traditional,
        machine=MACHINE,
        cost_model=datasets.experiment_cost_model(),
    )
    return controller.run([tuple(p) for p in partitions])


@dataclass(frozen=True)
class ParallelOverhead:
    """Table 7.3: parallel crawl times, traditional vs AJAX."""

    total: OverheadRow
    per_page: OverheadRow
    per_state: OverheadRow


def table_7_3(num_videos: int = datasets.FULL_VIDEOS) -> ParallelOverhead:
    trad = _run(num_videos, PROC_LINES, traditional=True)
    ajax = _run(num_videos, PROC_LINES, traditional=False)
    return ParallelOverhead(
        total=OverheadRow("Total time", trad.makespan_ms, ajax.makespan_ms),
        per_page=OverheadRow(
            "Mean per page", trad.mean_time_per_page_ms, ajax.mean_time_per_page_ms
        ),
        per_state=OverheadRow(
            "Mean per state", trad.mean_time_per_state_ms, ajax.mean_time_per_state_ms
        ),
    )


def format_table_7_3(overhead: ParallelOverhead) -> str:
    rows = [
        (
            row.label,
            row.traditional_ms / 1000.0,
            row.ajax_ms / 1000.0,
            f"x{row.ratio:.2f}",
        )
        for row in (overhead.total, overhead.per_page, overhead.per_state)
    ]
    return format_table(
        ["", "Parallel Trad. (s)", "Parallel AJAX (s)", "AJAX/Trad"],
        rows,
        title=f"Table 7.3: Parallel crawling times ({PROC_LINES} process lines)",
    )


@dataclass(frozen=True)
class ParallelGain:
    """Figure 7.8: serial vs parallel mean crawl time per video."""

    mode: str  # "Traditional" or "AJAX"
    serial_ms_per_page: float
    parallel_ms_per_page: float

    @property
    def reduction(self) -> float:
        """Fractional reduction (thesis: 27.5% trad, 25.6% AJAX)."""
        if self.serial_ms_per_page == 0:
            return 0.0
        return 1.0 - self.parallel_ms_per_page / self.serial_ms_per_page


def figure_7_8(num_videos: int = datasets.FULL_VIDEOS) -> list[ParallelGain]:
    gains = []
    for mode, traditional in (("Traditional", True), ("AJAX", False)):
        serial = _run(num_videos, 1, traditional)
        parallel = _run(num_videos, PROC_LINES, traditional)
        gains.append(
            ParallelGain(
                mode=mode,
                serial_ms_per_page=serial.mean_time_per_page_ms,
                parallel_ms_per_page=parallel.mean_time_per_page_ms,
            )
        )
    return gains


def format_figure_7_8(gains: list[ParallelGain]) -> str:
    rows = [
        (
            gain.mode,
            gain.serial_ms_per_page,
            gain.parallel_ms_per_page,
            f"-{gain.reduction:.1%}",
        )
        for gain in gains
    ]
    return format_table(
        ["Crawl mode", "Serial ms/page", f"{PROC_LINES}-line ms/page", "Reduction"],
        rows,
        title="Figure 7.8: Effect of parallelization on mean crawling time per video",
    )


def process_line_sweep(
    num_videos: int = datasets.FULL_VIDEOS, line_counts: tuple[int, ...] = (1, 2, 4, 8)
) -> list[tuple[int, float]]:
    """Extension: makespan vs number of process lines (ablation)."""
    return [
        (lines, _run(num_videos, lines, traditional=False).makespan_ms)
        for lines in line_counts
    ]
