"""Threads-backend scaling benchmark: wall-clock speedup over workers.

The simulated backend executes on virtual time, so its "parallelism" is
an accounting exercise; this benchmark measures the *real* one.  A
synthetic YouTube site is wrapped in a server that sleeps a fixed real
latency per request — the I/O-bound regime the thesis crawls in, and
the regime where Python threads genuinely overlap (the GIL is released
in ``time.sleep``; pure-CPU crawling would not scale).  The same
partition list is crawled with 1, 2 and 4 worker threads and the
speedup is asserted against a loose floor.

Also recorded: backend parity of the merged report across the sweep
(every worker count must produce the identical crawl), and each
worker's busy time.  Results go to
``benchmarks/results/BENCH_parallel.json``.
"""

import json
import time
from pathlib import Path

from repro.clock import CostModel
from repro.parallel import MPAjaxCrawler, partition_urls
from repro.sites import SiteConfig, SyntheticYouTube

RESULT_PATH = Path(__file__).resolve().parent / "results" / "BENCH_parallel.json"

NUM_VIDEOS = 20
PARTITION_SIZE = 1
#: Real seconds slept per server request (page or fragment).
REQUEST_SLEEP_S = 0.025
WORKER_SWEEP = (1, 2, 4)

#: Loose floor: 4 workers over an 8ms-per-request site must be at least
#: this much faster than 1 worker (recording machine: ~3x).
MIN_SPEEDUP_4 = 1.5


class SleepingServer:
    """Delegates to a simulated site, sleeping real time per request.

    ``time.sleep`` releases the GIL, so concurrent partition crawls
    overlap their waits exactly as real network fetches would.
    """

    def __init__(self, site, sleep_s: float) -> None:
        self._site = site
        self._sleep_s = sleep_s

    def handle(self, request):
        time.sleep(self._sleep_s)
        return self._site.handle(request)

    def __getattr__(self, name):
        return getattr(self._site, name)


def parallel_study() -> dict:
    site = SyntheticYouTube(SiteConfig(num_videos=NUM_VIDEOS, seed=7))
    server = SleepingServer(site, REQUEST_SLEEP_S)
    partitions = partition_urls(
        [site.video_url(i) for i in range(NUM_VIDEOS)], PARTITION_SIZE
    )

    # Warm-up crawl (not recorded): fills the global digest memo so the
    # sweep entries are hash-accounting-identical, and absorbs one-time
    # interpreter warm-up out of the 1-worker baseline.
    MPAjaxCrawler(
        site, num_proc_lines=1, cost_model=CostModel(network_jitter=0.0)
    ).run(partitions, backend="threads")

    sweep = []
    reports = []
    for workers in WORKER_SWEEP:
        controller = MPAjaxCrawler(
            server,
            num_proc_lines=workers,
            cost_model=CostModel(network_jitter=0.0),
        )
        started = time.perf_counter()
        run = controller.run(partitions, backend="threads")
        wall_s = time.perf_counter() - started
        reports.append(run.result.report.registry.snapshot())
        sweep.append(
            {
                "workers": workers,
                "wall_s": round(wall_s, 4),
                "pages": run.total_pages,
                "pages_per_s": round(run.total_pages / wall_s, 2),
                "worker_busy_s": [round(ms / 1000.0, 4) for ms in run.line_finish_ms],
            }
        )

    by_workers = {entry["workers"]: entry for entry in sweep}
    speedup_2 = by_workers[1]["wall_s"] / by_workers[2]["wall_s"]
    speedup_4 = by_workers[1]["wall_s"] / by_workers[4]["wall_s"]
    report = {
        "dataset": {
            "num_videos": NUM_VIDEOS,
            "partition_size": PARTITION_SIZE,
            "partitions": len(partitions),
            "request_sleep_ms": REQUEST_SLEEP_S * 1000.0,
        },
        "sweep": sweep,
        "speedup": {"2_workers": round(speedup_2, 3), "4_workers": round(speedup_4, 3)},
        "merged_reports_identical_across_sweep": all(
            snapshot == reports[0] for snapshot in reports
        ),
        "threshold": {"min_speedup_4_workers": MIN_SPEEDUP_4},
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_parallel_benchmark(benchmark):
    report = benchmark.pedantic(parallel_study, rounds=1, iterations=1)
    for entry in report["sweep"]:
        print(
            f"\n[parallel] {entry['workers']} worker(s): "
            f"{entry['wall_s']:.2f}s wall, {entry['pages_per_s']:.1f} pages/s"
        )
    print(
        f"[parallel] speedup: {report['speedup']['2_workers']:.2f}x at 2, "
        f"{report['speedup']['4_workers']:.2f}x at 4 workers"
    )
    assert report["merged_reports_identical_across_sweep"], (
        "worker count changed the merged crawl — parity broken"
    )
    for entry in report["sweep"]:
        assert entry["pages"] == NUM_VIDEOS
    assert report["speedup"]["4_workers"] >= MIN_SPEEDUP_4
    assert RESULT_PATH.exists()
