"""The two execution engines of the :class:`MPAjaxCrawler`.

An engine is a function ``(controller, partitions) -> ParallelRunResult``
selected by name through :meth:`MPAjaxCrawler.run`:

* :func:`run_simulated` — the deterministic discrete-event simulation
  over virtual time.  This is the default engine; every golden trace,
  figure and table is recorded against it.

* :func:`run_threads` — real threads for wall-clock scaling.  The
  scheduler is ``ThreadPoolExecutor``'s own FIFO: ``pool.map`` queues
  the numbered partitions and a free worker takes the next one — the
  ``getPartitionID()`` protocol of §6.3.1 (one shared counter, no
  per-worker queue, so no skew to repair) — and hands the outcomes back
  in partition order.

**Parity contract.**  Both engines crawl every partition with an
independent ``SimpleAjaxCrawler`` (own virtual clock, own browser) and
fold outcomes *in partition order* through :func:`_fold`, so the merged
``CrawlReport``, model list, failure records and network counters of a
fault-free run are identical across engines — the ``backend_parity``
conformance check asserts exactly this on the testgen corpus.  Only the
*scheduling* fields differ (``makespan_ms``, ``line_finish_ms``,
``partition_durations_ms``, ``wall_time_ms``): those describe the
engine, not the crawl, and are exempt from parity.

**Thread-safety of shared state.**  Worker threads share only the
simulated server (stateless by the thesis' §4.3 assumption; the fault
injector takes its own lock), the global digest memo in
:mod:`repro.dom.hashing` (single dict operations under the GIL; a
wholesale clear at capacity is safe because entries are pure
``bytes → digest`` facts), and the controller's configuration (frozen
dataclasses).  Everything mutable — clock, browser, model store, hash
caches, ``NetworkStats`` — is created per partition inside the worker.
The base :class:`~repro.clock.CostModel` carries a shared RNG, so the
threaded engine hands each partition a **clone seeded by partition
number**: with jitter disabled (every parity/conformance configuration)
the clones are latency-identical to the shared sequential RNG, and with
jitter enabled per-partition latency stays deterministic regardless of
thread interleaving.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Optional

from repro.clock import CostModel
from repro.crawler import CrawlResult
from repro.parallel.mpcrawler import MPAjaxCrawler, ParallelRunResult
from repro.parallel.simple import PartitionRunSummary

#: Seed mixed into each partition's cost-model RNG clone.
PARTITION_RNG_SEED = 0x5EED


def partition_cost_model(
    base: Optional[CostModel], number: int
) -> Optional[CostModel]:
    """A per-partition cost model with its own deterministically seeded RNG.

    The clone shares every cost constant with ``base`` but draws jitter
    from ``Random(PARTITION_RNG_SEED ^ number)``, so concurrent
    partitions never contend on (or nondeterministically interleave)
    one RNG stream.
    """
    if base is None:
        return None
    return dataclasses.replace(
        base, rng=random.Random(PARTITION_RNG_SEED ^ (number * 2654435761))
    )


def _fold(
    outcomes: Iterable[tuple[CrawlResult, PartitionRunSummary, float]],
    lines: int,
    backend: str,
) -> ParallelRunResult:
    """Merge per-partition outcomes, taken in partition order.

    Each outcome is ``(result, summary, scheduled duration)``.  The
    fixed order is what makes the merged output engine-independent; the
    engine fills in its own scheduling fields afterwards.
    """
    run = ParallelRunResult(
        result=CrawlResult(), num_proc_lines=lines, backend=backend
    )
    for number, (result, summary, duration) in enumerate(outcomes, start=1):
        run.result.merge(result)
        run.stats.merge(summary.network)
        run.summaries.append(summary)
        run.partition_results[number] = result
        run.partition_numbers.append(number)
        run.partition_durations_ms.append(duration)
    return run


def _line_times(durations: Iterable[float], lines: int) -> list[float]:
    """Finish time of each line when the earliest-free line takes the
    next partition (``getPartitionID()``)."""
    line_times = [0.0] * lines
    for duration in durations:
        line = min(range(lines), key=line_times.__getitem__)
        line_times[line] += duration
    return line_times


def run_simulated(
    controller: MPAjaxCrawler, partitions: list[list[str]]
) -> ParallelRunResult:
    """Deterministic discrete-event scheduling over virtual time.

    Each partition is crawled (deterministically, in order) to obtain
    its network and CPU cost, then scheduled onto the earliest-free
    process line with contention-stretched CPU time — exactly the
    ``getPartitionID()`` protocol of §6.3.1.
    """
    lines = controller.num_proc_lines
    machine = controller.machine
    stretch = machine.cpu_stretch(min(lines, max(len(partitions), 1)))

    def crawl_one(item: tuple[int, list[str]]):
        result, summary = controller.crawl_partition(*item)
        duration = (
            machine.process_startup_ms
            + summary.network_time_ms
            + summary.cpu_time_ms * stretch
        )
        return result, summary, duration

    run = _fold(map(crawl_one, enumerate(partitions, start=1)), lines, "simulated")
    run.line_finish_ms = _line_times(run.partition_durations_ms, lines)
    run.makespan_ms = max(run.line_finish_ms)
    return run


def run_threads(
    controller: MPAjaxCrawler, partitions: list[list[str]]
) -> ParallelRunResult:
    """Real threads, one per process line, fed by the executor's queue.

    ``pool.map`` returns outcomes in partition order however the
    threads interleaved and re-raises a worker's exception when its
    outcome is reached.
    """
    lines = controller.num_proc_lines
    started = time.perf_counter()
    # Busy milliseconds per worker thread; each thread writes only its
    # own key.
    busy_ms: dict[int, float] = defaultdict(float)

    def crawl_one(item: tuple[int, list[str]]):
        number, urls = item
        t0 = time.perf_counter()
        result, summary = controller.crawl_partition(
            number,
            urls,
            cost_model=partition_cost_model(controller.cost_model, number),
        )
        wall_ms = (time.perf_counter() - t0) * 1000.0
        busy_ms[threading.get_ident()] += wall_ms
        return result, summary, wall_ms

    with ThreadPoolExecutor(
        max_workers=lines, thread_name_prefix="crawl-worker"
    ) as pool:
        run = _fold(
            pool.map(crawl_one, enumerate(partitions, start=1)), lines, "threads"
        )
    # The executor starts a thread only when a task finds none idle.
    run.line_finish_ms = list(busy_ms.values()) + [0.0] * (lines - len(busy_ms))
    # The virtual makespan of a wall-clock run is the largest per-line
    # *virtual* crawl-time sum — the analogue of the simulated
    # scheduler's accounting, kept for the figures.
    run.makespan_ms = max(
        _line_times((s.crawl_time_ms for s in run.summaries), lines)
    )
    run.wall_time_ms = (time.perf_counter() - started) * 1000.0
    return run


#: Engine by name: the values ``MPAjaxCrawler.run(backend=)`` and the
#: CLI's ``--backend`` accept.
BACKENDS = {"simulated": run_simulated, "threads": run_threads}
