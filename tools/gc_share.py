#!/usr/bin/env python
"""The cycle collector's share of one ``benchmarks/e2e`` workload.

    tools/gc_share.py WORKLOAD [--seed S] [--scale full|smoke] [--reps N] [--tree DIR]

Sets up the workload and runs N repetitions of it in this process,
importing ``benchmarks/e2e/workloads.py`` and the program under
``src/`` of DIR (default: this checkout; any other tree, e.g. one
exported with ``git archive``, gives the "before" table).  A
``gc.callbacks`` hook times every collection, and one line per
repetition gives its wall time, the pause milliseconds of each
generation, the number of collections, the objects they freed and the
collector's share of the wall time.  Nothing is changed about the
collector: its thresholds and state are the interpreter's defaults.
Times are raw wall clock of this machine, not reference-speed.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


class CollectorClock:
    """Pause time, collections and freed objects per generation, from
    ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = [0.0, 0.0, 0.0]
        self.collections = 0
        self.collected = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_s[info["generation"]] += time.perf_counter() - self._started
        self.collections += 1
        self.collected += info["collected"]


def measure(workload, reps: int) -> list[dict]:
    rows = []
    for _ in range(reps):
        clock = CollectorClock()
        gc.callbacks.append(clock)
        try:
            started = time.perf_counter()
            workload.repetition()
            wall_s = time.perf_counter() - started
        finally:
            gc.callbacks.remove(clock)
        rows.append(
            {
                "wall_ms": wall_s * 1e3,
                "pause_ms": [s * 1e3 for s in clock.pause_s],
                "collections": clock.collections,
                "collected": clock.collected,
                "share": sum(clock.pause_s) / wall_s,
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--tree", type=Path, default=REPO, help="checkout to import from")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks" / "e2e")]
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    try:
        workload.setup()
        workload.warm_up()
        rows = measure(workload, args.reps)
    finally:
        workload.close()
    print(f"{args.workload}, seed {args.seed}, {args.scale} scale, {tree}")
    print("rep  wall_ms  gen0_ms  gen1_ms  gen2_ms  collections  collected  gc_share")
    for number, row in enumerate(rows, 1):
        gen0, gen1, gen2 = row["pause_ms"]
        print(
            f"{number:>3}  {row['wall_ms']:7.1f}  {gen0:7.1f}  {gen1:7.1f}  {gen2:7.1f}"
            f"  {row['collections']:>11}  {row['collected']:>9}  {row['share']:8.1%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
