#!/usr/bin/env python
"""The benchmark trajectory, ``benchmarks/results/BENCH_e2e.jsonl``.

    tools/bench_report.py [--file F]                  # the trajectory as one table
    tools/bench_report.py --record REF [--seed S] [--runs N] [--label TEXT]

``--record`` runs ``python3 benchmarks/e2e/run.py --workload W --seed S``
N times for every workload of ``BENCHMARK.json`` on the tree at REF — a
git ref, exported with ``git archive``, or a directory, ``.`` being the
working tree — and appends one line per workload: the commit, the seed
and the median of every end-to-end metric.  A directory that is this
repository with uncommitted changes records as ``<HEAD>+<tree>``, the
tree its tracked files would commit as.  A run whose oracles fail aborts
the recording before anything is appended.

Without ``--record`` the file is printed as one table, a row per line in
file order, every metric followed by its change against the previous
line of the same workload and seed (the previous commit recorded).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_bench import REPO, checkout, run_once

TRAJECTORY = REPO / "benchmarks" / "results" / "BENCH_e2e.jsonl"


def spec() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, capture_output=True, text=True, check=True
    ).stdout.strip()


def commit_of(ref: str) -> str:
    """The short commit a side measures; ``+<tree>`` marks uncommitted changes."""
    if not Path(ref).is_dir():
        return git("rev-parse", "--short", ref)
    if Path(ref).resolve() != REPO:
        return f"dir:{Path(ref).resolve().name}"
    head = git("rev-parse", "--short", "HEAD")
    if not git("status", "--porcelain"):
        return head
    snapshot = git("stash", "create") or "HEAD"  # a commit object only: no ref, no checkout
    return f"{head}+{git('rev-parse', '--short', snapshot + '^{tree}')}"


def record(args) -> list[dict]:
    rows, commit = [], commit_of(args.record)  # named as exported, before any run
    with tempfile.TemporaryDirectory(prefix="bench_report-") as scratch:
        tree = checkout(args.record, Path(scratch), "tree")
        for workload in (entry["name"] for entry in spec()["workloads"]):
            runs = [
                run_once(tree, ["--workload", workload, "--seed", str(args.seed)])
                for _ in range(args.runs)
            ]
            rows.append({
                "commit": commit,
                "label": args.label,
                "workload": workload,
                "seed": args.seed,
                "runs": args.runs,
                "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "failed": sum(run["failed"] for run in runs),
                "metrics": {
                    name: statistics.median(run["metrics"][name]["value"] for run in runs)
                    for name in runs[0]["metrics"]
                },
            })
            print(f"{workload} recorded", file=sys.stderr)
    return rows


def load(path: Path) -> list[dict]:
    """The trajectory's lines; a line that is not a row is an error naming it."""
    rows = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        try:
            row = json.loads(line)
        except ValueError:
            row = None
        if not (
            isinstance(row, dict)
            and {"commit", "workload", "seed"} <= row.keys()
            and isinstance(row.get("metrics"), dict)
        ):
            raise SystemExit(f"{path}:{number}: not a trajectory row")
        rows.append(row)
    return rows


def table(rows: list[dict], metrics: list[str]) -> list[str]:
    """One line per row, each metric as ``value (±change%)`` against the
    previous row of the same workload and seed; ``new`` for the first."""
    line = ("{:<16} {:<8} {:<15} {:>4}" + " {:>22}" * len(metrics)).format
    lines = [line("commit", "label", "workload", "seed", *metrics)]
    previous: dict[tuple, dict] = {}
    for row in rows:
        key = (row["workload"], row["seed"])
        before = previous.get(key, {}).get("metrics", {})
        cells = []
        for name in metrics:
            value, old = row["metrics"].get(name), before.get(name)
            if value is None:
                cells.append("-")
            elif old is None:
                cells.append(f"{value:.6g} (new)")
            elif old == 0:
                cells.append(f"{value:.6g} ({'=' if value == 0 else 'from 0'})")
            else:
                cells.append(f"{value:.6g} ({(value - old) / abs(old):+.1%})")
        lines.append(line(row["commit"], row.get("label") or "", *key, *cells))
        previous[key] = row
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--file", type=Path, default=TRAJECTORY)
    parser.add_argument("--record", metavar="REF", help="git ref or directory to measure")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--label", default="", help="a name for the recorded rows")
    args = parser.parse_args(argv)
    if args.record is not None:
        rows = record(args)
        with args.file.open("a", encoding="utf-8") as handle:
            handle.writelines(json.dumps(row) + "\n" for row in rows)
    metrics = [metric["name"] for metric in spec()["end_to_end"]]
    print("\n".join(table(load(args.file), metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
