#!/usr/bin/env python
"""A/B runs of ``benchmarks/e2e`` on two versions of this repository.

    tools/ab_bench.py REF_A REF_B --workload W --pairs N [--seed S] [-- RUN_ARGS...]

Each side is a git ref, exported with ``git archive`` into a temporary
directory, or an existing directory used as it is.  ``.`` (this
repository's working tree) is copied into a temporary directory too, as
the files ``git ls-files --cached --others --exclude-standard`` lists —
uncommitted and new files included, no ``__pycache__`` or other ignored
leftovers — so both sides start as fresh trees.  Every pair runs
``python3 benchmarks/e2e/run.py --workload W --seed S RUN_ARGS`` once per
side, each from that side's own files, alternating which side goes first
so drift of a shared machine hits both alike.  The numbers are read from
the result line the benchmark prints last.

Printed per end-to-end metric: each side's median and quartiles, how
many pairs B won and tied (direction from ``BENCHMARK.json``), then every
run made.  A gain may be claimed when B wins at least nine tenths of the
pairs and the medians differ by more than A's inter-quartile distance.

A run whose oracles fail (``run.py`` exits 1) aborts the comparison.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def checkout(ref: str, parent: Path, name: str) -> Path:
    """The directory to run side ``name`` from."""
    if Path(ref).is_dir() and Path(ref).resolve() != REPO:
        return Path(ref).resolve()
    target = parent / name
    target.mkdir()
    if Path(ref).is_dir():  # this working tree: tracked and new files, nothing ignored
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=REPO, capture_output=True, check=True,
        ).stdout
        for path in filter(None, listed.decode().split("\0")):
            if (REPO / path).is_file():  # a deleted file is still --cached
                (target / path).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(REPO / path, target / path)
        return target
    archive = subprocess.Popen(["git", "archive", ref], cwd=REPO, stdout=subprocess.PIPE)
    unpacked = subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout)
    if archive.wait() or unpacked.returncode:
        raise SystemExit(f"cannot export {ref!r} from {REPO}")
    return target


def run_once(directory: Path, run_args: list[str]) -> dict:
    """One benchmark run; the parsed result line.  ``run.py`` exits 1
    when an oracle fails, which voids the comparison."""
    done = subprocess.run(
        ["python3", "benchmarks/e2e/run.py", *run_args],
        cwd=directory, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"benchmark failed in {directory} (exit {done.returncode})")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    extra = []
    if "--" in argv:
        extra = argv[argv.index("--") + 1:]
        argv = argv[:argv.index("--")]
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0], epilog="arguments after -- are passed to run.py"
    )
    parser.add_argument("ref_a", help="git ref or directory (the parent)")
    parser.add_argument("ref_b", help="git ref or directory (the change)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    run_args = ["--workload", args.workload, "--seed", str(args.seed), *extra]
    better = {
        metric["name"]: metric["better"]
        for metric in json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]
    }
    runs: dict[str, list[dict]] = {"A": [], "B": []}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as scratch:
        sides = {
            "A": checkout(args.ref_a, Path(scratch), "a"),
            "B": checkout(args.ref_b, Path(scratch), "b"),
        }
        for pair in range(args.pairs):
            for side in ("AB", "BA")[pair % 2]:
                runs[side].append(run_once(sides[side], run_args))
                print(f"pair {pair + 1}/{args.pairs} side {side} done", file=sys.stderr)

    print(
        f"{args.workload}, seed {args.seed}, {args.pairs} pair(s): "
        f"A = {args.ref_a}, B = {args.ref_b}"
    )
    row = "{:<12} {:<7} {:<34} {:<34} {:>6} {:>5}".format
    print(row("metric", "better", "A median (q1, q3)", "B median (q1, q3)", "B wins", "ties"))
    series = {}
    for name, direction in better.items():
        a, b = ([run["metrics"][name]["value"] for run in runs[side]] for side in "AB")
        series[name] = (a, b)
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        cells = ["{1:.6g} ({0:.6g}, {2:.6g})".format(*quartiles(values)) for values in (a, b)]
        print(row(name, direction, *cells, f"{wins}/{args.pairs}", ties))
    print("every run, in pair order:")
    for name, (a, b) in series.items():
        print(f"  {name} A: {', '.join(f'{value:.6g}' for value in a)}")
        print(f"  {name} B: {', '.join(f'{value:.6g}' for value in b)}")
    for side in "AB":
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        print(f"  {side}: {failed} failed of {attempted} attempted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
