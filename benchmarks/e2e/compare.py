"""Compare two result files of ``run.py --out``.

    python benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians with their
quartiles, the relative change of B against A, the bound from
BENCHMARK.json, and a verdict:

* ``worse``      B's median is worse than A's by more than the bound;
* ``unresolved`` the run-to-run spread is wider than the bound and the
                 two sets of runs overlap, so the row proves nothing;
* ``better``     every run of B beats every run of A and the medians
                 differ by more than A's own spread;
* ``same``       anything else.

Quartiles are taken over the file's runs (``run.py --runs N``); a file
with one run per workload falls back to that run's quartiles over its
repetitions.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def summarize(runs: list[dict], metric: str) -> tuple[float, float, float, float, float]:
    """``(q1, median, q3, low, high)`` of one metric over a file's runs."""
    entries = [run["metrics"][metric] for run in runs]
    values = [entry["value"] for entry in entries]
    if len(values) == 1:
        only = entries[0]
        q1, q3 = only.get("q1", only["value"]), only.get("q3", only["value"])
        return q1, only["value"], q3, min(q1, q3), max(q1, q3)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, min(values), max(values)


def verdict(a: tuple, b: tuple, better: str, bound: float) -> tuple[float, str]:
    """``(relative change, verdict)``; a positive change is a worsening."""
    a_q1, a_median, a_q3, a_low, a_high = a
    b_q1, b_median, b_q3, b_low, b_high = b
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b_median - a_median) / a_median
    spread = max(a_q3 - a_q1, b_q3 - b_q1) / a_median
    overlap = b_low <= a_high and a_low <= b_high
    if spread > bound and overlap:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < 0 and not overlap and -change > (a_q3 - a_q1) / a_median:
        return change, "better"
    return change, "same"


def compare(a_report: dict, b_report: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        a_runs = a_report["workloads"].get(workload, {}).get("runs")
        b_runs = b_report["workloads"].get(workload, {}).get("runs")
        if not a_runs or not b_runs:
            continue
        for metric in spec["end_to_end"]:
            a = summarize(a_runs, metric["name"])
            b = summarize(b_runs, metric["name"])
            change, outcome = verdict(a, b, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": a[:3],
                    "b": b[:3],
                    "change": change,
                    "bound": metric["bound"],
                    "verdict": outcome,
                }
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    a_report, b_report = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(a_report, b_report, spec)
    print(
        f"{'workload':15s} {'metric':12s} {'A median [q1, q3]':>34s} "
        f"{'B median [q1, q3]':>34s} {'worse by':>9s} {'bound':>6s}  verdict"
    )
    for row in rows:
        a = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*row["a"])
        b = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*row["b"])
        print(
            f"{row['workload']:15s} {row['metric']:12s} {a:>34s} {b:>34s} "
            f"{row['change']:+9.1%} {row['bound']:6.0%}  {row['verdict']} ({row['unit']})"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
