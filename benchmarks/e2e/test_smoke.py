"""Smoke test of the e2e benchmark (not part of the tier-1 test paths).

    python -m pytest benchmarks/e2e -q

Runs every workload at ``--scale smoke`` and checks the benchmark's own
contract: every metric BENCHMARK.json names is reported with its unit,
exact counts repeat for a seed and move with it, and a broken oracle is
counted as a failure.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Per-layer metrics that are counts of work, not timings.
EXACT_UNITS = ("count", "bytes")
TIMING_RATIOS = ("obs.trace_overhead_ratio", "search.segmented_vs_memory_build_ratio")


def smoke(name, seed, trace):
    return run.run_workload(name, seed, seconds=0, trace=trace, scale="smoke")


@pytest.fixture(scope="module")
def results():
    """``(workload, seed, trace, attempt) -> result`` of every smoke run."""
    return {
        (name, seed, trace, attempt): smoke(name, seed, trace)
        for name in run.WORKLOAD_NAMES
        for trace in (0, 1)
        for seed, attempt in ((7, 0), (7, 1), (8, 0))
    }


def exact_counts(results, name, seed, attempt):
    """Every exact-count metric of a workload's end-to-end and traced run."""
    counts = {"work_cost": results[name, seed, 0, attempt]["metrics"]["work_cost"]["value"]}
    for metric, entry in results[name, seed, 1, attempt]["metrics"].items():
        exact_ratio = entry["unit"] == "ratio" and metric not in TIMING_RATIOS
        if entry["unit"] in EXACT_UNITS or exact_ratio:
            counts[metric] = entry["value"]
    return counts


def test_metric_names_are_plain():
    names = [m["name"] for m in run.SPEC["end_to_end"] + run.SPEC["per_layer"] + run.SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)


def test_every_workload_passes_its_oracles(results):
    for key, result in results.items():
        assert result["failed"] == 0, (key, result["failures"])
        assert result["attempted"] >= 1


def test_end_to_end_metrics_on_every_workload(results):
    for name in run.WORKLOAD_NAMES:
        metrics = results[name, 7, 0, 0]["metrics"]
        assert set(metrics) == set(run.END_TO_END)
        for metric, entry in metrics.items():
            assert entry["unit"] == run.END_TO_END[metric]["unit"]
            assert entry["value"] > 0, (name, metric)


def test_every_per_layer_metric_has_a_workload(results):
    reported = {
        name: set(results[name, 7, 1, 0]["metrics"]) for name in run.WORKLOAD_NAMES
    }
    assert set().union(*reported.values()) == set(run.PER_LAYER)
    # The two crawls split by the same layers; write and read side of the
    # index share none.
    assert reported["tube_crawl"] == reported["deep_crawl"]
    assert reported["index_write"] & reported["serve_uncached"] == {"obs.trace_overhead_ratio"}
    for name in run.WORKLOAD_NAMES:
        for metric, entry in results[name, 7, 1, 0]["metrics"].items():
            assert entry["unit"] == run.PER_LAYER[metric]["unit"]


def test_exact_counts_repeat_for_a_seed_and_move_with_it(results):
    for name in run.WORKLOAD_NAMES:
        first = exact_counts(results, name, 7, 0)
        assert first == exact_counts(results, name, 7, 1), name
        assert first != exact_counts(results, name, 8, 0), name


def test_broken_oracle_is_counted(monkeypatch, capsys):
    monkeypatch.setitem(workloads.PINNED_TUBE_STATES, ("smoke", 7), -1)
    code = run.main(["--workload", "tube_crawl", "--scale", "smoke", "--seconds", "0"])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert line["failed"] >= 1 and line["correct"] is False


def test_command_line_prints_metrics_and_result_line():
    for trace, catalogue in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "deep_crawl", "--seed", "3",
             "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
            capture_output=True, text=True, check=True,
        )
        lines = child.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == set(catalogue)
        printed = {tuple(line.split()[:2]): line.split()[3] for line in lines[:-1] if line[0] != "#"}
        for metric, entry in result["metrics"].items():
            assert entry["unit"] == catalogue[metric]["unit"]
            if ("deep_crawl", metric) in printed:
                assert printed["deep_crawl", metric] == entry["unit"]
        assert ("deep_crawl", "failed_share") in printed


def test_all_workloads_report_compare_and_history(tmp_path):
    out, history = tmp_path / "a.json", tmp_path / "history.jsonl"
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke", "--seconds", "0",
         "--traced", "--out", str(out), "--history", str(history)],
        capture_output=True, text=True, check=True,
    )
    report = json.loads(out.read_text())
    for name in run.WORKLOAD_NAMES:
        assert len(report["workloads"][name]["runs"]) == 1
        assert len(report["workloads"][name]["traced"]) == 1
        assert f"{name} obs.trace_overhead_ratio" in child.stdout
    (entry,) = [json.loads(line) for line in history.read_text().splitlines()]
    assert {"git_sha", "seed", "nproc", "python", "loadavg"} <= set(entry)
    assert set(entry["metrics"]) == set(run.WORKLOAD_NAMES)
    rows = compare.compare(report, report, run.SPEC)
    assert len(rows) == len(run.WORKLOAD_NAMES) * len(run.END_TO_END)
    assert {row["verdict"] for row in rows} <= {"same", "unresolved"}
    assert compare.verdict((9, 10, 11, 9, 11), (19, 20, 21, 19, 21), "lower", 0.1)[1] == "worse"
    assert compare.verdict((9, 10, 11, 9, 11), (4, 5, 6, 4, 6), "lower", 0.25)[1] == "better"
