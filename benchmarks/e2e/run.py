"""One wall-clock benchmark of crawl -> index -> uncached serving.

    python benchmarks/e2e/run.py                       # every workload, end to end
    python benchmarks/e2e/run.py --traced              # ... plus the per-layer split
    python benchmarks/e2e/run.py --workload deep_crawl --seed 8 --seconds 15 --trace 0

Every metric is printed as ``workload metric value unit``.  With
``--workload`` the run happens in this process and the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); without it each workload runs in a fresh
subprocess of this same file, so peak RSS and module-level memos are
per workload, and the run is appended to ``results/history.jsonl``.

End-to-end metrics are measured with tracing off, as the median over
the repetitions that fit the time box; times are wall clock corrected
to a reference machine speed (measure.py says why and how).  ``--trace
1`` alternates untraced and traced repetitions instead and reports the
per-layer metrics and the tracing overhead; spans stay in memory until
timing has ended.  README.md has the metric catalogue and the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
import measure  # noqa: E402

try:
    with measure.Timer() as _import_timer:
        import workloads
        from repro.obs import MemorySink, Recorder, to_jsonl
except ImportError as error:  # the program under test is not in this checkout
    sys.exit(f"benchmarks/e2e: cannot import the program under test: {error}")
#: Importing the program, at reference speed (interpreter start-up is not in here).
IMPORT_S = _import_timer.s

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [workload["name"] for workload in SPEC["workloads"]]
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}
HISTORY = HERE / "results" / "history.jsonl"

#: ``setup_s`` is import time plus the median of up to this many set-ups;
#: none is started once set-up has taken SETUP_BUDGET_S in all.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 3.0


def measure_untraced(workload, seconds: float) -> dict:
    """Repeat the measured section while the time box has room; report
    each metric's median over the repetitions (times are at reference
    speed, see measure.py), with quartiles and sample count beside it.

    Noise guard: a repetition whose first and last probe differ by more
    than 10% is flagged noisy.  It is not discarded: the box is filled
    with repetitions either way, and its time is corrected slice by
    slice like any other; the run reports how many were flagged.
    """
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(workload.repetition())
    metrics = {}
    for name in reps[0].metrics:
        q1, median, q3 = measure.quartiles([rep.metrics[name] for rep in reps])
        metrics[name] = {"value": median, "q1": q1, "q3": q3, "n": len(reps)}
    return {
        "metrics": metrics,
        "repetitions": len(reps),
        "noisy": sum(rep.pace.noisy for rep in reps),
        "rep_raw_s": [rep.pace.raw_s for rep in reps],
        "rep_reference_s": [rep.pace.s for rep in reps],
        "calib_ms": [statistics.median(rep.pace.probes_ms) for rep in reps],
    }


def measure_traced(workload, seconds: float) -> dict:
    """Alternate untraced and traced repetitions for ``seconds``.

    Spans go to a memory sink; they are aggregated, and the last
    repetition's are written out, only after timing has ended.  Span
    times are raw wall clock, scaled by their repetition's correction.
    """
    untraced_s, traced_s, layer_runs = [], [], []
    start = time.perf_counter()
    while not layer_runs or time.perf_counter() - start < seconds:
        untraced_s.append(workload.repetition().pace.s)
        recorder = Recorder(sink=MemorySink(), spans=True, wall_clock=True)
        rep = workload.repetition(recorder)
        traced_s.append(rep.pace.s)
        correction = rep.pace.s / rep.pace.raw_s
        spans = {
            kind: (ms * correction, count)
            for kind, (ms, count) in measure.span_self_ms(recorder.events).items()
        }
        layer_runs.append(workload.layers(rep, spans))
    layers = {
        name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]
    }
    layers.update(workload.replay())
    layers["obs.trace_overhead_ratio"] = statistics.median(traced_s) / statistics.median(
        untraced_s
    )
    trace_path = workloads.work_dir() / f"{workload.name}.trace.jsonl"
    trace_path.write_text(to_jsonl(recorder.events), encoding="utf-8")
    return {
        "metrics": {name: {"value": value, "n": len(layer_runs)} for name, value in layers.items()},
        "repetitions": len(layer_runs),
        "rep_reference_s": traced_s,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def pin_to_one_cpu() -> None:
    """Keep every thread of this process on one CPU.

    The load is a closed loop: the client and the server thread of
    ``serve_uncached`` never run at the same time.  On two CPUs each
    hand-off wakes an idle virtual CPU, which on a shared host costs
    anything from microseconds to half a millisecond; on one CPU it is
    a context switch.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(name: str, seed: int, seconds: float, trace: int, scale: str = "full") -> dict:
    """Set up, measure and check one workload in this process."""
    pin_to_one_cpu()
    workload = workloads.WORKLOADS[name](seed, scale)
    try:
        setup_s = []
        while len(setup_s) < (1 if trace else SETUP_REPEATS) and sum(setup_s) < SETUP_BUDGET_S:
            with measure.Timer() as timer:
                workload.setup()
            setup_s.append(timer.s)
        workload.warm_up()
        result = (measure_traced if trace else measure_untraced)(workload, seconds)
        workload.check()
    finally:
        workload.close()
    catalogue = PER_LAYER if trace else END_TO_END
    if not trace:
        result["metrics"]["setup_s"] = {
            "value": IMPORT_S + statistics.median(setup_s),
            "n": len(setup_s),
        }
        result["metrics"]["peak_rss_mb"] = {"value": measure.peak_rss_mb(), "n": 1}
    for metric_name, entry in result["metrics"].items():
        entry["unit"] = catalogue[metric_name]["unit"]
    oracle = workload.oracle
    result.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        scale=scale,
        attempted=oracle.attempted,
        failed=len(oracle.failures),
        failures=sorted(set(oracle.failures))[:20],
    )
    return result


def print_metrics(result: dict) -> None:
    for name, entry in result["metrics"].items():
        print(f"{result['workload']} {name} {entry['value']:.6g} {entry['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"{result['workload']} failed_share {share:.6g} ratio")
    if not result["trace"]:
        speed = sum(result["rep_reference_s"]) / sum(result["rep_raw_s"])
        print(
            f"# {result['workload']}: {result['repetitions']} repetition(s), "
            f"{result['noisy']} flagged noisy; times are at reference speed, "
            f"{speed:.3f} of the wall clock here"
        )
    for failure in result["failures"]:
        print(f"# {result['workload']} FAILED: {failure}", file=sys.stderr)


def driver_line(result: dict) -> str:
    """The contract's result object.  A per-layer metric a workload does
    not exercise reads 0: that layer did no work there."""
    catalogue = PER_LAYER if result["trace"] else END_TO_END
    metrics = {
        name: {"value": result["metrics"].get(name, {"value": 0.0})["value"], "unit": spec["unit"]}
        for name, spec in catalogue.items()
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_all(args) -> int:
    """Each workload in a fresh subprocess; collect, write, append history."""
    report = {
        "meta": {
            "git_sha": git_sha(),
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "runs": args.runs,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg": list(os.getloadavg()),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "workloads": {name: {"runs": [], "traced": []} for name in WORKLOAD_NAMES},
    }
    failed = 0
    passes = [(0, "runs")] * args.runs + ([(1, "traced")] if args.traced else [])
    with tempfile.TemporaryDirectory(prefix="results-", dir=workloads.work_dir()) as scratch:
        for name in WORKLOAD_NAMES:
            for trace, key in passes:
                out = Path(scratch) / "result.json"
                out.unlink(missing_ok=True)
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--scale", args.scale, "--out", str(out),
                ]
                child = subprocess.run(command, capture_output=True, text=True)
                sys.stderr.write(child.stderr)
                if not out.exists():
                    print(f"# {name}: run failed with exit code {child.returncode}", file=sys.stderr)
                    failed += 1
                    continue
                result = json.loads(out.read_text(encoding="utf-8"))
                print_metrics(result)
                failed += result["failed"]
                report["workloads"][name][key].append(result)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    history = {
        **report["meta"],
        "metrics": {
            name: {
                metric: statistics.median(run["metrics"][metric]["value"] for run in entry["runs"])
                for metric in END_TO_END
            }
            for name, entry in report["workloads"].items()
            if entry["runs"]
        },
        "failed": failed,
    }
    with Path(args.history).open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(history) + "\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="run only this one, in process")
    parser.add_argument("--seed", type=int, default=7, help="site, corpus and query-mix seed")
    parser.add_argument(
        "--seconds", type=float, default=SPEC["run_seconds"],
        help="time box of the measured section; repetitions are atomic, at least one runs",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--runs", type=int, default=1, help="end-to-end runs per workload")
    parser.add_argument("--out", help="write the detailed result as JSON to this file")
    parser.add_argument(
        "--history", default=str(HISTORY), help="append all-workload runs to this JSONL file"
    )
    args = parser.parse_args(argv)
    args.traced = args.traced or bool(args.trace)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, int(args.traced), args.scale)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_metrics(result)
    print(driver_line(result))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
