# Developer entry points.  `make check` is the one-command gate: the
# tier-1 test suite (the serving, live-telemetry and profiling contracts,
# the golden traces, the 50-seed conformance corpus and the 2 000-case
# fuzz are pytest cases in it) plus the benchmark floors, so regressions
# surface before review.

PYTHON ?= python
PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: check test test-fast coverage bench-faults bench-smoke bench \
	trace-regen testgen-smoke bench-serving \
	bench-index bench-dedup bench-e2e-smoke bench-testgen bench-ab bench-record loc

check: test bench-faults bench-smoke bench-index bench-dedup bench-e2e-smoke

test:
	$(PYTHON) -m pytest -x -q

# The suite minus @pytest.mark.slow (corpus sweeps, experiment
# reproductions) — the inner-loop command while editing.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Stdlib-only line-coverage gate over src/repro/testgen/ and
# src/repro/serve/ (the container has no coverage.py); thresholds live
# in [tool.repro.coverage-gate] in pyproject.toml.
coverage:
	$(PYTHON) tools/coverage_gate.py

# Rewrite the golden traces (tests/golden/*.jsonl, which
# tests/obs/test_golden_traces.py diffs event by event) after an
# intentional behaviour change.
trace-regen:
	$(PYTHON) -m repro.obs.goldens --regen

# The conformance corpus and the fuzz corpus through the CLI (the same
# sweeps are tests/testgen cases, so `make check` runs them once, there).
testgen-smoke:
	$(PYTHON) -m repro.cli testgen conformance --seeds 0:50 --quiet
	$(PYTHON) -m repro.cli testgen fuzz --seeds 0:2000

# Serving load benchmark: latency percentiles, RPS, cache hit rate and
# 429 counts (writes benchmarks/results/BENCH_serving.json).
bench-serving:
	$(PYTHON) -m pytest benchmarks/bench_serving.py -q --benchmark-disable

bench-faults:
	$(PYTHON) -m pytest benchmarks/bench_ext_faults.py -q --benchmark-disable

# Cheap hashing-work regression gate: re-counts the Merkle hasher's
# bytes per event, which may not exceed the recorded figures, and
# enforces the >=5x reduction against the frozen seed full-rewalk
# baseline (writes benchmarks/results/BENCH_hashing.json).
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_perf_hashing.py -q --benchmark-disable

# End-to-end benchmark gate: every workload of benchmarks/e2e at smoke
# scale, with its oracles (the timed runs are `benchmarks/e2e/run.py`).
bench-e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e -q

# Parent-vs-change protocol for a performance claim: N alternating
# pairs of one benchmarks/e2e workload, medians, quartiles and wins per
# metric, every run listed.  A and B are git refs or directories, e.g.
# `make bench-ab A=HEAD B=. W=tube_crawl`.
A ?= HEAD~1
B ?= HEAD
W ?= tube_crawl
PAIRS ?= 10
bench-ab:
	$(PYTHON) tools/ab_bench.py $(A) $(B) --workload $(W) --pairs $(PAIRS)

# The trajectory: the medians of RUNS runs of every benchmarks/e2e
# workload at SEED on the tree at REF (a git ref or directory, `.` the
# working tree), one line per workload appended to
# benchmarks/results/BENCH_e2e.jsonl, then the whole file as one table
# with every metric's change against the previous commit recorded
# (`python tools/bench_report.py` prints the table alone).
REF ?= .
SEED ?= 7
RUNS ?= 3
LABEL ?=
bench-record:
	$(PYTHON) tools/bench_report.py --record $(REF) --seed $(SEED) --runs $(RUNS) --label "$(LABEL)"

# Segmented-index gate: mints a 100k-state corpus (REPRO_BENCH_INDEX_STATES
# scales it), builds both index backends and enforces the <=11 B/posting
# on-disk size floor, block-skipping decode floor and query-latency budgets
# (writes benchmarks/results/BENCH_index.json).  The index_parity
# differential check itself runs in the conformance corpus test.
bench-index:
	$(PYTHON) -m pytest benchmarks/bench_index.py -q --benchmark-disable

# Near-duplicate collapse gate: crawls the noisy-twin corpus with the
# banded-LSH layer off and on, and enforces the >=2x states-crawled/
# indexed floors with zero false merges (writes
# benchmarks/results/BENCH_dedup.json).  The near_dup_parity
# differential check itself runs in the conformance corpus test.
bench-dedup:
	$(PYTHON) -m pytest benchmarks/bench_dedup.py -q --benchmark-disable

# Generator-harness throughput gate (writes
# benchmarks/results/BENCH_testgen.json).
bench-testgen:
	$(PYTHON) -m pytest benchmarks/bench_perf_testgen.py -q --benchmark-disable

bench:
	$(PYTHON) -m pytest benchmarks -q

# Lines of Python under src/ — the number ROADMAP item 3 tracks.
loc:
	@find src -name '*.py' | xargs cat | wc -l
