# Developer entry points.  `make check` is the one-command gate:
# the tier-1 test suite plus a smoke run of the fault-tolerance
# benchmark, so robustness regressions surface before review.

PYTHON ?= python
PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

.PHONY: check test test-fast coverage bench-faults bench-smoke bench \
	trace-verify trace-regen profile-smoke testgen-smoke serve-smoke \
	obs-live-smoke bench-serving bench-parallel bench-index bench-dedup \
	bench-e2e-smoke bench-testgen bench-ab loc

check: test bench-faults bench-smoke bench-index bench-dedup bench-e2e-smoke \
	trace-verify profile-smoke testgen-smoke serve-smoke obs-live-smoke

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

# Re-run the seeded golden crawls and diff their event streams against
# tests/golden/*.jsonl (event-level diff on mismatch).
trace-verify:
	$(PYTHON) -m repro.obs.goldens --verify

# Rewrite the goldens after an intentional behaviour change.
trace-regen:
	$(PYTHON) -m repro.obs.goldens --regen

# Span/profile/doctor smoke: healthy crawl must diagnose clean, a
# fault-storm crawl and a skewed parallel run must be caught.
profile-smoke:
	$(PYTHON) -m repro.obs.smoke

# Conformance gate: crawl 50 generated sites against their ground
# truth and crash-fuzz the JS/DOM substrate over the pinned corpus.
testgen-smoke:
	$(PYTHON) -m repro.cli testgen conformance --seeds 0:50 --quiet
	$(PYTHON) -m repro.cli testgen fuzz --seeds 0:2000

# Serving-tier gate: boot a real HTTP server over a crawled site and
# drive the query/result/metrics/429 sequence end to end.
serve-smoke:
	$(PYTHON) -m repro.serve.smoke

# Live-telemetry gate: a seeded latency storm on a virtual clock must
# fire the slo-burn-rate doctor rule; a healthy run must stay silent.
obs-live-smoke:
	$(PYTHON) -m repro.serve.live_smoke

# Serving load benchmark: latency percentiles, RPS, cache hit rate and
# 429 counts (writes benchmarks/results/BENCH_serving.json).
bench-serving:
	$(PYTHON) -m pytest benchmarks/bench_serving.py -q --benchmark-disable

# Threads-backend scaling gate: wall-clock speedup over 1/2/4 workers
# on a real-latency site, with a loose >=1.5x floor at 4 workers
# (writes benchmarks/results/BENCH_parallel.json).
bench-parallel:
	$(PYTHON) -m pytest benchmarks/bench_parallel.py -q --benchmark-disable

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

# Segmented-index gate: mints a 100k-state corpus (REPRO_BENCH_INDEX_STATES
# scales it), builds both index backends and enforces the >=5x on-disk
# size floor, block-skipping decode floor and query-latency budgets
# (writes benchmarks/results/BENCH_index.json).  The index_parity
# differential check itself runs inside testgen-smoke.
bench-index:
	$(PYTHON) -m pytest benchmarks/bench_index.py -q --benchmark-disable

# Near-duplicate collapse gate: crawls the noisy-twin corpus with the
# banded-LSH layer off and on, and enforces the >=2x states-crawled/
# indexed floors with zero false merges (writes
# benchmarks/results/BENCH_dedup.json).  The near_dup_parity
# differential check itself runs inside testgen-smoke.
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
