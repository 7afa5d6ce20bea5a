"""Segmented-index benchmark: size, build rate, skipping, latency.

Mints a deterministic 100k-state testgen corpus (no crawling — see
``repro.testgen.corpus``), indexes it with both backends, and enforces
the PR's acceptance floors:

* the on-disk segment format is **>= 5x smaller** than the JSON
  serialization of the in-memory inverted file;
* on skewed conjunctions (one ubiquitous term, one rare marker) the
  block-max skip table decodes **fewer postings** than the full
  galloping merge touches, and skips whole blocks without decoding;
* the 100k-state build and the cold/warm query suite complete within
  asserted budgets, and the block cache demonstrably serves repeats.

Results are persisted as ``benchmarks/results/BENCH_index.json``.
``REPRO_BENCH_INDEX_STATES`` scales the corpus (default 100000) — the
corpus is a pure function of the scale knob, so any two machines
benchmark the same site.
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.search import InvertedFile, SearchEngine, SegmentedIndex
from repro.search.segments import MergeStats
from repro.testgen import corpus_models, corpus_spec

RESULT_PATH = Path(__file__).resolve().parent / "results" / "BENCH_index.json"

NUM_STATES = int(os.environ.get("REPRO_BENCH_INDEX_STATES", "100000"))

#: Acceptance floors (generous: CI boxes vary, regressions are 10x+).
MIN_SIZE_RATIO = 5.0          # JSON bytes / segment bytes
MAX_DECODE_FRACTION = 0.5     # postings decoded / postings a full merge reads
BUILD_BUDGET_S = 180.0        # 100k-state segmented build
COLD_QUERY_BUDGET_MS = 500.0  # first query on a freshly opened index
WARM_QUERY_BUDGET_MS = 250.0  # same query again, block cache hot


def _mint_corpus():
    start = time.perf_counter()
    spec = corpus_spec(NUM_STATES, seed=0)
    models = corpus_models(spec)
    mint_s = time.perf_counter() - start
    return spec, models, mint_s


def _skewed_queries(spec):
    """One ubiquitous term ("area" is in every state) joined with rare
    markers (df == 1) sampled across the corpus."""
    markers = [
        spec.pages[index].markers[0]
        for index in range(0, len(spec.pages), max(1, len(spec.pages) // 8))
    ]
    return [f"area {marker}" for marker in markers]


def index_study():
    spec, models, mint_s = _mint_corpus()
    scratch = Path(tempfile.mkdtemp(prefix="bench-index-"))
    try:
        # -- build both backends -----------------------------------------------
        start = time.perf_counter()
        memory = InvertedFile().build(models)
        memory_build_s = time.perf_counter() - start
        json_path = scratch / "index.json"
        memory.save(json_path)
        json_bytes = json_path.stat().st_size

        start = time.perf_counter()
        disk = SegmentedIndex(scratch / "segments").build(models)
        disk_build_s = time.perf_counter() - start
        disk_stats = disk.stats()
        segment_bytes = disk_stats["num_bytes"]
        size_ratio = json_bytes / segment_bytes

        # -- skewed conjunctions: block skipping vs full galloping -------------
        skewed = _skewed_queries(spec)
        skip_stats = MergeStats()
        matches = 0
        for query in skewed:
            before = disk.merge_stats.to_dict()
            matches += sum(1 for _ in disk.conjunction(query.split()))
            after = disk.merge_stats.to_dict()
            for key in before:
                setattr(
                    skip_stats, key, getattr(skip_stats, key) + after[key] - before[key]
                )
        decode_fraction = skip_stats.postings_decoded / max(1, skip_stats.postings_total)

        # -- parity spot-check at scale ----------------------------------------
        memory_engine = SearchEngine(memory)
        disk_engine = SearchEngine(disk)
        for query in skewed[:3]:
            assert memory_engine.search(query) == disk_engine.search(query), query

        # -- cold vs warm latency on a fresh reader ----------------------------
        disk.close()
        cold = SegmentedIndex.open(scratch / "segments")
        cold_engine = SearchEngine(cold)
        probe = skewed[len(skewed) // 2]
        start = time.perf_counter()
        cold_results = cold_engine.search(probe)
        cold_ms = (time.perf_counter() - start) * 1000.0
        start = time.perf_counter()
        warm_results = cold_engine.search(probe)
        warm_ms = (time.perf_counter() - start) * 1000.0
        assert cold_results == warm_results
        cache = cold.stats()["cache"]
        cold.close()

        report = {
            "num_states": NUM_STATES,
            "num_pages": len(spec.pages),
            "num_postings": disk_stats["num_postings"],
            "vocabulary": disk_stats["vocabulary"],
            "mint_s": mint_s,
            "build": {
                "memory_build_s": memory_build_s,
                "segmented_build_s": disk_build_s,
                "states_per_s": NUM_STATES / max(disk_build_s, 1e-9),
                "num_segments": disk_stats["num_segments"],
            },
            "size": {
                "json_bytes": json_bytes,
                "segment_bytes": segment_bytes,
                "ratio": size_ratio,
                "bytes_per_posting": segment_bytes / disk_stats["num_postings"],
            },
            "skewed_conjunctions": {
                "queries": skewed,
                "matches": matches,
                **skip_stats.to_dict(),
                "decode_fraction": decode_fraction,
            },
            "latency": {
                "probe": probe,
                "cold_ms": cold_ms,
                "warm_ms": warm_ms,
                "cache_hits": cache["hits"],
                "cache_misses": cache["misses"],
            },
            "thresholds": {
                "min_size_ratio": MIN_SIZE_RATIO,
                "max_decode_fraction": MAX_DECODE_FRACTION,
                "build_budget_s": BUILD_BUDGET_S,
                "cold_query_budget_ms": COLD_QUERY_BUDGET_MS,
                "warm_query_budget_ms": WARM_QUERY_BUDGET_MS,
            },
        }
        RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
        RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        return report
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def test_index_benchmark(benchmark):
    report = benchmark.pedantic(index_study, rounds=1, iterations=1)
    size = report["size"]
    print(
        f"[index] {report['num_states']} states: json {size['json_bytes']} B, "
        f"segments {size['segment_bytes']} B ({size['ratio']:.1f}x smaller, "
        f"{size['bytes_per_posting']:.1f} B/posting)"
    )
    skew = report["skewed_conjunctions"]
    print(
        f"[index] skewed conjunctions: decoded {skew['postings_decoded']} of "
        f"{skew['postings_total']} postings "
        f"({skew['decode_fraction']:.3%}), skipped {skew['blocks_skipped']} blocks"
    )
    latency = report["latency"]
    print(
        f"[index] cold {latency['cold_ms']:.1f} ms, warm {latency['warm_ms']:.1f} ms "
        f"(cache {latency['cache_hits']} hits / {latency['cache_misses']} misses)"
    )
    # Floor 1: the segment format beats JSON by >= 5x on disk.
    assert size["ratio"] >= MIN_SIZE_RATIO, size
    # Floor 2: block skipping decodes (far) fewer postings than the full
    # galloping merge materializes, and skips whole blocks undecoded.
    assert skew["postings_decoded"] < skew["postings_total"], skew
    assert skew["decode_fraction"] <= MAX_DECODE_FRACTION, skew
    assert skew["blocks_skipped"] > 0, skew
    # Every skewed query found exactly its marker's state.
    assert skew["matches"] == len(skew["queries"]), skew
    # Floor 3: build + query budgets at the 100k scale.
    assert report["build"]["segmented_build_s"] <= BUILD_BUDGET_S, report["build"]
    assert latency["cold_ms"] <= COLD_QUERY_BUDGET_MS, latency
    assert latency["warm_ms"] <= WARM_QUERY_BUDGET_MS, latency
    # The warm query was actually served from the block cache.
    assert latency["cache_hits"] > 0, latency
