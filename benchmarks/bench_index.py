"""Segmented-index benchmark: size, build rate, skipping, latency.

Mints a deterministic 100k-state testgen corpus (no crawling — see
``repro.testgen.corpus``), indexes it with both backends, and enforces
the PR's acceptance floors:

* the on-disk segment format is **>= 5x smaller** than the JSON
  serialization of the in-memory inverted file;
* on skewed conjunctions (one ubiquitous term, one rare marker) the
  block-max skip table decodes **fewer postings** than the lists
  hold (what a merge without skip entries reads), and skips whole
  blocks without decoding — the one floor on the skip discipline of
  ``merge_conjunction_blocks``, the only conjunction there is;
* the 100k-state build and the cold/warm query suite complete within
  asserted budgets, and the block cache demonstrably serves repeats;
* **maintenance** — read, write and space of a re-crawl together: the
  p50 of an ``update_model``, the segment bytes it writes, the dead/live
  state ratio the updates leave before compaction, and the same queries
  on one segment holding tombstones and on that segment purged (floors
  10x loose: they catch a removal that rewrites again, not a slow box).

* **rank** — top-10 ms, and matches completed of matches found, for a
  single-term broad, a two-term broad and a ``word`` query: what the
  score bound spares a served page (floor 10x loose: it catches a
  ranking that completes every match again, not a slow box).

Results are persisted as ``benchmarks/results/BENCH_index.json``.
``REPRO_BENCH_INDEX_STATES`` scales the corpus (default 100000) — the
corpus is a pure function of the scale knob, so any two machines
benchmark the same site.
"""

import json
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from repro.search import InvertedFile, SearchEngine, SegmentedIndex
from repro.search.query import parse_query
from repro.search.segments import MergeStats
from repro.testgen import WORD_CORPUS, corpus_models, corpus_spec

RESULT_PATH = Path(__file__).resolve().parent / "results" / "BENCH_index.json"

NUM_STATES = int(os.environ.get("REPRO_BENCH_INDEX_STATES", "100000"))

#: Acceptance floors (generous: CI boxes vary, regressions are 10x+).
MIN_SIZE_RATIO = 5.0          # JSON bytes / segment bytes
MAX_DECODE_FRACTION = 0.5     # postings decoded / postings a full merge reads
BUILD_BUDGET_S = 180.0        # 100k-state segmented build
COLD_QUERY_BUDGET_MS = 500.0  # first query on a freshly opened index
WARM_QUERY_BUDGET_MS = 250.0  # same query again, block cache hot
UPDATE_BUDGET_MS = 400.0      # p50 of one update_model (10x the <=40 ms it was built for)
MAX_WRITE_FRACTION = 0.1      # segment bytes one update writes / segment bytes of the index
MAX_TOMBSTONE_SLOWDOWN = 10.0 # query ms on a tombstoned segment / on the same, purged
MAX_COMPLETED_FRACTION = 0.1  # matches completed / matches, top 10 of a one-term query (10x the <=1% measured)

#: Pages re-crawled by the maintenance lane, spread over the corpus.
MAINTENANCE_UPDATES = 12


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


def _segment_files(path: Path) -> dict[str, int]:
    return {entry.name: entry.stat().st_size for entry in path.glob("seg-*.seg")}


def _suite_ms(index, queries, repeats) -> float:
    """Best-of-``repeats`` ms to search (match and rank) the whole query
    suite, block cache warm."""
    engine = SearchEngine(index)
    best = float("inf")
    for _ in range(repeats + 1):
        start = time.perf_counter()
        for query in queries:
            engine.search(query)
        best = min(best, (time.perf_counter() - start) * 1000.0)
    return best


def rank_study(index) -> dict:
    """Top-10 of one query per shape: best-of-5 ms, and how many of the
    matches the engine completed (proximity, entry) to be sure of it."""
    engine = SearchEngine(index)
    lanes = {}
    for lane, query in (("broad", "area"), ("broad_pair", "area state"), ("word", WORD_CORPUS[0])):
        terms = parse_query(query)
        idfs = [index.idf(term) for term in terms]
        matches, completed, _ = engine.select(terms, idfs, engine.weights, 10)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            engine.top(query, 10)
            best = min(best, (time.perf_counter() - start) * 1000.0)
        lanes[lane] = {
            "query": query,
            "top10_ms": best,
            "matches": matches,
            "completed": completed,
            "completed_fraction": completed / max(1, matches),
        }
    return lanes


def maintenance_study(path: Path, spec, models, skewed) -> dict:
    """Re-crawl ``MAINTENANCE_UPDATES`` pages of the built index, then
    put the same live content on one segment twice — tombstoned, purged
    — and run the same queries on both."""
    index = SegmentedIndex.open(path)
    try:
        pages = len(models)
        updated = [
            (k * pages) // MAINTENANCE_UPDATES + pages // (2 * MAINTENANCE_UPDATES)
            for k in range(MAINTENANCE_UPDATES)
        ]
        update_ms, written = [], []
        for page in updated:
            before = _segment_files(path)
            start = time.perf_counter()
            index.update_model(models[page])
            update_ms.append((time.perf_counter() - start) * 1000.0)
            after = _segment_files(path)
            written.append(sum(size for name, size in after.items() if name not in before))
        stats = index.stats()
        dead, live = stats["dead_states"], stats["num_states"]

        # One segment, the re-crawled pages' first selves purged; then
        # retire as many other pages in it, query, purge those, query.
        index.compact_all()
        probed = {query.split()[1] for query in skewed}
        retired = [
            models[page + 1].url for page in updated
            if not probed & set(spec.pages[page + 1].markers)
        ]
        removed = index.remove_urls(retired)
        assert index.num_segments == 1 and index.stats()["dead_states"] == removed > 0
        broad = ["area"]
        # A skewed suite is a fifth of a millisecond, a broad query a
        # quarter of a second: repeats to match.
        tombstoned = {"skewed": _suite_ms(index, skewed, 50), "broad": _suite_ms(index, broad, 5)}
        rows_tombstoned = [list(index.conjunction(query.split())) for query in skewed + broad]
        assert index.compact_all() == 1 and index.stats()["dead_states"] == 0
        purged = {"skewed": _suite_ms(index, skewed, 50), "broad": _suite_ms(index, broad, 5)}
        assert [list(index.conjunction(query.split())) for query in skewed + broad] == rows_tombstoned
        return {
            "updates": len(updated),
            "update_p50_ms": statistics.median(update_ms),
            "update_max_ms": max(update_ms),
            "segment_bytes_written_per_update": statistics.median(written),
            "segment_bytes_written_max": max(written),
            "dead_states_before_compaction": dead,
            "live_states": live,
            "dead_per_live": dead / live,
            "retired_for_the_probe": removed,
            "skewed_tombstoned_ms": tombstoned["skewed"],
            "skewed_purged_ms": purged["skewed"],
            "skewed_tombstoned_per_purged": tombstoned["skewed"] / purged["skewed"],
            "broad_tombstoned_ms": tombstoned["broad"],
            "broad_purged_ms": purged["broad"],
            "broad_tombstoned_per_purged": tombstoned["broad"] / purged["broad"],
        }
    finally:
        index.close()


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

        # -- skewed conjunctions: postings decoded vs postings held -------------
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

        # -- ranking: what a page of ten completes ----------------------------
        rank = rank_study(disk)

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

        # -- maintenance: updates, the space they leave, reads over it ---------
        maintenance = maintenance_study(scratch / "segments", spec, models, skewed)

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
            "rank": rank,
            "maintenance": maintenance,
            "thresholds": {
                "max_completed_fraction": MAX_COMPLETED_FRACTION,
                "update_budget_ms": UPDATE_BUDGET_MS,
                "max_write_fraction": MAX_WRITE_FRACTION,
                "max_tombstone_slowdown": MAX_TOMBSTONE_SLOWDOWN,
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
    for lane, rank in report["rank"].items():
        print(
            f"[index] rank {lane} {rank['query']!r}: top 10 in {rank['top10_ms']:.2f} ms, "
            f"completed {rank['completed']} of {rank['matches']} matches"
        )
    upkeep = report["maintenance"]
    print(
        f"[index] update_model p50 {upkeep['update_p50_ms']:.1f} ms (max "
        f"{upkeep['update_max_ms']:.1f}), {upkeep['segment_bytes_written_per_update']:.0f} "
        f"segment B written per update; {upkeep['dead_states_before_compaction']} dead / "
        f"{upkeep['live_states']} live states before compaction"
    )
    print(
        f"[index] tombstoned vs purged segment: skewed {upkeep['skewed_tombstoned_ms']:.2f} / "
        f"{upkeep['skewed_purged_ms']:.2f} ms ({upkeep['skewed_tombstoned_per_purged']:.2f}x), "
        f"broad {upkeep['broad_tombstoned_ms']:.1f} / {upkeep['broad_purged_ms']:.1f} ms "
        f"({upkeep['broad_tombstoned_per_purged']:.2f}x)"
    )
    # Floor 1: the segment format beats JSON by >= 5x on disk.
    assert size["ratio"] >= MIN_SIZE_RATIO, size
    # Floor 2: block skipping decodes (far) fewer postings than the
    # lists hold, and skips whole blocks undecoded.
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
    # Floor 4: an update costs a page, not a segment — in time and in
    # bytes — and reading around tombstones costs a mask, not a rewrite.
    assert upkeep["update_p50_ms"] <= UPDATE_BUDGET_MS, upkeep
    assert upkeep["segment_bytes_written_per_update"] <= MAX_WRITE_FRACTION * size["segment_bytes"], upkeep
    assert upkeep["skewed_tombstoned_per_purged"] <= MAX_TOMBSTONE_SLOWDOWN, upkeep
    assert upkeep["broad_tombstoned_per_purged"] <= MAX_TOMBSTONE_SLOWDOWN, upkeep
    # Floor 5: a page of ten completes a sliver of a one-term query's
    # matches.  The two-term broad lane is recorded, not floored: T = 2/3
    # on every state of this corpus, so its bound prunes nothing.
    for lane in ("broad", "word"):
        assert report["rank"][lane]["completed_fraction"] <= MAX_COMPLETED_FRACTION, report["rank"]
