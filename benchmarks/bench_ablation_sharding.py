"""Ablation (DESIGN.md §5.4) — merge-time global idf in sharded search.

Confirms the §6.5.2 design: sharded query shipping with merge-time idf
recombination reproduces single-index scores *exactly*, for any shard
count; and shows what breaks when shards use their local idf instead.
"""

import math

import pytest

from repro.experiments import datasets
from repro.experiments.exp_query import workload_queries
from repro.experiments.harness import emit, format_table
from repro.parallel import ShardedSearchEngine
from repro.search import SearchEngine


def run_ablation(num_videos: int = 120, shard_counts=(1, 2, 4, 8)):
    crawled = datasets.crawl_ajax(num_videos)
    single = SearchEngine.build(crawled.models)
    queries = [q.text for q in workload_queries()[:20]]
    rows = []
    for shards in shard_counts:
        partitions = [crawled.models[i::shards] for i in range(shards)]
        partitions = [p for p in partitions if p]
        sharded = ShardedSearchEngine.build(partitions)
        max_score_error = 0.0
        order_mismatches = 0
        for query in queries:
            mine = sharded.search(query)
            reference = single.search(query)
            if [(r.uri, r.state_id) for r in mine] != [
                (r.uri, r.state_id) for r in reference
            ]:
                order_mismatches += 1
            for a, b in zip(mine, reference):
                max_score_error = max(max_score_error, abs(a.score - b.score))
        # Local-idf variant: score each shard independently and merge
        # naively (what §6.5.2 warns against).
        local_idf_error = _local_idf_error(partitions, single, queries)
        rows.append((shards, max_score_error, order_mismatches, local_idf_error))
    return rows


def _local_idf_error(partitions, single, queries):
    engines = [SearchEngine.build(p) for p in partitions]
    worst = 0.0
    for query in queries:
        reference = {
            (r.uri, r.state_id): r.score for r in single.search(query)
        }
        for engine in engines:
            for result in engine.search(query):
                expected = reference.get((result.uri, result.state_id))
                if expected is not None:
                    worst = max(worst, abs(result.score - expected))
    return worst


def test_ablation_sharding(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    table_rows = [
        (shards, f"{err:.2e}", mismatches, f"{local_err:.2e}")
        for shards, err, mismatches, local_err in rows
    ]
    emit(
        "ablation_sharding",
        format_table(
            ["Shards", "Max score error (global idf)", "Order mismatches", "Max error (local idf)"],
            table_rows,
            title="Ablation: merge-time global idf vs local idf",
        ),
    )
    for shards, err, mismatches, local_err in rows:
        assert err == 0.0, f"{shards} shards: global-idf merge must be exact"
        assert mismatches == 0
    # With more than one shard, local idf diverges from the true ranking.
    multi_shard = [r for r in rows if r[0] > 1]
    assert any(local_err > 1e-6 for _, _, _, local_err in multi_shard)
