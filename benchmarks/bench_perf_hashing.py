"""Hashing-work benchmark: Merkle incremental hashing vs the seed full rewalk.

Crawls the webmail and youtube corpora and compares the hashing work
booked in the ``crawl.hash_*`` registry counters against the seed's
full-rewalk crawl of the same corpora, whose counters are frozen below
(the crawler no longer has that mode).  A query suite over the crawled
corpus then times the engine end to end.  Results are persisted as
``benchmarks/results/BENCH_hashing.json``.

There is no merge lane here any more: the ``Posting``-level galloping
merge it timed against a linear one is deleted, and the skip discipline
of the merge that runs, ``merge_conjunction_blocks``, is floored where
it is measured at scale — the block-skipping decode floor of
``benchmarks/bench_index.py``.

Hashed bytes are deterministic counted work, so ``make bench-smoke`` /
``make check`` gate them exactly: bytes per event may not exceed the
recorded Merkle figures, which keeps the >=5x reduction on webmail.
"""

import json
import time
from pathlib import Path

from repro.clock import CostModel, SimClock
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.dom import clear_digest_memo
from repro.search.engine import SearchEngine
from repro.sites import SiteConfig, SyntheticWebmail, SyntheticYouTube

RESULT_PATH = Path(__file__).resolve().parent / "results" / "BENCH_hashing.json"

#: Acceptance threshold: hashed bytes per event on the webmail corpus
#: must drop by at least this factor vs the seed full-rewalk baseline.
MIN_BYTES_REDUCTION = 5.0

YOUTUBE_VIDEOS = 8

#: The seed's full-rewalk crawl of these corpora (two state walks plus a
#: region walk per event, re-parse on rollback), measured before that
#: mode was deleted and kept here as the frozen baseline.
SEED_BASELINE = {
    "webmail": {"events_invoked": 9, "hash_nodes_hashed": 1349, "hash_bytes_hashed": 32232},
    "youtube": {"events_invoked": 4, "hash_nodes_hashed": 3401, "hash_bytes_hashed": 95558},
}

#: Regression ceilings: the Merkle hasher's recorded bytes per event.
MAX_BYTES_PER_EVENT = {"webmail": 524.3, "youtube": 10353.3}

_COUNTERS = (
    "events_invoked",
    "hash_nodes_hashed",
    "hash_nodes_skipped",
    "hash_bytes_hashed",
    "hash_full_passes",
    "hash_incremental_passes",
)


def _corpus(name):
    if name == "webmail":
        site = SyntheticWebmail()
        return site, [site.inbox_url]
    site = SyntheticYouTube(SiteConfig(num_videos=YOUTUBE_VIDEOS, seed=7))
    return site, [site.video_url(i) for i in range(YOUTUBE_VIDEOS)]


def _crawl(name):
    clear_digest_memo()  # each corpus starts cold: no cross-run hashing credit
    site, urls = _corpus(name)
    crawler = AjaxCrawler(
        site, CrawlerConfig(), clock=SimClock(), cost_model=CostModel()
    )
    start = time.perf_counter()
    result = crawler.crawl(urls)
    wall_ms = (time.perf_counter() - start) * 1000.0
    registry = result.report.registry
    record = {key: registry.counter(f"crawl.{key}") for key in _COUNTERS}
    events = record["events_invoked"] or 1
    record["bytes_per_event"] = record["hash_bytes_hashed"] / events
    record["crawl_wall_ms"] = wall_ms
    return record, result.models


def _query_suite(models):
    """Multi-term conjunctions over the crawled corpus, through the engine."""
    engine = SearchEngine.build(models)
    index = engine.index
    by_frequency = sorted(
        index.terms(), key=lambda term: (-index.document_frequency(term), term)
    )
    frequent = by_frequency[:4]
    rare = by_frequency[len(by_frequency) // 2 : len(by_frequency) // 2 + 4]
    queries = [
        " ".join(frequent[:2]),
        " ".join(frequent[:3]),
        f"{frequent[0]} {rare[0]}",
        f"{frequent[1]} {frequent[2]} {rare[1]}",
        " ".join(rare[:2]),
    ]
    start = time.perf_counter()
    total_results = sum(len(engine.search(query)) for query in queries)
    engine_wall_ms = (time.perf_counter() - start) * 1000.0

    return {
        "queries": queries,
        "total_results": total_results,
        "engine_wall_ms": engine_wall_ms,
    }


def hashing_study():
    corpora = {}
    merkle_models = []
    for name in ("webmail", "youtube"):
        seed = SEED_BASELINE[name]
        baseline = {
            **seed,
            "bytes_per_event": seed["hash_bytes_hashed"] / seed["events_invoked"],
        }
        merkle, models = _crawl(name)
        merkle_models.extend(models)
        corpora[name] = {
            "baseline": baseline,
            "merkle": merkle,
            "max_bytes_per_event": MAX_BYTES_PER_EVENT[name],
            "bytes_reduction_factor": baseline["bytes_per_event"]
            / max(merkle["bytes_per_event"], 1e-9),
            "nodes_reduction_factor": baseline["hash_nodes_hashed"]
            / max(merkle["hash_nodes_hashed"], 1),
        }
    report = {
        "corpora": corpora,
        "query_suite": _query_suite(merkle_models),
        "threshold": {
            "min_bytes_reduction": MIN_BYTES_REDUCTION,
            "webmail_bytes_reduction": corpora["webmail"]["bytes_reduction_factor"],
            "passed": corpora["webmail"]["bytes_reduction_factor"]
            >= MIN_BYTES_REDUCTION,
        },
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def test_hashing_benchmark(benchmark):
    report = benchmark.pedantic(hashing_study, rounds=1, iterations=1)
    for name, corpus in report["corpora"].items():
        print(
            f"[{name}] bytes/event: {corpus['baseline']['bytes_per_event']:.0f} -> "
            f"{corpus['merkle']['bytes_per_event']:.0f} "
            f"({corpus['bytes_reduction_factor']:.1f}x)"
        )
        merkle, baseline = corpus["merkle"], corpus["baseline"]
        # Same crawl as the frozen baseline, and no more hashing than recorded.
        assert merkle["events_invoked"] == baseline["events_invoked"], name
        assert merkle["bytes_per_event"] <= corpus["max_bytes_per_event"], name
        # The Merkle path actually skips work on every corpus.
        assert merkle["hash_nodes_skipped"] > 0
    # Acceptance: >=5x fewer hashed bytes per event on webmail.
    assert report["threshold"]["passed"], report["threshold"]
