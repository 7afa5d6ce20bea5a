"""The full chapter-6 pipeline: precrawl -> partition -> parallel crawl
-> per-partition indexes -> query shipping with global idf.

    python examples/parallel_pipeline.py
"""

import tempfile
from pathlib import Path

from repro import Browser, MPAjaxCrawler, Precrawler, ShardedSearchEngine, URLPartitioner
from repro.parallel import DistributedResultAggregator, SimpleAjaxCrawler, load_models
from repro.sites import SiteConfig, SyntheticYouTube


def main() -> None:
    site = SyntheticYouTube(SiteConfig(num_videos=30, seed=5))

    # Phase 1 — precrawling: build the hyperlink graph and PageRank by
    # following static links from the start video (no JavaScript).
    precrawler = Precrawler(site, max_pages=30)
    precrawl = precrawler.run(site.video_url(0))
    print(f"precrawl: {len(precrawl.urls)} pages discovered, "
          f"PageRank mass={sum(precrawl.pageranks.values()):.3f}")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)

        # Phase 2 — partition the URL list into per-process directories.
        partitioner = URLPartitioner(partition_size=10)
        directories = partitioner.write(precrawl.urls, root)
        print(f"partitions: {[d.name for d in directories]}")

        # Phase 3 — parallel crawling.  Each partition is crawled by an
        # independent SimpleAjaxCrawler (own browser, clock, hot-node
        # cache) and its application models are serialized to disk.
        for directory in directories:
            worker = SimpleAjaxCrawler(site)
            _, summary = worker.crawl_partition_dir(directory)
            print(f"  partition {summary.partition}: {summary.num_pages} pages, "
                  f"{summary.total_states} states, "
                  f"{summary.crawl_time_ms / 1000:.1f}s virtual")

        # The MPAjaxCrawler scheduler: same work, process-line timing.
        controller = MPAjaxCrawler(site, num_proc_lines=4)
        partitions = [URLPartitioner.read(d) for d in directories]
        run = controller.run(partitions)
        print(f"4 process lines: makespan {run.makespan_ms / 1000:.1f}s "
              f"(per-line {[round(t / 1000, 1) for t in run.line_finish_ms]})")

        # Phase 4 — one inverted file per partition, loaded from disk.
        model_partitions = [load_models(d) for d in directories]

        # Phase 5 — query shipping: the query runs on every shard; the
        # merger recombines document frequencies into a global idf and
        # re-sorts (§6.5).
        engine = ShardedSearchEngine.build(
            model_partitions, pageranks=precrawl.pageranks
        )
        print(f"\nsharded engine: {len(engine.shards)} shards, "
              f"{engine.num_states} states total")
        for query in ("wow", "american idol"):
            hits = engine.search(query, limit=3)
            print(f"query {query!r}: {engine.result_count(query)} results; top:")
            for hit in hits:
                print(f"  {hit.uri}  {hit.state_id}  score={hit.score:.4f}")

        # Phase 6 — distributed result aggregation (§6.6): find the
        # partition a result came from, replay its event path.
        aggregator = DistributedResultAggregator(Browser(site), model_partitions)
        top = engine.search("wow", limit=1)[0]
        page = aggregator.reconstruct(top)
        print(f"\nreconstructed {top.uri} {top.state_id} from partition "
              f"{aggregator.partition_of(top.uri) + 1}; "
              f"'wow' present: {'wow' in page.text.lower()}")


if __name__ == "__main__":
    main()
