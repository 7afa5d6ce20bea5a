"""The four workloads of the e2e benchmark.

Each workload mints its inputs from a seed (``setup``), runs one
measured repetition through the layers' public API (``repetition``),
checks the outputs against an oracle outside the timed sections
(``check``) and, for the traced run, splits the cost by layer
(``layers`` from spans and counts, ``replay`` by timing one layer's
public function over the inputs the workload fed it).

Why these four: ``tube_crawl`` and ``deep_crawl`` drive the same crawl
layers with opposite shapes (many page loads and big DOMs vs. few loads
and long BFS with restore/clone/hash), ``index_write`` is the write
side of the segmented index alone, ``serve_uncached`` its read side
behind HTTP with the query cache off.  README.md says which ROADMAP
item should move which.
"""

from __future__ import annotations

import hashlib
import http.client
import itertools
import json
import random
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlencode, urlsplit

from measure import Pace, Timer, rank

from repro import dom, js
from repro.clock import CostModel, SimClock
from repro.crawler import AjaxCrawler, CrawlerConfig, CrawlResult
from repro.model import ApplicationModel
from repro.net.server import SimulatedServer
from repro.obs import NULL_RECORDER
from repro.search import (
    InvertedFile,
    Memtable,
    SearchEngine,
    SegmentedIndex,
    evaluate,
    tokenize_with_positions,
)
from repro.serve import SearchServer, SearchService, ServeConfig
from repro.sites import SiteConfig, SyntheticYouTube, paper_queries
from repro.testgen import (
    WORD_CORPUS,
    GeneratedSite,
    conformance_config,
    corpus_models,
    corpus_spec,
    generate_site,
)

#: Scratch space inside the checkout (git-ignored): index directories,
#: removed when their repetition or workload ends, and the last trace.
WORK_DIR = Path(__file__).resolve().parent / ".work"

#: Input sizes.  ``smoke`` exists for test_smoke.py only.
SCALES = {
    "full": {
        "tube_videos": 300,
        "deep_pages": 24,
        "deep_states": 120,
        "deep_extra_edges": 200,
        "index_states": 60_000,
        "serve_states": 20_000,
        "serve_requests": 600,
    },
    "smoke": {
        "tube_videos": 8,
        "deep_pages": 2,
        "deep_states": 12,
        "deep_extra_edges": 8,
        "index_states": 300,
        "serve_states": 200,
        "serve_requests": 50,
    },
}

#: ``(scale, seed) -> states`` of a tube crawl, pinned for the default seed.
PINNED_TUBE_STATES = {("full", 7): 1021, ("smoke", 7): 9}

#: Pages rewritten through ``update_model`` per index_write repetition.
INDEX_UPDATES = 6
#: Marker queries sampled before and after the updates.
INDEX_MARKER_SAMPLES = 20

#: Query classes of serve_uncached and their share of the request mix.
QUERY_MIX = (("rare", 0.40), ("skewed", 0.25), ("pair", 0.20), ("word", 0.13), ("broad", 0.02))
BROAD_QUERIES = ("area", "state", "area state")


def work_dir() -> Path:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return WORK_DIR


def scratch_dir(prefix: str) -> Path:
    return Path(tempfile.mkdtemp(prefix=prefix + "-", dir=work_dir()))


@dataclass
class Rep:
    """One measured repetition."""

    #: The timed sections: seconds at reference speed (``pace.s``), as
    #: measured (``pace.raw_s``), and the probes that relate the two.
    pace: Pace
    #: work_per_s, op_p50_ms, op_p90_ms, work_cost; times at reference speed.
    metrics: dict[str, float]
    #: Exact counts and stage timings feeding the per-layer metrics.
    counts: dict[str, float] = field(default_factory=dict)


class Oracle:
    """Counts checks attempted and failed; keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def tally(self, attempted: int, failed: int, message: str) -> None:
        self.attempted += attempted
        self.failures.extend([message] * failed)


class Workload:
    """Interface of a workload; see the module docstring."""

    name = ""

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.scale = scale
        self.sizes = SCALES[scale]
        self.oracle = Oracle()

    def setup(self) -> None:
        """Mint the inputs.  Timed as ``setup_s``; may run repeatedly."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work before the first repetition (lazy tables, caches)."""

    def repetition(self, recorder=NULL_RECORDER) -> Rep:
        raise NotImplementedError

    def check(self) -> None:
        """Run the oracles that need the finished repetitions."""

    def layers(self, rep: Rep, spans: dict[str, tuple[float, int]]) -> dict[str, float]:
        """Per-layer metrics of one traced repetition."""
        raise NotImplementedError

    def replay(self) -> dict[str, float]:
        """Per-layer metrics timed over the workload's collected inputs."""
        raise NotImplementedError

    def close(self) -> None:
        """Release servers, indexes and scratch directories."""


def span_ms(spans: dict[str, tuple[float, int]], kind: str) -> float:
    return spans.get(kind, (0.0, 0))[0]


def span_count(spans: dict[str, tuple[float, int]], kind: str) -> int:
    return spans.get(kind, (0.0, 0))[1]


def paced_ms(call, arguments) -> list[float]:
    """Call ``call`` on each argument; the calls' ms at reference speed."""
    pace = Pace()
    for argument in arguments:
        with pace.unit():
            call(argument)
    pace.finish()
    return pace.unit_ms


# -- crawling -------------------------------------------------------------------


class RecordingServer(SimulatedServer):
    """Passes requests through and keeps each body served (replay input)."""

    def __init__(self, inner: SimulatedServer) -> None:
        self.inner = inner
        self.bodies: dict[str, str] = {}

    def handle(self, request):
        response = self.inner.handle(request)
        if response.ok:
            self.bodies[request.url] = response.body
        return response


def model_fingerprint(models: list[ApplicationModel]) -> str:
    """Digest of every model's states and edges, in crawl order."""
    digest = hashlib.sha256()
    for model in models:
        digest.update(model.url.encode())
        for state in model.states():
            digest.update(f"{state.state_id}:{state.content_hash}:{state.depth}".encode())
        for edge in model.transitions():
            digest.update(f"{edge.from_state}>{edge.to_state}:{edge.event.source}".encode())
    return digest.hexdigest()


class CrawlWorkload(Workload):
    """Crawl a simulated site page by page; subclasses mint the site."""

    def mint(self) -> tuple[SimulatedServer, list[str], CrawlerConfig]:
        raise NotImplementedError

    def setup(self) -> None:
        self.site, self.urls, self.config = self.mint()
        self.fingerprints: list[str] = []
        self.models: list[ApplicationModel] = []
        self.bodies: dict[str, str] = {}

    def repetition(self, recorder=NULL_RECORDER) -> Rep:
        # The digest memo is module state: cleared so every repetition
        # hashes the same bytes.
        dom.clear_digest_memo()
        server = RecordingServer(self.site) if recorder.enabled else self.site
        crawler = AjaxCrawler(
            server,
            self.config,
            clock=SimClock(),
            cost_model=CostModel(network_jitter=0.0),
            recorder=recorder,
        )
        pages: list[CrawlResult] = []
        pace = Pace()
        for url in self.urls:
            with pace.unit():
                pages.append(crawler.crawl([url]))
        pace.finish()
        crawl = CrawlResult()
        # The crawl time of a state is its page's time shared equally;
        # percentiles are over states, so they do not sit on the border
        # between one-state and many-state pages.
        state_ms: list[float] = []
        for page, ms in zip(pages, pace.unit_ms):
            crawl.merge(page)
            state_ms += [ms / page.report.total_states] * page.report.total_states
        self.models = crawl.models
        self.fingerprints.append(model_fingerprint(crawl.models))
        if recorder.enabled:
            self.bodies = server.bodies
        self.oracle.tally(len(self.urls), len(crawl.failed_urls), "page failed to crawl")

        report, stats = crawl.report, crawler.stats
        states, events = report.total_states, report.total_events
        requests = stats.page_fetches + stats.ajax_calls
        registry = report.registry
        return Rep(
            pace,
            metrics={
                "work_per_s": states / pace.s,
                "op_p50_ms": rank(state_ms, 0.50),
                "op_p90_ms": rank(state_ms, 0.90),
                "work_cost": requests / states,
            },
            counts={
                "net.requests": requests,
                "dom.hash_passes": registry.counter("crawl.hash_full_passes")
                + registry.counter("crawl.hash_incremental_passes"),
                "dom.hashed_bytes": registry.counter("crawl.hash_bytes_hashed"),
                "crawler.events_fired": events,
                "crawler.states": states,
                "crawler.new_state_per_event": (states - report.num_pages) / events,
                "crawler.hotnode_hit_ratio": stats.cached_hits
                / (stats.ajax_calls + stats.cached_hits),
                "model.states": states,
                "model.transitions": sum(m.num_transitions for m in crawl.models),
            },
        )

    def check(self) -> None:
        self.oracle.expect(
            len(set(self.fingerprints)) == 1, "model fingerprints differ across repetitions"
        )

    def layers(self, rep, spans):
        return {
            **rep.counts,
            "net.fetch_self_ms": span_ms(spans, "fetch"),
            "net.xhr_self_ms": span_ms(spans, "xhr"),
            "dom.hash_pass_self_ms": span_ms(spans, "hash_pass"),
            "js.exec_self_ms": span_ms(spans, "js_exec"),
            "js.exec_count": span_count(spans, "js_exec"),
            "crawler.page_self_ms": span_ms(spans, "page"),
            "crawler.fire_event_self_ms": span_ms(spans, "fire_event"),
            "crawler.crawl_self_ms": span_ms(spans, "crawl"),
        }

    def replay(self):
        """Time dom/js/model public functions once over every distinct
        body the site served during the traced crawl."""
        page_urls = set(self.urls)
        documents, fragments = [], []
        dom.clear_digest_memo()
        with Timer() as parse:
            for url, body in self.bodies.items():
                if url in page_urls:
                    documents.append(dom.parse_document(body, url=url))
                else:
                    fragments.extend(dom.parse_fragment(body))
        roots = [document.root for document in documents] + fragments
        nodes = len(roots) + sum(
            sum(1 for _ in root.iter_descendants())
            for root in roots
            if isinstance(root, dom.Element)
        )
        with Timer() as hash_cold:
            for document in documents:
                dom.hash_tree(document)
        with Timer() as clone:
            for document in documents:
                document.clone()
        with Timer() as serialize:
            for document in documents:
                dom.serialize(document)
        scripts = [
            "".join(child.data for child in script.children if isinstance(child, dom.Text))
            for document in documents
            for script in document.get_elements_by_tag("script")
        ]
        with Timer() as lex:
            tokens = sum(len(js.tokenize(source)) for source in scripts)
        with Timer() as parse_js:
            for source in scripts:
                js.parse_program(source)
        with Timer() as insert:
            for model in self.models:
                rebuilt = ApplicationModel(model.url)
                for state in model.states():
                    rebuilt.add_state(state.content_hash, state.text, depth=state.depth)
                for edge in model.transitions():
                    rebuilt.add_transition(
                        rebuilt.get_state(edge.from_state),
                        rebuilt.get_state(edge.to_state),
                        edge.event,
                    )
        return {
            "dom.parse_ms": parse.ms,
            "dom.parse_bytes": sum(len(body.encode()) for body in self.bodies.values()),
            "dom.nodes": nodes,
            "dom.hash_cold_ms": hash_cold.ms,
            "dom.clone_ms": clone.ms,
            "dom.serialize_ms": serialize.ms,
            "js.lex_ms": lex.ms,
            "js.tokens": tokens,
            "js.parse_ms": parse_js.ms,
            "model.insert_ms": insert.ms,
        }


class TubeCrawl(CrawlWorkload):
    """The paper's workload: many pages, large per-page DOM, the site
    script re-lexed on every page load, most events rediscover a state."""

    name = "tube_crawl"

    def mint(self):
        site = SyntheticYouTube(
            SiteConfig(num_videos=self.sizes["tube_videos"], seed=self.seed)
        )
        return site, site.all_video_urls(), CrawlerConfig()

    def check(self) -> None:
        super().check()
        pinned = PINNED_TUBE_STATES.get((self.scale, self.seed))
        if pinned is not None:
            states = sum(model.num_states for model in self.models)
            self.oracle.expect(states == pinned, f"{states} states crawled, {pinned} pinned")
        path = scratch_dir("tube-parity")
        try:
            memory = SearchEngine(InvertedFile().build(self.models))
            disk_index = SegmentedIndex(path).build(self.models)
            disk = SearchEngine(disk_index)
            for query in paper_queries():
                self.oracle.expect(
                    memory.search(query.text) == disk.search(query.text),
                    f"InvertedFile and SegmentedIndex disagree on {query.text!r}",
                )
            disk_index.close()
        finally:
            shutil.rmtree(path, ignore_errors=True)


class DeepCrawl(CrawlWorkload):
    """Few page loads, tiny fragments, long BFS: restore/clone, hashing and
    model insertion per state, hot-node hits on every re-entered state."""

    name = "deep_crawl"

    def mint(self):
        states = self.sizes["deep_states"]
        self.spec = generate_site(
            self.seed,
            num_pages=self.sizes["deep_pages"],
            min_states=states,
            max_states=states,
            extra_edges=self.sizes["deep_extra_edges"],
        )
        return GeneratedSite(self.spec), self.spec.all_urls(), conformance_config(self.spec)

    def check(self) -> None:
        """Every page's crawled graph equals the spec's, state for state
        and edge for edge.  States are identified by the marker token in
        their text (``recover_graph`` matches substrings, which is
        ambiguous from 11 states per page on: ``...s1`` is in ``...s10``)."""
        super().check()
        by_url = {model.url: model for model in self.models}
        for page in self.spec.pages:
            model = by_url.get(self.spec.page_url(page.page_id))
            if model is None:
                self.oracle.expect(False, f"page {page.page_id}: no model crawled")
                continue
            index_of = {marker: index for index, marker in enumerate(page.markers)}
            found = {
                state.state_id: [index_of[t] for t in state.text.split() if t in index_of]
                for state in model.states()
            }
            edges = {
                (tuple(found[edge.from_state]), tuple(found[edge.to_state]))
                for edge in model.transitions()
            }
            self.oracle.expect(
                sorted(found.values()) == [[index] for index in range(page.num_states)]
                and edges == {((src,), (dst,)) for src, dst in page.edges},
                f"page {page.page_id}: recovered graph differs from the spec",
            )


# -- index writing -----------------------------------------------------------------


def comparable_stats(stats: dict) -> dict:
    """``SegmentedIndex.stats()`` minus the counters a reopen resets."""
    return {key: value for key, value in stats.items() if key not in ("cache", "merge")}


class IndexWrite(Workload):
    """The write side of the segmented index: build at the default
    flush/compaction policy, rewrite a few pages, compact, reopen."""

    name = "index_write"

    def setup(self) -> None:
        self.spec = corpus_spec(self.sizes["index_states"], seed=self.seed)
        self.models = corpus_models(self.spec)
        pages = len(self.models)
        self.update_pages = [
            (k * pages) // INDEX_UPDATES + pages // (2 * INDEX_UPDATES)
            for k in range(INDEX_UPDATES)
        ]
        # The rewritten pages first, then pages spread over the corpus;
        # alternately the first and the last state of the page.
        sampled = self.update_pages + [
            (k * pages) // INDEX_MARKER_SAMPLES for k in range(INDEX_MARKER_SAMPLES)
        ]
        self.markers = [
            self.spec.pages[page].markers[0 if k % 2 else -1]
            for k, page in enumerate(sampled[:INDEX_MARKER_SAMPLES])
        ]

    def _expect_markers(self, index: SegmentedIndex, when: str) -> None:
        engine = SearchEngine(index)
        for marker in self.markers:
            found = len(engine.search(marker))
            self.oracle.expect(found == 1, f"{marker} matches {found} states {when}")

    def repetition(self, recorder=NULL_RECORDER) -> Rep:
        path = scratch_dir("index-write")
        try:
            index = SegmentedIndex(path, recorder=recorder)
            pace = Pace()
            # SegmentedIndex.build(), spelled out so that the probe runs
            # between models and not only around eight seconds of them.
            for model in self.models:
                with pace.unit():
                    index.add_model(model)
            with pace.unit():
                index.finalize()
            pace.finish()
            build_s, build_units = pace.s, len(pace.unit_ms)
            states, segments = index.num_states, index.num_segments
            self._expect_markers(index, "after build")

            for page in self.update_pages:
                with pace.unit():
                    index.update_model(self.models[page])
            pace.finish()
            update_ms = pace.unit_ms[build_units:]
            self._expect_markers(index, "after updates")
            self.oracle.expect(
                index.num_states == states,
                f"update_model changed the state count {states} -> {index.num_states}",
            )

            with pace.unit():
                index.compact_all()
            pace.finish()
            before = index.stats()
            with pace.unit():
                index.close()
                index = SegmentedIndex.open(path)
            pace.finish()
            compact_ms, open_ms = pace.unit_ms[-2:]
            self.oracle.expect(
                comparable_stats(index.stats()) == comparable_stats(before),
                "reopened stats() differ from pre-close",
            )
            index.close()
        finally:
            shutil.rmtree(path, ignore_errors=True)

        self.build_ms = build_s * 1000.0
        return Rep(
            pace,
            metrics={
                "work_per_s": states / build_s,
                "op_p50_ms": rank(update_ms, 0.50),
                "op_p90_ms": rank(update_ms, 0.90),
                "work_cost": before["num_bytes"] / before["num_postings"],
            },
            counts={
                "search.compact_all_ms": compact_ms,
                "search.open_ms": open_ms,
                "search.segments": segments,
                "search.segment_bytes": before["num_bytes"],
            },
        )

    def layers(self, rep, spans):
        return {
            **rep.counts,
            "search.flush_self_ms": span_ms(spans, "segment_flush"),
            "search.flushes": span_count(spans, "segment_flush"),
            "search.compact_self_ms": span_ms(spans, "compaction"),
            "search.compactions": span_count(spans, "compaction"),
        }

    def replay(self):
        texts = [state.text for model in self.models for state in model.states()]
        with Timer() as tokenize:
            for text in texts:
                tokenize_with_positions(text)
        memtable = Memtable()
        seq = itertools.count().__next__
        with Timer() as add:
            for model in self.models:
                memtable.add_model(model, seq)
        with Timer() as memory:
            InvertedFile().build(self.models)
        return {
            "search.tokenize_ms": tokenize.ms,
            "search.memtable_add_ms": add.ms,
            "search.memory_build_ms": memory.ms,
            "search.segmented_vs_memory_build_ratio": self.build_ms / memory.ms,
        }


# -- serving ---------------------------------------------------------------------


def mint_queries(spec, requests: int, rng: random.Random) -> list[tuple[str, str]]:
    """``(class, query)`` in send order: fixed class counts, seeded picks.

    The counts are stratified, not sampled, so the mix — and with it the
    tail the broad class sets — is the same for every seed.
    """
    counts = {name: round(share * requests) for name, share in QUERY_MIX}
    counts["broad"] = max(1, counts["broad"])
    counts["rare"] += requests - sum(counts.values())
    markers = [marker for page in spec.pages for marker in page.markers]
    words = list(WORD_CORPUS)
    rng.shuffle(words)
    picks = rng.sample(markers, counts["rare"] + counts["skewed"])
    sequence = [("rare", marker) for marker in picks[: counts["rare"]]]
    sequence += [("skewed", f"area {marker}") for marker in picks[counts["rare"] :]]
    sequence += [("pair", " ".join(rng.sample(words, 2))) for _ in range(counts["pair"])]
    sequence += [("word", words[k % len(words)]) for k in range(counts["word"])]
    sequence += [("broad", BROAD_QUERIES[k % 3]) for k in range(counts["broad"])]
    rng.shuffle(sequence)
    return sequence


class ServeUncached(Workload):
    """The read side behind HTTP with the query cache off: one keep-alive
    client, closed loop, a mix whose 2% broad class sets tail and mean."""

    name = "serve_uncached"
    config = ServeConfig(cache_entries=0)
    server = None

    def setup(self) -> None:
        self.close()
        self.spec = corpus_spec(self.sizes["serve_states"], seed=self.seed)
        self.path = scratch_dir("serve")
        SegmentedIndex(self.path).build(corpus_models(self.spec)).close()
        self.index = SegmentedIndex.open(self.path)
        self.engine = SearchEngine(self.index)
        self.server = SearchServer(SearchService(self.engine, self.config)).start()
        self.mix = mint_queries(self.spec, self.sizes["serve_requests"], random.Random(self.seed))
        self.sequence = [query for _, query in self.mix]
        self.http_p50_ms: list[float] = []

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.index.close()
            shutil.rmtree(self.path, ignore_errors=True)
            self.server = None

    def _send(self, url: str, sequence: list[str]):
        """One keep-alive client, closed loop: the paced round trips and
        ``[(status, body)]``.  ``run_loadtest`` would do, but it reports
        only sketched quantiles: no samples, no bodies to check."""
        split = urlsplit(url)
        connection = http.client.HTTPConnection(split.hostname, split.port, timeout=60)
        paths = ["/search?" + urlencode({"q": query, "limit": 10}) for query in sequence]
        pace = Pace()
        responses = []
        try:
            for path in paths:
                with pace.unit():
                    connection.request("GET", path)
                    response = connection.getresponse()
                    body = response.read()
                responses.append((response.status, body))
            pace.finish()
        finally:
            connection.close()
        return pace, responses

    def warm_up(self) -> None:
        """The engine's own match counts (the oracle, and it fills the
        lazy lookup tables), then a tenth of the sequence over HTTP."""
        self.expected = {
            query: self.engine.result_count(query) for query in set(self.sequence)
        }
        self._send(self.server.url, self.sequence[::10])

    def repetition(self, recorder=NULL_RECORDER) -> Rep:
        server = self.server
        if recorder.enabled:
            engine = SearchEngine(self.index, recorder=recorder)
            server = SearchServer(
                SearchService(engine, self.config, recorder=recorder)
            ).start()
        merge, cache = self.index.merge_stats, self.index.cache
        before = (merge.to_dict(), cache.hits, cache.misses)
        try:
            pace, responses = self._send(server.url, self.sequence)
        finally:
            if server is not self.server:
                server.stop()
        decoded = {key: value - before[0][key] for key, value in merge.to_dict().items()}
        hits, misses = cache.hits - before[1], cache.misses - before[2]
        non_200 = 0
        for query, (status, body) in zip(self.sequence, responses):
            page = json.loads(body) if status == 200 else {}
            non_200 += status != 200
            self.oracle.expect(
                page.get("total") == self.expected[query] and page.get("cached") is False,
                f"{query!r}: status {status}, total {page.get('total')}, cached "
                f"{page.get('cached')}; the engine counts {self.expected[query]}",
            )
        if not recorder.enabled:
            self.http_p50_ms.append(rank(pace.unit_ms, 0.50))
        sent = len(self.sequence)
        return Rep(
            pace,
            metrics={
                "work_per_s": sent / pace.s,
                "op_p50_ms": rank(pace.unit_ms, 0.50),
                "op_p90_ms": rank(pace.unit_ms, 0.90),
                "work_cost": decoded["postings_decoded"] / sent,
            },
            counts={
                "search.blocks_decoded": decoded["blocks_decoded"],
                "search.blocks_skipped": decoded["blocks_skipped"],
                "search.postings_decoded": decoded["postings_decoded"],
                "search.block_cache_hit_ratio": hits / max(1, hits + misses),
                "serve.requests": sent,
                "serve.non_200": non_200,
            },
        )

    def layers(self, rep, spans):
        return dict(rep.counts)

    def replay(self):
        """The same sequence in process: engine alone, then the service
        around it; the differences are the service and HTTP overheads."""
        engine_ms = paced_ms(lambda query: self.engine.search(query, limit=10), self.sequence)
        by_class: dict[str, list[float]] = {name: [] for name, _ in QUERY_MIX}
        for (name, _), ms in zip(self.mix, engine_ms):
            by_class[name].append(ms)
        service = SearchService(self.engine, self.config)
        service_ms = paced_ms(
            lambda query: service.search({"q": query, "limit": "10"}), self.sequence
        )
        evaluate_ms = paced_ms(lambda query: evaluate(self.index, query), BROAD_QUERIES)
        layers = {
            f"search.engine_{name}_p50_ms": statistics.median(samples)
            for name, samples in by_class.items()
        }
        evaluate_broad = statistics.median(evaluate_ms)
        service_p50 = statistics.median(service_ms)
        layers.update(
            {
                "search.evaluate_broad_ms": evaluate_broad,
                "search.rank_broad_ms": layers["search.engine_broad_p50_ms"] - evaluate_broad,
                "serve.service_overhead_ms": service_p50 - statistics.median(engine_ms),
                "serve.http_overhead_ms": statistics.median(self.http_p50_ms) - service_p50,
            }
        )
        return layers


WORKLOADS = {cls.name: cls for cls in (TubeCrawl, DeepCrawl, IndexWrite, ServeUncached)}
