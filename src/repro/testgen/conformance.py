"""Differential / metamorphic conformance checks over generated sites.

Every check crawls a :class:`~repro.testgen.spec.SiteSpec`'s generated
application and compares the outcome against the spec's closed-form
ground truth, or against another crawler variant that must agree:

* ``ground_truth`` — a basic (cache-less) crawl recovers *exactly* the
  spec's reachable states, marker terms, transition edges and AJAX-call
  multiset; nothing is quarantined, capped or failed.
* ``hotnode_parity`` — hot-node vs basic: identical state hashes and
  edges, exact cache accounting, and *strictly fewer* network calls.
* ``incremental_parity`` — the crawler's Merkle hashing vs the
  reference full rewalk over each state's stored HTML: byte-identical
  state hashes and identical ``modified`` regions on every transition.
* ``parallel_parity`` — a single ``SimpleAjaxCrawler`` run vs an
  ``MPAjaxCrawler`` partitioned run: the merged report and models must
  equal the single-run ones.
* ``backend_parity`` — the same ``MPAjaxCrawler`` partitions on the
  simulated engine vs the real-thread engine: merged report, model
  list (order included), network counters and search results must be
  identical; only scheduling/wall-clock fields may differ.
* ``search_consistency`` — an index built over the crawled models
  answers every per-state marker query with exactly that state, and
  corpus-word result counts match the spec's term placement.
* ``index_parity`` — the on-disk ``SegmentedIndex`` (delta+varint
  posting blocks, block-max skipping, LSM compaction) vs the in-memory
  ``InvertedFile`` over the same crawled models: byte-identical state
  registries, postings, tf/idf statistics and search results — before
  and after incremental update + full compaction.
* ``near_dup_parity`` — the banded-LSH collapse layer against the
  noisy-twin generator's closed-form oracles: with
  ``near_dup_threshold`` set, a noisy crawl recovers exactly the
  logical state count, twin→canonical mapping, variant counts and
  volatile-region masks (identically across execution backends, with
  zero false merges); with it unset, the same noisy site explodes to
  exactly the breadth-first unrolling the oracle predicts, and a
  standard-site crawl emits no dedup events, metrics or annotations —
  the dedup-off path is inert.

Checks never raise on conformance violations: each returns a
:class:`CheckResult` whose failures pinpoint seed + page + quantity, so
a 50-seed corpus run reports every divergence at once.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from dataclasses import dataclass, field
from math import isclose
from typing import Callable, Optional

from repro.clock import CostModel, SimClock
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.dom import (
    changed_regions,
    parse_document,
    reference_region_hashes,
    reference_state_hash,
)
from repro.model import ApplicationModel
from repro.obs import STATE_COLLAPSED
from repro.obs.recorder import Recorder
from repro.parallel import MPAjaxCrawler, SimpleAjaxCrawler
from repro.search import InvertedFile, SearchEngine, SegmentedIndex, tokenize
from repro.testgen.generator import generate_site
from repro.testgen.noisy import (
    NEAR_DUP_THRESHOLD,
    NoisyGeneratedSite,
    NoisySiteSpec,
    generate_noisy_site,
)
from repro.testgen.site import GeneratedSite
from repro.testgen.spec import PageSpec, SiteSpec

#: All checks, in the order ``run_conformance`` executes them.
CHECK_NAMES = (
    "ground_truth",
    "hotnode_parity",
    "incremental_parity",
    "parallel_parity",
    "backend_parity",
    "search_consistency",
    "index_parity",
    "near_dup_parity",
)


@dataclass
class CheckResult:
    """Outcome of one conformance check on one spec."""

    name: str
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


@dataclass
class ConformanceReport:
    """All check outcomes for one generated spec."""

    spec: SiteSpec
    results: list[CheckResult] = field(default_factory=list)

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> list[str]:
        return [
            f"[seed {self.seed}] {result.name}: {failure}"
            for result in self.results
            for failure in result.failures
        ]

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        checks = " ".join(
            f"{result.name}={'ok' if result.passed else 'FAIL'}"
            for result in self.results
        )
        return (
            f"seed {self.seed}: {verdict} "
            f"({self.spec.total_states} states, "
            f"{self.spec.total_transitions} edges, "
            f"{len(self.spec.pages)} page(s)) {checks}"
        )


def conformance_config(
    spec: SiteSpec, use_hot_node: bool = True, store_html: bool = False
) -> CrawlerConfig:
    """The crawl limits a conformance crawl must run under: the state
    cap admits every genuine state, everything else stays at defaults."""
    return CrawlerConfig(
        max_additional_states=spec.max_additional_states_needed,
        use_hot_node=use_hot_node,
        store_html=store_html,
    )


def _cost_model() -> CostModel:
    # Zero jitter: cross-variant time comparisons must be exact.
    return CostModel(network_jitter=0.0)


def crawl_generated(
    spec: SiteSpec, use_hot_node: bool = True, store_html: bool = False
):
    """Crawl every page of the generated site with a fresh crawler.

    Returns ``(crawler, CrawlResult)`` — the crawler is handed back for
    its network stats (the AJAX-call oracles read them).
    """
    crawler = AjaxCrawler(
        GeneratedSite(spec),
        conformance_config(spec, use_hot_node=use_hot_node, store_html=store_html),
        clock=SimClock(),
        cost_model=_cost_model(),
    )
    return crawler, crawler.crawl(spec.all_urls())


# -- recovered-graph mapping -----------------------------------------------------


@dataclass
class RecoveredGraph:
    """One crawled model mapped back onto its spec page via markers."""

    page: PageSpec
    model: ApplicationModel
    #: model state_id -> spec state index.
    mapping: dict[str, int]
    #: Problems encountered while mapping (ambiguous/unknown states).
    problems: list[str] = field(default_factory=list)

    @property
    def edges(self) -> set[tuple[int, int]]:
        return {
            (self.mapping[t.from_state], self.mapping[t.to_state])
            for t in self.model.transitions()
            if t.from_state in self.mapping and t.to_state in self.mapping
        }

    @property
    def states(self) -> set[int]:
        return set(self.mapping.values())


def recover_graph(page: PageSpec, model: ApplicationModel) -> RecoveredGraph:
    """Identify each crawled state by the unique marker it contains."""
    mapping: dict[str, int] = {}
    problems: list[str] = []
    for state in model.states():
        # Whole tokens, not substrings: ``…s1`` is a prefix of ``…s10``.
        tokens = set(tokenize(state.text))
        hits = [
            index for index, marker in enumerate(page.markers) if marker in tokens
        ]
        if len(hits) != 1:
            problems.append(
                f"state {state.state_id} matches {len(hits)} markers "
                f"(text={state.text[:60]!r})"
            )
            continue
        mapping[state.state_id] = hits[0]
    return RecoveredGraph(page=page, model=model, mapping=mapping, problems=problems)


def _model_fingerprints(models: list[ApplicationModel]) -> dict[str, tuple]:
    """Order-insensitive identity of each crawled model, keyed by URL."""
    fingerprints: dict[str, tuple] = {}
    for model in models:
        hashes = tuple(sorted(state.content_hash for state in model.states()))
        edges = tuple(
            sorted(
                (
                    model.get_state(t.from_state).content_hash,
                    model.get_state(t.to_state).content_hash,
                    t.event.source,
                    t.event.trigger,
                )
                for t in model.transitions()
            )
        )
        fingerprints[model.url] = (hashes, edges)
    return fingerprints


def _fragment_fetches(crawler: AjaxCrawler, spec: SiteSpec) -> Counter:
    """Multiset of fragment requests that actually hit the network."""
    fetches: Counter = Counter()
    for url, count in crawler.stats.requests_by_url.items():
        path = url.replace(spec.base_url, "", 1)
        if path.startswith("/fragment?"):
            fetches[path] += count
    return fetches


# -- individual checks ------------------------------------------------------------


def check_ground_truth(spec: SiteSpec) -> CheckResult:
    """A basic cache-less crawl must recover the spec exactly."""
    result = CheckResult("ground_truth")
    crawler, crawl = crawl_generated(spec, use_hot_node=False)
    result.expect(not crawl.failed_urls, f"failed urls: {crawl.failed_urls}")
    result.expect(
        crawl.report.total_events_quarantined == 0,
        f"{crawl.report.total_events_quarantined} events quarantined",
    )
    result.expect(
        crawl.report.total_states_capped == 0,
        f"{crawl.report.total_states_capped} states hit the cap",
    )
    by_url = {model.url: model for model in crawl.models}
    for page in spec.pages:
        url = spec.page_url(page.page_id)
        model = by_url.get(url)
        if model is None:
            result.expect(False, f"page {page.page_id}: no model crawled")
            continue
        recovered = recover_graph(page, model)
        for problem in recovered.problems:
            result.expect(False, f"page {page.page_id}: {problem}")
        result.expect(
            model.num_states == page.num_states,
            f"page {page.page_id}: {model.num_states} states crawled, "
            f"{page.num_states} in spec",
        )
        result.expect(
            recovered.states == set(range(page.num_states)),
            f"page {page.page_id}: recovered states {sorted(recovered.states)} "
            f"!= spec 0..{page.num_states - 1}",
        )
        result.expect(
            recovered.edges == set(page.edges),
            f"page {page.page_id}: recovered edges {sorted(recovered.edges)} "
            f"!= spec {sorted(page.edges)}",
        )
        result.expect(
            model.num_transitions == len(page.transitions),
            f"page {page.page_id}: {model.num_transitions} transitions recorded, "
            f"{len(page.transitions)} in spec",
        )
    expected_fetches = Counter()
    for page in spec.pages:
        expected_fetches.update(page.expected_fetches())
    actual_fetches = _fragment_fetches(crawler, spec)
    result.expect(
        actual_fetches == expected_fetches,
        f"AJAX multiset mismatch: extra={actual_fetches - expected_fetches}, "
        f"missing={expected_fetches - actual_fetches}",
    )
    return result


def check_hotnode_parity(spec: SiteSpec) -> CheckResult:
    """Hot-node crawl: same states/edges, strictly fewer network calls."""
    result = CheckResult("hotnode_parity")
    basic_crawler, basic = crawl_generated(spec, use_hot_node=False)
    hot_crawler, hot = crawl_generated(spec, use_hot_node=True)
    result.expect(
        _model_fingerprints(basic.models) == _model_fingerprints(hot.models),
        "hot-node crawl produced different models than the basic crawl",
    )
    expected_basic = sum(p.expected_network_calls(False) for p in spec.pages)
    expected_hot = sum(p.expected_network_calls(True) for p in spec.pages)
    expected_hits = sum(p.expected_cached_hits() for p in spec.pages)
    result.expect(
        basic.report.total_ajax_calls == expected_basic,
        f"basic crawl made {basic.report.total_ajax_calls} AJAX calls, "
        f"spec predicts {expected_basic}",
    )
    result.expect(
        hot.report.total_ajax_calls == expected_hot,
        f"hot-node crawl made {hot.report.total_ajax_calls} AJAX calls, "
        f"spec predicts {expected_hot}",
    )
    result.expect(
        hot.report.total_cached_hits == expected_hits,
        f"hot-node crawl hit cache {hot.report.total_cached_hits} times, "
        f"spec predicts {expected_hits}",
    )
    result.expect(
        hot.report.total_ajax_calls < basic.report.total_ajax_calls,
        "hot-node crawl did not make strictly fewer network calls "
        f"({hot.report.total_ajax_calls} vs {basic.report.total_ajax_calls})",
    )
    # Hot and basic mode agree on the distinct fragments fetched.
    hot_fetches = _fragment_fetches(hot_crawler, spec)
    basic_fetches = _fragment_fetches(basic_crawler, spec)
    result.expect(
        set(hot_fetches) == set(basic_fetches),
        "hot-node crawl fetched a different set of fragments",
    )
    result.expect(
        all(count == 1 for count in hot_fetches.values()),
        f"hot-node crawl re-fetched cached fragments: {hot_fetches}",
    )
    return result


def check_incremental_parity(spec: SiteSpec) -> CheckResult:
    """Merkle hashing == reference full rewalk of the stored HTML, bit for bit."""
    result = CheckResult("incremental_parity")
    _, crawl = crawl_generated(spec, store_html=True)
    for model in crawl.models:
        regions: dict[str, dict[str, str]] = {}
        for state in model.states():
            document = parse_document(state.html, url=model.url)
            result.expect(
                state.content_hash == reference_state_hash(document),
                f"{model.url}: state {state.state_id} hash diverged from the "
                "reference rewalk of its stored HTML",
            )
            regions[state.state_id] = reference_region_hashes(document)
        for transition in model.transitions():
            expected = changed_regions(
                regions[transition.from_state], regions[transition.to_state]
            )
            result.expect(
                transition.modified == expected,
                f"{model.url}: {transition.from_state}->{transition.to_state} "
                f"modified {transition.modified}, reference regions give {expected}",
            )
    # A stale digest merges distinct states, and a merged state stores no
    # HTML to rehash: the totals against the spec are what exposes it.
    result.expect(
        crawl.report.total_states == spec.total_states,
        f"{crawl.report.total_states} states crawled, {spec.total_states} in spec",
    )
    result.expect(
        crawl.report.total_events == spec.total_transitions,
        f"{crawl.report.total_events} events fired, "
        f"{spec.total_transitions} transitions in spec",
    )
    return result


def _partition(urls: list[str], count: int) -> list[list[str]]:
    """Contiguous partitions, as the URLPartitioner would produce."""
    count = max(1, min(count, len(urls)))
    size = -(-len(urls) // count)
    return [urls[i : i + size] for i in range(0, len(urls), size)]


def check_parallel_parity(
    spec: SiteSpec, num_partitions: int = 2, num_proc_lines: int = 2
) -> CheckResult:
    """Merged MPAjaxCrawler report == single SimpleAjaxCrawler report."""
    result = CheckResult("parallel_parity")
    config = conformance_config(spec)
    urls = spec.all_urls()
    single_result, single_summary = SimpleAjaxCrawler(
        GeneratedSite(spec), config, cost_model=_cost_model()
    ).crawl_urls(urls, partition=0)
    parallel = MPAjaxCrawler(
        GeneratedSite(spec),
        num_proc_lines=num_proc_lines,
        config=config,
        cost_model=_cost_model(),
    ).run_simulated(_partition(urls, num_partitions))
    merged = parallel.result.report
    single = single_result.report
    for quantity in (
        "num_pages",
        "total_states",
        "total_events",
        "total_ajax_calls",
        "total_cached_hits",
    ):
        result.expect(
            getattr(merged, quantity) == getattr(single, quantity),
            f"{quantity}: merged {getattr(merged, quantity)} != "
            f"single {getattr(single, quantity)}",
        )
    result.expect(
        parallel.total_failed_pages == 0 and not single_result.failed_urls,
        "a fault-free generated crawl reported page failures",
    )
    result.expect(
        _model_fingerprints(parallel.result.models)
        == _model_fingerprints(single_result.models),
        "merged parallel models differ from the single-run models",
    )
    result.expect(
        isclose(
            merged.total_time_ms, single.total_time_ms, rel_tol=1e-9, abs_tol=1e-6
        ),
        f"virtual crawl time diverged: merged {merged.total_time_ms} vs "
        f"single {single.total_time_ms}",
    )
    result.expect(
        parallel.stats.ajax_calls == single_summary.network.ajax_calls,
        f"merged network stats diverged: {parallel.stats.ajax_calls} AJAX "
        f"calls vs {single_summary.network.ajax_calls}",
    )
    return result


def check_backend_parity(
    spec: SiteSpec, num_partitions: int = 2, num_workers: int = 2
) -> CheckResult:
    """Simulated vs real-thread execution backends must agree exactly.

    Both engines crawl the same partitions through the same
    ``MPAjaxCrawler``; everything that describes the *crawl* — merged
    report (virtual time included), per-model states and transitions,
    model order, network counters, search answers — must be identical.
    Wall-clock and scheduling fields (``makespan_ms``, ``wall_time_ms``,
    ``line_finish_ms``, ``partition_durations_ms``) describe the engine
    and are exempt.
    """
    result = CheckResult("backend_parity")
    partitions = _partition(spec.all_urls(), num_partitions)

    def controller() -> MPAjaxCrawler:
        return MPAjaxCrawler(
            GeneratedSite(spec),
            num_proc_lines=num_workers,
            config=conformance_config(spec),
            cost_model=_cost_model(),
        )

    simulated = controller().run(partitions, backend="simulated")
    threaded = controller().run(partitions, backend="threads")
    result.expect(simulated.backend == "simulated", "simulated run mistagged")
    result.expect(threaded.backend == "threads", "threaded run mistagged")
    sim_report = simulated.result.report
    thr_report = threaded.result.report
    for quantity in (
        "num_pages",
        "total_states",
        "total_events",
        "total_ajax_calls",
        "total_cached_hits",
        "total_states_capped",
        "total_events_quarantined",
    ):
        result.expect(
            getattr(sim_report, quantity) == getattr(thr_report, quantity),
            f"{quantity}: simulated {getattr(sim_report, quantity)} != "
            f"threads {getattr(thr_report, quantity)}",
        )
    result.expect(
        sim_report.total_time_ms == thr_report.total_time_ms,
        f"virtual crawl time diverged: simulated {sim_report.total_time_ms} "
        f"vs threads {thr_report.total_time_ms}",
    )
    result.expect(
        simulated.total_failed_pages == 0 and threaded.total_failed_pages == 0,
        "a fault-free generated crawl reported page failures",
    )
    sim_urls = [model.url for model in simulated.result.models]
    thr_urls = [model.url for model in threaded.result.models]
    result.expect(
        sim_urls == thr_urls,
        f"merged model order diverged: {sim_urls} vs {thr_urls}",
    )
    sim_prints = _model_fingerprints(simulated.result.models)
    thr_prints = _model_fingerprints(threaded.result.models)
    for url in sim_prints:
        result.expect(
            sim_prints[url] == thr_prints.get(url),
            f"{url}: models diverged between backends",
        )
    result.expect(
        simulated.stats.registry.snapshot() == threaded.stats.registry.snapshot(),
        "merged network metrics diverged between backends",
    )
    result.expect(
        sorted(simulated.partition_results) == sorted(threaded.partition_results),
        "backends produced different partition numbers",
    )
    # The crawled corpus answers queries identically whichever engine
    # produced it: every per-state marker resolves to the same state.
    sim_engine = SearchEngine.build(simulated.result.models)
    thr_engine = SearchEngine.build(threaded.result.models)
    for page in spec.pages:
        for marker in page.markers:
            sim_hits = [
                (hit.uri, hit.state_id, hit.score) for hit in sim_engine.search(marker)
            ]
            thr_hits = [
                (hit.uri, hit.state_id, hit.score) for hit in thr_engine.search(marker)
            ]
            result.expect(
                sim_hits == thr_hits,
                f"marker {marker!r}: search results diverged "
                f"({sim_hits} vs {thr_hits})",
            )
    return result


def check_search_consistency(spec: SiteSpec) -> CheckResult:
    """Indexed search results must match the spec's per-state terms."""
    result = CheckResult("search_consistency")
    _, crawl = crawl_generated(spec)
    engine = SearchEngine.build(crawl.models)
    by_url = {model.url: model for model in crawl.models}
    for page in spec.pages:
        url = spec.page_url(page.page_id)
        model = by_url.get(url)
        if model is None:
            result.expect(False, f"page {page.page_id}: no model to index")
            continue
        for state_index, marker in enumerate(page.markers):
            hits = engine.search(marker)
            if len(hits) != 1:
                result.expect(
                    False,
                    f"marker {marker!r} returned {len(hits)} results, expected 1",
                )
                continue
            hit = hits[0]
            result.expect(
                hit.uri == url,
                f"marker {marker!r} resolved to {hit.uri}, expected {url}",
            )
            state_text = model.get_state(hit.state_id).text
            result.expect(
                marker in state_text,
                f"marker {marker!r} hit state {hit.state_id} whose text "
                "does not contain it",
            )
    # Non-unique corpus words: result counts equal spec term placement.
    word_truth: Counter = Counter()
    for page in spec.pages:
        for state_words in page.words:
            for word in set(state_words):
                word_truth[word] += 1
    for word, expected_count in sorted(word_truth.items()):
        actual = engine.result_count(word)
        result.expect(
            actual == expected_count,
            f"word {word!r}: {actual} results, spec places it in "
            f"{expected_count} states",
        )
    return result


def _compare_indexes(
    result: CheckResult, memory: InvertedFile, disk: SegmentedIndex, label: str
) -> None:
    """Assert the two backends are observationally identical."""
    result.expect(
        disk.states() == memory.states(),
        f"{label}: state registries diverge "
        f"({disk.num_states} vs {memory.num_states} states)",
    )
    result.expect(
        disk.terms() == memory.terms(),
        f"{label}: vocabularies diverge "
        f"({disk.vocabulary_size} vs {memory.vocabulary_size} terms)",
    )
    for term in sorted(memory.terms()):
        result.expect(
            list(disk.conjunction([term])) == list(memory.conjunction([term])),
            f"{label}: postings of {term!r} diverge",
        )
        result.expect(
            disk.document_frequency(term) == memory.document_frequency(term),
            f"{label}: df of {term!r} diverges",
        )
        result.expect(
            disk.idf(term) == memory.idf(term),
            f"{label}: idf of {term!r} diverges "
            f"({disk.idf(term)!r} vs {memory.idf(term)!r})",
        )
    for uri, state_id in memory.states():
        result.expect(
            disk.state_length(uri, state_id) == memory.state_length(uri, state_id),
            f"{label}: length of ({uri}, {state_id}) diverges",
        )
        result.expect(
            disk.state_depth(uri, state_id) == memory.state_depth(uri, state_id),
            f"{label}: depth of ({uri}, {state_id}) diverges",
        )


def check_index_parity(spec: SiteSpec) -> CheckResult:
    """On-disk segmented index == in-memory inverted file, bit for bit.

    The segmented index is built with a tiny flush threshold and block
    size so even small specs exercise multiple segments, multiple
    blocks per term, and the block-skipping conjunction; queries, tf/idf
    statistics and state registries must still be byte-identical to the
    in-memory index — including after an incremental ``update_model``
    and a full compaction.
    """
    result = CheckResult("index_parity")
    _, crawl = crawl_generated(spec)
    if not crawl.models:
        result.expect(False, "no models crawled")
        return result
    memory = InvertedFile().build(crawl.models)
    with tempfile.TemporaryDirectory(prefix="index-parity-") as scratch:
        disk = SegmentedIndex(
            f"{scratch}/segments", flush_threshold=16, block_size=4
        ).build(crawl.models)
        # Flushes are model-granular, so a single-page spec can only
        # ever yield one segment; multi-page specs must split.
        result.expect(
            disk.num_segments > 1 or len(crawl.models) < 2,
            f"flush threshold produced only {disk.num_segments} segment(s) "
            f"for {len(crawl.models)} models; multi-segment path unexercised",
        )
        _compare_indexes(result, memory, disk, "fresh build")
        for uri, state_id in memory.states():
            for term in _state_query_terms(spec, uri, state_id):
                result.expect(
                    disk.tf(term, uri, state_id) == memory.tf(term, uri, state_id),
                    f"tf({term!r}, {uri}, {state_id}) diverges",
                )
        memory_engine = SearchEngine.build(crawl.models)
        disk_engine = SearchEngine.build(
            crawl.models,
            index=SegmentedIndex(
                f"{scratch}/engine-segments", flush_threshold=16, block_size=4
            ),
        )
        queries = ["area", "visit", "area state"]
        queries.extend(marker for page in spec.pages for marker in page.markers)
        queries.extend(
            word for page in spec.pages for words in page.words for word in words
        )
        for query in sorted(set(queries)):
            memory_hits = memory_engine.search(query)
            disk_hits = disk_engine.search(query)
            result.expect(
                memory_hits == disk_hits
                and [hit.components for hit in memory_hits]
                == [hit.components for hit in disk_hits],
                f"query {query!r}: results diverge between index backends",
            )
        # Incremental maintenance + compaction must preserve parity.
        touched = crawl.models[0]
        memory.update_model(touched)
        disk.update_model(touched)
        _compare_indexes(result, memory, disk, "after update_model")
        disk.compact_all()
        result.expect(
            disk.num_segments <= 1, f"{disk.num_segments} segments after compact_all"
        )
        _compare_indexes(result, memory, disk, "after compaction")
        # Reopening from the manifest sees the same index.
        reopened = SegmentedIndex.open(disk.path)
        result.expect(
            reopened.states() == memory.states(),
            "reopened index lost or reordered states",
        )
        reopened.close()
        disk.close()
    return result


def _state_query_terms(spec: SiteSpec, uri: str, state_id: str) -> list[str]:
    """A few representative terms to probe tf parity with (shared words
    with high df plus the state's page markers with df == 1)."""
    terms = ["area", "state", "visit", "absent"]
    for page in spec.pages:
        if spec.page_url(page.page_id) == uri:
            terms.extend(page.markers[:2])
            if page.words:
                terms.extend(page.words[0][:2])
    return terms


# -- near-duplicate collapse ------------------------------------------------------


def _noisy_config(noisy: NoisySiteSpec, collapse: bool) -> CrawlerConfig:
    """Crawl limits for a noisy-twin crawl.

    The hot-node cache is off in both modes: it would replay the first
    twin's bytes on every repeated fetch, hiding the volatility the
    check exists to exercise.  With collapse on the cap admits exactly
    the logical states; with it off the cap bounds the explosion at 3x
    the page size (the oracle replays the same bound).
    """
    max_page_states = max(page.num_states for page in noisy.pages)
    if collapse:
        return CrawlerConfig(
            max_additional_states=max_page_states - 1,
            use_hot_node=False,
            max_event_invocations=10_000,
            near_dup_threshold=NEAR_DUP_THRESHOLD,
        )
    return CrawlerConfig(
        max_additional_states=3 * max_page_states - 1,
        use_hot_node=False,
        max_event_invocations=10_000,
    )


def _crawl_noisy(noisy: NoisySiteSpec, collapse: bool):
    """Traced crawl of a fresh noisy server (fresh serial counters)."""
    recorder = Recorder(clock=SimClock())
    crawler = AjaxCrawler(
        NoisyGeneratedSite(noisy),
        _noisy_config(noisy, collapse),
        clock=recorder.clock,
        cost_model=_cost_model(),
        recorder=recorder,
    )
    result = crawler.crawl(noisy.all_urls())
    return crawler, result, recorder


def _page_metrics(crawl, url: str):
    return next(metrics for metrics in crawl.report.pages if metrics.url == url)


def check_near_dup_parity(spec: SiteSpec) -> CheckResult:
    """Banded-LSH collapse vs the noisy-twin generator's closed form.

    Three crawls of the seed's noisy twin-site plus one of the standard
    site:

    * collapse ON — canonical states, twin→canonical mapping, variant
      counts, volatile masks, collapse/event/hash accounting, trace
      events and search non-fragmentation must all equal the spec
      oracles; zero false merges (every canonical maps to a distinct
      spec state).
    * collapse ON under ``MPAjaxCrawler`` — simulated and threaded
      backends must produce the same models as the single-crawler run.
    * collapse OFF — the same noisy site must explode to *exactly* the
      breadth-first unrolling ``expected_exploded_states`` predicts.
    * standard site, dedup unset — no ``state_collapsed`` events, no
      ``dedup.*``/``crawl.states_collapsed`` registry keys, no dedup
      annotations, and page metrics identical to an untraced baseline
      crawl (byte-identity to *main* is pinned by the golden traces in
      ``make trace-verify``).
    """
    result = CheckResult("near_dup_parity")
    noisy = generate_noisy_site(spec.seed, num_pages=len(spec.pages))

    # -- collapse ON: closed-form oracles ---------------------------------
    _, on_crawl, on_recorder = _crawl_noisy(noisy, collapse=True)
    total_collapses = 0
    total_observations = 0
    for page, model in zip(noisy.pages, on_crawl.models):
        label = f"page {page.page_id} (collapse on)"
        expected_states = noisy.expected_canonical_states(page)
        result.expect(
            model.num_states == expected_states,
            f"{label}: {model.num_states} canonical states, "
            f"expected {expected_states}",
        )
        recovered = recover_graph(page, model)
        for problem in recovered.problems:
            result.expect(False, f"{label}: {problem}")
        result.expect(
            len(recovered.mapping) == model.num_states
            and recovered.states == set(range(page.num_states)),
            f"{label}: canonical set is not a bijection onto the spec "
            f"states (a false merge or a missed twin)",
        )
        result.expect(
            recovered.edges == page.edges,
            f"{label}: recovered edges {sorted(recovered.edges)} != "
            f"spec edges {sorted(page.edges)}",
        )
        result.expect(
            len(list(model.transitions())) == len(page.transitions),
            f"{label}: transition rows diverge from the spec edge count",
        )
        by_spec_state = {
            index: model.get_state(state_id)
            for state_id, index in recovered.mapping.items()
        }
        for index in range(page.num_states):
            state = by_spec_state.get(index)
            if state is None:
                continue  # already reported by the bijection expect
            result.expect(
                noisy.noise_token(page, index, 0) in state.text,
                f"{label}: canonical of spec state {index} is not the "
                f"serial-0 (first-rendered) twin",
            )
            variants = noisy.expected_variants(page, index)
            annotated = state.annotations.get("near_dup_variants")
            mask = state.annotations.get("volatile_regions", "")
            if variants > 1:
                result.expect(
                    annotated == str(variants),
                    f"{label}: state {index} annotates {annotated!r} "
                    f"variants, expected {variants}",
                )
                expected_mask = ",".join(noisy.expected_volatile_mask(page, index))
                result.expect(
                    mask == expected_mask,
                    f"{label}: state {index} volatile mask {mask!r} != "
                    f"{expected_mask!r}",
                )
            else:
                result.expect(
                    annotated is None and not mask,
                    f"{label}: single-variant state {index} carries dedup "
                    f"annotations",
                )
        metrics = _page_metrics(on_crawl, model.url)
        collapses = noisy.expected_collapses(page)
        total_collapses += collapses
        total_observations += 1 + len(page.transitions)
        result.expect(
            metrics.states_collapsed == collapses,
            f"{label}: states_collapsed {metrics.states_collapsed} != "
            f"{collapses}",
        )
        result.expect(
            metrics.duplicates_detected == collapses,
            f"{label}: every duplicate must be a near-dup merge "
            f"({metrics.duplicates_detected} != {collapses})",
        )
        result.expect(metrics.states_capped == 0, f"{label}: states were capped")
        result.expect(
            metrics.events_invoked == len(page.transitions),
            f"{label}: {metrics.events_invoked} events fired, expected "
            f"one per spec edge ({len(page.transitions)})",
        )
        result.expect(
            metrics.dedup_states_hashed == 1 + len(page.transitions),
            f"{label}: {metrics.dedup_states_hashed} observations "
            f"fingerprinted, expected {1 + len(page.transitions)}",
        )
        result.expect(
            metrics.dedup_hamming_checks >= collapses,
            f"{label}: fewer Hamming checks than merges",
        )
    collapsed_events = [
        event for event in on_recorder.events if event.kind == STATE_COLLAPSED
    ]
    result.expect(
        len(collapsed_events) == total_collapses,
        f"{len(collapsed_events)} state_collapsed events, "
        f"expected {total_collapses}",
    )
    on_registry = on_crawl.report.registry
    result.expect(
        int(on_registry.counter("crawl.states_collapsed")) == total_collapses,
        "crawl.states_collapsed diverges from the per-page oracle sum",
    )
    result.expect(
        int(on_registry.counter("dedup.states_hashed")) == total_observations,
        "dedup.states_hashed diverges from the observation count",
    )
    result.expect(
        int(on_registry.counter("dedup.hamming_checks")) >= total_collapses,
        "dedup.hamming_checks below the merge count",
    )

    # Search must not fragment across twins: one hit per marker (the
    # canonical), none for a merged twin's volatile token.
    engine = SearchEngine.build(on_crawl.models)
    for page in noisy.pages:
        for index, marker in enumerate(page.markers):
            hits = engine.result_count(marker)
            result.expect(
                hits == 1,
                f"marker {marker!r} matched {hits} states (canonical "
                f"indexing must yield exactly one)",
            )
            result.expect(
                engine.result_count(noisy.noise_token(page, index, 0)) == 1,
                f"serial-0 twin of page {page.page_id} state {index} is "
                f"not the indexed canonical",
            )
            if noisy.expected_variants(page, index) >= 2:
                leaked = engine.result_count(noisy.noise_token(page, index, 1))
                result.expect(
                    leaked == 0,
                    f"merged twin of page {page.page_id} state {index} "
                    f"leaked into the index",
                )

    # -- collapse ON across execution backends ----------------------------
    partitions = _partition(noisy.all_urls(), 2)

    def controller() -> MPAjaxCrawler:
        return MPAjaxCrawler(
            NoisyGeneratedSite(noisy),
            num_proc_lines=2,
            config=_noisy_config(noisy, collapse=True),
            cost_model=_cost_model(),
        )

    single_prints = _model_fingerprints(on_crawl.models)
    for backend in ("simulated", "threads"):
        run = controller().run(partitions, backend=backend)
        backend_prints = _model_fingerprints(run.result.models)
        result.expect(
            backend_prints == single_prints,
            f"{backend} backend models diverge from the single-crawler "
            f"collapse run",
        )
        result.expect(
            run.result.report.total_states_collapsed == total_collapses,
            f"{backend} backend booked "
            f"{run.result.report.total_states_collapsed} collapses, "
            f"expected {total_collapses}",
        )

    # -- collapse OFF: exact explosion ------------------------------------
    _, off_crawl, off_recorder = _crawl_noisy(noisy, collapse=False)
    off_cap = 3 * max(page.num_states for page in noisy.pages)
    for page, model in zip(noisy.pages, off_crawl.models):
        label = f"page {page.page_id} (collapse off)"
        exploded = noisy.expected_exploded_states(page, off_cap)
        result.expect(
            model.num_states == exploded,
            f"{label}: {model.num_states} states, oracle unrolls to "
            f"{exploded}",
        )
        result.expect(
            model.num_states > page.num_states,
            f"{label}: noisy twins did not inflate the exact-identity "
            f"model",
        )
        metrics = _page_metrics(off_crawl, model.url)
        result.expect(
            metrics.events_invoked == noisy.expected_exploded_events(page, off_cap),
            f"{label}: {metrics.events_invoked} events fired, oracle "
            f"says {noisy.expected_exploded_events(page, off_cap)}",
        )
        result.expect(
            metrics.states_collapsed == 0 and metrics.dedup_states_hashed == 0,
            f"{label}: dedup accounting booked with the layer off",
        )
    _expect_dedup_inert(result, off_crawl, off_recorder, "noisy collapse-off")

    # -- standard site: dedup off must be inert ---------------------------
    recorder = Recorder(clock=SimClock())
    traced = AjaxCrawler(
        GeneratedSite(spec),
        conformance_config(spec),
        clock=recorder.clock,
        cost_model=_cost_model(),
        recorder=recorder,
    )
    traced_crawl = traced.crawl(spec.all_urls())
    _expect_dedup_inert(result, traced_crawl, recorder, "standard")
    _, baseline_crawl = crawl_generated(spec)
    result.expect(
        _model_fingerprints(traced_crawl.models)
        == _model_fingerprints(baseline_crawl.models),
        "dedup-off standard models diverge from the baseline crawl",
    )
    baseline_metrics = {m.url: m for m in baseline_crawl.report.pages}
    for metrics in traced_crawl.report.pages:
        result.expect(
            _behavior_fields(metrics)
            == _behavior_fields(baseline_metrics.get(metrics.url)),
            f"{metrics.url}: dedup-off page metrics diverge from the "
            f"baseline crawl",
        )
    return result


def _behavior_fields(metrics) -> Optional[dict]:
    """Page metrics minus the memo-warmth-dependent work counters.

    The digest memo is process-global, so ``hash_bytes_hashed`` (and
    friends) depend on which crawl of identical content ran first in
    the process — they measure hashing *work*, not crawl behaviour, and
    are excluded from cross-run equality."""
    if metrics is None:
        return None
    import dataclasses

    fields = dataclasses.asdict(metrics)
    for key in ("hash_bytes_hashed", "hash_nodes_hashed", "hash_nodes_skipped"):
        fields.pop(key, None)
    return fields


def _expect_dedup_inert(
    result: CheckResult, crawl, recorder: Recorder, label: str
) -> None:
    """A dedup-off crawl must leave zero dedup traces anywhere."""
    result.expect(
        not any(event.kind == STATE_COLLAPSED for event in recorder.events),
        f"{label}: state_collapsed events emitted with dedup off",
    )
    counters = crawl.report.registry.snapshot()["counters"]
    dirty = [
        key
        for key in counters
        if key.startswith("dedup.") or key == "crawl.states_collapsed"
    ]
    result.expect(
        not dirty,
        f"{label}: dedup registry keys booked with dedup off: {dirty}",
    )
    for model in crawl.models:
        for state in model.states():
            result.expect(
                "near_dup_variants" not in state.annotations
                and "volatile_regions" not in state.annotations,
                f"{label}: {model.url} {state.state_id} carries dedup "
                f"annotations with dedup off",
            )


# -- harness entry points ----------------------------------------------------------


def run_conformance(
    spec: SiteSpec,
    checks: tuple[str, ...] = CHECK_NAMES,
) -> ConformanceReport:
    """Run the selected conformance checks over one generated spec."""
    registry: dict[str, Callable[[SiteSpec], CheckResult]] = {
        "ground_truth": check_ground_truth,
        "hotnode_parity": check_hotnode_parity,
        "incremental_parity": check_incremental_parity,
        "parallel_parity": check_parallel_parity,
        "backend_parity": check_backend_parity,
        "search_consistency": check_search_consistency,
        "index_parity": check_index_parity,
        "near_dup_parity": check_near_dup_parity,
    }
    report = ConformanceReport(spec=spec)
    for name in checks:
        try:
            check = registry[name]
        except KeyError:
            raise ValueError(
                f"unknown conformance check {name!r} (have {sorted(registry)})"
            ) from None
        report.results.append(check(spec))
    return report


def spec_for_seed(seed: int, num_pages: Optional[int] = None) -> SiteSpec:
    """The corpus spec of ``seed``: page count varies 1..3 with the seed
    so single-page and multi-page (parallel-relevant) shapes both appear."""
    if num_pages is None:
        num_pages = 1 + seed % 3
    return generate_site(seed, num_pages=num_pages)


def run_corpus(
    seeds,
    checks: tuple[str, ...] = CHECK_NAMES,
    num_pages: Optional[int] = None,
) -> list[ConformanceReport]:
    """Run the harness over many seeds (the smoke-corpus entry point)."""
    return [
        run_conformance(spec_for_seed(seed, num_pages=num_pages), checks=checks)
        for seed in seeds
    ]
