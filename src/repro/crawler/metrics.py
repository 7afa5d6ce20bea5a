"""Crawl measurements.

Chapter 7 reports per-page crawl times, network-time splits, state and
event counts, and dataset-level aggregates.  :class:`PageMetrics` is the
per-page record; :class:`CrawlReport` aggregates a whole crawl and
exposes exactly the quantities the tables/figures need.

Since the observability layer landed, the aggregate counters live in a
:class:`~repro.obs.MetricsRegistry` (namespace ``crawl.*``): every
``add()`` books the page's numbers into the registry, and the
historical ``total_*`` attributes are thin properties over it, so the
crawl-level and network-level accounting share one mechanism and merge
the same way across :class:`~repro.parallel.MPAjaxCrawler` partitions.
The per-page records are kept as well — Figures 7.3/7.4 need per-page
distributions, not just totals.

Aggregation detail that matters for reproducibility: ``merge`` re-books
the other report's pages one at a time, so the float accumulation order
equals a single-process crawl over the concatenated page list and the
totals stay bit-identical to the pre-registry implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.metrics import MetricsRegistry


@dataclass
class PageMetrics:
    """Measurements of crawling one page (one video)."""

    url: str
    #: Total virtual milliseconds spent on this page.
    crawl_time_ms: float = 0.0
    #: Portion of the total spent waiting on the network.
    network_time_ms: float = 0.0
    #: Portion spent executing JavaScript.
    js_time_ms: float = 0.0
    #: Portion spent parsing HTML / restoring DOM snapshots.
    parse_time_ms: float = 0.0
    #: States in the final application model.
    states: int = 0
    #: Events invoked while crawling the page.
    events_invoked: int = 0
    #: AJAX calls that reached the network.
    ajax_calls: int = 0
    #: AJAX calls served from the hot-node cache.
    cached_hits: int = 0
    #: Duplicate states detected by hashing.
    duplicates_detected: int = 0
    #: Destructive (update) events found but deliberately not fired (§4.3).
    update_events_skipped: int = 0
    #: Events skipped because a previous session proved them no-ops
    #: (incremental recrawling, ch. 10 future work).
    events_skipped_from_history: int = 0
    #: Events quarantined after their dispatch exhausted network retries
    #: (the event stays in the model's blind spot rather than killing
    #: the page crawl).
    events_quarantined: int = 0
    #: New states rejected by the per-page state cap (§4.3) — content
    #: the model deliberately discarded (the doctor's truncation rule).
    states_capped: int = 0
    #: DOM changes merged into a near-duplicate canonical state (banded
    #: LSH collapse; only nonzero when ``near_dup_threshold`` is set).
    states_collapsed: int = 0
    #: Observations fingerprinted by the collapser (exact re-observations
    #: short-circuit before fingerprinting and are not counted).
    dedup_states_hashed: int = 0
    #: Canonical candidates returned by banded LSH lookups.
    dedup_lsh_candidates: int = 0
    #: Hamming distance computations performed against candidates.
    dedup_hamming_checks: int = 0
    #: DOM nodes whose canonical bytes were (re)built while hashing.
    hash_nodes_hashed: int = 0
    #: DOM nodes served from clean Merkle subtree caches.
    hash_nodes_skipped: int = 0
    #: Bytes actually fed to SHA-256 across all hash passes.
    hash_bytes_hashed: int = 0
    #: Hash passes that rebuilt the whole tree from scratch.
    hash_full_passes: int = 0
    #: Hash passes that reused cached subtree digests.
    hash_incremental_passes: int = 0

    @property
    def processing_time_ms(self) -> float:
        """Crawl time minus network time (the lower curve of Fig. 7.4)."""
        return self.crawl_time_ms - self.network_time_ms


class CrawlReport:
    """Aggregate of a whole crawl (one crawler over a URL list)."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.pages: list[PageMetrics] = []
        #: The backing registry (``crawl.*`` namespace); share one to
        #: unify accounting with other components, or merge across
        #: partitions after a parallel crawl.
        self.registry = registry if registry is not None else MetricsRegistry()

    def add(self, metrics: PageMetrics) -> None:
        self.pages.append(metrics)
        registry = self.registry
        registry.inc("crawl.pages")
        registry.inc("crawl.states", metrics.states)
        registry.inc("crawl.events_invoked", metrics.events_invoked)
        registry.inc("crawl.ajax_calls", metrics.ajax_calls)
        registry.inc("crawl.cached_hits", metrics.cached_hits)
        registry.inc("crawl.duplicates_detected", metrics.duplicates_detected)
        registry.inc("crawl.update_events_skipped", metrics.update_events_skipped)
        registry.inc(
            "crawl.events_skipped_from_history", metrics.events_skipped_from_history
        )
        registry.inc("crawl.events_quarantined", metrics.events_quarantined)
        registry.inc("crawl.states_capped", metrics.states_capped)
        if metrics.dedup_states_hashed:
            # Booked only when the page actually ran the collapser, so
            # dedup-off registry snapshots stay byte-identical to main.
            registry.inc("crawl.states_collapsed", metrics.states_collapsed)
            registry.inc("dedup.states_hashed", metrics.dedup_states_hashed)
            registry.inc("dedup.lsh_candidates", metrics.dedup_lsh_candidates)
            registry.inc("dedup.hamming_checks", metrics.dedup_hamming_checks)
        registry.inc("crawl.hash_nodes_hashed", metrics.hash_nodes_hashed)
        registry.inc("crawl.hash_nodes_skipped", metrics.hash_nodes_skipped)
        registry.inc("crawl.hash_bytes_hashed", metrics.hash_bytes_hashed)
        registry.inc("crawl.hash_full_passes", metrics.hash_full_passes)
        registry.inc("crawl.hash_incremental_passes", metrics.hash_incremental_passes)
        registry.inc("crawl.crawl_time_ms", metrics.crawl_time_ms)
        registry.inc("crawl.network_time_ms", metrics.network_time_ms)
        registry.inc("crawl.js_time_ms", metrics.js_time_ms)
        registry.inc("crawl.parse_time_ms", metrics.parse_time_ms)
        registry.observe("crawl.page_time_ms", metrics.crawl_time_ms)
        registry.observe("crawl.states_per_page", metrics.states)

    # -- totals (thin properties over the registry) -------------------------------

    @property
    def num_pages(self) -> int:
        return int(self.registry.counter("crawl.pages"))

    @property
    def total_states(self) -> int:
        return int(self.registry.counter("crawl.states"))

    @property
    def total_events(self) -> int:
        return int(self.registry.counter("crawl.events_invoked"))

    @property
    def total_ajax_calls(self) -> int:
        return int(self.registry.counter("crawl.ajax_calls"))

    @property
    def total_cached_hits(self) -> int:
        return int(self.registry.counter("crawl.cached_hits"))

    @property
    def total_events_quarantined(self) -> int:
        return int(self.registry.counter("crawl.events_quarantined"))

    @property
    def total_states_capped(self) -> int:
        return int(self.registry.counter("crawl.states_capped"))

    @property
    def total_states_collapsed(self) -> int:
        return int(self.registry.counter("crawl.states_collapsed"))

    @property
    def total_time_ms(self) -> float:
        return self.registry.counter("crawl.crawl_time_ms")

    @property
    def total_network_time_ms(self) -> float:
        return self.registry.counter("crawl.network_time_ms")

    # -- means ------------------------------------------------------------------

    @property
    def mean_time_per_page_ms(self) -> float:
        return self.total_time_ms / self.num_pages if self.pages else 0.0

    @property
    def mean_time_per_state_ms(self) -> float:
        states = self.total_states
        return self.total_time_ms / states if states else 0.0

    @property
    def mean_events_per_page(self) -> float:
        return self.total_events / self.num_pages if self.pages else 0.0

    # -- throughput ---------------------------------------------------------------

    @property
    def states_per_second(self) -> float:
        """State throughput (Figure 7.7)."""
        seconds = self.total_time_ms / 1000.0
        return self.total_states / seconds if seconds > 0 else 0.0

    def merge(self, other: "CrawlReport") -> None:
        """Fold another report into this one (parallel partitions).

        Pages are re-booked one at a time (not registry-merged) so the
        float accumulation order matches a single-process crawl.
        """
        for page in other.pages:
            self.add(page)
