"""The breadth-first AJAX crawler (Algorithm 3.1.1 / 4.2.1).

The crawler loads a page, runs the body ``onload`` (the AJAX-specific
initialisation), then explores states breadth-first: for every known
state it restores the page to that state, fires each user event, and —
when the DOM changed — resolves the resulting DOM against the model by
content hash.  New states join the frontier (until the state cap), every
observed transition is recorded, and the page is rolled back after each
event (``appModel.rollback(t)``).

The hot-node optimisation of chapter 4 is orthogonal: when enabled, a
:class:`~repro.crawler.hotnode.HotNodeCache` is plugged into the
browser's ``XMLHttpRequest`` so repeated hot calls never reach the
network.  The crawl logic is unchanged — exactly as in the thesis, where
Algorithm 4.2.1 differs from 3.1.1 only in how functions are invoked.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.browser import Browser, JS_ACCOUNT, PARSE_ACCOUNT, Page
from repro.browser.events import EventBinding
from repro.clock import CostModel, SimClock, Stopwatch
from repro.crawler.base import Crawler, PageCrawlResult
from repro.crawler.config import CrawlerConfig, DEFAULT_CONFIG
from repro.crawler.dedup import CollapseOutcome, StateCollapser
from repro.crawler.hotnode import HotNodeCache
from repro.crawler.metrics import PageMetrics
from repro.dom import DomHashes, changed_regions
from repro.dom.simhash import state_features
from repro.errors import BrowserError, NetworkError
from repro.model import ApplicationModel, EventAnnotation, State
from repro.net import NETWORK_ACCOUNT
from repro.net.server import SimulatedServer
from repro.obs import (
    EVENT_FIRED,
    NULL_RECORDER,
    STATE_CAPPED,
    STATE_COLLAPSED,
    STATE_DISCOVERED,
    STATE_DUPLICATE,
)


class AjaxCrawler(Crawler):
    """Crawls the AJAX states of pages on a simulated server."""

    def __init__(
        self,
        server: SimulatedServer,
        config: CrawlerConfig = DEFAULT_CONFIG,
        clock: Optional[SimClock] = None,
        cost_model: Optional[CostModel] = None,
        recorder=NULL_RECORDER,
    ) -> None:
        self.config = config
        self.recorder = recorder
        self.hot_cache = HotNodeCache(enabled=config.use_hot_node)
        self.browser = Browser(
            server,
            clock=clock,
            cost_model=cost_model,
            javascript_enabled=True,
            hot_policy=self.hot_cache if config.use_hot_node else None,
            max_js_steps=config.max_js_steps,
            retry_policy=config.retry_policy(),
            recorder=recorder,
        )
        self._unique_counter = 0
        #: Per-origin granularity hints (None = no hint published).
        self._hint_cache: dict[str, Optional[int]] = {}

    @property
    def clock(self) -> SimClock:
        return self.browser.clock

    @property
    def stats(self):
        return self.browser.stats

    # -- crawling one page ----------------------------------------------------------

    def crawl_page(self, url: str) -> PageCrawlResult:
        """Build the application model of one AJAX page."""
        watch = Stopwatch(self.clock)
        counters_before = self._snapshot_counters()
        max_states = self._effective_max_states(url)

        page = self.browser.load(url, run_scripts=True, run_onload=False)
        page.run_onload()  # Algorithm 3.1.1 line 3 (AJAX specific)

        model = ApplicationModel(url)
        metrics = PageMetrics(url=url)
        collapser = self._make_collapser()
        # One combined pass hashes the loaded DOM and warms the subtree
        # caches, so _add_state and snapshot() below are cache reads
        # instead of further full walks.
        initial_hash, _ = self._identify(page, page.hash_state(), collapser)
        initial, _ = self._add_state(model, page, 0, initial_hash)
        if self.recorder.enabled:
            self.recorder.emit(
                STATE_DISCOVERED,
                url=url,
                state_id=initial.state_id,
                depth=0,
                via_event=False,
            )
        snapshots = {initial.state_id: page.snapshot()}

        frontier: deque[str] = deque([initial.state_id])
        visited: set[str] = {initial.state_id}
        #: Events whose dispatch exhausted network retries: firing them
        #: again from another state would burn the same attempts.
        quarantined: set[tuple[str, str]] = set()
        events_invoked = 0

        while frontier:
            state_id = self._select_next(frontier, model)
            state = model.get_state(state_id)
            base_snapshot = snapshots[state_id]
            page.restore(base_snapshot)
            # A restored tree has the snapshot master's warm caches:
            # this pass is close to a pure cache read.
            base_regions = page.hash_state().regions
            for binding in self._enumerate_events(page):
                if events_invoked >= self.config.max_event_invocations:
                    frontier.clear()
                    break
                if self._is_update_event(binding):
                    # §4.3 "No update events": never fire destructive
                    # handlers (Delete buttons, logout links, ...).
                    metrics.update_events_skipped += 1
                    continue
                if self._event_key(binding) in quarantined:
                    metrics.events_quarantined += 1
                    continue
                if self._should_skip_event(state, binding):
                    metrics.events_skipped_from_history += 1
                    continue
                events_invoked += 1
                with self.recorder.span(
                    "fire_event",
                    state_id=state_id,
                    source=binding.locator.describe() if self.recorder.spans else "",
                    trigger=binding.event_type,
                ) as event_span:
                    failed_before = self.stats.failed_requests
                    changed = self._dispatch(page, binding)
                    request_died = self.stats.failed_requests > failed_before
                    if self.recorder.enabled:
                        self.recorder.emit(
                            EVENT_FIRED,
                            url=url,
                            state_id=state_id,
                            source=binding.locator.describe(),
                            trigger=binding.event_type,
                            changed=bool(changed),
                            quarantined=request_died,
                        )
                    if request_died:
                        # The event's network call died even after retries:
                        # quarantine it and roll back — a half-updated DOM
                        # must not become a model state.
                        quarantined.add(self._event_key(binding))
                        metrics.events_quarantined += 1
                        event_span.annotate(quarantined=True)
                        page.restore(base_snapshot)
                        continue
                    self._record_event_outcome(state, binding, changed)
                    # Hash the DOM and compare against the model (§3.2): the
                    # expensive part of maintaining the application model.
                    self.clock.advance(
                        self.browser.cost_model.state_diff_ms, account="model"
                    )
                    if changed:
                        # The one combined hash call per event: state hash
                        # and region map from a single pass that re-hashes
                        # only the subtrees the event dirtied.
                        event_pass = page.hash_state()
                        content_hash, collapse = self._identify(
                            page, event_pass, collapser
                        )
                        new_state, created = self._resolve_state(
                            model, page, state.depth + 1, max_states, content_hash
                        )
                        if new_state is None:
                            # State cap reached (section 4.3 "State explosion"):
                            # the target is discarded, no transition recorded.
                            metrics.states_capped += 1
                            if self.recorder.enabled:
                                self.recorder.emit(
                                    STATE_CAPPED, url=url, max_states=max_states
                                )
                            event_span.annotate(capped=True)
                            page.restore(base_snapshot)
                            continue
                        collapsed = collapse is not None and collapse.merged
                        if self.recorder.enabled:
                            if collapsed:
                                self.recorder.emit(
                                    STATE_COLLAPSED,
                                    url=url,
                                    state_id=new_state.state_id,
                                    depth=state.depth + 1,
                                    distance=collapse.distance,
                                    candidates=collapse.candidates,
                                )
                            else:
                                self.recorder.emit(
                                    STATE_DISCOVERED if created else STATE_DUPLICATE,
                                    url=url,
                                    state_id=new_state.state_id,
                                    depth=state.depth + 1,
                                    via_event=True,
                                )
                        if collapsed:
                            metrics.states_collapsed += 1
                        if not created:
                            metrics.duplicates_detected += 1
                        model.add_transition(
                            state,
                            new_state,
                            EventAnnotation(
                                source=binding.locator.describe(),
                                trigger=binding.event_type,
                                handler=binding.handler,
                                input_value=binding.input_value,
                            ),
                            # ``modif*`` of Algorithm 3.1.1: the region ids
                            # whose subtree the event actually changed.
                            modified=changed_regions(base_regions, event_pass.regions),
                        )
                        if (
                            created
                            and new_state.state_id not in visited
                            and self._should_expand_state(new_state)
                        ):
                            visited.add(new_state.state_id)
                            frontier.append(new_state.state_id)
                            snapshots[new_state.state_id] = page.snapshot()
                    # Rollback: continue from the state under exploration.
                    page.restore(base_snapshot)

        model.compute_depths()
        if collapser is not None:
            self._finish_collapse(model, metrics, collapser)
        self._fill_metrics(metrics, model, events_invoked, watch, counters_before)
        self._fill_hash_metrics(metrics, page)
        return PageCrawlResult(model=model, metrics=metrics)

    # -- internals ---------------------------------------------------------------------

    def _dispatch(self, page: Page, binding: EventBinding) -> bool:
        try:
            return page.dispatch(binding)
        except BrowserError:
            # The event's source vanished (stale locator); skip it.
            return False
        except NetworkError:
            # A network failure escaped the XHR layer (e.g. a handler
            # re-raising): treat it like an exhausted request so the
            # quarantine logic sees it, never crash the page crawl.
            self.stats.record_exhausted()
            return False

    def _event_key(self, binding: EventBinding) -> tuple[str, str]:
        """Identity of an event across states, for quarantining."""
        return (binding.locator.describe(), binding.event_type)

    def _make_collapser(self) -> Optional[StateCollapser]:
        """One fresh collapser per page crawl (None = layer disabled)."""
        if self.config.near_dup_threshold is None:
            return None
        return StateCollapser(self.config.near_dup_threshold)

    def _identify(
        self, page: Page, hashes: DomHashes, collapser: Optional[StateCollapser]
    ) -> tuple[str, Optional[CollapseOutcome]]:
        """The identity one observed DOM resolves against the model (§3.2).

        That is the pass's own state hash; with near-duplicate collapse
        on, the canonical twin's hash when this DOM merged into one, so
        volatile regions never mint new model states; with duplicate
        elimination off (ablation), a hash no other observation shares.
        """
        if collapser is not None:
            outcome = collapser.observe(
                hashes.state, state_features(page.document), hashes.regions
            )
            return outcome.canonical_hash, outcome
        if not self.config.deduplicate_states:
            self._unique_counter += 1
            return f"{hashes.state}:{self._unique_counter}", None
        return hashes.state, None

    def _finish_collapse(
        self,
        model: ApplicationModel,
        metrics: PageMetrics,
        collapser: StateCollapser,
    ) -> None:
        """Book collapser accounting and annotate canonical states."""
        metrics.dedup_states_hashed = collapser.states_hashed
        metrics.dedup_lsh_candidates = collapser.lsh_candidates
        metrics.dedup_hamming_checks = collapser.hamming_checks
        for canonical_hash in collapser.canonical_hashes():
            state = model.resolve_hash(canonical_hash)
            if state is None:
                # The canonical itself was rejected by the state cap.
                continue
            variants = collapser.variants_of(canonical_hash)
            if variants > 1:
                state.annotations["near_dup_variants"] = str(variants)
                volatile = collapser.volatile_regions_of(canonical_hash)
                if volatile:
                    state.annotations["volatile_regions"] = ",".join(volatile)

    def _add_state(
        self, model: ApplicationModel, page: Page, depth: int, content_hash: str
    ) -> tuple[State, bool]:
        html = None
        if self.config.store_html:
            from repro.dom import serialize

            html = serialize(page.document)
        return model.add_state(content_hash, page.text, html=html, depth=depth)

    def _resolve_state(
        self,
        model: ApplicationModel,
        page: Page,
        depth: int,
        max_states: int,
        content_hash: str,
    ) -> tuple[Optional[State], bool]:
        """Resolve the page's current DOM against the model, respecting
        the per-page state cap: a genuinely new state beyond the cap is
        not admitted and ``(None, False)`` is returned."""
        known = model.resolve_hash(content_hash)
        if known is not None:
            # Most events lead back to a known state: no text walk for it.
            return known, False
        if model.num_states >= max_states:
            return None, False
        return self._add_state(model, page, depth, content_hash)

    def _enumerate_events(self, page: Page) -> list[EventBinding]:
        """Hook for subclasses: which events to fire in the current state.

        The base crawler uses the configured DOM event attributes; the
        form-filling crawler extends the list with value-carrying
        bindings for text inputs.
        """
        return page.events(self.config.event_types)

    def _select_next(self, frontier: deque, model: ApplicationModel) -> str:
        """Hook for subclasses: pick the next frontier state to explore.

        The base crawler is breadth-first (FIFO); the focused crawler
        overrides this with best-first selection.
        """
        return frontier.popleft()

    def _should_expand_state(self, state: State) -> bool:
        """Hook for subclasses: decide whether a newly discovered state's
        own events should be explored.  The base crawler expands all."""
        return True

    def _should_skip_event(self, state: State, binding: EventBinding) -> bool:
        """Hook for subclasses: skip this event without firing it.

        The base crawler never skips; the incremental recrawler
        (:mod:`repro.crawler.incremental`) skips events a previous
        session proved to be no-ops.
        """
        return False

    def _record_event_outcome(self, state: State, binding: EventBinding, changed: bool) -> None:
        """Hook for subclasses: observe one fired event's outcome."""

    def _is_update_event(self, binding: EventBinding) -> bool:
        handler = binding.handler.lower()
        return any(pattern in handler for pattern in self.config.update_event_patterns)

    def _effective_max_states(self, url: str) -> int:
        """The per-page state cap, lowered by the site's granularity hint
        (``/ajax-robots.json``) when one is published and honoured."""
        if not self.config.respect_granularity_hints:
            return self.config.max_states
        hint = self._granularity_hint_for(url)
        if hint is None:
            return self.config.max_states
        return min(self.config.max_states, max(1, hint))

    def _granularity_hint_for(self, url: str) -> Optional[int]:
        from urllib.parse import urlsplit, urlunsplit

        parts = urlsplit(url)
        origin = urlunsplit((parts.scheme, parts.netloc, "", "", ""))
        if origin in self._hint_cache:
            return self._hint_cache[origin]
        # Out-of-band metadata fetch: goes straight to the server so it
        # does not pollute the AJAX-call counters of the experiments.
        from repro.net.http import Request

        hint: Optional[int] = None
        response = self.browser.gateway.server.handle(
            Request("GET", origin + "/ajax-robots.json")
        )
        if response.ok:
            import json

            try:
                payload = json.loads(response.body)
                value = payload.get("max_states")
                # bool is an int subclass: {"max_states": true} must not
                # silently cap the page at 1 state.
                if (
                    isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and value > 0
                ):
                    hint = int(value)
            except (ValueError, AttributeError):
                hint = None
        self._hint_cache[origin] = hint
        return hint

    def _snapshot_counters(self) -> dict[str, float]:
        stats = self.browser.stats
        clock = self.clock
        return {
            "ajax_calls": stats.ajax_calls,
            "cached_hits": stats.cached_hits,
            "network_ms": clock.spent_on(NETWORK_ACCOUNT),
            "js_ms": clock.spent_on(JS_ACCOUNT),
            "parse_ms": clock.spent_on(PARSE_ACCOUNT),
        }

    def _fill_metrics(
        self,
        metrics: PageMetrics,
        model: ApplicationModel,
        events_invoked: int,
        watch: Stopwatch,
        before: dict[str, float],
    ) -> None:
        # Charge the model-maintenance cost for each state kept.
        maintenance = model.num_states * self.browser.cost_model.model_insert_ms
        self.clock.advance(maintenance, account="model")
        stats = self.browser.stats
        clock = self.clock
        metrics.crawl_time_ms = watch.elapsed_ms
        metrics.network_time_ms = clock.spent_on(NETWORK_ACCOUNT) - before["network_ms"]
        metrics.js_time_ms = clock.spent_on(JS_ACCOUNT) - before["js_ms"]
        metrics.parse_time_ms = clock.spent_on(PARSE_ACCOUNT) - before["parse_ms"]
        metrics.states = model.num_states
        metrics.events_invoked = events_invoked
        metrics.ajax_calls = int(stats.ajax_calls - before["ajax_calls"])
        metrics.cached_hits = int(stats.cached_hits - before["cached_hits"])

    def _fill_hash_metrics(self, metrics: PageMetrics, page: Page) -> None:
        """Book the page's hashing work."""
        hs = page.hash_stats
        metrics.hash_nodes_hashed = hs.nodes_hashed
        metrics.hash_nodes_skipped = hs.nodes_skipped
        metrics.hash_bytes_hashed = hs.bytes_hashed
        metrics.hash_full_passes = hs.full_passes
        metrics.hash_incremental_passes = hs.incremental_passes
