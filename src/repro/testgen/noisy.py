"""Noisy-twin sites: generated apps with per-request volatile regions.

A plain :class:`~repro.testgen.site.GeneratedSite` is a pure function of
its spec — refetching a fragment yields byte-identical markup, so exact
hash dedup already collapses re-observations.  Real AJAX pages are not
like that: a timestamp, rotating ad or request counter makes every
observation of the *same* logical state hash differently, and an
exact-identity crawler re-mints it forever (state explosion).

:class:`NoisyGeneratedSite` reproduces that failure mode determin-
istically: every fragment it serves carries one volatile region
``<div id="vol{page}x{state}">`` whose text is a unique serial token
``zz{page}x{state}x{serial}`` (a per-``(page, state)`` request
counter).  Two observations of the same spec state are therefore
*twins*: byte-different, one token apart in feature space.

Because the noise is confined to that one region and the stable words
of different states are **disjoint** (each state draws its own slice of
:data:`NOISY_WORD_CORPUS`), the collapse ground truth is closed-form —
:class:`NoisySiteSpec` exposes it as oracles:

* dedup ON (``near_dup_threshold=NEAR_DUP_THRESHOLD``, hot node off —
  the cache would replay the first noise token and hide volatility):
  canonical states per page = ``num_states``; the canonical a twin
  merges into is identified by its marker; variant counts equal fetch
  counts (in-degree, +1 for the inlined state 0); the volatile mask is
  exactly ``{"content", "vol{p}x{s}"}``; collapses per page =
  ``len(transitions) + 1 - num_states``.
* dedup OFF: every observation mints a new state; the crawl unrolls the
  transition graph breadth-first until the state cap —
  :meth:`NoisySiteSpec.expected_exploded_states` replays that unrolling
  exactly.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import deque

from repro.testgen.generator import MIN_STATES, generate_site
from repro.testgen.site import GeneratedSite, PAGE_SCRIPT_TEMPLATE
from repro.testgen.spec import PageSpec, SiteSpec

__all__ = [
    "NEAR_DUP_THRESHOLD",
    "NOISY_WORD_CORPUS",
    "VOLATILE_MARKER_SUBSTRINGS",
    "NoisyGeneratedSite",
    "NoisySiteSpec",
    "build_noisy_site",
    "generate_noisy_site",
]

#: Default Hamming threshold for collapsing noisy twins.  Calibrated on
#: seeds 0..49: twin pairs land at distance ~2-9 (one volatile token of
#: ~30+ stable features), distinct-state pairs at ~25-35 (disjoint word
#: slices); 14 sits > 4 sigma from both populations.
NEAR_DUP_THRESHOLD = 14

#: Substring markers of generated volatility.  Corpus words — here, in
#: ``generator.WORD_CORPUS`` and in the fuzz pools — must avoid them,
#: otherwise a stable word could masquerade as a volatile region id or
#: noise token in oracle/text assertions.
VOLATILE_MARKER_SUBSTRINGS = ("vol", "zz")

#: Stable vocabulary for noisy states.  Disjointness is the point: each
#: state of a page draws its own exclusive slice, so distinct states
#: share (almost) no features and sit far apart in simhash space while
#: twins differ by one noise token.  Like ``WORD_CORPUS``, every word is
#: free of ``UPDATE_EVENT_PATTERNS`` substrings *and* of
#: :data:`VOLATILE_MARKER_SUBSTRINGS`.
NOISY_WORD_CORPUS = (
    "acorn", "alloy", "anchor", "aspen", "atlas", "auburn", "bamboo",
    "barley", "birch", "bison", "bluff", "briar", "bronze", "butte",
    "cairn", "canyon", "cedar", "cliff", "clover", "coral", "crag",
    "cypress", "dawn", "dune", "falcon", "fennel", "fern", "flint",
    "gale", "ginger", "glade", "gorse", "granite", "grove", "gulf",
    "hazel", "heather", "heron", "hickory", "inlet", "iris", "juniper",
    "kelp", "knoll", "larch", "laurel", "lichen", "linden", "lotus",
    "maple", "marsh", "mesa", "mica", "myrtle", "ocean", "opal",
    "orchid", "osprey", "otter", "pebble", "pine", "plume", "raven",
    "reef", "ridge", "rowan", "sage", "slate", "spruce", "summit",
    "thistle", "wren",
)


class NoisySiteSpec(SiteSpec):
    """A site spec whose server injects volatile regions, with oracles."""

    # -- naming ---------------------------------------------------------------

    def page_token(self, page: PageSpec) -> str:
        """The page's stable title token (chrome shared by its states)."""
        return f"ns{self.seed}p{page.page_id}"

    def volatile_region_id(self, page: PageSpec, state: int) -> str:
        return f"vol{page.page_id}x{state}"

    def noise_token(self, page: PageSpec, state: int, serial: int) -> str:
        """The volatile text of the ``serial``-th render of a state.

        Serial 0 is the first render: the inlined page load for state 0,
        the first fragment fetch for every other state — i.e. the render
        that becomes the canonical state under collapse.
        """
        return f"zz{page.page_id}x{state}x{serial}"

    # -- dedup-ON oracles -----------------------------------------------------

    def expected_canonical_states(self, page: PageSpec) -> int:
        """Canonical state count: one per logical spec state."""
        return page.num_states

    def expected_variants(self, page: PageSpec, state: int) -> int:
        """Observations collapsing into a state's canonical.

        Every in-edge is fired exactly once (from its source's canonical
        snapshot) and fetches a fresh twin; state 0 is additionally
        observed once at page load via the inlined fragment.
        """
        return page.in_degree(state) + (1 if state == 0 else 0)

    def expected_collapses(self, page: PageSpec) -> int:
        """Merges per page: observations minus canonicals."""
        return len(page.transitions) + 1 - page.num_states

    def expected_volatile_mask(self, page: PageSpec, state: int) -> tuple[str, ...]:
        """Region ids that differ across a canonical's variants.

        The noise div's digest changes between twins, and region diffs
        report the full containment chain — so the mask is the volatile
        div plus the enclosing ``content`` region, or empty for a state
        observed only once.
        """
        if self.expected_variants(page, state) < 2:
            return ()
        return tuple(sorted(("content", self.volatile_region_id(page, state))))

    # -- dedup-OFF oracle -----------------------------------------------------

    def expected_exploded_states(self, page: PageSpec, max_states: int) -> int:
        """Model size of an exact-identity crawl of the noisy page.

        Every fetch hashes uniquely, so the breadth-first crawl unrolls
        the transition graph: each explored twin re-fires its spec
        state's out-edges, minting one new twin per firing until the
        state cap rejects further admissions.
        """
        states, _ = self._explode(page, max_states)
        return states

    def expected_exploded_events(self, page: PageSpec, max_states: int) -> int:
        """Events fired by the exact-identity crawl (admitted twins only
        are explored; capped observations still cost their firing)."""
        _, events = self._explode(page, max_states)
        return events

    @staticmethod
    def _explode(page: PageSpec, max_states: int) -> tuple[int, int]:
        states = 1
        events = 0
        frontier: deque[int] = deque([0])
        while frontier:
            spec_state = frontier.popleft()
            for transition in page.outgoing(spec_state):
                events += 1
                if states >= max_states:
                    continue
                states += 1
                frontier.append(transition.dst)
        return states, events


def generate_noisy_site(
    seed: int,
    num_pages: int = 1,
    min_states: int = MIN_STATES,
    max_states: int = 6,
    extra_edges: int = 3,
    words_per_state: int = 10,
    base_url: str = "http://noisy.test",
) -> NoisySiteSpec:
    """Sample a noisy-twin site spec from ``seed``.

    The transition graphs are sampled exactly like ``generate_site``;
    only the stable vocabulary changes — each state receives its own
    exclusive ``words_per_state``-word slice of a per-page shuffle of
    :data:`NOISY_WORD_CORPUS`, so sibling states share no stable words.
    """
    base = generate_site(
        seed,
        num_pages=num_pages,
        min_states=min_states,
        max_states=max_states,
        extra_edges=extra_edges,
        base_url=base_url,
    )
    if max_states * words_per_state > len(NOISY_WORD_CORPUS):
        raise ValueError(
            f"cannot deal {max_states} disjoint slices of {words_per_state} "
            f"words from a {len(NOISY_WORD_CORPUS)}-word corpus"
        )
    import random

    pages = []
    for page in base.pages:
        deck = list(NOISY_WORD_CORPUS)
        random.Random(seed * 1_000_003 + page.page_id).shuffle(deck)
        words = tuple(
            tuple(deck[state * words_per_state : (state + 1) * words_per_state])
            for state in range(page.num_states)
        )
        pages.append(dataclasses.replace(page, words=words))
    return NoisySiteSpec(seed=seed, base_url=base.base_url, pages=tuple(pages))


class NoisyGeneratedSite(GeneratedSite):
    """Serves a noisy spec: stateful, one serial counter per (page, state).

    Unlike its parent this server is deliberately *not* a pure function
    of the spec — but it is still deterministic: a state's ``n``-th
    render always carries noise token ``serial = n - 1``, regardless of
    which other pages are interleaved (the counter is per page/state),
    so single-process, threaded and re-run crawls all see the same
    bytes in the same per-state order.
    """

    def __init__(self, spec: NoisySiteSpec) -> None:
        super().__init__(spec)
        self.spec: NoisySiteSpec = spec
        self._serials: dict[tuple[int, int], int] = {}
        self._serial_lock = threading.Lock()

    def _next_serial(self, page_id: int, state: int) -> int:
        with self._serial_lock:
            serial = self._serials.get((page_id, state), 0)
            self._serials[(page_id, state)] = serial + 1
        return serial

    def render_fragment(self, page: PageSpec, state: int) -> str:
        """A twin of ``state``: stable terms + nav + one volatile div."""
        words = " ".join(page.words[state]) if page.words else ""
        nav = "".join(
            f'<li><a id="{t.element_id}" onclick="go({t.dst})">'
            f"visit {t.dst}</a></li>"
            for t in page.outgoing(state)
        )
        serial = self._next_serial(page.page_id, state)
        volatile_id = self.spec.volatile_region_id(page, state)
        noise = self.spec.noise_token(page, state, serial)
        return (
            f'<p class="terms">{page.marker_of(state)} {words}</p>\n'
            f'<ul id="nav">{nav}</ul>\n'
            f'<div id="{volatile_id}">{noise}</div>'
        )

    def render_page(self, page: PageSpec) -> str:
        # Minimal chrome on purpose: beyond the title token and the
        # content/nav region skeleton, states share nothing stable, so
        # distinct states stay far apart in simhash space.
        script = PAGE_SCRIPT_TEMPLATE.format(page_id=page.page_id)
        return f"""<html>
<head><title>{self.spec.page_token(page)}</title></head>
<body onload="init()">
<div id="content">{self.render_fragment(page, 0)}</div>
<script type="text/javascript">{script}</script>
</body>
</html>"""


def build_noisy_site(spec: NoisySiteSpec) -> NoisyGeneratedSite:
    """Convenience constructor mirroring :func:`generate_noisy_site`."""
    return NoisyGeneratedSite(spec)
