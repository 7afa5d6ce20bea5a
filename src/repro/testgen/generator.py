"""Seed-parameterized sampling of synthetic AJAX applications.

``generate_site(seed)`` deterministically samples a :class:`SiteSpec`:
per page a random spanning arborescence rooted at state 0 (so every
state is reachable) plus extra random edges, with three invariants the
conformance oracles rely on:

* **no self loops** — every sampled edge changes the DOM, so the
  crawler records exactly one transition per edge;
* **no duplicate (src, dst) edges** — the recovered edge set matches
  the spec edge set bijectively;
* **at least one state with in-degree >= 2** — some fragment is fetched
  twice by a basic crawl, so a hot-node crawl performs *strictly* fewer
  network calls (the chapter-4 claim the parity check asserts).

Markers are single alphanumeric tokens unique across the whole site
(``mg<seed>p<page>s<state>``), so any crawled state's text identifies
its spec state and a marker query must hit exactly one indexed state.
"""

from __future__ import annotations

import random

from repro.testgen.spec import PageSpec, SiteSpec, TransitionSpec

#: Shared vocabulary sprinkled over state fragments (search realism:
#: non-unique terms with document frequency > 1).  Deliberately free of
#: the crawler's ``UPDATE_EVENT_PATTERNS`` substrings (delete/remove/...)
#: so no generated handler is ever mistaken for a destructive event.
WORD_CORPUS = (
    "amber", "basalt", "cobalt", "delta", "ember", "fjord", "garnet",
    "harbor", "indigo", "jasper", "krypton", "lagoon", "meadow", "nectar",
    "onyx", "prairie", "quartz", "russet", "sierra", "tundra", "umber",
    "violet", "willow", "xenon", "yonder", "zephyr",
)

#: Hard floor: below three states a duplicate-target edge cannot be
#: sampled without a self loop or duplicate edge (see invariants above).
MIN_STATES = 3


def generate_page(
    rng: random.Random,
    seed: int,
    page_id: int,
    min_states: int = MIN_STATES,
    max_states: int = 6,
    extra_edges: int = 3,
    words_per_state: int = 3,
) -> PageSpec:
    """Sample one page's transition graph from ``rng``."""
    if min_states < MIN_STATES:
        raise ValueError(f"generated pages need >= {MIN_STATES} states")
    if max_states < min_states:
        raise ValueError("max_states must be >= min_states")
    n = rng.randint(min_states, max_states)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    # Spanning arborescence: state k (k >= 1) is entered from a random
    # earlier state, so every state is reachable from state 0.
    for k in range(1, n):
        edge = (rng.randrange(k), k)
        edges.append(edge)
        seen.add(edge)
    # Extra edges thicken the graph (back edges, cross edges).
    for _ in range(rng.randint(0, extra_edges)):
        src, dst = rng.randrange(n), rng.randrange(n)
        if src == dst or (src, dst) in seen:
            continue
        edges.append((src, dst))
        seen.add((src, dst))
    _ensure_duplicate_target(rng, n, edges, seen)
    transitions = tuple(
        TransitionSpec(src=src, dst=dst, element_id=f"go{page_id}x{src}x{dst}")
        for src, dst in edges
    )
    markers = tuple(f"mg{seed}p{page_id}s{state}" for state in range(n))
    words = tuple(
        tuple(rng.sample(WORD_CORPUS, k=words_per_state)) for _ in range(n)
    )
    return PageSpec(
        page_id=page_id,
        path=f"/app/{page_id}",
        num_states=n,
        transitions=transitions,
        markers=markers,
        words=words,
    )


def _ensure_duplicate_target(
    rng: random.Random,
    n: int,
    edges: list[tuple[int, int]],
    seen: set[tuple[int, int]],
) -> None:
    """Force some state to have in-degree >= 2 (hot-node saving > 0)."""
    in_degree: dict[int, int] = {}
    for _, dst in edges:
        in_degree[dst] = in_degree.get(dst, 0) + 1
    if any(count >= 2 for count in in_degree.values()):
        return
    # Every tree target has in-degree exactly 1; add one more edge to a
    # random such target from a random other state.  With n >= 3 at
    # least one (src, dst) pair is always free.
    targets = [dst for dst in range(1, n)]
    rng.shuffle(targets)
    for dst in targets:
        sources = [src for src in range(n) if src != dst and (src, dst) not in seen]
        if sources:
            src = rng.choice(sources)
            edges.append((src, dst))
            seen.add((src, dst))
            return
    raise AssertionError("unreachable: n >= 3 always admits a duplicate-target edge")


def generate_site(
    seed: int,
    num_pages: int = 1,
    min_states: int = MIN_STATES,
    max_states: int = 6,
    extra_edges: int = 3,
    words_per_state: int = 3,
    base_url: str = "http://testgen.test",
) -> SiteSpec:
    """Deterministically sample a whole site spec from ``seed``."""
    if num_pages < 1:
        raise ValueError("a generated site needs at least one page")
    rng = random.Random(seed)
    pages = tuple(
        generate_page(
            rng,
            seed=seed,
            page_id=page_id,
            min_states=min_states,
            max_states=max_states,
            extra_edges=extra_edges,
            words_per_state=words_per_state,
        )
        for page_id in range(num_pages)
    )
    return SiteSpec(seed=seed, base_url=base_url, pages=pages)
