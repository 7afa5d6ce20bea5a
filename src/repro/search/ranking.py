"""Ranking coefficients (§5.3.3).

The overall rank of a result is the weighted sum of eq. 5.3:

    R = w1·PageRank(url) + w2·AJAXRank(state) + w3·Σ tf·idf + w4·T(q, s)

* **PageRank** — power iteration over the hyperlink graph built by the
  precrawler; URL-based, identical for all states of a page.
* **AJAXRank** — the within-page analogue [Frey 2007]: power iteration
  over the page's *transition graph*, so states that many events lead to
  (e.g. the first comment page) rank higher.
* **tf/idf** — states as documents (eqs. 5.1/5.2).
* **Term proximity** — rewards query terms appearing close together and
  in order; highest when the state contains the query verbatim.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count
from operator import and_, itemgetter, lt

from repro.model import ApplicationModel


@dataclass(frozen=True)
class RankingWeights:
    """The weights w1..w4 of eq. 5.3."""

    pagerank: float = 0.2
    ajaxrank: float = 0.2
    tfidf: float = 0.5
    proximity: float = 0.1


def pagerank(
    link_graph: dict[str, list[str]],
    damping: float = 0.85,
    iterations: int = 50,
    tolerance: float = 1e-9,
) -> dict[str, float]:
    """Classic PageRank by power iteration.

    ``link_graph`` maps each node to its outbound neighbours.  Nodes
    that only appear as targets are included with no out-links
    (dangling); their mass is redistributed uniformly.
    """
    nodes: set[str] = set(link_graph)
    for targets in link_graph.values():
        nodes.update(targets)
    if not nodes:
        return {}
    ordered = sorted(nodes)
    count = len(ordered)
    rank = {node: 1.0 / count for node in ordered}
    outgoing = {node: [t for t in link_graph.get(node, []) if t in nodes] for node in ordered}
    for _ in range(iterations):
        dangling_mass = sum(rank[node] for node in ordered if not outgoing[node])
        incoming: dict[str, float] = {node: 0.0 for node in ordered}
        for node in ordered:
            targets = outgoing[node]
            if not targets:
                continue
            share = rank[node] / len(targets)
            for target in targets:
                incoming[target] += share
        new_rank = {}
        base = (1.0 - damping) / count + damping * dangling_mass / count
        for node in ordered:
            new_rank[node] = base + damping * incoming[node]
        delta = sum(abs(new_rank[node] - rank[node]) for node in ordered)
        rank = new_rank
        if delta < tolerance:
            break
    return rank


def ajaxrank(model: ApplicationModel, damping: float = 0.85, iterations: int = 50) -> dict[str, float]:
    """AJAXRank: PageRank over one page's transition graph.

    Returns state_id → rank for every state of ``model``.  Parallel
    edges (several events leading to the same target) count once each,
    so heavily-linked states accumulate more rank.
    """
    graph = {
        state.state_id: [t.to_state for t in model.outgoing(state.state_id)]
        for state in model.states()
    }
    return pagerank(graph, damping=damping, iterations=iterations)


def inverse_document_frequency(num_states: int, df: int) -> float:
    """idf with states as documents (eq. 5.2): ``log(N / df)``, 0 if either is 0.

    ``num_states`` and ``df`` may be sums over shards — the merge-time
    global idf of §6.5.2 is this same function of the summed counts.
    """
    if df == 0 or num_states == 0:
        return 0.0
    return math.log(num_states / df)


def term_proximity(position_groups: list[tuple[int, ...]]) -> float:
    """Proximity coefficient T(q, s) ∈ [0, 1]; 0.0 when a term has no position.

    ``position_groups[i]`` holds the positions of the i-th query term in
    the state.  The coefficient is ``len(terms) / window`` where
    ``window`` is the size of the smallest span containing one position
    of every term *in query order*; a state containing the query
    verbatim scores 1.0, spread-out or reordered occurrences score less.

    Single-term queries score 1.0 by definition.
    """
    if not position_groups or not all(position_groups):
        return 0.0
    terms = len(position_groups)
    if terms == 1:
        return 1.0
    best_window = _min_ordered_window(position_groups)
    if best_window is None:
        # Terms never appear in query order: fall back to the unordered
        # minimal window, halved (reordered occurrences score less).
        window = _min_unordered_window(position_groups)
        return min(1.0, 0.5 * terms / window)
    return min(1.0, terms / best_window)


def proximity_column(
    columns: list[list[tuple[int, ...]]], counts: list[list[int]]
) -> tuple[list[float], list[int]]:
    """:func:`term_proximity` of each row of a conjunction's position
    columns (``counts`` their lengths), and the rows, ascending, where a
    term has several positions and the value is void.  With one each, T
    is ``n / (pₙ − p₁ + 1)`` in query order, else ``0.5·n / (max − min
    + 1)``: its float operations, ``min(1, ·)`` idle as the window ≥ n."""
    terms = len(columns)
    if terms == 1:
        return [1.0] * len(columns[0]), []
    firsts = [list(map(itemgetter(0), column)) for column in columns]
    in_order = map(lt, firsts[0], firsts[1])
    for earlier, later in zip(firsts[1:], firsts[2:]):
        in_order = map(and_, in_order, map(lt, earlier, later))
    proximities = [
        terms / (last - first + 1) if ordered else 0.5 * terms / (max(row) - min(row) + 1)
        for ordered, first, last, row in zip(in_order, firsts[0], firsts[-1], zip(*firsts))
    ]
    several = (compress(count(), map((1).__lt__, sizes)) for sizes in counts if max(sizes) > 1)
    return proximities, sorted(set().union(*several))


def _min_ordered_window(position_groups: list[tuple[int, ...]]) -> int | None:
    """Smallest span covering the terms in order, or None.  A start that
    cannot chain a later position of every next term rules out the rest."""
    best: int | None = None
    for start in position_groups[0]:
        current = start
        for group in position_groups[1:]:
            at = bisect_right(group, current)
            if at == len(group):
                return best
            current = group[at]
        if best is None or current - start + 1 < best:
            best = current - start + 1
    return best


def _min_unordered_window(position_groups: list[tuple[int, ...]]) -> int:
    """Smallest span covering at least one position of every term."""
    events = sorted(
        (position, index)
        for index, group in enumerate(position_groups)
        for position in group
    )
    need = len(position_groups)
    counts = [0] * need
    have = 0
    best = events[-1][0] - events[0][0] + 1
    left = 0
    for right, (position, index) in enumerate(events):
        if counts[index] == 0:
            have += 1
        counts[index] += 1
        while have == need:
            window = position - events[left][0] + 1
            best = min(best, window)
            left_index = events[left][1]
            counts[left_index] -= 1
            if counts[left_index] == 0:
                have -= 1
            left += 1
    return best
