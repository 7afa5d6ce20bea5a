"""The AJAX search engine facade (chapter 5).

Combines an index, the hyperlink PageRank, the per-page AJAXRanks and
the ranking formula of eq. 5.3 into one queryable object.
Results are ``(URI, state, rank)`` triples — the 3-tuples of §6.5.1 —
sorted by rank.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from typing import Iterable, Optional

from repro.model import ApplicationModel
from repro.obs import NULL_RECORDER, QUERY_EVAL
from repro.obs.reqtrace import current_request_trace
from repro.search.index import Index, InvertedFile
from repro.search.query import parse_query
from repro.search.ranking import RankingWeights, ajaxrank, proximity_column, term_proximity


@dataclass(frozen=True)
class SearchResult:
    """One ranked search result: the (u, s, r) tuple of §6.5.1."""

    uri: str
    state_id: str
    score: float
    #: Score decomposition, for tests and explainability.
    components: dict = field(default_factory=dict, compare=False, hash=False)


#: One completed match as the selection carries it, led by its sort
#: key: ``(-score, uri, state_id, PageRank, AJAXRank, tf·idf,
#: proximity)``.  ``(uri, state_id)`` is unique, so the key is total and
#: entries from any number of segments or shards sort into one ranking.
Entry = tuple[float, str, str, float, float, float, float]


def results(entries: Iterable[Entry]) -> list[SearchResult]:
    """The :class:`SearchResult` of each entry, in the order given."""
    return [
        SearchResult(
            uri,
            state_id,
            -negated,
            {
                "pagerank": page_rank,
                "ajaxrank": ajax_rank,
                "tfidf": tfidf,
                "proximity": proximity,
            },
        )
        for negated, uri, state_id, page_rank, ajax_rank, tfidf, proximity in entries
    ]


class SearchEngine:
    """Index + ranking state for one (shard of a) crawled corpus."""

    def __init__(
        self,
        index: Index,
        pageranks: Optional[dict[str, float]] = None,
        ajaxranks: Optional[dict[tuple[str, str], float]] = None,
        weights: RankingWeights = RankingWeights(),
        recorder=NULL_RECORDER,
    ) -> None:
        self.index = index
        # Finalize eagerly: the serving hot path must never be the first
        # caller that mutates (sorts) a lazily built index.
        index.finalize()
        self.pageranks = pageranks or {}
        self.ajaxranks = ajaxranks or {}
        self.weights = weights
        self.recorder = recorder

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(
        cls,
        models: Iterable[ApplicationModel],
        pageranks: Optional[dict[str, float]] = None,
        weights: RankingWeights = RankingWeights(),
        max_state_index: Optional[int] = None,
        recorder=NULL_RECORDER,
        index: Optional[Index] = None,
    ) -> "SearchEngine":
        """Index models and precompute every page's AJAXRank.

        ``index`` selects the backend (e.g. a ``SegmentedIndex``); the
        default builds the in-memory :class:`InvertedFile`.  An index
        passed in carries its own prefix cap, so combining it with
        ``max_state_index`` is an error.
        """
        models = list(models)
        if index is None:
            index = InvertedFile(max_state_index=max_state_index, recorder=recorder)
        elif max_state_index is not None:
            raise ValueError("max_state_index belongs to the index passed as index=")
        index.build(models)
        ajaxranks: dict[tuple[str, str], float] = {}
        for model in models:
            for state_id, value in ajaxrank(model).items():
                ajaxranks[(model.url, state_id)] = value
        return cls(
            index,
            pageranks=pageranks,
            ajaxranks=ajaxranks,
            weights=weights,
            recorder=recorder,
        )

    # -- querying ----------------------------------------------------------------

    def top(self, query: str, k: Optional[int] = None) -> tuple[int, list[SearchResult]]:
        """Boolean retrieval + eq. 5.3 ranking: the number of matches
        and the best ``k`` of them (all, when None), best first."""
        with self.recorder.span("query_eval", query=query):
            terms = parse_query(query)
            idfs = [self.index.idf(term) for term in terms]
            total, completed, entries = self.select(terms, idfs, self.weights, k)
            if self.recorder.enabled:
                self.recorder.emit(
                    QUERY_EVAL,
                    query=query,
                    terms=len(terms),
                    matches=total,
                    completed=completed,
                )
            trace = current_request_trace()
            if trace is not None:
                trace.annotate(terms=len(terms), matches=total, completed=completed)
        return total, results(entries)

    def search(self, query: str, limit: Optional[int] = None) -> list[SearchResult]:
        """The best ``limit`` results of :meth:`top`."""
        return self.top(query, limit)[1]

    def result_count(self, query: str) -> int:
        """Number of boolean matches (used by the recall experiments)."""
        terms = parse_query(query)
        return sum(len(ordinals) for _, ordinals, _ in self.index.matches(terms))

    def select(
        self,
        terms: list[str],
        idfs: list[float],
        weights: RankingWeights,
        k: Optional[int] = None,
    ) -> tuple[int, int, list[Entry]]:
        """Rank this index's matches of ``terms`` by eq. 5.3 under
        ``idfs`` (parallel to the terms) and ``weights``: how many
        matches there are, how many of them were *completed* (entry
        built), and the best ``k`` entries (all, when None), best first.

        This is the one place eq. 5.3 is written.  A single engine calls
        it with its own idfs and weights; a shard is called with the
        merger's (Figure 6.4) and ships ``k`` entries, not every match —
        the top ``k`` of a union is the top ``k`` of the parts' top ``k``.

        Each segment's matches get their key in one pass after tf·idf
        and T(q, s) (closed form); ``w1·p + w2·a`` is looked up per match
        only while a rank table is held.  A row where a term has several
        positions gets its bound as key, the best its T ∈ [0, 1] allows.
        The cut is the lesser of the segment's k-th exact key and the kept
        k-th key: what beats it enters, and what ties enters in ordinal
        order through the URI run of the last one needed (``s10`` sorts
        before ``s9``), not past the kept k-th URI; then bound rows, best
        bound first, until one loses.  With no rank table a match's URI
        and state id are read only when it enters, is a bound row or ends
        the tie run; the rank tables are read for the entries returned.
        """
        if k is not None and k < 0:
            raise ValueError(f"limit must be >= 0, not {k}")
        page_rank, ajax_rank = self.pageranks.get, self.ajaxranks.get
        w_page, w_ajax, w_tfidf, w_proximity = (
            weights.pagerank, weights.ajaxrank, weights.tfidf, weights.proximity
        )
        best = 1.0 if w_proximity > 0 else 0.0  # the T of a bound: what maximises w4·T
        total = completed = 0
        kept: list[tuple] = []  # (key, uri, state_id, tf·idf, proximity), best first
        for segment, ordinals, columns in self.index.matches(terms):
            total += len(ordinals)
            if k == 0 or not ordinals:
                continue
            if self.pageranks or self.ajaxranks:
                uris, state_ids = segment.state_keys(ordinals)
                pages = map(page_rank, uris, repeat(0.0)) if self.pageranks else repeat(0.0)
                ajaxes = (map(ajax_rank, zip(uris, state_ids), repeat(0.0))
                          if self.ajaxranks else repeat(0.0))
                statics = [w_page * page + w_ajax * ajax for page, ajax in zip(pages, ajaxes)]
            else:  # what every lookup in two empty tables gives
                statics = [w_page * 0.0 + w_ajax * 0.0] * len(ordinals)
                uris = state_ids = None  # read for the rows that enter, below
            lengths = segment.lengths(ordinals)
            counts = [list(map(len, column)) for column in columns]
            tfidfs = [0.0] * len(ordinals)
            for idf, column in zip(idfs, counts):
                tfidfs = [
                    tfidf + (occurrences / length if length else 0.0) * idf
                    for tfidf, occurrences, length in zip(tfidfs, column, lengths)
                ]
            proximities, bound = proximity_column(columns, counts)
            for at in bound:
                proximities[at] = best
            keys = [-((static + w_tfidf * tfidf) + w_proximity * t)
                    for static, tfidf, t in zip(statics, tfidfs, proximities)]
            # With a table, index the columns its lookups read: where bound rows
            # dominate that beats a second read (DESIGN.md decision 45).
            if uris is not None:
                floors = [(keys[at], uris[at], state_ids[at]) for at in bound]
            else:
                floors = list(zip(map(keys.__getitem__, bound),
                                  *segment.state_keys([ordinals[at] for at in bound])))
            for at in bound:
                keys[at] = math.inf
            edge = kept[-1] if len(kept) == k else (math.inf,)
            smallest = heapq.nsmallest(k, keys) if k is not None else [-math.inf]
            cut = min(edge[0], smallest[-1]) if len(smallest) == k else edge[0]
            better = list(compress(count(), map(cut.__gt__, keys))) if smallest[0] < cut else []
            if uris is not None:
                entries = [(keys[at], uris[at], state_ids[at], tfidfs[at], proximities[at])
                           for at in better]
            else:
                entries = list(zip(map(keys.__getitem__, better),
                                   *segment.state_keys([ordinals[at] for at in better]),
                                   map(tfidfs.__getitem__, better),
                                   map(proximities.__getitem__, better)))
            if cut < math.inf:
                limit = edge[1] if cut == edge[0] else None  # not past the kept k-th URI
                for at in compress(count(), map(cut.__eq__, keys)):
                    uri, state_id = segment.state_key(ordinals[at])
                    if limit is not None and uri > limit:
                        break
                    entries.append((keys[at], uri, state_id, tfidfs[at], proximities[at]))
                    if len(entries) == k:
                        limit = uri  # through the URI run of the last one needed
            completed += len(entries)
            kept += entries
            if k is not None:
                kept = heapq.nsmallest(k, kept)
            # Bound rows, best possible key first, against the k-th key kept.
            for floor, at in sorted(zip(floors, bound)):
                if len(kept) == k and floor > kept[-1]:  # the first three fields decide
                    break
                completed += 1
                proximity = term_proximity([column[at] for column in columns])
                base = statics[at] + w_tfidf * tfidfs[at]
                entry = (-(base + w_proximity * proximity), *floor[1:], tfidfs[at], proximity)
                if k is None:
                    kept.append(entry)
                elif len(kept) < k or entry < kept[-1]:  # else it would be cut again
                    insort(kept, entry)
                    del kept[k:]
        return total, completed, [
            (key, uri, state_id, page_rank(uri, 0.0), ajax_rank((uri, state_id), 0.0), tfidf, t)
            for key, uri, state_id, tfidf, t in sorted(kept)
        ]
