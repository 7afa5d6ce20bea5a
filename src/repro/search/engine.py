"""The AJAX search engine facade (chapter 5).

Combines an index, the hyperlink PageRank, the per-page AJAXRanks and
the ranking formula of eq. 5.3 into one queryable object.
Results are ``(URI, state, rank)`` triples — the 3-tuples of §6.5.1 —
sorted by rank.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.model import ApplicationModel
from repro.obs import NULL_RECORDER, QUERY_EVAL
from repro.obs.reqtrace import current_request_trace
from repro.search.index import Index, InvertedFile
from repro.search.query import parse_query
from repro.search.ranking import RankingWeights, ajaxrank, term_proximity


@dataclass(frozen=True)
class SearchResult:
    """One ranked search result: the (u, s, r) tuple of §6.5.1."""

    uri: str
    state_id: str
    score: float
    #: Score decomposition, for tests and explainability.
    components: dict = field(default_factory=dict, compare=False, hash=False)


#: The idf-free half of eq. 5.3 for one match — ``(uri, state_id, tf of
#: each query term (eq. 5.1), PageRank, AJAXRank, proximity)``.  All of it
#: is local to the index holding the state (§6.5.2), so this is what a
#: shard ships to the merger in Figure 6.4.
PartialScore = tuple[str, str, list[float], float, float, float]


def rank(
    weights: RankingWeights,
    partials: Iterable[PartialScore],
    idfs: list[float],
    limit: Optional[int] = None,
) -> tuple[int, list[SearchResult]]:
    """Complete every partial score with ``idfs``: how many there were,
    and the best ``limit`` of them (all, when None), best first.

    This is the one place eq. 5.3 is written.  ``idfs`` (parallel to
    the query terms) come from the index the partials were computed on
    or, for partials gathered from several shards, from their summed
    counts — Steps 1 and 2 of Figure 6.4 either way.  Each partial is
    scored into a tuple led by the sort key ``(-score, uri, state_id)``;
    only the selection holds on to any, and only a survivor becomes a
    :class:`SearchResult`.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, not {limit}")
    total = 0

    def scored():
        nonlocal total
        for total, (uri, state_id, tfs, page_rank, ajax_rank, proximity) in enumerate(partials, 1):
            tfidf = 0.0
            for tf, idf in zip(tfs, idfs):
                tfidf += tf * idf
            score = (
                weights.pagerank * page_rank
                + weights.ajaxrank * ajax_rank
                + weights.tfidf * tfidf
                + weights.proximity * proximity
            )
            yield (-score, uri, state_id, page_rank, ajax_rank, tfidf, proximity)

    stream = scored()
    best = sorted(stream) if limit is None else heapq.nsmallest(limit, stream)
    for _ in stream:
        pass  # nsmallest(0, ...) reads nothing, and the count needs every partial
    return total, [
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
        for negated, uri, state_id, page_rank, ajax_rank, tfidf, proximity in best
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
            terms = parse_query(query, self.index.stopwords)
            idfs = [self.index.idf(term) for term in terms]
            total, hits = rank(self.weights, self.partial_scores(terms), idfs, k)
            if self.recorder.enabled:
                self.recorder.emit(
                    QUERY_EVAL,
                    query=query,
                    terms=len(terms),
                    matches=total,
                )
            trace = current_request_trace()
            if trace is not None:
                trace.annotate(terms=len(terms), matches=total)
        return total, hits

    def search(self, query: str, limit: Optional[int] = None) -> list[SearchResult]:
        """The best ``limit`` results of :meth:`top`."""
        return self.top(query, limit)[1]

    def result_count(self, query: str) -> int:
        """Number of boolean matches (used by the recall experiments)."""
        terms = parse_query(query, self.index.stopwords)
        return sum(1 for _ in self.index.conjunction(terms))

    def partial_scores(self, terms: list[str]) -> Iterator[PartialScore]:
        """Boolean retrieval plus the locally computable coefficients
        of every match; :func:`rank` adds idf and the weights."""
        page_rank, ajax_rank = self.pageranks.get, self.ajaxranks.get
        for uri, state_id, length, occurrences in self.index.conjunction(terms):
            yield (
                uri,
                state_id,
                [len(positions) / length if length else 0.0 for positions in occurrences],
                page_rank(uri, 0.0),
                ajax_rank((uri, state_id), 0.0),
                term_proximity(occurrences),
            )
