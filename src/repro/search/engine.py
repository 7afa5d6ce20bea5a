"""The AJAX search engine facade (chapter 5).

Combines an index, the hyperlink PageRank, the per-page AJAXRanks and
the ranking formula of eq. 5.3 into one queryable object.
Results are ``(URI, state, rank)`` triples — the 3-tuples of §6.5.1 —
sorted by rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.model import ApplicationModel
from repro.obs import NULL_RECORDER, QUERY_EVAL
from repro.obs.reqtrace import current_request_trace
from repro.search.index import Index, InvertedFile
from repro.search.query import evaluate, match_terms, parse_query
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
) -> list[SearchResult]:
    """Complete every partial score with ``idfs`` and sort, best first.

    This is the one place eq. 5.3 is written.  ``idfs`` (parallel to
    the query terms) come from the index the partials were computed on
    or, for partials gathered from several shards, from their summed
    counts — Steps 1 and 2 of Figure 6.4 either way.
    """
    results = []
    for uri, state_id, tfs, page_rank, ajax_rank, proximity in partials:
        tfidf = 0.0
        for tf, idf in zip(tfs, idfs):
            tfidf += tf * idf
        score = (
            weights.pagerank * page_rank
            + weights.ajaxrank * ajax_rank
            + weights.tfidf * tfidf
            + weights.proximity * proximity
        )
        components = {
            "pagerank": page_rank,
            "ajaxrank": ajax_rank,
            "tfidf": tfidf,
            "proximity": proximity,
        }
        results.append(SearchResult(uri, state_id, score, components))
    results.sort(key=lambda result: (-result.score, result.uri, result.state_id))
    return results


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

    def search(self, query: str, limit: Optional[int] = None) -> list[SearchResult]:
        """Boolean retrieval + eq. 5.3 ranking, best first."""
        with self.recorder.span("query_eval", query=query):
            terms = parse_query(query, self.index.stopwords)
            partials = self.partial_scores(terms)
            idfs = [self.index.idf(term) for term in terms]
            results = rank(self.weights, partials, idfs)
            if self.recorder.enabled:
                self.recorder.emit(
                    QUERY_EVAL,
                    query=query,
                    terms=len(terms),
                    matches=len(results),
                )
            trace = current_request_trace()
            if trace is not None:
                trace.annotate(terms=len(terms), matches=len(results))
        return results[:limit]

    def result_count(self, query: str) -> int:
        """Number of boolean matches (used by the recall experiments)."""
        return len(evaluate(self.index, query))

    def partial_scores(self, terms: list[str]) -> Iterator[PartialScore]:
        """Boolean retrieval plus the locally computable coefficients
        of every match; :func:`rank` adds idf and the weights."""
        index = self.index
        for match in match_terms(index, terms):
            length = index.state_length(match.uri, match.state_id)
            yield (
                match.uri,
                match.state_id,
                [p.count / length if length else 0.0 for p in match.postings],
                self.pageranks.get(match.uri, 0.0),
                self.ajaxranks.get((match.uri, match.state_id), 0.0),
                term_proximity([p.positions for p in match.postings]),
            )
