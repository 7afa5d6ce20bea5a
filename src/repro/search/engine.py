"""The AJAX search engine facade (chapter 5).

Combines an index, the hyperlink PageRank, the per-page AJAXRanks and
the ranking formula of eq. 5.3 into one queryable object.
Results are ``(URI, state, rank)`` triples — the 3-tuples of §6.5.1 —
sorted by rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Optional

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
            terms = parse_query(query, self.index.stopwords)
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
        terms = parse_query(query, self.index.stopwords)
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
        matches there are, how many of them were *completed*, and the
        best ``k`` entries (all, when None), best first.

        This is the one place eq. 5.3 is written.  A single engine calls
        it with its own idfs and weights; a shard is called with the
        merger's (Figure 6.4) and ships ``k`` entries, not every match —
        the top ``k`` of a union is the top ``k`` of the parts' top ``k``.

        All but the proximity T(q, s) is computed a column at a time.
        T lies in [0, 1] and float rounding is monotone, so ``base +
        max(w4, 0)`` — the score's own association, T at the end the
        sign of w4 favours — bounds the score from above bit for bit.
        A match is completed (proximity computed, entry built) only if
        its best possible *key* ``(-bound, uri, state_id)`` beats the
        k-th key kept so far: keys, not scores, so ties stay exact; and
        the key is total, so segment order does not matter.  The kept
        entries are cut back to ``k`` whenever ``2k`` have gathered:
        O(log k) a survivor for any ``k``.
        """
        if k is not None and k < 0:
            raise ValueError(f"limit must be >= 0, not {k}")
        page_rank, ajax_rank = self.pageranks.get, self.ajaxranks.get
        w_page, w_ajax, w_tfidf, w_proximity = (
            weights.pagerank, weights.ajaxrank, weights.tfidf, weights.proximity
        )
        ceiling = max(w_proximity, 0.0)
        total = completed = 0
        kept: list[Entry] = []
        edge = None  # the k-th key so far, as (edge, rest), once k are kept
        mark = k  # how many kept entries trigger the next cut
        for segment, ordinals, columns in self.index.matches(terms):
            total += len(ordinals)
            if k == 0:
                continue
            uris, state_ids, lengths = segment.state_columns(ordinals)
            tfidfs = [0.0] * len(ordinals)
            for idf, column in zip(idfs, columns):
                tfidfs = [
                    tfidf + (count / length if length else 0.0) * idf
                    for tfidf, count, length in zip(tfidfs, map(len, column), lengths)
                ]
            page_ranks = list(map(page_rank, uris, repeat(0.0)))
            ajax_ranks = list(map(ajax_rank, zip(uris, state_ids), repeat(0.0)))
            bases = [
                w_page * page + w_ajax * ajax + w_tfidf * tfidf
                for page, ajax, tfidf in zip(page_ranks, ajax_ranks, tfidfs)
            ]
            for at, base in enumerate(bases):
                bound = -(base + ceiling)
                if edge is not None and bound >= edge:
                    if bound > edge or (uris[at], state_ids[at]) >= rest:
                        continue
                completed += 1
                proximity = term_proximity([column[at] for column in columns])
                kept.append((
                    -(base + w_proximity * proximity),
                    uris[at], state_ids[at], page_ranks[at], ajax_ranks[at], tfidfs[at],
                    proximity,
                ))
                if len(kept) == mark:
                    kept.sort()
                    del kept[k:]
                    edge, rest = kept[-1][0], kept[-1][1:3]
                    mark = 2 * k
        if self.index.metrics is not None:
            self.index.metrics.inc("index.matches_completed", completed)
        kept.sort()
        return total, completed, kept[:k]
