"""Distributed indexing and query shipping (§6.4-§6.6).

Each crawl partition yields its own index.  A query is *shipped* to
every shard; each shard returns its boolean matches with the score
parts it can compute locally (tf, PageRank, AJAXRank, term proximity —
all local per §6.5.2), and contributes its state count and per-term
document frequencies.  The merger computes the **global idf** from the
summed counts (the worked example of §6.5.2), completes every partial
score with it (Figure 6.4, Step 1) and sorts the merged list (Step 2).

Shards and merger run the single engine's own two scoring halves —
:meth:`SearchEngine.partial_scores` and :func:`repro.search.engine.rank` —
on the same integers, so sharded ranking is *bit-identical* to
single-index ranking, whichever index backend each shard uses — a
property the test suite asserts with ``==``.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Optional

from repro.model import ApplicationModel
from repro.search.engine import SearchEngine, SearchResult, rank
from repro.search.query import parse_query
from repro.search.ranking import RankingWeights, inverse_document_frequency


class ShardedSearchEngine:
    """Query shipping over per-partition search engines."""

    def __init__(
        self,
        shards: list[SearchEngine],
        weights: RankingWeights = RankingWeights(),
    ) -> None:
        self.shards = shards
        self.weights = weights

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        model_partitions: Iterable[list[ApplicationModel]],
        pageranks: Optional[dict[str, float]] = None,
        weights: RankingWeights = RankingWeights(),
        max_state_index: Optional[int] = None,
    ) -> "ShardedSearchEngine":
        """One SearchEngine per partition of application models."""
        shards = [
            SearchEngine.build(
                models,
                pageranks=pageranks,
                weights=weights,
                max_state_index=max_state_index,
            )
            for models in model_partitions
        ]
        return cls(shards, weights=weights)

    # -- query shipping -------------------------------------------------------------

    def top(self, query: str, k: Optional[int] = None) -> tuple[int, list[SearchResult]]:
        """Ship, merge, re-rank with global idf, keep the best ``k``
        (Figure 6.4); also the number of matches over all shards."""
        stopwords = self.shards[0].index.stopwords if self.shards else None
        terms = parse_query(query, stopwords)
        partials = chain.from_iterable(shard.partial_scores(terms) for shard in self.shards)
        num_states = self.num_states
        idfs = [
            inverse_document_frequency(
                num_states,
                sum(shard.index.document_frequency(term) for shard in self.shards),
            )
            for term in terms
        ]
        return rank(self.weights, partials, idfs, k)

    def search(self, query: str, limit: Optional[int] = None) -> list[SearchResult]:
        """The best ``limit`` results of :meth:`top`."""
        return self.top(query, limit)[1]

    def result_count(self, query: str) -> int:
        """Total boolean matches across all shards."""
        return sum(shard.result_count(query) for shard in self.shards)

    @property
    def num_states(self) -> int:
        return sum(shard.index.num_states for shard in self.shards)
