"""Distributed indexing and query shipping (§6.4-§6.6).

Each crawl partition yields its own index.  Every shard contributes
its state count and per-term document frequencies; the merger computes
the **global idf** from the summed counts (the worked example of
§6.5.2) and *ships* the query with it.  Each shard ranks its own
matches under the merger's idfs and weights — everything else in eq.
5.3 (tf, PageRank, AJAXRank, term proximity) is local per §6.5.2 — and
answers with its match count and its best ``k`` entries (Figure 6.4,
Step 1); the merger merges the sorted lists and keeps the best ``k``
(Step 2).  The top ``k`` of a union is the top ``k`` of the parts' top
``k``, so a shard ships O(k) entries however many states match.

A shard ranks with the single engine's own :meth:`SearchEngine.select`
on the same integers, so sharded ranking is *bit-identical* to
single-index ranking, whichever index backend each shard uses — a
property the test suite asserts with ``==``.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Iterable, Optional

from repro.model import ApplicationModel
from repro.search.engine import SearchEngine, SearchResult, results
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
        """Ship with the global idf, merge the shards' best ``k``, keep
        the best ``k`` (Figure 6.4); also the number of matches over all
        shards."""
        terms = parse_query(query)
        num_states = self.num_states
        idfs = [
            inverse_document_frequency(
                num_states,
                sum(shard.index.document_frequency(term) for shard in self.shards),
            )
            for term in terms
        ]
        answers = [shard.select(terms, idfs, self.weights, k) for shard in self.shards]
        merged = heapq.merge(*(entries for _, _, entries in answers))
        # Where there is no shard to refuse a negative k, islice does.
        return sum(total for total, _, _ in answers), results(islice(merged, k))

    def search(self, query: str, limit: Optional[int] = None) -> list[SearchResult]:
        """The best ``limit`` results of :meth:`top`."""
        return self.top(query, limit)[1]

    def result_count(self, query: str) -> int:
        """Total boolean matches across all shards."""
        return sum(shard.result_count(query) for shard in self.shards)

    @property
    def num_states(self) -> int:
        return sum(shard.index.num_states for shard in self.shards)
