"""Query evaluation: simple keywords and conjunctions (§5.3).

Evaluation is boolean: a result is every ``(URI, state)`` containing all
query terms.  Scoring is delegated to the engine; this module only parses
queries and presents the matches as objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SearchError
from repro.search.index import Index
from repro.search.tokenizer import query_terms


@dataclass(frozen=True)
class Posting:
    """One inverted-file entry (Table 5.1): a keyword's occurrences in
    one ``(URI, state)``."""

    uri: str
    state_id: str
    positions: tuple[int, ...]

    @property
    def count(self) -> int:
        """Occurrences of the keyword in the state (the Score of Table 5.1)."""
        return len(self.positions)


@dataclass(frozen=True)
class Match:
    """One boolean match: a state containing every query term."""

    uri: str
    state_id: str
    #: Per-term postings (parallel to the query's term list).
    postings: tuple[Posting, ...]


def parse_query(query: str) -> list[str]:
    """The distinct terms of ``query``; a query without any is an error."""
    terms = query_terms(query)
    if not terms:
        raise SearchError("empty query")
    return terms


def evaluate(index: Index, query: str) -> list[Match]:
    """All states containing every term of ``query`` (Figure 5.2).

    The index intersects its own posting lists — the same block merge
    over ordinal columns in memory and on disk, block-max skipping
    where a list has more than one block — and answers in plain rows
    in canonical (uri, state index) order; the :class:`Match` and
    :class:`Posting` objects are built here and nowhere else, for the
    callers that want them.  The engine ranks the index's columns
    directly.
    """
    return [
        Match(
            uri=uri,
            state_id=state_id,
            postings=tuple(Posting(uri, state_id, positions) for positions in occurrences),
        )
        for uri, state_id, _, occurrences in index.conjunction(parse_query(query))
    ]
