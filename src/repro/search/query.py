"""Query evaluation: simple keywords and conjunctions (§5.3).

Evaluation is boolean: a result is every ``(URI, state)`` containing all
query terms.  Scoring is delegated to the engine; this module only finds
and groups the matching postings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Optional

from repro.errors import SearchError
from repro.search.index import Index
from repro.search.postings import Posting
from repro.search.tokenizer import query_terms


@dataclass(frozen=True)
class Match:
    """One boolean match: a state containing every query term."""

    uri: str
    state_id: str
    #: Per-term postings (parallel to the query's term list).
    postings: tuple[Posting, ...]


def parse_query(query: str, stopwords: Optional[Container[str]] = None) -> list[str]:
    """The distinct terms of ``query``; a query without any is an error."""
    terms = query_terms(query, stopwords=stopwords)
    if not terms:
        raise SearchError("empty query")
    return terms


def match_terms(index: Index, terms: list[str]) -> list[Match]:
    """All states containing every one of ``terms`` (Figure 5.2).

    The index intersects its own posting lists — galloping over
    postings in memory, block-max skipping on disk; every backend
    returns the same groups in canonical order.
    """
    return [
        Match(uri=group[0].uri, state_id=group[0].state_id, postings=tuple(group))
        for group in index.conjunction(terms)
    ]


def evaluate(index: Index, query: str) -> list[Match]:
    """All states containing every term of ``query``."""
    return match_terms(index, parse_query(query, index.stopwords))
