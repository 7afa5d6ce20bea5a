"""Tokenization for indexing and query processing.

Boolean retrieval over comment text (chapter 5) needs nothing fancier
than lowercased alphanumeric tokens, but positions must be kept for the
term-proximity ranking coefficient (§5.3.3 item 4).  Every token is
indexed, like the thesis' boolean-recall-oriented engine.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens of ``text``, in order."""
    return _TOKEN_RE.findall(text.lower())


def tokenize_with_positions(text: str) -> list[tuple[str, int]]:
    """Tokens paired with their ordinal position (0-based)."""
    return [(token, position) for position, token in enumerate(tokenize(text))]


def query_terms(query: str) -> list[str]:
    """Tokenize a user query (same normalization as the index).

    Terms are deduplicated order-preservingly: boolean retrieval is
    set-based, and a repeated term must not count its tf·idf twice
    (``"apple apple"`` has to score exactly like ``"apple"``).
    """
    return list(dict.fromkeys(tokenize(query)))
