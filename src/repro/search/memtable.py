"""The write half of both index backends.

A :class:`Memtable` is the one place freshly indexed states accumulate:
tokenize, group occurrences per term, record per-state statistics,
forget a URI's states again.  The in-memory
:class:`~repro.search.index.InvertedFile` owns one for its whole life
and queries it in place; the :class:`~repro.search.segmented.SegmentedIndex`
freezes its own into an immutable on-disk segment once
:attr:`Memtable.num_postings` crosses the flush threshold and starts a
fresh one.

Every state carries a *sequence number* handed out by the owner, so a
segmented ``states()`` registry preserves insertion order across any
number of segment files (and across remove/re-add cycles, like the
insertion order of the dicts here).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SearchError
from repro.model import ApplicationModel
from repro.search.postings import Posting, sort_postings
from repro.search.segments import sorted_columns, state_sort_key
from repro.search.tokenizer import tokenize_with_positions


class Memtable:
    """Mutable accumulation buffer: term → postings, plus per-state stats."""

    def __init__(
        self,
        max_state_index: Optional[int] = None,
        stopwords: Optional[frozenset[str]] = None,
    ) -> None:
        self.max_state_index = max_state_index
        self.stopwords = stopwords
        self._postings: dict[str, list[Posting]] = {}
        #: (uri, state_id) -> (token count, depth, sequence number).
        self._states: dict[tuple[str, str], tuple[int, int, int]] = {}
        #: (uri, state_id) -> terms it contains (for removal).
        self._state_terms: dict[tuple[str, str], tuple[str, ...]] = {}
        self.num_postings = 0

    # -- construction ------------------------------------------------------------

    def add_model(self, model: ApplicationModel, next_seq) -> None:
        """Buffer (a prefix of) one application model.

        ``next_seq`` is a callable handing out the owner's global state
        sequence numbers.
        """
        for state in model.states():
            if self.max_state_index is not None and state.index >= self.max_state_index:
                continue
            self.add_state(model.url, state.state_id, state.text, state.depth, next_seq())

    def add_state(self, uri: str, state_id: str, text: str, depth: int, seq: int) -> None:
        key = (uri, state_id)
        if key in self._states:
            raise SearchError(f"state {key} indexed twice")
        tokens = tokenize_with_positions(text, stopwords=self.stopwords)
        self._states[key] = (len(tokens), depth, seq)
        by_term: dict[str, list[int]] = {}
        for token, position in tokens:
            by_term.setdefault(token, []).append(position)
        for term, positions in by_term.items():
            self._postings.setdefault(term, []).append(
                Posting(uri=uri, state_id=state_id, positions=tuple(positions))
            )
        self._state_terms[key] = tuple(by_term)
        self.num_postings += len(by_term)

    def restore(self, postings: dict[str, list[Posting]], rows) -> None:
        """Adopt deserialized contents instead of tokenizing them again.

        ``rows`` are ``(uri, state_id, length, depth)`` in insertion
        order; the per-state term registry is derived from ``postings``.
        """
        self._postings = postings
        for seq, (uri, state_id, length, depth) in enumerate(rows):
            self._states[(uri, state_id)] = (length, depth, seq)
        terms_by_state: dict[tuple[str, str], list[str]] = {}
        for term, plist in postings.items():
            for posting in plist:
                terms_by_state.setdefault((posting.uri, posting.state_id), []).append(term)
        self._state_terms = {key: tuple(terms) for key, terms in terms_by_state.items()}
        self.num_postings = sum(len(plist) for plist in postings.values())

    def remove_urls(self, uris) -> int:
        """Drop every buffered state of the given URIs; returns the count.

        Batched: each touched term's posting list is filtered once for
        the whole URI set, not once per URI.
        """
        uri_set = set(uris)
        keys = [key for key in self._states if key[0] in uri_set]
        terms_touched: set[str] = set()
        for key in keys:
            del self._states[key]
            terms_touched.update(self._state_terms.pop(key, ()))
        for term in terms_touched:
            remaining = [p for p in self._postings.get(term, []) if p.uri not in uri_set]
            self.num_postings -= len(self._postings.get(term, ())) - len(remaining)
            if remaining:
                self._postings[term] = remaining
            else:
                self._postings.pop(term, None)
        return len(keys)

    # -- views -------------------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self._states)

    def __bool__(self) -> bool:
        return bool(self._states)

    def terms(self):
        """The vocabulary, in first-seen order."""
        return self._postings.keys()

    def postings(self, term: str) -> list[Posting]:
        """The live posting list of ``term`` (empty if absent); not a copy."""
        return self._postings.get(term, [])

    def states(self) -> list[tuple[str, str]]:
        """All buffered (uri, state_id) pairs in insertion order."""
        return list(self._states)

    def state_stat(self, key: tuple[str, str]) -> Optional[tuple[int, int, int]]:
        """``(length, depth, seq)`` of one buffered state, if present."""
        return self._states.get(key)

    def state_rows(self) -> list[tuple[str, str, int, int, int]]:
        """``(uri, state_id, length, depth, seq)`` for every buffered state."""
        return [
            (uri, state_id, length, depth, seq)
            for (uri, state_id), (length, depth, seq) in self._states.items()
        ]

    def sort(self) -> None:
        """Replace every posting list with its canonical-order copy."""
        for term, plist in self._postings.items():
            self._postings[term] = sort_postings(plist)

    def flush_view(self):
        """``(state_rows, columns_by_term)`` as
        :func:`~repro.search.segments.write_segment` takes them.  The
        ranks come from the very list that becomes the state table — an
        ordinal is nothing but a row's place in it."""
        rows = sorted(self.state_rows(), key=state_sort_key)
        rank = {(row[0], row[1]): ordinal for ordinal, row in enumerate(rows)}

        def columns_by_term():
            for term in sorted(self._postings):
                postings = self._postings[term]
                yield (term, *sorted_columns(
                    [rank[posting.uri, posting.state_id] for posting in postings],
                    [posting.positions for posting in postings],
                ))

        return rows, columns_by_term()
