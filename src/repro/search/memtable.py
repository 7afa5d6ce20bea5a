"""The write half of the index.

A :class:`Memtable` is the one place freshly indexed states accumulate:
tokenize, group occurrences per term, record per-state statistics,
forget a URI's states again.  An :class:`~repro.search.index.Index`
owns one and reads it through a view (:meth:`Memtable.flush_view` kept
in memory); the :class:`~repro.search.index.InvertedFile` keeps it for
its whole life, the :class:`~repro.search.segmented.SegmentedIndex`
freezes it into an immutable on-disk segment once
:attr:`Memtable.num_postings` crosses the flush threshold and starts a
fresh one.

Every state carries a *sequence number* handed out by the owner, so a
segmented ``states()`` registry preserves insertion order across any
number of segment files (and across remove/re-add cycles, like the
insertion order of the dicts here).  The same number names the state in
the buffer: a term holds two parallel columns, its owners' sequence
numbers and their position tuples — a posting is an int and a tuple of
ints, nothing the cyclic collector walks.  Ranks (state ordinals) are
taken when the buffer is read out, never stored: one added state shifts
the rank of every state that sorts after it.
"""

from __future__ import annotations

from itertools import compress
from typing import Optional

from repro.errors import SearchError
from repro.model import ApplicationModel
from repro.search.segments import sorted_columns, state_sort_key
from repro.search.tokenizer import tokenize


class Memtable:
    """Mutable accumulation buffer: term → two columns, plus per-state stats."""

    def __init__(
        self,
        max_state_index: Optional[int] = None,
        stopwords: Optional[frozenset[str]] = None,
    ) -> None:
        self.max_state_index = max_state_index
        self.stopwords = stopwords
        #: term -> sequence numbers of the states holding it, in insertion order.
        self._seqs: dict[str, list[int]] = {}
        #: term -> its positions in each of those states (parallel to ``_seqs``).
        self._positions: dict[str, list[tuple[int, ...]]] = {}
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
        tokens = tokenize(text)
        by_term: dict[str, list[int]] = {}
        for position, token in enumerate(tokens):
            if token in by_term:
                by_term[token].append(position)
            else:
                by_term[token] = [position]
        length = len(tokens)
        if self.stopwords:  # dropped after numbering: the others keep their slots
            for term in by_term.keys() & self.stopwords:
                length -= len(by_term.pop(term))
        self._states[key] = (length, depth, seq)
        seqs, columns = self._seqs, self._positions
        for term, positions in by_term.items():
            if term in seqs:
                seqs[term].append(seq)
                columns[term].append(tuple(positions))
            else:
                seqs[term] = [seq]
                columns[term] = [tuple(positions)]
        self._state_terms[key] = tuple(by_term)
        self.num_postings += len(by_term)

    def restore(self, rows, postings_by_term) -> None:
        """Adopt deserialized contents instead of tokenizing them again:
        ``rows`` are ``(uri, state_id, length, depth)`` in insertion
        order — a row's place becomes its sequence number — and
        ``postings_by_term`` maps a term to its ``(uri, state_id,
        positions)`` entries, in any order."""
        for seq, (uri, state_id, length, depth) in enumerate(rows):
            self._states[uri, state_id] = (length, depth, seq)
        terms_by_state: dict[tuple[str, str], list[str]] = {key: [] for key in self._states}
        for term, entries in postings_by_term.items():
            keys = [(uri, state_id) for uri, state_id, _ in entries]
            if not terms_by_state.keys() >= set(keys):
                raise SearchError(f"posting of {term!r} for unknown state")
            for key in keys:
                terms_by_state[key].append(term)
            self._seqs[term], self._positions[term] = sorted_columns(
                [self._states[key][2] for key in keys],
                [tuple(positions) for _, _, positions in entries],
            )
            self.num_postings += len(keys)
        self._state_terms = {key: tuple(terms) for key, terms in terms_by_state.items()}

    def remove_urls(self, uris) -> int:
        """Drop every buffered state of the given URIs; returns the count.

        Batched: each touched term's columns are filtered once for the
        whole URI set, not once per URI.
        """
        uri_set = set(uris)
        keys = [key for key in self._states if key[0] in uri_set]
        gone: set[int] = set()
        terms_touched: set[str] = set()
        for key in keys:
            gone.add(self._states.pop(key)[2])
            terms_touched.update(self._state_terms.pop(key, ()))
        for term in terms_touched:
            kept = [seq not in gone for seq in self._seqs[term]]
            self.num_postings -= len(kept) - sum(kept)
            if any(kept):
                self._seqs[term] = list(compress(self._seqs[term], kept))
                self._positions[term] = list(compress(self._positions[term], kept))
            else:
                del self._seqs[term], self._positions[term]
        return len(keys)

    # -- views -------------------------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self._states)

    def __bool__(self) -> bool:
        return bool(self._states)

    def terms(self):
        """The vocabulary, in first-seen order."""
        return self._seqs.keys()

    def state_rows(self) -> list[tuple[str, str, int, int, int]]:
        """``(uri, state_id, length, depth, seq)`` for every buffered state."""
        return [
            (uri, state_id, length, depth, seq)
            for (uri, state_id), (length, depth, seq) in self._states.items()
        ]

    def flush_view(self):
        """``(state_rows, columns_by_term)`` as
        :func:`~repro.search.segments.write_segment` takes them.  The
        ranks come from the very list that becomes the state table — an
        ordinal is nothing but a row's place in it."""
        rows = sorted(self.state_rows(), key=state_sort_key)
        rank = {row[4]: ordinal for ordinal, row in enumerate(rows)}.__getitem__

        def columns_by_term():
            for term in sorted(self._seqs):
                ordinals = list(map(rank, self._seqs[term]))
                yield term, *sorted_columns(ordinals, self._positions[term])

        return rows, columns_by_term()
