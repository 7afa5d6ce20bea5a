"""The state-granular inverted file (§5.2).

"As opposed to traditional index processing, in our case a result is an
URI *and a state*."  The index maps each keyword to postings of
``(uri, state, positions)``; states play the role documents play in a
traditional inverted file, including for the tf/idf statistics (§5.3.3).

The ``max_state_index`` knob builds an index over only the first *k*
states of every model — this is how the eleven indexes of the
search-quality experiment (§7.7) and the crawl-threshold experiment
(§7.6) are produced.

:class:`Index` is the index: a write buffer in front of a generation of
immutable segments, and every read over them.  A backend decides only
where a flush goes — :class:`InvertedFile` keeps it in memory.
"""

from __future__ import annotations

import heapq
import threading
from abc import ABC, abstractmethod
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import SearchError
from repro.model import ApplicationModel
from repro.obs import INDEX_FLUSH, NULL_RECORDER
from repro.obs.reqtrace import current_request_trace
from repro.search.memtable import Memtable
from repro.search.ranking import inverse_document_frequency
from repro.search.segments import (
    MemorySegment,
    MergeStats,
    Segment,
    merge_conjunction_blocks,
    state_sort_key,
)

#: One boolean match as the read path carries it: ``(uri, state_id,
#: state length, positions of each query term)`` — plain values, so
#: nothing is constructed for a match the ranking then drops.
MatchRow = tuple[str, str, int, Sequence[tuple[int, ...]]]

#: One segment's share of a conjunction: the segment, the ordinals of
#: its live states holding every term, ascending, and per term a column
#: of position tuples parallel to them.
SegmentMatches = tuple[Segment, list[int], list[list[tuple[int, ...]]]]


class Index(ABC):
    """What the query path, the engines and the serving tier ask of an index.

    Writes buffer in a :class:`Memtable`; reads go over a *generation* —
    ``_flushed``, an immutable tuple of :class:`Segment` objects that
    :meth:`_publish` replaces whole, plus a view of whatever is still
    buffered — taken into a local once and finished on it, so a read
    never flushes and never sees half a write.  All of that is written
    here, once; a backend supplies :meth:`finalize`, its commit, and so
    the in-memory :class:`InvertedFile` and the on-disk
    :class:`~repro.search.segmented.SegmentedIndex` cannot drift apart
    (``index_parity`` holds them byte-identical).
    """

    def __init__(self, max_state_index: Optional[int] = None, recorder=NULL_RECORDER) -> None:
        #: Only states with index < max_state_index are indexed
        #: (None = all states).  ``1`` reproduces a traditional index.
        self.max_state_index = max_state_index
        self.recorder = recorder
        #: Cumulative block-skipping accounting across all conjunctions.
        self.merge_stats = MergeStats()
        self._memtable = Memtable(max_state_index)
        self._next_seq = 0
        # One lock for the writers that replace ``_flushed`` and for the
        # view, which concurrent query threads may be the first to want.
        self._lock = threading.Lock()
        self._publish(())

    # -- writing -------------------------------------------------------------------

    def _take_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def add_model(self, model: ApplicationModel) -> None:
        """Index (a prefix of) one model; indexing a state twice is an error."""
        # The memtable rejects duplicates it holds itself; states already
        # frozen into segments are asked of the segments' own registries.
        for segment in self._flushed:
            if segment.has_uri(model.url):
                for state in model.states():
                    if segment.ordinal(model.url, state.state_id) is not None:
                        raise SearchError(f"state {(model.url, state.state_id)} indexed twice")
        self._memtable.add_model(model, self._take_seq)
        self._generation = None

    def remove_urls(self, uris: Iterable[str]) -> int:
        """Drop every state of the given URIs; returns the number removed."""
        removed = self._memtable.remove_urls(uris)
        if removed:
            self._generation = None  # every later state's ordinal has moved
        return removed

    @abstractmethod
    def finalize(self) -> None:
        """Commit everything added so far, in the backend's sense of it
        (idempotent).  Queries do not need it: they read the buffer."""

    def _publish(self, flushed: tuple[Segment, ...]) -> None:
        """Replace the flushed segments — whole, by one assignment, the
        new tuple complete before it: a reader holds the old tuple or
        the new one, never a list that changes under it."""
        self._flushed = flushed
        #: What a read sees: ``_flushed`` and, last, the view of a
        #: non-empty buffer.  None while a write has not been viewed.
        self._generation: Optional[tuple[Segment, ...]] = None

    def _segments(self) -> tuple[Segment, ...]:
        """The current generation, viewing the buffer first if a write
        is pending.

        Double-checked locking: the unlocked fast path keeps reads of a
        settled index free, the locked re-check makes the first reads of
        concurrent query threads safe on a freshly written one.  The
        generation is complete before the one assignment that publishes
        it, and a reader keeps to the tuple it was handed.
        """
        if (generation := self._generation) is not None:
            return generation
        with self._lock:
            if (generation := self._generation) is None:
                generation = self._flushed
                if self._memtable:
                    with self.recorder.span("index_flush"):
                        view = MemorySegment(*self._memtable.flush_view())
                        if self.recorder.enabled:
                            self.recorder.emit(
                                INDEX_FLUSH,
                                num_states=view.num_states,
                                vocabulary=len(view.terms()),
                            )
                    generation += (view,)
                self._generation = generation
            return generation

    # -- reading -------------------------------------------------------------------

    def matches(self, terms: list[str]) -> list[SegmentMatches]:
        """The states containing every term, as the block merge leaves
        them: per segment of the generation that holds all the terms,
        ``(segment, live ordinals, one position column per term)`` — no
        row, string or tuple made per match (Figure 5.2's intersection,
        run to its end when this returns).

        State co-location lets each segment run its own ordinal-level
        block merge; the retired states are masked out of its columns
        here, and the decode accounting is booked here, once per query.
        """
        stats = MergeStats()
        found = []
        for segment in self._segments():
            views = [segment.view(term) for term in terms]
            if None not in views:
                merged = merge_conjunction_blocks(views, stats)
                found.append((segment, *segment.live_columns(*merged)))
        self.merge_stats.merge(stats)
        trace = current_request_trace()
        if trace is not None:
            # Per-request read amplification for /debug/trace and the
            # serving tier's live doctor.
            trace.add_index_stats(
                stats.blocks_decoded, stats.blocks_skipped, stats.postings_decoded
            )
        return found

    def conjunction(self, terms: list[str]) -> Iterator[MatchRow]:
        """One row per state of :meth:`matches`, in canonical (uri,
        state index) order; the rows are built as they are consumed.

        Every segment's rows are in canonical order already, so the
        answer is their lazy k-way merge — a lone segment's rows as
        they are.  Only a caller that wants that order pays for it: the
        engine ranks the columns, under a total key.
        """
        streams = [
            segment.match_rows(ordinals, columns)
            for segment, ordinals, columns in self.matches(terms)
        ]
        if len(streams) == 1:
            return streams[0]
        return heapq.merge(*streams, key=state_sort_key)

    def document_frequency(self, term: str) -> int:
        """Number of states containing ``term`` (the idf denominator):
        exact, the sum of the segments' own exact dfs."""
        return sum(segment.df(term) for segment in self._segments())

    @property
    def num_states(self) -> int:
        """Total number of indexed states (the idf numerator)."""
        return sum(segment.num_states for segment in self._segments())

    def terms(self) -> set[str]:
        """The vocabulary."""
        return set().union(*(segment.terms() for segment in self._segments()))

    def state_rows(self) -> list[tuple[str, str, int, int, int]]:
        """``(uri, state_id, length, depth, seq)`` of every live state,
        in insertion order.

        Each state's sequence number keeps that order across segments,
        including remove + re-add moving a URI's states to the end.
        """
        rows = [row for segment in self._segments() for row in segment.state_rows()]
        rows.sort(key=itemgetter(4))
        return rows

    def states(self) -> list[tuple[str, str]]:
        """All indexed (uri, state_id) pairs in insertion order."""
        return [row[:2] for row in self.state_rows()]

    # -- derived -----------------------------------------------------------------

    def build(self, models: Iterable[ApplicationModel]) -> "Index":
        """Index many models and finalize; returns self for chaining."""
        for model in models:
            self.add_model(model)
        self.finalize()
        return self

    def remove_url(self, uri: str) -> int:
        """Drop every state of ``uri`` (for re-crawls); returns the count."""
        return self.remove_urls([uri])

    def update_model(self, model: ApplicationModel) -> None:
        """Replace ``model.url``'s states with the model's current ones
        (incremental index maintenance after a re-crawl, §7.1.2)."""
        self.remove_url(model.url)
        self.add_model(model)
        self.finalize()

    def idf(self, term: str) -> float:
        """Inverse document frequency with states as documents (eq. 5.2)."""
        return inverse_document_frequency(self.num_states, self.document_frequency(term))

    @property
    def vocabulary_size(self) -> int:
        return len(self.terms())


class InvertedFile(Index):
    """Keyword → sorted posting list, plus per-state statistics, in
    memory: the buffer is never emptied and nothing is ever flushed, so
    its generation is the one view of the buffer and ``finalize`` is
    building it.  It never saves; a segment directory is what persists."""

    def finalize(self) -> None:
        self._segments()
