"""The state-granular inverted file (§5.2).

"As opposed to traditional index processing, in our case a result is an
URI *and a state*."  The index maps each keyword to postings of
``(uri, state, positions)``; states play the role documents play in a
traditional inverted file, including for the tf/idf statistics (§5.3.3).

The ``max_state_index`` knob builds an index over only the first *k*
states of every model — this is how the eleven indexes of the
search-quality experiment (§7.7) and the crawl-threshold experiment
(§7.6) are produced.

:class:`Index` is the contract every backend implements;
:class:`InvertedFile` is the in-memory one.
"""

from __future__ import annotations

import itertools
import json
import threading
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.model import ApplicationModel
from repro.obs import INDEX_FLUSH, NULL_RECORDER
from repro.search.memtable import Memtable
from repro.search.postings import Posting
from repro.search.ranking import inverse_document_frequency
from repro.search.segments import MemorySegment, merge_conjunction_blocks

#: One boolean match as the read path carries it: ``(uri, state_id,
#: state length, positions of each query term)`` — plain values, so
#: nothing is constructed for a match the ranking then drops.
MatchRow = tuple[str, str, int, Sequence[tuple[int, ...]]]


class Index(ABC):
    """What the query path, the engines and the serving tier ask of an index.

    A backend supplies the abstract *primitives*; everything below them
    is *derived* here, once, so the in-memory :class:`InvertedFile` and
    the on-disk :class:`~repro.search.segmented.SegmentedIndex` cannot
    drift apart (``index_parity`` holds them byte-identical).
    """

    #: Only states with index < max_state_index are indexed
    #: (None = all states).  ``1`` reproduces a traditional index.
    max_state_index: Optional[int]
    #: Stopwords dropped at indexing time (None = index everything).
    stopwords: Optional[frozenset[str]]

    # -- primitives: writing -----------------------------------------------------

    @abstractmethod
    def add_model(self, model: ApplicationModel) -> None:
        """Index (a prefix of) one model; indexing a state twice is an error."""

    @abstractmethod
    def remove_urls(self, uris: Iterable[str]) -> int:
        """Drop every state of the given URIs; returns the number removed."""

    @abstractmethod
    def finalize(self) -> None:
        """Make everything added so far visible to queries (idempotent)."""

    # -- primitives: reading -----------------------------------------------------

    @abstractmethod
    def conjunction(self, terms: list[str]) -> Iterator[MatchRow]:
        """One row per state containing every term, in canonical
        (uri, state index) order (Figure 5.2).  The intersection has
        run when this returns; the rows are built as they are consumed."""

    @abstractmethod
    def postings(self, term: str) -> list[Posting]:
        """The sorted posting list of ``term`` (empty if absent)."""

    @abstractmethod
    def document_frequency(self, term: str) -> int:
        """Number of states containing ``term`` (the idf denominator)."""

    @property
    @abstractmethod
    def num_states(self) -> int:
        """Total number of indexed states (the idf numerator)."""

    @abstractmethod
    def terms(self) -> set[str]:
        """The vocabulary."""

    @abstractmethod
    def states(self) -> list[tuple[str, str]]:
        """All indexed (uri, state_id) pairs in insertion order."""

    @abstractmethod
    def state_length(self, uri: str, state_id: str) -> int:
        """Token count of one state (tf denominator, eq. 5.1); 0 if absent."""

    @abstractmethod
    def state_depth(self, uri: str, state_id: str) -> int:
        """BFS depth at which the crawler found the state; 0 if absent."""

    @abstractmethod
    def term_count(self, term: str, uri: str, state_id: str) -> int:
        """Occurrences of ``term`` in one state; 0 if either is absent."""

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

    def tf(self, term: str, uri: str, state_id: str) -> float:
        """Term frequency of ``term`` in one state (eq. 5.1)."""
        length = self.state_length(uri, state_id)
        return self.term_count(term, uri, state_id) / length if length else 0.0

    def idf(self, term: str) -> float:
        """Inverse document frequency with states as documents (eq. 5.2)."""
        return inverse_document_frequency(self.num_states, self.document_frequency(term))

    @property
    def vocabulary_size(self) -> int:
        return len(self.terms())


class InvertedFile(Index):
    """Keyword → sorted posting list, plus per-state statistics.

    The write half is a :class:`Memtable` that is never emptied:
    ``finalize`` flushes it into memory — the same state table and
    ordinal columns a segment file is written from — and the lookups
    read that :class:`~repro.search.segments.MemorySegment` the way a
    :class:`~repro.search.segmented.SegmentedIndex` reads a segment.
    """

    def __init__(
        self,
        max_state_index: Optional[int] = None,
        stopwords: Optional[frozenset[str]] = None,
        recorder=NULL_RECORDER,
    ) -> None:
        self.recorder = recorder
        self.max_state_index = max_state_index
        self.stopwords = stopwords
        self._memtable = Memtable(max_state_index=max_state_index, stopwords=stopwords)
        self._take_seq = itertools.count().__next__
        #: The finalized view; None while a write has not been flushed.
        self._segment: Optional[MemorySegment] = MemorySegment((), ())
        # finalize() may be reached lazily from postings() by concurrent
        # query threads; the lock makes the flush-once transition safe.
        self._finalize_lock = threading.Lock()

    # -- construction ------------------------------------------------------------

    def add_model(self, model: ApplicationModel) -> None:
        self._memtable.add_model(model, self._take_seq)
        self._segment = None

    def remove_urls(self, uris: Iterable[str]) -> int:
        removed = self._memtable.remove_urls(uris)
        if removed:
            self._segment = None  # every later state's ordinal has moved
        return removed

    def finalize(self) -> None:
        self._flushed()

    def _flushed(self) -> MemorySegment:
        """The finalized view, flushing first if a write is pending.

        Double-checked locking: the unlocked fast path keeps finalized
        reads free, the locked re-check makes the first ``postings()``
        calls of concurrent query threads safe on a freshly built index.
        The view is complete before the one assignment that publishes
        it, and a reader keeps to the segment it was handed.
        """
        if (segment := self._segment) is not None:
            return segment
        with self._finalize_lock:
            if (segment := self._segment) is None:
                with self.recorder.span("index_flush"):
                    segment = self._segment = MemorySegment(*self._memtable.flush_view())
                    if self.recorder.enabled:
                        self.recorder.emit(
                            INDEX_FLUSH,
                            num_states=self.num_states,
                            vocabulary=self.vocabulary_size,
                        )
            return segment

    # -- lookups ------------------------------------------------------------------

    def conjunction(self, terms: list[str]) -> Iterator[MatchRow]:
        """The ordinal-level block merge a segment file runs, over one
        undivided block per term."""
        segment = self._flushed()
        views = [segment.view(term) for term in terms]
        if None in views:
            return iter(())
        return segment.match_rows(*merge_conjunction_blocks(views))

    def postings(self, term: str) -> list[Posting]:
        return self._flushed().materialize(term)

    def document_frequency(self, term: str) -> int:
        view = self._flushed().view(term)
        return view.df if view is not None else 0

    @property
    def num_states(self) -> int:
        return self._memtable.num_states

    def terms(self) -> set[str]:
        return set(self._memtable.terms())

    def states(self) -> list[tuple[str, str]]:
        return self._memtable.states()

    def state_length(self, uri: str, state_id: str) -> int:
        stat = self._memtable.state_stat((uri, state_id))
        return stat[0] if stat else 0

    def state_depth(self, uri: str, state_id: str) -> int:
        stat = self._memtable.state_stat((uri, state_id))
        return stat[1] if stat else 0

    def term_count(self, term: str, uri: str, state_id: str) -> int:
        """Binary search over the term's ordinals — O(log df), not a
        scan of the whole posting list."""
        segment = self._flushed()
        ordinal, view = segment.ordinal(uri, state_id), segment.view(term)
        return view.count_at(ordinal) if ordinal is not None and view is not None else 0

    # -- serialization ------------------------------------------------------------------

    def to_dict(self) -> dict:
        segment = self._flushed()
        rows = self._memtable.state_rows()
        return {
            "max_state_index": self.max_state_index,
            "stopwords": sorted(self.stopwords) if self.stopwords else None,
            "postings": {
                term: [
                    [*segment.state_key(ordinal), list(occurrences)]
                    for ordinal, occurrences in zip(*segment.columns[term])
                ]
                for term in self._memtable.terms()
            },
            "state_lengths": [[uri, state_id, length] for uri, state_id, length, _, _ in rows],
            "state_depths": [[uri, state_id, depth] for uri, state_id, _, depth, _ in rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InvertedFile":
        stopwords = data.get("stopwords")
        index = cls(
            max_state_index=data.get("max_state_index"),
            stopwords=frozenset(stopwords) if stopwords else None,
        )
        depths = {
            (uri, state_id): depth for uri, state_id, depth in data.get("state_depths", [])
        }
        index._memtable.restore(
            [
                (uri, state_id, length, depths.get((uri, state_id), 0))
                for uri, state_id, length in data["state_lengths"]
            ],
            data["postings"],
        )
        # The restored rows took 0..n-1; the next add continues after them.
        index._take_seq = itertools.count(index.num_states).__next__
        index._segment = None
        return index

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "InvertedFile":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
