"""LSM-style segmented index: the on-disk :class:`~repro.search.index.Index`.

A :class:`SegmentedIndex` is a *directory*: a ``MANIFEST.json`` naming
the live segment files in chronological order, plus one immutable
``seg-*.seg`` file per flushed memtable (see
:mod:`repro.search.segments` for the file format).  Writes buffer in a
:class:`~repro.search.memtable.Memtable` and freeze into a new segment
once the buffer crosses ``flush_threshold`` postings; a size-tiered
compactor then merges segments of similar size so the segment count
stays logarithmic in index size.

It is an :class:`~repro.search.index.Index` whose flushes go to that
directory: the buffer, the generation of segments and every read are the
base's, so :class:`~repro.search.engine.SearchEngine`, ``repro.serve``
and the aggregation tier take either backend, and the ``index_parity``
conformance check holds the results byte-identical.  A read sees the
buffer through memory; only ``finalize``, a full buffer and ``close``
write a segment.

Two invariants make the multi-segment query path exact:

* **state co-location** — flushes happen only between models, so every
  posting of a given ``(uri, state)`` lives in one segment.  A boolean
  conjunction can therefore run per segment (over compact int ordinals,
  with block skipping) and concatenate: no cross-segment merge state.
* **exact global df** — each segment's term table stores its exact
  document frequency; the global df is their sum, re-derived (not
  approximated) whenever compaction rewrites segments, so ``idf`` is
  bit-identical to the in-memory index (the ch. 6 query-shipping
  contract: per-partition indexes, global-idf correction at merge).
"""

from __future__ import annotations

import json
import os
from itertools import accumulate, compress
from pathlib import Path
from typing import Container, Iterable, Optional

from repro.errors import SearchError
from repro.model import ApplicationModel
from repro.obs import COMPACTION, NULL_RECORDER, SEGMENT_FLUSH
from repro.search.index import Index
from repro.search.memtable import Memtable
from repro.search.segments import (
    BLOCK_SIZE,
    BlockCache,
    SegmentReader,
    sorted_columns,
    state_sort_key,
    write_segment,
)

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 1

#: Default memtable flush threshold, in postings.
DEFAULT_FLUSH_POSTINGS = 200_000

#: Segments per size tier before that tier is compacted.
DEFAULT_COMPACT_FANIN = 4


def _tier(num_postings: int) -> int:
    """Size tier of a segment: tiers grow by ~4x postings."""
    return max(0, num_postings.bit_length() - 1) // 2


class SegmentedIndex(Index):
    """Directory-backed inverted file: memtable + immutable segments."""

    def __init__(
        self,
        path: str | Path,
        max_state_index: Optional[int] = None,
        stopwords: Optional[frozenset[str]] = None,
        recorder=NULL_RECORDER,
        metrics=None,
        flush_threshold: int = DEFAULT_FLUSH_POSTINGS,
        block_size: int = BLOCK_SIZE,
        compact_fanin: int = DEFAULT_COMPACT_FANIN,
    ) -> None:
        self.path = Path(path)
        self.metrics = metrics
        self.flush_threshold = max(1, flush_threshold)
        self.compact_fanin = max(2, compact_fanin)
        self.cache = BlockCache()

        self.path.mkdir(parents=True, exist_ok=True)
        manifest_path = self.path / MANIFEST_NAME
        manifest = None
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            except ValueError as error:
                raise SearchError(f"corrupt index manifest {manifest_path}") from error
            if manifest.get("version") != MANIFEST_VERSION:
                raise SearchError(
                    f"unsupported index manifest version {manifest.get('version')!r}"
                )
            # What is on disk was indexed under the manifest's settings:
            # None takes them, anything else has to agree with them.
            words = manifest.get("stopwords")
            recorded = (manifest.get("max_state_index"), frozenset(words) if words else None)
            for name, asked, was in zip(
                ("max_state_index", "stopwords"), (max_state_index, stopwords or None), recorded
            ):
                if asked is not None and asked != was:
                    raise SearchError(
                        f"{self.path} was indexed with {name}={was!r}, not {name}={asked!r}"
                    )
            max_state_index, stopwords = recorded
            block_size = int(manifest.get("block_size", block_size))
        super().__init__(max_state_index, stopwords, recorder)
        self.block_size = block_size
        if manifest is None:
            self._next_segment_id = 0
            self.orphans_collected = 0
            self._save_manifest()
        else:
            self._next_seq = int(manifest["next_seq"])
            self._next_segment_id = int(manifest["next_segment_id"])
            self._publish(tuple(
                SegmentReader(self.path / name, cache=self.cache)
                for name in manifest["segments"]
            ))
            self.orphans_collected = self._collect_orphans(set(manifest["segments"]))

    @classmethod
    def open(cls, path: str | Path, **kwargs) -> "SegmentedIndex":
        """Open an existing segmented index directory."""
        path = Path(path)
        if not (path / MANIFEST_NAME).exists():
            raise SearchError(f"{path} is not a segmented index (no {MANIFEST_NAME})")
        return cls(path, **kwargs)

    def close(self) -> None:
        """Commit what is buffered, then let go of the segment files —
        the empty generation is published before a map is closed."""
        self.flush()
        retired = self._flushed
        self._publish(())
        for reader in retired:
            reader.close()

    # -- persistence -------------------------------------------------------------

    def _collect_orphans(self, live: set[str]) -> int:
        """Delete files a crash stranded outside the manifest.

        The manifest swap (atomic ``os.replace``) is the commit point of
        every mutation; segment files are written *before* it and
        unlinked *after* it.  A crash anywhere in that window therefore
        leaves either a freshly written segment the manifest never
        adopted, a victim segment the manifest already dropped, or a
        half-written ``*.tmp`` — all garbage, never referenced data.
        """
        orphans = 0
        for path in sorted(self.path.glob("seg-*.seg")):
            if path.name not in live:
                path.unlink()
                orphans += 1
        for path in sorted(self.path.glob("*.tmp")):
            path.unlink()
            orphans += 1
        if orphans and self.metrics is not None:
            self.metrics.inc("index.orphans_collected", orphans)
        return orphans

    def _save_manifest(self) -> None:
        manifest = {
            "version": MANIFEST_VERSION,
            "segments": [reader.name for reader in self._flushed],
            "next_seq": self._next_seq,
            "next_segment_id": self._next_segment_id,
            "max_state_index": self.max_state_index,
            "stopwords": sorted(self.stopwords) if self.stopwords else None,
            "block_size": self.block_size,
        }
        target = self.path / MANIFEST_NAME
        scratch = target.with_suffix(".json.tmp")
        scratch.write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
        os.replace(scratch, target)

    def _commit(self, flushed: tuple[SegmentReader, ...], victims=()) -> None:
        """Publish ``flushed`` and swap the manifest to it — the commit
        point.  The victims' files go only after the manifest stops
        naming them: a crash in between leaves orphans (collected on
        reopen), never a manifest pointing at missing files."""
        self._publish(flushed)
        self._save_manifest()
        for reader in victims:
            reader.close()
            reader.path.unlink(missing_ok=True)
        if self.metrics is not None:
            self.metrics.set_gauge("index.live_segments", len(flushed))

    def _segment_path(self) -> Path:
        path = self.path / f"seg-{self._next_segment_id:08d}.seg"
        self._next_segment_id += 1
        return path

    # -- construction ------------------------------------------------------------

    def add_model(self, model: ApplicationModel) -> None:
        """Buffer one application model; flush if the memtable is full."""
        super().add_model(model)
        if self._memtable.num_postings >= self.flush_threshold:
            self.flush()

    def finalize(self) -> None:
        """The durable commit: flush any buffered states.

        Idempotent and cheap when nothing is buffered; the engine
        calls it eagerly.
        """
        self.flush()

    def flush(self) -> None:
        """Freeze the memtable into a new immutable segment (+ compact)."""
        with self._lock:
            if not self._memtable:
                return
            with self.recorder.span("segment_flush"):
                stats = write_segment(
                    self._segment_path(),
                    *self._memtable.flush_view(),
                    block_size=self.block_size,
                )
                reader = SegmentReader(stats.path, cache=self.cache)
                self._memtable = Memtable(self.max_state_index, self.stopwords)
                self._commit((*self._flushed, reader))
                if self.recorder.enabled:
                    self.recorder.emit(
                        SEGMENT_FLUSH,
                        segment=stats.path.name,
                        num_states=stats.num_states,
                        num_postings=stats.num_postings,
                        num_terms=stats.num_terms,
                        num_bytes=stats.num_bytes,
                    )
                if self.metrics is not None:
                    self.metrics.inc("index.segment_flushes")
                    self.metrics.inc("index.flushed_postings", stats.num_postings)
        self.maybe_compact()

    # -- compaction --------------------------------------------------------------

    def maybe_compact(self) -> int:
        """Run size-tiered compaction until no tier is over-full.

        Returns the number of merges performed.  A tier holds segments
        whose posting counts fall in the same ~4x size band; once a tier
        accumulates ``compact_fanin`` members they merge into one
        (larger-tier) segment, so lookups touch O(log n) segments.
        """
        merges = 0
        while True:
            tiers: dict[int, list[SegmentReader]] = {}
            for reader in self._flushed:
                tiers.setdefault(_tier(reader.num_postings), []).append(reader)
            crowded = [
                members for members in tiers.values() if len(members) >= self.compact_fanin
            ]
            if not crowded:
                return merges
            # Merge the smallest crowded tier first: cheapest, and its
            # output may cascade into the next tier's merge.
            victims = min(crowded, key=lambda members: members[0].num_postings)
            self._merge(victims)
            merges += 1

    def compact_all(self) -> int:
        """Merge every segment into one (full compaction); returns merges."""
        self.finalize()
        if len(self._flushed) < 2:
            return 0
        self._merge(list(self._flushed))
        return 1

    def _rewrite(
        self, victims: list[SegmentReader], dropped: Container[str] = ()
    ) -> Optional[SegmentReader]:
        """Write and open the one segment that replaces ``victims``: their
        states minus those of the ``dropped`` URIs, exact df re-derived.
        None, and no file, if no state is left."""
        # One sort of the victims' concatenated state rows is the new
        # state table and, read backwards, each victim's old ordinal ->
        # new ordinal list (-1 for a state that goes).
        rows = [row for reader in victims for row in reader.state_rows()]
        order = sorted(
            (old for old, row in enumerate(rows) if row[0] not in dropped),
            key=lambda old: state_sort_key(rows[old]),
        )
        if not order:
            return None
        new_ordinal = [-1] * len(rows)
        for new, old in enumerate(order):
            new_ordinal[old] = new
        bases = accumulate((reader.num_states for reader in victims), initial=0)
        remaps = [
            new_ordinal[base : base + reader.num_states].__getitem__
            for base, reader in zip(bases, victims)
        ]

        def columns_by_term():
            for term in sorted(set().union(*(reader.terms() for reader in victims))):
                ordinals, positions, holders = [], [], 0
                for reader, remap in zip(victims, remaps):
                    old, occurrences = reader.columns(term)
                    holders += bool(old)
                    ordinals += map(remap, old)
                    positions += occurrences
                if -1 in ordinals:
                    kept = [ordinal >= 0 for ordinal in ordinals]
                    ordinals = list(compress(ordinals, kept))
                    positions = list(compress(positions, kept))
                # A remap keeps canonical order, so one victim's run is
                # increasing as it stands; several are merged.  What is
                # left is the term's exact df, which the writer persists.
                if holders > 1:
                    ordinals, positions = sorted_columns(ordinals, positions)
                if ordinals:
                    yield term, ordinals, positions

        stats = write_segment(
            self._segment_path(), [rows[old] for old in order], columns_by_term(),
            block_size=self.block_size,
        )
        return SegmentReader(stats.path, cache=self.cache)

    def _merge(self, victims: list[SegmentReader]) -> None:
        """Merge ``victims`` into one new segment, re-deriving exact df."""
        with self._lock:
            with self.recorder.span("compaction"):
                merged = self._rewrite(victims)
                position = min(self._flushed.index(reader) for reader in victims)
                survivors = [r for r in self._flushed if r not in victims]
                survivors.insert(position, merged)
                self._commit(tuple(survivors), victims)
                if self.recorder.enabled:
                    self.recorder.emit(
                        COMPACTION,
                        segment=merged.name,
                        merged=len(victims),
                        num_states=merged.num_states,
                        num_postings=merged.num_postings,
                        num_bytes=merged.path.stat().st_size,
                    )
                if self.metrics is not None:
                    self.metrics.inc("index.compactions")
                    self.metrics.inc("index.segments_merged", len(victims))

    # -- incremental maintenance -------------------------------------------------

    def remove_urls(self, uris: Iterable[str]) -> int:
        """Batched removal: every touched segment is rewritten once.

        Segments are immutable, so removal rewrites each segment that
        holds any of the URIs (minus their states) — no tombstones, so
        df and idf stay exact without a merge-time reconciliation pass.
        """
        uri_set = set(uris)
        removed = super().remove_urls(uri_set)
        with self._lock:
            rewritten: dict[SegmentReader, Optional[SegmentReader]] = {}
            for reader in self._flushed:
                if any(reader.has_uri(uri) for uri in uri_set):
                    rewritten[reader] = replacement = self._rewrite([reader], uri_set)
                    removed += reader.num_states - (replacement.num_states if replacement else 0)
            if rewritten:
                survivors = (rewritten.get(reader, reader) for reader in self._flushed)
                self._commit(tuple(filter(None, survivors)), rewritten)
                if self.metrics is not None:
                    self.metrics.inc("index.segment_rewrites", len(rewritten))
        return removed

    # -- introspection -----------------------------------------------------------

    @property
    def num_postings(self) -> int:
        return sum(segment.num_postings for segment in self._segments())

    @property
    def num_segments(self) -> int:
        return len(self._flushed)

    def stats(self) -> dict:
        """Inventory of the index directory (for ``index stats``); the
        totals count what is still buffered, the files do not hold it."""
        segments = [
            {
                "name": reader.name,
                "num_states": reader.num_states,
                "num_postings": reader.num_postings,
                "num_terms": len(reader.terms()),
                "num_bytes": reader.path.stat().st_size,
            }
            for reader in self._flushed
        ]
        return {
            "path": str(self.path),
            "num_segments": len(segments),
            "num_states": self.num_states,
            "num_postings": self.num_postings,
            "vocabulary": self.vocabulary_size,
            "num_bytes": sum(segment["num_bytes"] for segment in segments),
            "block_size": self.block_size,
            "max_state_index": self.max_state_index,
            "segments": segments,
            "cache": {
                "capacity": self.cache.capacity,
                "entries": len(self.cache),
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
            },
            "merge": self.merge_stats.to_dict(),
        }
