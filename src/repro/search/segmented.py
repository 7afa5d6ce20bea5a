"""LSM-style segmented index: the on-disk :class:`~repro.search.index.Index`.

A :class:`SegmentedIndex` is a *directory*: a ``MANIFEST.json`` naming
the live segment files in chronological order and, per segment, the
state-ordinal runs retired in it since it was written, plus one
immutable ``seg-*.seg`` file per flushed memtable (see
:mod:`repro.search.segments` for the file format).  Writes buffer in a
:class:`~repro.search.memtable.Memtable` and freeze into a new segment
once the buffer crosses ``flush_threshold`` postings; a size-tiered
compactor then merges segments of similar size so the segment count
stays logarithmic in index size.  Removing a page writes the manifest
and nothing else; compaction is what drops its bytes.

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
  document frequency, a reader subtracts exactly the postings of the
  states retired in it; the global df is the segments' sum, re-derived
  (not approximated) whenever compaction rewrites segments, so ``idf``
  is bit-identical to the in-memory index (the ch. 6 query-shipping
  contract: per-partition indexes, global-idf correction at merge).
"""

from __future__ import annotations

import json
import os
from itertools import compress
from pathlib import Path
from typing import Iterable, Optional

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
#: Version 2 added ``"dead"``; a version 1 manifest is one without it.
MANIFEST_VERSION = 2

#: Default memtable flush threshold, in postings.
DEFAULT_FLUSH_POSTINGS = 200_000

#: Segments per size tier before that tier is compacted.
DEFAULT_COMPACT_FANIN = 4

#: Dead states per live state above which a segment is rewritten alone:
#: more dead than alive, and a purge frees more than it copies.
MAX_DEAD_PER_LIVE = 1


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
            if manifest.get("version") not in (1, MANIFEST_VERSION):
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
            self._publish(tuple(self._open_segments(manifest)))
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

    def _open_segments(self, manifest: dict) -> Iterable[SegmentReader]:
        """The manifest's readers, its dead ranges retired again — the
        per-term counts are never stored, the same pass that served the
        removal re-derives them."""
        dead = manifest.get("dead", {})
        if not dead.keys() <= set(manifest["segments"]):
            raise SearchError(f"{self.path}: dead ranges for a segment the manifest does not name")
        for name in manifest["segments"]:
            reader = SegmentReader(self.path / name, cache=self.cache)
            if name in dead:
                try:
                    reader = reader.retire([(lo, hi) for lo, hi in dead[name]])
                except (TypeError, ValueError) as error:
                    raise SearchError(f"{self.path}: corrupt dead ranges of {name}") from error
                if not reader.num_states:
                    raise SearchError(f"{self.path}: {name} is listed with no live state")
            yield reader

    def _save_manifest(self) -> None:
        manifest = {
            "version": MANIFEST_VERSION,
            "segments": [reader.name for reader in self._flushed],
            "dead": {reader.name: reader.dead for reader in self._flushed if reader.dead},
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
            self.metrics.set_gauge("index.dead_states", sum(r.dead_states for r in flushed))

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
        whose live posting counts fall in the same ~4x size band; once a
        tier accumulates ``compact_fanin`` members they merge into one
        (larger-tier) segment, so lookups touch O(log n) segments.  A
        segment more dead than alive (:data:`MAX_DEAD_PER_LIVE`) is
        rewritten alone: removal only masks, this is where the space
        comes back.
        """
        merges = 0
        while True:
            tiers: dict[int, list[SegmentReader]] = {}
            for reader in self._flushed:
                tiers.setdefault(_tier(reader.num_postings), []).append(reader)
            crowded = [
                members for members in tiers.values() if len(members) >= self.compact_fanin
            ]
            crowded += [
                [reader] for reader in self._flushed
                if reader.dead_states > MAX_DEAD_PER_LIVE * reader.num_states
            ]
            if not crowded:
                return merges
            # Merge the smallest crowded tier first: cheapest, and its
            # output may cascade into the next tier's merge.
            victims = min(crowded, key=lambda members: members[0].num_postings)
            self._merge(victims)
            merges += 1

    def compact_all(self) -> int:
        """Merge every segment into one (full compaction) and purge
        every dead state, a lone segment's too; returns merges."""
        self.finalize()
        if len(self._flushed) < 2 and not any(reader.dead for reader in self._flushed):
            return 0
        self._merge(list(self._flushed))
        return 1

    def _rewrite(self, victims: list[SegmentReader]) -> SegmentReader:
        """Write and open the one segment that replaces ``victims``:
        their live states, exact df re-derived."""
        # One sort of the victims' concatenated live rows is the new
        # state table; handed out again in the victims' own order, the
        # ranks are each victim's old ordinal -> new ordinal list (-1
        # for a dead state).
        rows = [row for reader in victims for row in reader.state_rows()]
        order = sorted(range(len(rows)), key=lambda at: state_sort_key(rows[at]))
        ranks = [0] * len(rows)
        for new, at in enumerate(order):
            ranks[at] = new
        rank = iter(ranks)
        remaps = [
            [next(rank) if alive else -1 for alive in reader.live].__getitem__
            for reader in victims
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
                yield term, ordinals, positions

        stats = write_segment(
            self._segment_path(), [rows[at] for at in order], columns_by_term(),
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
        """Batched removal, a commit of liveness and not of bytes: each
        segment holding any of the URIs is succeeded by a reader over
        the same file with those states' ordinal runs retired
        (:meth:`SegmentReader.retire` — masked, df exact), the manifest
        swap that names the runs being the only write.  A segment left
        with no live state is dropped and unlinked; everything else
        dead stays on disk until a compaction purges it.
        """
        uri_set = set(uris)
        removed = super().remove_urls(uri_set)
        with self._lock:
            successors: dict[SegmentReader, SegmentReader] = {}
            retired = 0
            for reader in self._flushed:
                ranges = sorted(filter(None, map(reader.uri_range, uri_set)))
                if ranges:
                    successors[reader] = reader.retire(ranges)
                    retired += sum(hi - lo for lo, hi in ranges)
            if successors:
                flushed = [successors.get(reader, reader) for reader in self._flushed]
                emptied = [reader for reader in flushed if not reader.num_states]
                self._commit(tuple(r for r in flushed if r.num_states), emptied)
                if self.metrics is not None:
                    self.metrics.inc("index.states_retired", retired)
        return removed + retired

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
                "dead_states": reader.dead_states,
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
            "dead_states": sum(segment["dead_states"] for segment in segments),
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
