"""Immutable on-disk index segments with block-max skip pointers.

One segment file holds a self-contained slice of the inverted file: a
sorted URI table, a state table (token length / depth / global insertion
sequence per state), and per term a run of delta+varint posting *blocks*
of up to :data:`BLOCK_SIZE` postings each.  The term table carries, per
block, its byte extent, posting count and **maximum state ordinal** —
the skip entry that lets a conjunction hop over a whole block without
decoding it when the merge target lies beyond it (WAND-style block
skipping layered on PR 3's galloping probe).

File layout (version 1)::

    "AJXSEG01"                         8-byte magic + version
    posting blocks                     back-to-back, per term
    uri table                          sorted, length-prefixed UTF-8
    state table                        sorted by (uri_id, state index)
    term table                         sorted terms -> df + block entries
    meta                               length-prefixed JSON
    footer                             4 x uint64 section offsets + magic

Within a segment a posting is identified by its *state ordinal* — the
state's rank in the (uri, state index) sort order — so posting lists
delta-encode small integers and the conjunction merge compares plain
ints instead of (str, int) tuples.  Readers :func:`mmap.mmap` the file
read-only, so a multi-process serving tier shares one physical copy of
the index through the page cache; per-query work touches only the
blocks the merge actually needs, decoded through a bounded
:class:`BlockCache`.
"""

from __future__ import annotations

import json
import mmap
import struct
import threading
from bisect import bisect_left
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Optional

from repro.errors import SearchError
from repro.search.codec import (
    decode_block,
    encode_block,
    read_bytes,
    read_uvarint,
    write_bytes,
    write_uvarint,
)
from repro.search.postings import Posting

#: Postings per on-disk block — the skip granularity.
BLOCK_SIZE = 128

MAGIC = b"AJXSEG01"
FOOTER_MAGIC = b"AJXSEGFT"
_FOOTER = struct.Struct("<QQQQ8s")


def state_sort_key(row: tuple) -> tuple[str, int]:
    """Canonical (uri, state index) order of any row led by ``(uri, state_id)``."""
    uri, state_id = row[0], row[1]
    return (uri, int(state_id[1:]))


class SegmentStats:
    """What one segment write produced (for tracing and manifests)."""

    __slots__ = ("path", "num_states", "num_postings", "num_terms", "num_bytes")

    def __init__(self, path: Path, num_states: int, num_postings: int,
                 num_terms: int, num_bytes: int) -> None:
        self.path = path
        self.num_states = num_states
        self.num_postings = num_postings
        self.num_terms = num_terms
        self.num_bytes = num_bytes


def write_segment(
    path: str | Path,
    states: list[tuple[str, str, int, int, int]],
    postings_by_term: Iterable[tuple[str, list[Posting]]],
    block_size: int = BLOCK_SIZE,
) -> SegmentStats:
    """Write one immutable segment file.

    ``states`` rows are ``(uri, state_id, length, depth, seq)``;
    ``postings_by_term`` must yield ``(term, postings)`` pairs sorted by
    term, each posting list in canonical (uri, state index) order.  The
    iterable may stream (compaction feeds it term by term, so a merge
    never materializes more than one term's postings).
    """
    path = Path(path)
    if block_size < 1:
        raise SearchError("segment block size must be >= 1")
    states = sorted(states, key=state_sort_key)
    uris = sorted({row[0] for row in states})
    uri_ids = {uri: index for index, uri in enumerate(uris)}
    ordinals = {(row[0], row[1]): ordinal for ordinal, row in enumerate(states)}

    num_postings = 0
    num_terms = 0
    term_table = bytearray()
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        offset = len(MAGIC)
        for term, postings in postings_by_term:
            num_terms += 1
            entry = bytearray()
            write_bytes(entry, term.encode("utf-8"))
            write_uvarint(entry, len(postings))
            blocks = [
                postings[start : start + block_size]
                for start in range(0, len(postings), block_size)
            ]
            write_uvarint(entry, len(blocks))
            for block in blocks:
                block_ordinals = []
                block_positions = []
                for posting in block:
                    try:
                        ordinal = ordinals[(posting.uri, posting.state_id)]
                    except KeyError:
                        raise SearchError(
                            f"posting for unknown state "
                            f"({posting.uri!r}, {posting.state_id!r})"
                        ) from None
                    block_ordinals.append(ordinal)
                    block_positions.append(posting.positions)
                payload = encode_block(block_ordinals, block_positions)
                handle.write(payload)
                write_uvarint(entry, offset)
                write_uvarint(entry, len(payload))
                write_uvarint(entry, len(block))
                write_uvarint(entry, block_ordinals[-1])
                offset += len(payload)
            num_postings += len(postings)
            term_table.extend(entry)

        uri_offset = offset
        section = bytearray()
        write_uvarint(section, len(uris))
        for uri in uris:
            write_bytes(section, uri.encode("utf-8"))
        handle.write(section)
        offset += len(section)

        state_offset = offset
        section = bytearray()
        write_uvarint(section, len(states))
        for uri, state_id, length, depth, seq in states:
            index = int(state_id[1:])
            prefix = state_id[: len(state_id) - len(str(index))]
            write_uvarint(section, uri_ids[uri])
            write_uvarint(section, index)
            write_bytes(section, prefix.encode("utf-8"))
            write_uvarint(section, length)
            write_uvarint(section, depth)
            write_uvarint(section, seq)
        handle.write(section)
        offset += len(section)

        term_offset = offset
        header = bytearray()
        write_uvarint(header, num_terms)
        handle.write(header)
        handle.write(term_table)
        offset += len(header) + len(term_table)

        meta_offset = offset
        meta = bytearray()
        write_bytes(
            meta,
            json.dumps(
                {"num_postings": num_postings, "block_size": block_size},
                sort_keys=True,
            ).encode("utf-8"),
        )
        handle.write(meta)
        offset += len(meta)

        handle.write(
            _FOOTER.pack(uri_offset, state_offset, term_offset, meta_offset, FOOTER_MAGIC)
        )
        num_bytes = offset + _FOOTER.size
    return SegmentStats(path, len(states), num_postings, num_terms, num_bytes)


class BlockCache:
    """Bounded LRU over decoded posting blocks, shared across readers.

    Decoding a block costs varint work proportional to its postings; a
    serving tier replays the same hot query blocks constantly, so a
    small cache removes nearly all decode work from the steady state.
    The cache is keyed by ``(segment path, term, block number)`` and is
    lock-protected for the threaded serving tier.
    """

    def __init__(self, capacity: int = 1024) -> None:
        self.capacity = max(1, capacity)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key, loader):
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
        value = loader()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class _TermMeta:
    """Decoded term-table entry: df plus the per-block skip table."""

    __slots__ = ("df", "offsets", "lengths", "counts", "maxima")

    def __init__(self, df: int, offsets, lengths, counts, maxima) -> None:
        self.df = df
        self.offsets = offsets
        self.lengths = lengths
        self.counts = counts
        #: Per-block maximum state ordinal — the skip entries.
        self.maxima = maxima


class SegmentReader:
    """Zero-copy (mmap) reader over one immutable segment file.

    The URI, state and term tables are decoded once at open time (they
    are small); posting blocks stay on disk until a query's merge
    actually needs them, then decode through the shared
    :class:`BlockCache`.
    """

    def __init__(self, path: str | Path, cache: Optional[BlockCache] = None) -> None:
        self.path = Path(path)
        self.cache = cache if cache is not None else BlockCache()
        self._file = open(self.path, "rb")
        try:
            self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as error:
            self._file.close()
            raise SearchError(f"cannot map segment {self.path}: {error}") from error
        try:
            self._parse_tables()
        except SearchError:
            self.close()
            raise

    # -- parsing -----------------------------------------------------------------

    def _parse_tables(self) -> None:
        data = self._map
        if len(data) < len(MAGIC) + _FOOTER.size or data[: len(MAGIC)] != MAGIC:
            raise SearchError(f"{self.path} is not a segment file")
        uri_off, state_off, term_off, meta_off, magic = _FOOTER.unpack(
            data[-_FOOTER.size :]
        )
        if magic != FOOTER_MAGIC:
            raise SearchError(f"{self.path}: bad segment footer")
        if not len(MAGIC) <= uri_off <= state_off <= term_off <= meta_off <= len(data):
            raise SearchError(f"{self.path}: corrupt section offsets")

        count, offset = read_uvarint(data, uri_off)
        uris = []
        for _ in range(count):
            raw, offset = read_bytes(data, offset)
            uris.append(raw.decode("utf-8"))
        self.uris: tuple[str, ...] = tuple(uris)
        self._uri_set = frozenset(uris)

        count, offset = read_uvarint(data, state_off)
        self._state_uri: list[str] = []
        self._state_id: list[str] = []
        self._state_index: list[int] = []
        self._state_length: list[int] = []
        self._state_depth: list[int] = []
        self._state_seq: list[int] = []
        self._ordinals: dict[tuple[str, str], int] = {}
        for ordinal in range(count):
            uri_id, offset = read_uvarint(data, offset)
            index, offset = read_uvarint(data, offset)
            prefix, offset = read_bytes(data, offset)
            length, offset = read_uvarint(data, offset)
            depth, offset = read_uvarint(data, offset)
            seq, offset = read_uvarint(data, offset)
            if uri_id >= len(self.uris):
                raise SearchError(f"{self.path}: state row references unknown URI")
            uri = self.uris[uri_id]
            state_id = prefix.decode("utf-8") + str(index)
            self._state_uri.append(uri)
            self._state_id.append(state_id)
            self._state_index.append(index)
            self._state_length.append(length)
            self._state_depth.append(depth)
            self._state_seq.append(seq)
            self._ordinals[(uri, state_id)] = ordinal

        count, offset = read_uvarint(data, term_off)
        self._terms: dict[str, _TermMeta] = {}
        for _ in range(count):
            raw, offset = read_bytes(data, offset)
            term = raw.decode("utf-8")
            df, offset = read_uvarint(data, offset)
            num_blocks, offset = read_uvarint(data, offset)
            offsets, lengths, counts, maxima = [], [], [], []
            for _ in range(num_blocks):
                block_offset, offset = read_uvarint(data, offset)
                block_length, offset = read_uvarint(data, offset)
                block_count, offset = read_uvarint(data, offset)
                block_max, offset = read_uvarint(data, offset)
                if block_offset + block_length > uri_off:
                    raise SearchError(
                        f"{self.path}: block of {term!r} overruns the posting region"
                    )
                offsets.append(block_offset)
                lengths.append(block_length)
                counts.append(block_count)
                maxima.append(block_max)
            if sum(counts) != df:
                raise SearchError(f"{self.path}: df of {term!r} disagrees with blocks")
            self._terms[term] = _TermMeta(df, offsets, lengths, counts, maxima)

        raw, _ = read_bytes(data, meta_off)
        try:
            meta = json.loads(raw.decode("utf-8"))
        except ValueError as error:
            raise SearchError(f"{self.path}: corrupt segment meta") from error
        self.num_postings = int(meta["num_postings"])
        self.block_size = int(meta["block_size"])

    # -- table lookups -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.path.name

    @property
    def num_states(self) -> int:
        return len(self._state_uri)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def terms(self):
        """All terms of this segment in sorted order."""
        return self._terms.keys()

    def df(self, term: str) -> int:
        meta = self._terms.get(term)
        return meta.df if meta is not None else 0

    def has_uri(self, uri: str) -> bool:
        return uri in self._uri_set

    def ordinal(self, uri: str, state_id: str) -> Optional[int]:
        return self._ordinals.get((uri, state_id))

    def state_key(self, ordinal: int) -> tuple[str, str]:
        return (self._state_uri[ordinal], self._state_id[ordinal])

    def sort_key(self, ordinal: int) -> tuple[str, int]:
        return (self._state_uri[ordinal], self._state_index[ordinal])

    def state_length(self, ordinal: int) -> int:
        return self._state_length[ordinal]

    def state_depth(self, ordinal: int) -> int:
        return self._state_depth[ordinal]

    def state_seq(self, ordinal: int) -> int:
        return self._state_seq[ordinal]

    def state_rows(self) -> list[tuple[str, str, int, int, int]]:
        """``(uri, state_id, length, depth, seq)`` in ordinal order."""
        return [
            (
                self._state_uri[ordinal],
                self._state_id[ordinal],
                self._state_length[ordinal],
                self._state_depth[ordinal],
                self._state_seq[ordinal],
            )
            for ordinal in range(self.num_states)
        ]

    # -- posting access ----------------------------------------------------------

    def view(self, term: str) -> Optional["SegmentPostingView"]:
        """A lazily-decoding view over ``term``'s postings, or None."""
        meta = self._terms.get(term)
        if meta is None:
            return None
        return SegmentPostingView(self, term, meta)

    def decode_block_at(self, term: str, block: int) -> tuple[list[int], list[tuple[int, ...]]]:
        """Decode one posting block through the shared LRU cache."""
        meta = self._terms[term]
        key = (str(self.path), term, block)

        def loader():
            start = meta.offsets[block]
            payload = self._map[start : start + meta.lengths[block]]
            ordinals, positions = decode_block(payload)
            if len(ordinals) != meta.counts[block]:
                raise SearchError(
                    f"{self.path}: block {block} of {term!r} decoded "
                    f"{len(ordinals)} postings, skip table says {meta.counts[block]}"
                )
            return ordinals, positions

        return self.cache.get(key, loader)

    def match_rows(self, ordinals: list[int], columns: list[list[tuple[int, ...]]]):
        """Lazily, one ``(uri, state_id, length, positions per term)``
        row per merged ordinal (the two halves of a block merge's
        answer) — straight from the state table, built as consumed."""
        return zip(
            map(self._state_uri.__getitem__, ordinals),
            map(self._state_id.__getitem__, ordinals),
            map(self._state_length.__getitem__, ordinals),
            zip(*columns),
        )

    def posting(self, ordinal: int, positions: tuple[int, ...]) -> Posting:
        """Materialize one posting from its ordinal + decoded positions."""
        return Posting(
            uri=self._state_uri[ordinal],
            state_id=self._state_id[ordinal],
            positions=positions,
        )

    def materialize(self, term: str) -> list[Posting]:
        """The full posting list of ``term`` (canonical order)."""
        meta = self._terms.get(term)
        if meta is None:
            return []
        postings: list[Posting] = []
        for block in range(len(meta.offsets)):
            ordinals, positions = self.decode_block_at(term, block)
            postings.extend(
                self.posting(ordinal, pos) for ordinal, pos in zip(ordinals, positions)
            )
        return postings

    def close(self) -> None:
        self._map.close()
        self._file.close()


class SegmentPostingView:
    """Block-granular access to one term's postings in one segment."""

    __slots__ = ("reader", "term", "meta")

    def __init__(self, reader: SegmentReader, term: str, meta: _TermMeta) -> None:
        self.reader = reader
        self.term = term
        self.meta = meta

    @property
    def df(self) -> int:
        return self.meta.df

    @property
    def num_blocks(self) -> int:
        return len(self.meta.offsets)

    def load(self, block: int) -> tuple[list[int], list[tuple[int, ...]]]:
        return self.reader.decode_block_at(self.term, block)

    def count_at(self, ordinal: int) -> int:
        """Occurrences of the term in the state ``ordinal`` (0 if absent).

        Uses the skip table to decode at most one block.
        """
        block = bisect_left(self.meta.maxima, ordinal)
        if block >= self.num_blocks:
            return 0
        ordinals, positions = self.load(block)
        at = bisect_left(ordinals, ordinal)
        if at < len(ordinals) and ordinals[at] == ordinal:
            return len(positions[at])
        return 0


class MergeStats:
    """Decode accounting of one (or many) block-skipping conjunctions."""

    __slots__ = ("blocks_decoded", "blocks_skipped", "postings_decoded", "postings_total")

    def __init__(self) -> None:
        self.blocks_decoded = 0
        self.blocks_skipped = 0
        self.postings_decoded = 0
        self.postings_total = 0

    def merge(self, other: "MergeStats") -> None:
        self.blocks_decoded += other.blocks_decoded
        self.blocks_skipped += other.blocks_skipped
        self.postings_decoded += other.postings_decoded
        self.postings_total += other.postings_total

    def to_dict(self) -> dict:
        return {
            "blocks_decoded": self.blocks_decoded,
            "blocks_skipped": self.blocks_skipped,
            "postings_decoded": self.postings_decoded,
            "postings_total": self.postings_total,
        }


class _BlockCursor:
    """One list's position in the merge: ``(block, offset)`` with lazy
    decode.  The merge loop reads ``ordinals[offset]`` itself; the
    methods are the per-block steps."""

    __slots__ = ("view", "stats", "block", "offset", "ordinals", "positions")

    def __init__(self, view: SegmentPostingView, stats: MergeStats) -> None:
        self.view = view
        self.stats = stats
        self.block = 0
        self.offset = 0
        self.ordinals: Optional[list[int]] = None
        self.positions: Optional[list[tuple[int, ...]]] = None

    def load(self) -> None:
        """Decode the current block (the caller saw ``ordinals is None``)."""
        self.ordinals, self.positions = self.view.load(self.block)
        self.stats.blocks_decoded += 1
        self.stats.postings_decoded += len(self.ordinals)

    def enter(self, block: int) -> bool:
        """Stand at the start of ``block`` without decoding it; False
        once past the last one."""
        self.block = block
        self.offset = 0
        self.ordinals = self.positions = None
        return block < self.view.num_blocks

    def seek(self, target: int) -> bool:
        """Move to the first posting with ordinal >= ``target``; False if
        there is none.

        Whole blocks whose max ordinal is below the target are hopped
        over *without decoding* — the skip-pointer fast path.  Within
        the final candidate block a binary search lands the cursor.
        """
        landing = bisect_left(self.view.meta.maxima, target, self.block)
        if landing != self.block:
            # Every hopped block but a decoded current one was skipped.
            self.stats.blocks_skipped += landing - self.block - (self.ordinals is not None)
            if not self.enter(landing):
                return False
        if self.ordinals is None:
            self.load()
        # block_max >= target guarantees a hit inside this block.
        self.offset = bisect_left(self.ordinals, target, self.offset)
        return True


def merge_conjunction_blocks(
    views: list[SegmentPostingView],
    stats: Optional[MergeStats] = None,
) -> tuple[list[int], list[list[tuple[int, ...]]]]:
    """Intersect posting lists at block granularity within one segment.

    Returns the ordinals of the states present in *all* views,
    ascending, and one column per input view holding, parallel to them,
    that view's positions in each state — exactly the groups
    :func:`~repro.search.postings.merge_conjunction` yields on the
    materialized lists, kept in flat lists so a match costs no object of
    its own.  Whole blocks that cannot contain the current merge target
    are skipped using their max-ordinal entries, without decode.  Lists
    are scanned rarest-first so the most selective term drives the jumps
    (PR 3's discipline, lifted to block level).  A single view has
    nothing to align with: it is copied out block by block.
    """
    if stats is None:
        stats = MergeStats()
    ordinals: list[int] = []
    columns: list[list[tuple[int, ...]]] = [[] for _ in views]
    if not views:
        return ordinals, columns
    stats.postings_total += sum(view.df for view in views)
    if any(view.num_blocks == 0 for view in views):
        return ordinals, columns
    if len(views) == 1:
        (view,), (column,) = views, columns
        for block in range(view.num_blocks):
            block_ordinals, block_positions = view.load(block)
            stats.blocks_decoded += 1
            stats.postings_decoded += len(block_ordinals)
            ordinals.extend(block_ordinals)
            column.extend(block_positions)
        return ordinals, columns
    cursors = [_BlockCursor(view, stats) for view in views]
    lead, *rest = ordered = sorted(cursors, key=lambda cursor: cursor.view.df)
    while True:
        if lead.ordinals is None:
            lead.load()
        target = lead.ordinals[lead.offset]
        aligned = True
        for cursor in rest:
            if cursor.ordinals is None:
                cursor.load()
            key = cursor.ordinals[cursor.offset]
            if key != target:
                aligned = False
                if key > target:
                    target = key
        if aligned:
            ordinals.append(target)
            more = True
            for column, cursor in zip(columns, cursors):
                column.append(cursor.positions[cursor.offset])
                cursor.offset += 1
                if cursor.offset == len(cursor.ordinals):
                    more = cursor.enter(cursor.block + 1) and more
            if not more:
                return ordinals, columns
            continue
        for cursor in ordered:
            if cursor.ordinals[cursor.offset] < target and not cursor.seek(target):
                return ordinals, columns
