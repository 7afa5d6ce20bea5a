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

import copy
import json
import mmap
import struct
import threading
from bisect import bisect_left, bisect_right
from collections import Counter, OrderedDict
from itertools import accumulate, compress, pairwise
from operator import add, gt
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.errors import SearchError
from repro.search.codec import (
    decode_block,
    encode_block,
    read_bytes,
    read_uvarint,
    read_uvarints,
    write_bytes,
    write_uvarint,
    write_uvarints,
)

#: Postings per on-disk block — the skip granularity.
BLOCK_SIZE = 128

MAGIC = b"AJXSEG01"
FOOTER_MAGIC = b"AJXSEGFT"
_FOOTER = struct.Struct("<QQQQ8s")


def state_sort_key(row: tuple) -> tuple[str, int]:
    """Canonical (uri, state index) order of any row led by ``(uri, state_id)``."""
    uri, state_id = row[0], row[1]
    return (uri, int(state_id[1:]))


def sorted_columns(
    ordinals: Sequence[int], positions: Sequence[tuple[int, ...]]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Both columns of a posting list reordered so that the ordinals
    increase — an argsort over plain ints, no pair built per posting."""
    order = sorted(range(len(ordinals)), key=ordinals.__getitem__)
    return [ordinals[at] for at in order], [positions[at] for at in order]


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
    state_rows: Sequence[tuple[str, str, int, int, int]],
    columns_by_term: Iterable[tuple[str, Sequence[int], Sequence[tuple[int, ...]]]],
    block_size: int = BLOCK_SIZE,
) -> SegmentStats:
    """Write one immutable segment file.

    ``state_rows`` are ``(uri, state_id, length, depth, seq)`` *in
    canonical (uri, state index) order*: a row's place in the list is
    its state ordinal.  ``columns_by_term`` must yield ``(term, ordinals,
    positions)`` sorted by term: the term's postings as two parallel
    columns, the ordinals strictly increasing and taken from this very
    list.  The iterable may stream (compaction feeds it term by term,
    so a merge never holds more than one term's postings).  Rows out of
    order or repeated, an ordinal without a row and a repeated or
    descending ordinal all raise :class:`SearchError`.
    """
    path = Path(path)
    if block_size < 1:
        raise SearchError("segment block size must be >= 1")
    keys = [state_sort_key(row) for row in state_rows]
    if any(map(gt, keys, keys[1:])):
        raise SearchError("state rows are not in canonical (uri, state index) order")
    if len({(row[0], row[1]) for row in state_rows}) != len(state_rows):
        raise SearchError("duplicate (uri, state_id) state row")
    uris = sorted({row[0] for row in state_rows})
    uri_ids = {uri: index for index, uri in enumerate(uris)}

    num_postings = 0
    num_terms = 0
    term_table = bytearray()
    with open(path, "wb") as handle:
        handle.write(MAGIC)
        offset = len(MAGIC)
        for term, ordinals, positions in columns_by_term:
            df = len(ordinals)
            if len(positions) != df:
                raise SearchError(f"ordinal/position arity mismatch in term {term!r}")
            if df and (ordinals[0] < 0 or ordinals[-1] >= len(state_rows)):
                raise SearchError(f"posting of {term!r} for unknown state ordinal")
            entry = [df, -(-df // block_size)]
            last = -1
            for start in range(0, df, block_size):
                block = ordinals[start : start + block_size]
                if block[0] <= last:  # the seam encode_block cannot see
                    raise SearchError(f"ordinals of {term!r} must be strictly increasing")
                last = block[-1]
                payload = encode_block(block, positions[start : start + block_size])
                handle.write(payload)
                entry += (offset, len(payload), len(block), last)
                offset += len(payload)
            num_terms += 1
            num_postings += df
            write_bytes(term_table, term.encode("utf-8"))
            write_uvarints(term_table, entry)

        uri_offset = offset
        section = bytearray()
        write_uvarint(section, len(uris))
        for uri in uris:
            write_bytes(section, uri.encode("utf-8"))
        handle.write(section)
        offset += len(section)

        state_offset = offset
        section = bytearray()
        write_uvarint(section, len(state_rows))
        for (uri, state_id, length, depth, seq), (_, index) in zip(state_rows, keys):
            write_uvarints(section, (uri_ids[uri], index))
            prefix = state_id[: len(state_id) - len(str(index))]
            write_bytes(section, prefix.encode("utf-8"))
            write_uvarints(section, (length, depth, seq))
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
    return SegmentStats(path, len(state_rows), num_postings, num_terms, num_bytes)


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


class Segment:
    """The read side of one segment, on disk or in memory: its states
    as columns by ordinal (``_state_uri``, ``_state_id``,
    ``_state_length``, ``_state_depth``, ``_state_seq``), the way back
    (``_ordinals``, ``_uri_set``), ``num_postings``, ``terms()``,
    ``view(term)`` and ``columns(term)``.  The subclass fills them — a
    :class:`SegmentReader` parses its file, a :class:`MemorySegment` is
    handed rows and columns — and an index reads both kinds alike.

    A segment answers for its *live* states only.  A reader whose pages
    were removed since it was written (:meth:`SegmentReader.retire`)
    carries their ordinal runs in ``dead`` and a byte per ordinal in
    ``live``; every accessor below masks them behind one check of
    ``dead``; a query's matches are masked once, as columns, in
    :meth:`live_columns`.  Only ``columns(term)`` stays the file as
    written — the bulk read of compaction, which purges by that very mask.
    """

    #: Retired ``[lo, hi)`` ordinal runs, ascending and disjoint.
    dead: Sequence[tuple[int, int]] = ()
    #: How many states those runs cover.
    dead_states = 0

    @property
    def num_states(self) -> int:
        return len(self._state_uri) - self.dead_states

    @property
    def live(self) -> Sequence[int]:
        """Per ordinal of the state table, 1 for a live state and 0 for
        a retired one."""
        return self._live if self.dead else bytes([1]) * len(self._state_uri)

    def uri_range(self, uri: str) -> Optional[tuple[int, int]]:
        """The ordinals ``[lo, hi)`` of ``uri``'s states — one run, the
        table being sorted by URI — or None if none of them is live."""
        if uri not in self._uri_set:
            return None
        lo = bisect_left(self._state_uri, uri)
        # A URI is retired whole, so its first state speaks for all.
        if self.dead and not self._live[lo]:
            return None
        return lo, bisect_right(self._state_uri, uri, lo)

    def has_uri(self, uri: str) -> bool:
        return self.uri_range(uri) is not None

    def ordinal(self, uri: str, state_id: str) -> Optional[int]:
        ordinal = self._ordinals.get((uri, state_id))
        if self.dead and ordinal is not None and not self._live[ordinal]:
            return None
        return ordinal

    def state_key(self, ordinal: int) -> tuple[str, str]:
        return (self._state_uri[ordinal], self._state_id[ordinal])

    def state_length(self, ordinal: int) -> int:
        return self._state_length[ordinal]

    def state_depth(self, ordinal: int) -> int:
        return self._state_depth[ordinal]

    def state_rows(self) -> list[tuple[str, str, int, int, int]]:
        """``(uri, state_id, length, depth, seq)`` of the live states,
        in ordinal order."""
        rows = zip(
            self._state_uri, self._state_id, self._state_length,
            self._state_depth, self._state_seq,
        )
        return list(compress(rows, self._live) if self.dead else rows)

    def df(self, term: str) -> int:
        """Live states of this segment containing ``term`` — exact."""
        view = self.view(term)
        return view.df if view is not None else 0

    def live_columns(
        self, ordinals: list[int], columns: list[list[tuple[int, ...]]]
    ) -> tuple[list[int], list[list[tuple[int, ...]]]]:
        """A block merge's answer (the files' ordinals and, parallel to
        them, one position column per term) less the retired states —
        the one place a match is masked."""
        if not self.dead:
            return ordinals, columns
        keep = list(map(self._live.__getitem__, ordinals))
        return list(compress(ordinals, keep)), [list(compress(column, keep)) for column in columns]

    def state_columns(self, ordinals: list[int]) -> tuple[list[str], list[str], list[int]]:
        """The uri, state id and token length of each of ``ordinals``,
        as three columns parallel to them."""
        return (
            list(map(self._state_uri.__getitem__, ordinals)),
            list(map(self._state_id.__getitem__, ordinals)),
            list(map(self._state_length.__getitem__, ordinals)),
        )

    def match_rows(self, ordinals: list[int], columns: list[list[tuple[int, ...]]]):
        """Lazily, one ``(uri, state_id, length, positions per term)``
        row per ordinal of :meth:`live_columns`' answer — straight from
        the state table, built as consumed."""
        return zip(*self.state_columns(ordinals), zip(*columns))


class MemorySegment(Segment):
    """A flush that stays in memory — the buffered states of an
    :class:`~repro.search.index.Index` as its queries read them: what
    :meth:`~repro.search.memtable.Memtable.flush_view` hands
    :func:`write_segment`, kept as it is, each term one undivided block."""

    def __init__(self, state_rows, columns_by_term) -> None:
        self._state_uri = [row[0] for row in state_rows]
        self._state_id = [row[1] for row in state_rows]
        self._state_length = [row[2] for row in state_rows]
        self._state_depth = [row[3] for row in state_rows]
        self._state_seq = [row[4] for row in state_rows]
        self._ordinals = {(row[0], row[1]): at for at, row in enumerate(state_rows)}
        self._uri_set = frozenset(self._state_uri)
        #: term -> (ordinals, positions), the ordinals increasing.
        self._columns = {term: columns for term, *columns in columns_by_term}

    @property
    def num_postings(self) -> int:
        return sum(len(ordinals) for ordinals, _ in self._columns.values())

    def terms(self):
        """All terms of this segment in sorted order."""
        return self._columns.keys()

    def columns(self, term: str) -> tuple[list[int], list[tuple[int, ...]]]:
        return self._columns.get(term, ([], []))

    def view(self, term: str) -> Optional["SegmentPostingView"]:
        columns = self._columns.get(term)
        if columns is None:
            return None
        ordinals = columns[0]
        return SegmentPostingView(lambda block: columns, len(ordinals), 0, 1, ordinals[-1:])


class SegmentReader(Segment):
    """Zero-copy (mmap) reader over one immutable segment file.

    The URI, state and term tables are decoded once at open time (they
    are small); posting blocks stay on disk until a query's merge
    actually needs them, then decode through the shared
    :class:`BlockCache`.  The skip table is four flat columns over all
    blocks of the file, term ``number`` owning the run from
    ``_first_block[number]`` — nothing per term for the collector to walk.
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
        except BaseException:
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
        for name, parse, start, end in (
            ("URI", self._parse_uris, uri_off, state_off),
            ("state", self._parse_states, state_off, term_off),
            ("term", self._parse_terms, term_off, meta_off),
        ):
            try:
                parse(data[start:end])
            except UnicodeDecodeError as error:
                raise SearchError(
                    f"{self.path}: corrupt byte string in the {name} table"
                ) from error
        extents = map(add, self._block_offset, self._block_length)
        if max(extents, default=0) > uri_off:
            raise SearchError(f"{self.path}: a block overruns the posting region")

        raw, _ = read_bytes(data, meta_off)
        try:
            meta = json.loads(raw.decode("utf-8"))
        except ValueError as error:
            raise SearchError(f"{self.path}: corrupt segment meta") from error
        self.num_postings = int(meta["num_postings"])
        self.block_size = int(meta["block_size"])

    def _parse_uris(self, data: bytes) -> None:
        count, offset = read_uvarint(data, 0)
        uris = []
        for _ in range(count):
            raw, offset = read_bytes(data, offset)
            uris.append(raw.decode("utf-8"))
        self.uris: tuple[str, ...] = tuple(uris)
        self._uri_set = frozenset(uris)

    def _parse_states(self, data: bytes) -> None:
        count, offset = read_uvarint(data, 0)
        numbers: list[int] = []  # uri id, state index, length, depth, seq per row
        prefixes: list[str] = []
        for _ in range(count):
            state, offset = read_uvarints(data, offset, 2)
            raw, offset = read_bytes(data, offset)
            stats, offset = read_uvarints(data, offset, 3)
            numbers += state
            numbers += stats
            prefixes.append(raw.decode("utf-8"))
        uri_ids = numbers[0::5]
        if uri_ids and max(uri_ids) >= len(self.uris):
            raise SearchError(f"{self.path}: state row references unknown URI")
        self._state_uri: list[str] = list(map(self.uris.__getitem__, uri_ids))
        self._state_id: list[str] = list(map(add, prefixes, map(str, numbers[1::5])))
        self._state_length: list[int] = numbers[2::5]
        self._state_depth: list[int] = numbers[3::5]
        self._state_seq: list[int] = numbers[4::5]
        self._ordinals: dict[tuple[str, str], int] = dict(
            zip(zip(self._state_uri, self._state_id), range(count))
        )

    def _parse_terms(self, data: bytes) -> None:
        count, offset = read_uvarint(data, 0)
        self._terms: dict[str, int] = {}  # term -> its number, in sorted order
        heads: list[int] = []  # df, number of blocks per term
        blocks: list[int] = []  # offset, length, count, max ordinal per block
        for number in range(count):
            raw, offset = read_bytes(data, offset)
            term = raw.decode("utf-8")
            head, offset = read_uvarints(data, offset, 2)
            entries, offset = read_uvarints(data, offset, 4 * head[1])
            if sum(entries[2::4]) != head[0]:
                raise SearchError(f"{self.path}: df of {term!r} disagrees with blocks")
            self._terms[term] = number
            heads += head
            blocks += entries
        self._df: list[int] = heads[0::2]
        #: Term number -> how many of its postings are retired states'.
        self._dead_df: Counter[int] = Counter()
        self._first_block: list[int] = [0, *accumulate(heads[1::2])]
        self._block_offset: list[int] = blocks[0::4]
        self._block_length: list[int] = blocks[1::4]
        self._block_count: list[int] = blocks[2::4]
        #: Per-block maximum state ordinal — the skip entries.
        self._block_max: list[int] = blocks[3::4]

    # -- table lookups -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.path.name

    def terms(self):
        """All terms with a live posting in this segment, in sorted order."""
        if not self._dead_df:
            return self._terms.keys()
        dead, df = self._dead_df.get, self._df
        return [term for term, number in self._terms.items() if dead(number) != df[number]]

    # -- retirement --------------------------------------------------------------

    def retire(self, ranges: Sequence[tuple[int, int]]) -> "SegmentReader":
        """The successor of this reader once the states in ``ranges``
        are removed: the same map, tables and cache entries, those
        states masked and every term's df less by exactly the postings
        they held.  Nothing is written, and ``self`` answers as before.
        ``ranges`` are ``[lo, hi)`` ordinal runs: ascending, disjoint,
        inside the state table, whole URIs each, none retired already —
        anything else raises :class:`SearchError`.
        """
        uris, size = self._state_uri, len(self._state_uri)
        live = bytearray(self.live)
        edge = 0
        for lo, hi in ranges:
            if not (
                edge <= lo < hi <= size
                and (lo == 0 or uris[lo - 1] != uris[lo])
                and (hi == size or uris[hi - 1] != uris[hi])
                and not live.count(0, lo, hi)
            ):
                raise SearchError(
                    f"{self.path}: dead range [{lo}, {hi}) is not whole live URIs, in order"
                )
            live[lo:hi] = bytes(hi - lo)
            edge = hi
        counts = self._dead_postings(ranges)
        successor = copy.copy(self)
        successor.dead = sorted([*self.dead, *ranges])
        successor._live = live
        successor.dead_states = live.count(0)
        successor._dead_df = self._dead_df + counts
        successor.num_postings = self.num_postings - counts.total()
        return successor

    def _dead_postings(self, ranges: Sequence[tuple[int, int]]) -> Counter[int]:
        """Term number -> how many of the term's postings lie in
        ``ranges`` — exact, and nearly all of it from the skip table.
        The blocks strictly between the two that meet a range's ends lie
        inside it.  Those two are known by their first ordinal (two
        varints into the map; a one-posting block's is its max entry)
        and their max: inside the range they count whole, beginning
        beyond it not at all, and only a block that straddles an end is
        decoded (around the :class:`BlockCache`)."""
        counts: Counter[int] = Counter()
        block_max, block_count, block_offset = self._block_max, self._block_count, self._block_offset
        for number, (first, end) in enumerate(pairwise(self._first_block)):
            dead = 0
            for lo, hi in ranges:
                start = bisect_left(block_max, lo, first, end)
                if start == end:
                    break  # the term ends below this range and all later ones
                stop = bisect_left(block_max, hi, start, end)
                dead += sum(block_count[start + 1 : stop])
                for block in (start,) if stop in (start, end) else (start, stop):
                    last, count = block_max[block], block_count[block]
                    head = last if count == 1 else read_uvarints(self._map, block_offset[block], 2)[0][1]
                    if lo <= head and last < hi:
                        dead += count
                    elif head < hi:
                        ordinals, _ = self._decode(block)
                        dead += bisect_left(ordinals, hi) - bisect_left(ordinals, lo)
            if dead:
                counts[number] = dead
        return counts

    # -- posting access ----------------------------------------------------------

    def view(self, term: str) -> Optional["SegmentPostingView"]:
        """A lazily-decoding view over ``term``'s live postings, or
        None.  ``df`` is the live count; the blocks are the file's, so
        whoever reads them masks (:meth:`Segment.live_columns`)."""
        number = self._terms.get(term)
        if number is None:
            return None
        df = self._df[number]
        if self._dead_df:
            df -= self._dead_df.get(number, 0)  # not [number]: __missing__ is a Python call
            if not df:
                return None
        first, end = self._first_block[number : number + 2]
        load, skips = self.decode_block_at, self._block_max
        return SegmentPostingView(load, df, first, end, skips)

    def _decode(self, block: int) -> tuple[list[int], list[tuple[int, ...]]]:
        """Decode block ``block`` of the file straight from the map and
        hold its length against the skip table."""
        start = self._block_offset[block]
        ordinals, positions = decode_block(
            self._map[start : start + self._block_length[block]]
        )
        if len(ordinals) != self._block_count[block]:
            raise SearchError(
                f"{self.path}: block {block} decoded {len(ordinals)} postings, "
                f"skip table says {self._block_count[block]}"
            )
        return ordinals, positions

    def decode_block_at(self, block: int) -> tuple[list[int], list[tuple[int, ...]]]:
        """Decode one posting block through the shared LRU cache."""
        return self.cache.get((str(self.path), block), lambda: self._decode(block))

    def columns(self, term: str) -> tuple[list[int], list[tuple[int, ...]]]:
        """Every posting of ``term`` in the file, retired states'
        included, as two flat columns ``(ordinals, positions)`` — the
        bulk read of compaction, decoded *around* the
        :class:`BlockCache`: a rewrite touches every block once and
        would evict what the queries keep warm for nothing."""
        number = self._terms.get(term)
        if number is None:
            return [], []
        first, end = self._first_block[number], self._first_block[number + 1]
        if end - first == 1:
            return self._decode(first)
        ordinals: list[int] = []
        positions: list[tuple[int, ...]] = []
        for block in range(first, end):
            block_ordinals, block_positions = self._decode(block)
            ordinals += block_ordinals
            positions += block_positions
        return ordinals, positions

    def close(self) -> None:
        self._map.close()
        self._file.close()


class SegmentPostingView:
    """Block-granular access to one term's postings in one segment: the
    run ``first`` to ``end`` of a table of blocks, ``load(block)`` the
    two decoded columns of one of them, ``block_max`` the table-wide
    column of skip entries that run is bisected in.  A file's view
    decodes through its reader's cache; a :class:`MemorySegment`'s one
    block is there already."""

    __slots__ = ("load", "df", "first", "end", "block_max")

    def __init__(self, load, df: int, first: int, end: int, block_max) -> None:
        self.load = load
        self.df = df
        self.first = first
        self.end = end
        self.block_max = block_max

    def count_at(self, ordinal: int) -> int:
        """Occurrences of the term in the state ``ordinal`` (0 if absent).

        Uses the skip table to decode at most one block.
        """
        block = bisect_left(self.block_max, ordinal, self.first, self.end)
        if block >= self.end:
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
        self.block = view.first
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
        return block < self.view.end

    def seek(self, target: int) -> bool:
        """Move to the first posting with ordinal >= ``target``; False if
        there is none.

        Whole blocks whose max ordinal is below the target are hopped
        over *without decoding* — the skip-pointer fast path.  Within
        the final candidate block a binary search lands the cursor.
        """
        landing = bisect_left(self.view.block_max, target, self.block, self.view.end)
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
    that view's positions in each state — Figure 5.2's groups, kept in
    flat lists so a match costs no object of its own.  Whole blocks that cannot contain the current merge target
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
    if any(view.first == view.end for view in views):
        return ordinals, columns
    if len(views) == 1:
        (view,), (column,) = views, columns
        for block in range(view.first, view.end):
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
