"""Tests for the immutable segment file format and its readers.

Covers the write/read round trip over every table, the shared decoded-
block LRU cache, the block-max skipping merge (result parity with the
brute-force references of ``tests/search/block_merge.py``, plus proof
that whole blocks are hopped without decode), and corruption handling
on damaged files.
"""

import os

import pytest

from repro.errors import SearchError
from repro.search.segments import (
    _FOOTER,
    BlockCache,
    MergeStats,
    SegmentReader,
    state_sort_key,
    write_segment,
)
from repro.search.segments import merge_conjunction_blocks
from tests.search.block_merge import naive_merge, set_intersection
from tests.search.reference_writer import as_columns, make_postings, postings_of


def read_all(reader, term):
    """Decode every block of ``term`` the way a query does, through the cache."""
    return merge_conjunction_blocks([reader.view(term)])


@pytest.fixture
def segment(tmp_path):
    """A small two-URI segment with a multi-block term (block_size=2)."""
    states = [
        ("u1", "s0", 3, 0, 0),
        ("u1", "s1", 2, 1, 1),
        ("u2", "s0", 4, 0, 2),
        ("u2", "s1", 1, 1, 3),
        ("u2", "s2", 2, 2, 4),
    ]
    postings = {
        "common": make_postings([
            ("u1", "s0", (0,)),
            ("u1", "s1", (1,)),
            ("u2", "s0", (0, 2)),
            ("u2", "s1", (0,)),
            ("u2", "s2", (1,)),
        ]),
        "rare": make_postings([("u2", "s2", (0,))]),
        "pair": make_postings([("u1", "s0", (2,)), ("u2", "s0", (3,))]),
    }
    path = tmp_path / "seg-0.seg"
    stats = write_segment(path, *as_columns(states, sorted(postings.items())), block_size=2)
    reader = SegmentReader(path)
    yield reader, states, postings, stats
    reader.close()


class TestRoundTrip:
    def test_stats(self, segment):
        _, states, postings, stats = segment
        assert stats.num_states == len(states)
        assert stats.num_terms == len(postings)
        assert stats.num_postings == sum(len(p) for p in postings.values())
        assert stats.num_bytes == stats.path.stat().st_size

    def test_state_table(self, segment):
        reader, states, _, _ = segment
        assert reader.num_states == len(states)
        assert reader.uris == ("u1", "u2")
        assert reader.state_rows() == states
        for ordinal, (uri, state_id, length, depth, seq) in enumerate(states):
            assert reader.ordinal(uri, state_id) == ordinal
            assert reader.state_key(ordinal) == (uri, state_id)
            assert state_sort_key(reader.state_rows()[ordinal]) == (uri, int(state_id[1:]))
            assert reader.state_length(ordinal) == length
            assert reader.state_depth(ordinal) == depth
            assert reader.state_rows()[ordinal][4] == seq
        assert reader.ordinal("u1", "s9") is None
        assert reader.has_uri("u1") and not reader.has_uri("u3")

    def test_term_table_and_materialize(self, segment):
        reader, _, postings, _ = segment
        assert sorted(reader.terms()) == sorted(postings)
        for term, expected in postings.items():
            assert reader.df(term) == len(expected)
            assert postings_of(reader, term) == expected
        assert reader.df("absent") == 0
        assert reader.columns("absent") == ([], [])
        assert reader.view("absent") is None

    def test_meta(self, segment):
        reader, _, postings, _ = segment
        assert reader.num_postings == sum(len(p) for p in postings.values())
        assert reader.block_size == 2

    def test_multi_block_skip_table(self, segment):
        reader, _, postings, _ = segment
        view = reader.view("common")
        assert view.df == 5
        assert view.end - view.first == 3  # 5 postings at block_size=2
        # Per-block maxima are the skip entries: strictly increasing and
        # the last one is the final posting's ordinal.
        maxima = view.block_max[view.first : view.end]
        assert len(maxima) == 3
        assert maxima == sorted(maxima)
        assert maxima[-1] == reader.ordinal("u2", "s2")
        assert reader._block_count[view.first : view.end] == [2, 2, 1]

    def test_count_at_decodes_one_block(self, segment):
        reader, _, _, _ = segment
        view = reader.view("common")
        ordinal = reader.ordinal("u2", "s0")
        before = reader.cache.misses
        assert view.count_at(ordinal) == 2
        assert reader.cache.misses == before + 1
        assert view.count_at(reader.num_states + 5) == 0

    def test_unknown_posting_state_rejected(self, tmp_path):
        rows = [("u", "s0", 1, 0, 0)]
        for orphan in ([1], [-1], [0, 1]):
            with pytest.raises(SearchError, match="unknown state"):
                write_segment(
                    tmp_path / "bad.seg", rows, [("t", orphan, [(0,)] * len(orphan))]
                )

    def test_inconsistent_columns_rejected(self, tmp_path):
        rows = [("u", f"s{index}", 1, 0, index) for index in range(6)]
        one = [(0,)]
        # A repeat or a step back *across* a block seam (block_size=2:
        # the blocks are [0, 1] and [1, 2]), which encode_block, seeing
        # one block at a time, cannot notice.
        for ordinals in ([0, 1, 1, 2], [0, 3, 2, 4], [2, 2]):
            with pytest.raises(SearchError, match="strictly increasing"):
                write_segment(
                    tmp_path / "bad.seg", rows, [("t", ordinals, one * len(ordinals))],
                    block_size=2,
                )
        with pytest.raises(SearchError, match="arity"):
            write_segment(tmp_path / "bad.seg", rows, [("t", [0, 1], one * 4)], block_size=2)
        # The state table is the ordinal space: a repeated row would
        # hand two ordinals to one state, rows out of order would make
        # every ordinal mean another state than its producer meant.
        with pytest.raises(SearchError, match="duplicate"):
            write_segment(tmp_path / "bad.seg", rows + rows[-1:], [])
        with pytest.raises(SearchError, match="canonical"):
            write_segment(tmp_path / "bad.seg", rows[::-1], [])
        # (uri, state index) order, not string order: s10 sorts after s9.
        ten = [("u", "s9", 1, 0, 0), ("u", "s10", 1, 0, 1)]
        write_segment(tmp_path / "good.seg", ten, [("t", [0, 1], one * 2)])
        with pytest.raises(SearchError, match="canonical"):
            write_segment(tmp_path / "bad.seg", ten[::-1], [])

    def test_zero_block_size_rejected(self, tmp_path):
        with pytest.raises(SearchError, match="block size"):
            write_segment(tmp_path / "bad.seg", [], [], block_size=0)


class TestBlockCache:
    def test_hit_miss_accounting(self):
        cache = BlockCache(capacity=4)
        loads = []
        value = cache.get("a", lambda: loads.append("a") or 1)
        assert value == 1
        assert cache.get("a", lambda: loads.append("a") or 1) == 1
        assert loads == ["a"]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_order(self):
        cache = BlockCache(capacity=2)
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        cache.get("a", lambda: 1)  # refresh a -> b is now LRU
        cache.get("c", lambda: 3)  # evicts b
        assert cache.evictions == 1
        reloaded = []
        cache.get("b", lambda: reloaded.append("b") or 2)
        assert reloaded == ["b"]
        assert len(cache) == 2

    def test_clear(self):
        cache = BlockCache(capacity=2)
        cache.get("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0

    def test_shared_across_readers(self, segment, tmp_path):
        reader, states, postings, _ = segment
        other = SegmentReader(reader.path, cache=reader.cache)
        try:
            read_all(reader, "common")
            before = reader.cache.misses
            read_all(other, "common")
            # Same path + same cache: the second reader's blocks hit.
            assert reader.cache.misses == before
        finally:
            other.close()


class TestBlockSkippingMerge:
    def _views(self, reader, terms):
        return [reader.view(term) for term in terms]

    def test_parity_with_materialized_merge(self, segment):
        # Held to the references over the writer's own input columns.
        reader, states, postings, _ = segment
        written = {term: columns for term, *columns in as_columns(states, postings.items())[1]}
        for terms in (["common"], ["common", "rare"], ["common", "pair"],
                      ["pair", "rare"], ["common", "pair", "rare"]):
            merged = merge_conjunction_blocks(self._views(reader, terms))
            lists = [written[term] for term in terms]
            assert merged == set_intersection(lists) == naive_merge(lists), terms
        assert merge_conjunction_blocks(self._views(reader, ["common", "pair"])) == (
            [0, 2], [[(0,), (0, 2)], [(2,), (3,)]]
        )

    def test_blocks_skipped_without_decode(self, tmp_path):
        # 400 states; "every" is everywhere, "needle" only in the last
        # state — the merge must hop the ubiquitous list's blocks.
        states = [("u", f"s{i}", 2, 0, i) for i in range(400)]
        every = make_postings([("u", f"s{i}", (0,)) for i in range(400)])
        needle = make_postings([("u", "s399", (1,))])
        path = tmp_path / "skew.seg"
        write_segment(path, *as_columns(states, [("every", every), ("needle", needle)]),
                      block_size=16)
        reader = SegmentReader(path)
        try:
            stats = MergeStats()
            merged = merge_conjunction_blocks(
                [reader.view("every"), reader.view("needle")], stats
            )
            assert merged == ([399], [[(0,)], [(1,)]])
            assert stats.postings_total == 401
            # "every" has 25 blocks; the merge decodes its first (the
            # initial probe) and its last (the hit) and hops the 23 in
            # between without decoding them.
            assert stats.blocks_skipped == 23
            assert stats.blocks_decoded == 3
            assert stats.postings_decoded == 33
        finally:
            reader.close()

    def test_empty_inputs(self, segment):
        reader, _, _, _ = segment
        assert merge_conjunction_blocks([]) == ([], [])
        stats = MergeStats()
        other = MergeStats()
        other.blocks_decoded = 3
        stats.merge(other)
        assert stats.to_dict()["blocks_decoded"] == 3


class TestCorruption:
    def _write_valid(self, tmp_path):
        states = [("u", "s0", 2, 0, 0), ("u", "s1", 2, 1, 1)]
        postings = make_postings([("u", "s0", (0,)), ("u", "s1", (1,))])
        path = tmp_path / "seg.seg"
        write_segment(path, *as_columns(states, [("term", postings)]))
        return path

    def test_not_a_segment(self, tmp_path):
        path = tmp_path / "nope.seg"
        path.write_bytes(b"definitely not a segment file, long enough padding")
        with pytest.raises(SearchError, match="not a segment"):
            SegmentReader(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.seg"
        path.write_bytes(b"AJXSEG01")
        with pytest.raises(SearchError, match="not a segment"):
            SegmentReader(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.seg"
        path.write_bytes(b"")
        with pytest.raises(SearchError, match="cannot map|not a segment"):
            SegmentReader(path)

    def test_truncated_footer(self, tmp_path):
        path = self._write_valid(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(SearchError):
            SegmentReader(path)

    def test_bad_footer_magic(self, tmp_path):
        path = self._write_valid(tmp_path)
        data = bytearray(path.read_bytes())
        data[-8:] = b"XXXXXXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(SearchError, match="footer"):
            SegmentReader(path)

    def test_corrupt_section_offsets(self, tmp_path):
        path = self._write_valid(tmp_path)
        data = bytearray(path.read_bytes())
        # First footer field (uri table offset) -> far past EOF.
        data[-40:-32] = (1 << 60).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(SearchError, match="section offsets"):
            SegmentReader(path)

    def test_corrupt_block_region_surfaces_as_search_error(self, tmp_path):
        path = self._write_valid(tmp_path)
        data = bytearray(path.read_bytes())
        # Stomp the posting region (starts right after the 8-byte magic)
        # with over-long varint bytes; the tables still parse, so the
        # damage must surface at decode time as a SearchError.
        data[8:12] = b"\xff\xff\xff\xff"
        path.write_bytes(bytes(data))
        reader = SegmentReader(path)
        try:
            with pytest.raises(SearchError):
                read_all(reader, "term")
        finally:
            reader.close()

    def test_block_count_cross_check(self, tmp_path):
        path = self._write_valid(tmp_path)
        data = bytearray(path.read_bytes())
        # The first byte after the magic is the first block's posting
        # count varint (2 postings) — rewriting it to 1 keeps the block
        # decodable as a shorter list, which the skip-table cross-check
        # must reject.
        assert data[8] == 2
        data[8] = 1
        path.write_bytes(bytes(data))
        reader = SegmentReader(path)
        try:
            with pytest.raises(SearchError):
                read_all(reader, "term")
        finally:
            reader.close()

    def test_every_damaged_table_byte_is_a_search_error_or_a_consistent_open(self, tmp_path):
        """Each byte of the URI, state and term tables overwritten with
        0xFF, 0x80, 0x00 and 0x7F in turn: the mutant opens with tables
        that agree with each other, or raises SearchError — never a raw
        UnicodeDecodeError/IndexError — and no handle stays open."""
        states = [("u", "s0", 2, 0, 0), ("u", "s1", 2, 1, 1)]
        postings = [
            ("alpha", make_postings([("u", "s0", (0,)), ("u", "s1", (1,))])),
            ("beta", make_postings([("u", "s1", (0,))])),
        ]
        path = tmp_path / "seg.seg"
        write_segment(path, *as_columns(states, postings))
        pristine = path.read_bytes()
        uri_off, _, _, meta_off, _ = _FOOTER.unpack(pristine[-_FOOTER.size :])
        descriptors = "/proc/self/fd"
        before = len(os.listdir(descriptors)) if os.path.isdir(descriptors) else None
        outcomes = {"opened": 0, "rejected": 0}
        for at in range(uri_off, meta_off):
            for byte in (0xFF, 0x80, 0x00, 0x7F):
                if pristine[at] == byte:
                    continue
                path.write_bytes(pristine[:at] + bytes([byte]) + pristine[at + 1 :])
                try:
                    reader = SegmentReader(path)
                except SearchError:
                    outcomes["rejected"] += 1
                    continue
                outcomes["opened"] += 1
                try:
                    rows = reader.state_rows()
                    assert len(rows) == reader.num_states
                    assert all(row[0] in reader.uris for row in rows)
                    # A damaged prefix can make two rows one state; the
                    # registry then holds the later one, like any dict.
                    assert {reader.ordinal(*row[:2]) for row in rows} <= set(range(len(rows)))
                    for term in reader.terms():
                        view = reader.view(term)
                        assert sum(reader._block_count[view.first : view.end]) == view.df
                        for block in range(view.first, view.end):
                            extent = reader._block_offset[block] + reader._block_length[block]
                            assert extent <= uri_off
                finally:
                    reader.close()
        assert min(outcomes.values()) > 0, outcomes
        if before is not None:
            assert len(os.listdir(descriptors)) == before
