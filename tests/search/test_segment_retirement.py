"""Retiring states in a segment file instead of rewriting it.

Two contracts.  The dead counts are *exact*: whatever a retired reader
answers for a term — ``df``, ``view().df``, whether it is in
``terms()``, its share of ``num_postings`` — is the stored count less
what :func:`eager_dead_counts`, the whole-vocabulary pass, reports for
the term, and that pass equals a brute-force walk over the term's
decoded ordinals — at every block size, with ranges on block seams, at
either end of the table and over all of it.  And a retired reader is
indistinguishable, accessor by accessor, from a reader over a file
physically rewritten without those states (``columns``, the bulk read
compaction purges through, excepted), whichever generation of retirement
it is and in whatever order the generations are read.
"""

import random
import sys
import threading
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, pairwise

import pytest

from repro.errors import SearchError
from repro.search.codec import read_uvarints
from repro.search.segments import SegmentReader, merge_conjunction_blocks, write_segment

BLOCK_SIZES = (1, 2, 4, 128)
#: States per URI.  Cumulative 0 4 6 8 9 12 16 24 25 30 32: at block
#: sizes 2 and 4 the every-state term has URI ends on and off its block
#: seams, one URI that is exactly a block and one that is two.
URI_SIZES = (4, 2, 2, 1, 3, 4, 8, 1, 5, 2)
EDGES = list(accumulate(URI_SIZES, initial=0))
URI_RANGES = list(pairwise(EDGES))
NUM_STATES = EDGES[-1]
WORDS = [f"w{n}" for n in range(6)]

#: URI-aligned range sets by what they probe.
PLACEMENTS = {
    "ordinal 0": [URI_RANGES[0]],
    "last ordinal": [URI_RANGES[-1]],
    "one block exactly": [(16, 24)],
    "seam to seam over two URIs": [(4, 6), (6, 8)],
    "off the seams": [(8, 9), (24, 25)],
    "both ends and the middle": [URI_RANGES[0], (12, 16), URI_RANGES[-1]],
    "all but one URI": [r for r in URI_RANGES if r != (8, 9)],
    "the whole segment": URI_RANGES,
}


def segment_content(seed):
    """State rows and ``{term: (ordinals, positions)}``: a term in every
    state, one in every other, one per URI, one per state, and six words
    scattered by the seed."""
    rng = random.Random(seed)
    rows, columns = [], {}

    def post(term, ordinal):
        ordinals, positions = columns.setdefault(term, ([], []))
        ordinals.append(ordinal)
        positions.append(tuple(sorted(rng.sample(range(40), rng.randint(1, 3)))))

    for page, size in enumerate(URI_SIZES):
        for index in range(size):
            ordinal = len(rows)
            rows.append((f"http://t.test/p{page:02d}", f"s{index}", 5 + index, index % 3, 100 + ordinal))
            post("all", ordinal)
            if ordinal % 2 == 0:
                post("even", ordinal)
            post(f"page{page}", ordinal)
            post(f"only{ordinal}", ordinal)
            for word in WORDS:
                if rng.random() < 0.4:
                    post(word, ordinal)
    return rows, columns


def write(path, rows, columns, block_size):
    write_segment(
        path, rows, [(term, *columns[term]) for term in sorted(columns)], block_size=block_size
    )
    return SegmentReader(path)


def is_dead(ordinal, ranges):
    return any(lo <= ordinal < hi for lo, hi in ranges)


def brute_force(reader, ranges):
    counts = {}
    for term, number in reader._terms.items():
        dead = sum(is_dead(ordinal, ranges) for ordinal in reader.columns(term)[0])
        if dead:
            counts[number] = dead
    return counts


def eager_dead_counts(reader, ranges):
    """Term number -> how many of the term's postings lie in ``ranges``,
    every term of the segment in one pass — what ``retire`` once ran
    over the whole vocabulary, kept as the oracle of the per-term count
    a read takes.  The blocks strictly between the two that meet a
    range's ends lie inside it; those two are known by their first
    ordinal (two varints into the map; a one-posting block's is its max
    entry) and their max, and only a block that straddles an end is
    decoded, around the cache."""
    counts = Counter()
    block_max, block_count, block_offset = reader._block_max, reader._block_count, reader._block_offset
    for number, (first, end) in enumerate(pairwise(reader._first_block)):
        dead = 0
        for lo, hi in ranges:
            start = bisect_left(block_max, lo, first, end)
            if start == end:
                break  # the term ends below this range and all later ones
            stop = bisect_left(block_max, hi, start, end)
            dead += sum(block_count[start + 1 : stop])
            for block in (start,) if stop in (start, end) else (start, stop):
                last, count = block_max[block], block_count[block]
                head = last if count == 1 else read_uvarints(reader._map, block_offset[block], 2)[0][1]
                if lo <= head and last < hi:
                    dead += count
                elif head < hi:
                    ordinals, _ = reader._decode(block)
                    dead += bisect_left(ordinals, hi) - bisect_left(ordinals, lo)
        if dead:
            counts[number] = dead
    return counts


def random_ranges(rng):
    """Ascending disjoint ``[lo, hi)`` runs, anywhere — the pass itself
    does not care where a URI ends."""
    cuts = sorted(rng.sample(range(NUM_STATES + 1), 2 * rng.randint(1, 4)))
    return list(zip(cuts[0::2], cuts[1::2]))


def random_uri_ranges(rng):
    """Ascending disjoint runs of whole URIs — what ``retire`` takes."""
    cuts = sorted(rng.sample(EDGES, 2 * rng.randint(1, 4)))
    return list(zip(cuts[0::2], cuts[1::2]))


def assert_retired_counts_are_the_eager_ones(reader, ranges):
    """Each accessor of a reader retired by ``ranges``, asked first of a
    successor of its own, answers the stored counts less the eager ones."""
    counts = eager_dead_counts(reader, ranges)
    live = {term: reader._df[number] - counts[number] for term, number in reader._terms.items()}
    assert {term: reader.retire(ranges).df(term) for term in live} == live
    views = {term: reader.retire(ranges).view(term) for term in live}
    assert {term: view.df if view else 0 for term, view in views.items()} == live
    assert list(reader.retire(ranges).terms()) == [term for term, df in live.items() if df]
    assert reader.retire(ranges).num_postings == reader.num_postings - counts.total()


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
class TestDeadPostings:
    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_placed_ranges_equal_the_brute_force_count(self, tmp_path, block_size, placement):
        reader = write(tmp_path / "a.seg", *segment_content(1), block_size)
        ranges = PLACEMENTS[placement]
        assert eager_dead_counts(reader, ranges) == brute_force(reader, ranges)
        assert_retired_counts_are_the_eager_ones(reader, ranges)
        reader.close()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_ranges_equal_the_brute_force_count(self, tmp_path, block_size, seed):
        rng = random.Random(seed)
        reader = write(tmp_path / "a.seg", *segment_content(seed), block_size)
        for _ in range(40):
            ranges = random_ranges(rng)
            assert eager_dead_counts(reader, ranges) == brute_force(reader, ranges), ranges
            assert_retired_counts_are_the_eager_ones(reader, random_uri_ranges(rng))
        reader.close()

    def test_the_pass_goes_around_the_block_cache(self, tmp_path, block_size):
        # Both runs end inside a block of the every-state term at block
        # sizes 2, 4 and 128, so counting it decodes that block.
        reader = write(tmp_path / "a.seg", *segment_content(2), block_size)
        retired = reader.retire([(6, 9), (24, 30)])
        assert sum(map(retired.df, reader._terms)) < sum(map(reader.df, reader._terms))
        assert retired.num_postings < reader.num_postings
        assert (reader.cache.hits, reader.cache.misses, len(reader.cache)) == (0, 0, 0)
        reader.close()


def purged_copy(path, rows, columns, ranges, block_size):
    """The same content with the states of ``ranges`` physically gone."""
    kept = [ordinal for ordinal in range(len(rows)) if not is_dead(ordinal, ranges)]
    renumber = {old: new for new, old in enumerate(kept)}
    survivors = {}
    for term, (ordinals, positions) in columns.items():
        pairs = [(renumber[o], p) for o, p in zip(ordinals, positions) if o in renumber]
        if pairs:
            survivors[term] = tuple(map(list, zip(*pairs)))
    return write(path, [rows[old] for old in kept], survivors, block_size)


def observe(segment, rows, terms):
    """Every read accessor of a segment, in terms that do not mention
    ordinals (a retired reader keeps the file's, a purged file renumbers)."""
    views = {term: segment.view(term) for term in terms}
    seen = {
        "num_states": segment.num_states,
        "num_postings": segment.num_postings,
        "terms": sorted(segment.terms()),
        "state_rows": segment.state_rows(),
        "df": {term: segment.df(term) for term in terms},
        "view df": {term: view.df if view else None for term, view in views.items()},
        "has_uri": sorted({row[0] for row in rows if segment.has_uri(row[0])}),
        "uri_range": {
            row[0]: (span := segment.uri_range(row[0])) and span[1] - span[0] for row in rows
        },
        "conjunction": {},
        "states": [],
    }
    # Every term alone — its posting list — and some that have to align.
    for query in [[term] for term in terms] + [
        ["all", "even"], ["even", "w0"], ["w1", "w2", "all"], ["page6", "all"]
    ]:
        if all(views.get(term) for term in query):
            merged = merge_conjunction_blocks([views[term] for term in query])
            seen["conjunction"][" ".join(query)] = list(
                segment.match_rows(*segment.live_columns(*merged))
            )
    for uri, state_id, *_ in rows:
        ordinal = segment.ordinal(uri, state_id)
        if ordinal is None:
            seen["states"].append((uri, state_id, None))
            continue
        seen["states"].append((segment.state_key(ordinal), segment.lengths([ordinal])))
    return seen


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("placement", sorted(set(PLACEMENTS) - {"the whole segment"}))
def test_a_retired_reader_reads_like_a_rewritten_file(tmp_path, block_size, placement):
    rows, columns = segment_content(3)
    ranges = PLACEMENTS[placement]
    whole = write(tmp_path / "whole.seg", rows, columns, block_size)
    retired = whole.retire(ranges)
    purged = purged_copy(tmp_path / "purged.seg", rows, columns, ranges, block_size)
    terms = sorted(columns) + ["absent"]
    assert observe(retired, rows, terms) == observe(purged, rows, terms)
    assert retired.dead_states == sum(hi - lo for lo, hi in ranges)
    assert list(retired.live) == [not is_dead(o, ranges) for o in range(NUM_STATES)]
    # The predecessor is the same file, untouched and unmasked...
    assert observe(whole, rows, terms) == observe(
        purged_copy(tmp_path / "again.seg", rows, columns, [], block_size), rows, terms
    )
    # ... and the bulk read stays the file as written.
    assert retired.columns("all") == whole.columns("all")
    whole.close()


def test_retiring_in_two_steps_equals_retiring_at_once(tmp_path):
    rows, columns = segment_content(4)
    whole = write(tmp_path / "whole.seg", rows, columns, 4)
    terms = sorted(columns)
    at_once = whole.retire([(4, 6), (12, 16), (30, 32)])
    stepwise = whole.retire([(12, 16)]).retire([(4, 6), (30, 32)])
    assert stepwise.dead == at_once.dead == [(4, 6), (12, 16), (30, 32)]
    assert observe(stepwise, rows, terms) == observe(at_once, rows, terms)
    whole.close()


@pytest.mark.parametrize("block_size", (2, 128))
def test_each_generation_answers_for_its_own_dead_states(tmp_path, block_size):
    """Successors of one parent and of each other, read child first:
    each counts its own runs, never a sibling's or a child's."""
    rows, columns = segment_content(7)
    terms = sorted(columns) + ["absent"]
    parent = write(tmp_path / "p.seg", rows, columns, block_size)
    first, second, third = [(4, 6), (16, 24)], [(4, 8), (30, 32)], [(9, 12), (25, 30)]
    a, b = parent.retire(first), parent.retire(second)
    c = a.retire(third)
    for reader, ranges in ((c, first + third), (a, first), (parent, []), (b, second)):
        purged = purged_copy(tmp_path / "purged.seg", rows, columns, ranges, block_size)
        assert observe(reader, rows, terms) == observe(purged, rows, terms), ranges
        purged.close()
    parent.close()


def test_query_threads_that_race_to_count_store_the_same_counts(tmp_path):
    """The memo is filled without a lock: threads that miss on the same
    term count it each and store one number, so every answer and the
    memo left behind are the eager counts."""
    rows, columns = segment_content(8)
    reader = write(tmp_path / "a.seg", rows, columns, 2)
    ranges = [(0, 4), (9, 16), (24, 25)]
    counts = eager_dead_counts(reader, ranges)
    live = {term: reader._df[number] - counts[number] for term, number in reader._terms.items()}
    retired = reader.retire(ranges)
    barrier = threading.Barrier(8)
    answers = []

    def read():
        barrier.wait(timeout=10)
        answers.append({term: retired.df(term) for term in live})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [live] * 8
    assert retired._dead_df == {number: counts[number] for number in reader._terms.values()}
    reader.close()


def test_retiring_everything_leaves_an_empty_answer(tmp_path):
    rows, columns = segment_content(5)
    gone = write(tmp_path / "whole.seg", rows, columns, 2).retire(URI_RANGES)
    assert (gone.num_states, gone.num_postings, list(gone.terms())) == (0, 0, [])
    assert gone.state_rows() == [] and gone.view("all") is None
    gone.close()


@pytest.mark.parametrize(
    "ranges",
    [
        [(12, 16), (4, 6)],  # out of order
        [(4, 8), (6, 8)],  # overlapping
        [(30, 33)],  # hi beyond the state table
        [(6, 6)],  # empty
        [(-2, 4)],
        [(1, 4)],  # splits a URI at its start
        [(0, 3)],  # ... at its end
    ],
)
def test_ranges_that_are_not_whole_live_uris_in_order_are_refused(tmp_path, ranges):
    reader = write(tmp_path / "whole.seg", *segment_content(6), 4)
    with pytest.raises(SearchError, match="not whole live URIs, in order"):
        reader.retire(ranges)
    with pytest.raises(SearchError, match="not whole live URIs, in order"):
        reader.retire([(4, 6)]).retire([(4, 8)])  # retired already
    reader.close()
