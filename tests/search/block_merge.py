"""Test-side references for ``merge_conjunction_blocks`` — oracle code.

The block merge is the only function under ``src/`` that intersects
posting lists, so nothing under ``src/`` can vouch for it.  Here are
two intersections that share no code with it — the linear merge the
galloping tests have carried since PR 3, lowered from ``Posting``
objects to ordinal columns, and a plain key-set intersection — one that
shares its cursor, the per-posting leapfrog the block merge was before
it intersected a decoded window in one step (the reference for what
the merge *decodes*), and the plumbing that puts the same columns
behind a :class:`SegmentReader` (through ``write_segment``, any block
size) and a :class:`MemorySegment` (one undivided block a term).
"""

import tempfile
from contextlib import contextmanager
from pathlib import Path

from repro.search import Posting
from repro.search.segments import (
    MemorySegment,
    MergeStats,
    SegmentReader,
    _BlockCursor,
    merge_conjunction_blocks,
    state_sort_key,
    write_segment,
)

# A posting list is ``(ordinals, positions)``: two parallel columns, the
# ordinals strictly increasing — what ``write_segment`` takes per term.


def naive_merge(lists):
    """Advance every lagging cursor one entry at a time."""
    ordinals, columns = [], [[] for _ in lists]
    if not lists:
        return ordinals, columns
    cursors = [0] * len(lists)
    while all(cursor < len(column[0]) for cursor, column in zip(cursors, lists)):
        keys = [column[0][cursor] for cursor, column in zip(cursors, lists)]
        largest = max(keys)
        if all(key == largest for key in keys):
            ordinals.append(largest)
            for i, (_, positions) in enumerate(lists):
                columns[i].append(positions[cursors[i]])
                cursors[i] += 1
            continue
        for i, key in enumerate(keys):
            if key < largest:
                cursors[i] += 1
    return ordinals, columns


def set_intersection(lists):
    """The ordinals every list holds, and what each list says at them."""
    if not lists:
        return [], []
    common = sorted(set(lists[0][0]).intersection(*(ordinals for ordinals, _ in lists[1:])))
    return common, [
        [dict(zip(ordinals, positions))[ordinal] for ordinal in common]
        for ordinals, positions in lists
    ]


def leapfrog_merge(views, stats=None):
    """``merge_conjunction_blocks`` one posting a turn: the rarest list
    proposes, the largest key is the target, a match advances every
    cursor and a miss seeks the laggards, hopping whole blocks through
    the skip table.  Books :class:`MergeStats` through the same cursor,
    so its decode counts are the exact ones the block merge must keep."""
    if stats is None:
        stats = MergeStats()
    ordinals, columns = [], [[] for _ in views]
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


def state_rows(count):
    """``count`` state rows in canonical order, seven states a page, so
    a run of ordinals crosses URIs."""
    return [(f"http://site.test/p{at // 7:03d}", f"s{at % 7}", 1, 0, at) for at in range(count)]


@contextmanager
def segments_over(lists, block_size, rows=None):
    """One segment file and one in-memory segment holding ``lists[i]``
    as term ``t<i>``.  The file keeps an empty list as a term of no
    blocks; the memory segment, like a buffer, has no such term."""
    if rows is None:
        rows = state_rows(max((column[0][-1] + 1 for column in lists if column[0]), default=0))
    by_term = [(f"t{i}", *column) for i, column in enumerate(lists)]
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "oracle.seg"
        write_segment(path, rows, by_term, block_size=block_size)
        reader = SegmentReader(path)
        try:
            yield reader, MemorySegment(rows, [entry for entry in by_term if entry[1]])
        finally:
            reader.close()


def block_merge(segment, count, stats=None, merge=merge_conjunction_blocks):
    """``merge`` (the block merge unless told otherwise) over terms
    ``t0..t<count-1>`` of one segment.  A term the segment does not hold
    empties the conjunction before any merge — ``Index.matches`` skips
    such a segment."""
    views = [segment.view(f"t{i}") for i in range(count)]
    if None in views:
        return [], [[] for _ in views]
    return merge(views, stats)


def posting_key(posting):
    """Canonical (uri, state index) order: ``s10`` after ``s9``."""
    return state_sort_key((posting.uri, posting.state_id))


def conjunction_groups(lists, block_size=2):
    """Figure 5.2 over lists of :class:`Posting` in canonical order: for
    every (uri, state) all lists hold, the group of its postings, one a
    list — what the block merge says on a file and in memory (the two
    must agree), over a state table made of the lists' own keys."""
    keys = sorted({posting_key(posting) for postings in lists for posting in postings})
    ordinal = {key: at for at, key in enumerate(keys)}
    rows = [(uri, f"s{index}", 1, 0, at) for at, (uri, index) in enumerate(keys)]
    columns = [
        ([ordinal[posting_key(p)] for p in postings], [p.positions for p in postings])
        for postings in lists
    ]
    with segments_over(columns, block_size, rows) as (reader, memory):
        merged = block_merge(reader, len(lists))
        assert block_merge(memory, len(lists)) == merged
    return [
        [Posting(*rows[at][:2], positions) for positions in occurrences]
        for at, occurrences in zip(merged[0], zip(*merged[1]))
    ]
