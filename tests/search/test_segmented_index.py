"""Tests for the LSM segmented index behind the InvertedFile API.

The contract under test is *exact parity*: whatever the in-memory
:class:`InvertedFile` answers — postings, tf, idf, state order, search
results — the :class:`SegmentedIndex` must answer identically, through
any interleaving of flushes, compactions, removals and reopens.  A test
that needs another compaction fan-in patches ``segmented.COMPACT_FANIN``.
"""

import json
import math
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SearchError
from repro.model import ApplicationModel
from repro.obs import COMPACTION, Recorder, SEGMENT_FLUSH
from repro.search import InvertedFile, SearchEngine, SegmentedIndex, SegmentReader, segmented, tokenize
from repro.search.segmented import MANIFEST_NAME, _live_tier, _tier
from repro.search.segments import merge_conjunction_blocks
from tests.search.reference_writer import reference_bytes


def rows(index, term):
    """The posting list of ``term``: its one-term conjunction."""
    return list(index.conjunction([term]))


def make_model(url, state_texts):
    model = ApplicationModel(url)
    for offset, text in enumerate(state_texts):
        model.add_state(f"{url}-h{offset}", text, depth=offset)
    return model


def corpus_texts(pages=6, states=4):
    """Deterministic multi-model corpus with shared and unique terms."""
    models = []
    for page in range(pages):
        texts = [
            f"shared page{page} state{state} marker{page}x{state} filler words"
            for state in range(states)
        ]
        models.append(make_model(f"http://site.test/p{page}", texts))
    return models


def assert_parity(memory, disk):
    """Every InvertedFile query answer, compared field by field."""
    assert disk.num_states == memory.num_states
    assert disk.states() == memory.states()
    assert disk.terms() == memory.terms()
    assert disk.vocabulary_size == memory.vocabulary_size
    for term in sorted(memory.terms()) + ["absent-term"]:
        assert rows(disk, term) == rows(memory, term), term
        assert disk.document_frequency(term) == memory.document_frequency(term)
        assert disk.idf(term) == memory.idf(term), term  # bit-identical
    # Lengths and depths; the sequence numbers differ from a fresh build's.
    assert [row[:4] for row in disk.state_rows()] == [row[:4] for row in memory.state_rows()]


def input_rows(models, term):
    """What the writer was handed for ``term``, straight from the
    models: per state holding it, in canonical (uri, state index)
    order, ``(uri, state_id, token count, (positions,))``."""
    rows = []
    for model in sorted(models, key=lambda model: model.url):
        for state in sorted(model.states(), key=lambda state: state.index):
            tokens = tokenize(state.text)
            positions = tuple(at for at, token in enumerate(tokens) if token == term)
            if positions:
                rows.append((model.url, state.state_id, len(tokens), (positions,)))
    return rows


@pytest.mark.parametrize("backend", ["memory", "segmented"])
def test_a_posting_list_is_the_one_term_conjunction(tmp_path, monkeypatch, backend):
    """There is no second read: for every term, ``conjunction([term])``
    is the term's posting list — the writer's input, retired states
    masked, buffered ones included, in canonical order (``s10`` after
    ``s9``) — with the state's length on every row."""
    monkeypatch.setattr(segmented, "COMPACT_FANIN", 100)
    pages = {model.url: model for model in corpus_texts(pages=8, states=12)}
    index = (
        InvertedFile()
        if backend == "memory"
        else SegmentedIndex(tmp_path / "idx", flush_threshold=150, block_size=4)
    ).build(pages.values())
    gone = set().union(*(tokenize(state.text) for model in pages.values() for state in model.states()))
    for page in (1, 4, 6):
        url = f"http://site.test/p{page}"
        pages[url] = make_model(
            url, [f"shared page{page} rewritten{state} filler filler" for state in range(5)]
        )
        index.update_model(pages[url])
    for page in (2, 5):
        assert index.remove_url(f"http://site.test/p{page}") == 12
        del pages[f"http://site.test/p{page}"]
    late = make_model("http://site.test/late", ["shared late arrival", "late late again"])
    pages[late.url] = late
    index.add_model(late)  # no finalize: these two are read from the buffer
    if backend == "segmented":
        assert index.num_segments > 2
        assert index.stats()["dead_states"] > 0
        assert index._memtable.num_states == 2

    vocabulary = index.terms()
    assert vocabulary == set().union(
        *(tokenize(state.text) for model in pages.values() for state in model.states())
    )
    gone -= vocabulary
    assert gone
    for term in sorted(vocabulary | gone):
        assert list(index.conjunction([term])) == input_rows(pages.values(), term), term
    if backend == "segmented":
        index.close()


class TestParity:
    def test_multi_segment_build_matches_memory(self, tmp_path):
        models = corpus_texts()
        memory = InvertedFile().build(models)
        disk = SegmentedIndex(
            tmp_path / "idx", flush_threshold=20, block_size=4
        ).build(models)
        assert disk.num_segments > 1
        assert_parity(memory, disk)
        disk.close()

    def test_search_engine_results_identical(self, tmp_path):
        models = corpus_texts()
        memory_engine = SearchEngine(InvertedFile().build(models))
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=20).build(models)
        disk_engine = SearchEngine(disk)
        for query in ("shared", "marker2x1", "shared page3", "shared absent"):
            assert disk_engine.search(query) == memory_engine.search(query), query
        disk.close()

    def test_max_state_index_respected(self, tmp_path):
        models = corpus_texts(pages=2, states=4)
        memory = InvertedFile(max_state_index=2).build(models)
        disk = SegmentedIndex(tmp_path / "idx", max_state_index=2).build(models)
        assert_parity(memory, disk)
        assert rows(disk, "state3") == []
        disk.close()

    def test_conjunction_skipping_accounted(self, tmp_path):
        models = corpus_texts(pages=8, states=5)
        disk = SegmentedIndex(tmp_path / "idx", block_size=4).build(models)
        (row,) = disk.conjunction(["shared", "marker7x4"])
        # One plain row: uri, state, token count, positions per term.
        assert row == ("http://site.test/p7", "s4", 6, ((0,), (3,)))
        stats = disk.merge_stats
        assert stats.blocks_skipped > 0
        assert stats.postings_decoded < stats.postings_total
        assert list(disk.conjunction([])) == []
        disk.close()


class TestFlushAndCompaction:
    def test_flush_threshold_bounds_memtable(self, tmp_path):
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=1)
        for model in corpus_texts(pages=3, states=2):
            disk.add_model(model)
        # Every model crosses the one-posting threshold -> one segment each.
        assert disk.num_segments == 3
        assert disk._memtable.num_postings == 0
        disk.close()

    def test_tiered_compaction_keeps_segment_count_low(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segmented, "COMPACT_FANIN", 2)
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=1).build(
            corpus_texts(pages=8, states=2)
        )
        # 8 flushed segments, fanin 2 -> repeatedly merged.
        assert disk.num_segments < 8
        assert_parity(InvertedFile().build(corpus_texts(pages=8, states=2)), disk)
        disk.close()

    def test_compact_all_single_segment(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segmented, "COMPACT_FANIN", 100)
        models = corpus_texts()
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=20).build(models)
        assert disk.num_segments > 1
        assert disk.compact_all() == 1
        assert disk.num_segments == 1
        # Merged segment re-derives exact global df -> idf bit-identical.
        assert_parity(InvertedFile().build(models), disk)
        # Old segment files are gone from disk.
        live = {reader.name for reader in disk._flushed}
        on_disk = {p.name for p in (tmp_path / "idx").glob("*.seg")}
        assert on_disk == live
        disk.close()

    def test_compact_all_noop_on_single_segment(self, tmp_path):
        disk = SegmentedIndex(tmp_path / "idx").build(corpus_texts(pages=1))
        assert disk.compact_all() == 0
        disk.close()

    def test_compact_all_purges_a_lone_segment(self, tmp_path):
        """Regression: with one segment compact_all returned 0 and did
        nothing — its dead states would have stayed on disk for good."""
        models = corpus_texts(pages=4)
        disk = SegmentedIndex(tmp_path / "idx").build(models)
        (before,) = disk._flushed
        size_before = before.path.stat().st_size
        assert disk.remove_url(models[1].url) == 4
        assert disk.stats()["dead_states"] == 4
        assert disk.compact_all() == 1
        (after,) = disk._flushed
        assert after.name != before.name and not before.path.exists()
        assert after.path.stat().st_size < size_before
        assert (after.dead, after.dead_states, disk.stats()["dead_states"]) == ((), 0, 0)
        assert json.loads((tmp_path / "idx" / MANIFEST_NAME).read_text())["dead"] == {}
        assert_parity(InvertedFile().build(models[:1] + models[2:]), disk)
        assert disk.compact_all() == 0  # nothing dead is left to purge
        disk.close()

    def test_tier_function(self):
        assert _tier(0) == 0
        assert _tier(3) == 0
        assert _tier(4) == 1
        assert _tier(64) == 3

    def test_flush_and_compaction_observability(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segmented, "COMPACT_FANIN", 2)
        recorder = Recorder()
        disk = SegmentedIndex(
            tmp_path / "idx", recorder=recorder, flush_threshold=1
        ).build(corpus_texts(pages=4, states=2))
        kinds = [event.kind for event in recorder.events]
        assert kinds.count(SEGMENT_FLUSH) == 4
        assert kinds.count(COMPACTION) >= 1
        flush = next(e for e in recorder.events if e.kind == SEGMENT_FLUSH)
        assert flush.fields["num_states"] == 2
        assert disk.stats()["merge"]["blocks_decoded"] == 0
        disk.conjunction(["shared"])
        assert disk.stats()["merge"]["blocks_decoded"] > 0
        disk.close()


class TestWritePathInvariants:
    def test_merge_rejects_two_victims_claiming_one_state(self, tmp_path):
        one = SegmentedIndex(tmp_path / "one").build([make_model("u1", ["alpha beta"])])
        two = SegmentedIndex(tmp_path / "two").build(
            [make_model("u1", ["alpha gamma"]), make_model("u2", ["delta"])]
        )
        # State co-location broken on purpose: a second live segment
        # that also holds (u1, s0).  The merge hands the writer ordinals,
        # not names — it is the writer that has to notice.
        (own,) = one._flushed
        stray = SegmentReader(two._flushed[0].path, cache=one.cache)
        one._publish((own, stray))
        with pytest.raises(SearchError, match="duplicate"):
            one.compact_all()
        one._publish((own,))
        stray.close()
        # Nothing was committed and nothing was left behind.
        assert [path.name for path in (tmp_path / "one").glob("seg-*")] == [own.name]
        assert rows(one, "alpha") == rows(
            InvertedFile().build([make_model("u1", ["alpha beta"])]), "alpha"
        )
        one.close()
        two.close()

    def test_a_write_opens_its_segment_from_its_own_columns(self, tmp_path, monkeypatch):
        """Flushes and merges hand the new reader the writer's tables: no
        file written by build, update_model or compact_all is parsed, and
        an open from disk parses each segment once."""
        parses, writes = [], []
        parse, write = SegmentReader._parse_tables, segmented.write_segment
        monkeypatch.setattr(
            SegmentReader, "_parse_tables",
            lambda reader, *sections: parses.append(reader.name) or parse(reader, *sections),
        )
        monkeypatch.setattr(
            segmented, "write_segment", lambda *args, **kw: writes.append(args[0]) or write(*args, **kw)
        )
        monkeypatch.setattr(segmented, "COMPACT_FANIN", 2)
        models = corpus_texts(pages=8, states=2)
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=1).build(models)
        disk.update_model(models[3])
        disk.remove_url(models[5].url)
        assert disk.compact_all() == 1
        assert parses == [] and len(writes) > 9  # nine flushes and the merges
        memory = InvertedFile().build(models)
        memory.update_model(models[3])
        memory.remove_url(models[5].url)
        assert_parity(memory, disk)
        disk.close()
        reopened = SegmentedIndex.open(tmp_path / "idx")
        assert parses == [reader.name for reader in reopened._flushed]
        assert_parity(memory, reopened)
        reopened.close()

    def test_bulk_reads_leave_the_block_cache_alone(self, tmp_path, monkeypatch):
        """A policy compaction and compact_all decode every block of
        what they rewrite, the dead-count pass of remove_urls the blocks
        that straddle a retired range — all around the cache: its
        counters stay put, and what a query warmed in a segment that was
        *not* rewritten is still a hit afterwards.  A removal rewrites
        nothing, so it leaves every block warm."""
        # Three pages (90 postings) a segment: removing one page leaves
        # its segment a third dead, in a lower size tier than the other four.
        monkeypatch.setattr(segmented, "COMPACT_FANIN", 100)
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=90, block_size=2).build(
            corpus_texts(pages=15, states=5)
        )
        assert disk.num_segments == 5
        cache = disk.cache

        def counters():
            return (cache.hits, cache.misses, cache.evictions, len(cache))

        def requery(survivors):
            """Query every segment again; (hits, misses) it should add
            if exactly the ``survivors`` are still warm."""
            hits = misses = 0
            for reader in disk._flushed:
                view = reader.view("shared")
                if reader.name in survivors:
                    hits += view.end - view.first
                else:
                    misses += view.end - view.first
            before = counters()
            assert len(list(disk.conjunction(["shared"]))) == disk.num_states
            after = counters()
            assert (after[0] - before[0], after[1] - before[1]) == (hits, misses)

        requery(survivors=set())  # cold: every block is a miss
        # The four untouched segments share a tier.
        monkeypatch.setattr(segmented, "COMPACT_FANIN", 4)
        for rewrite, segments_left, files_kept in (
            (lambda: disk.remove_urls(["http://site.test/p4"]), 5, 5),
            (disk.maybe_compact, 2, 1),
            (disk.compact_all, 1, 0),
        ):
            names = {reader.name for reader in disk._flushed}
            before = counters()
            assert rewrite()
            assert counters() == before
            assert disk.num_segments == segments_left
            assert len(names & {reader.name for reader in disk._flushed}) == files_kept
            requery(survivors=names)
        disk.close()


class TestMaintenance:
    def test_remove_url_exact_counts_and_idf(self, tmp_path):
        models = corpus_texts(pages=4, states=3)
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=10).build(models)
        assert disk.remove_url("http://site.test/p1") == 3
        assert disk.remove_url("http://site.test/nope") == 0
        fresh = InvertedFile().build(
            [m for m in models if m.url != "http://site.test/p1"]
        )
        assert_parity(fresh, disk)
        disk.close()

    def test_remove_urls_batch(self, tmp_path):
        models = corpus_texts(pages=4, states=3)
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=10).build(models)
        removed = disk.remove_urls(
            ["http://site.test/p0", "http://site.test/p2"]
        )
        assert removed == 6
        assert_parity(
            InvertedFile().build([models[1], models[3]]), disk
        )
        disk.close()

    def test_remove_last_url_drops_segment(self, tmp_path):
        disk = SegmentedIndex(tmp_path / "idx").build(corpus_texts(pages=1))
        assert disk.num_segments == 1
        disk.remove_url("http://site.test/p0")
        assert disk.num_segments == 0
        assert disk.num_states == 0
        assert rows(disk, "shared") == []
        disk.close()

    def test_removal_retires_states_and_writes_no_segment(self, tmp_path):
        models = corpus_texts(pages=6, states=3)
        disk = SegmentedIndex(tmp_path / "idx").build(models)
        files = directory_bytes(tmp_path / "idx")
        (whole,) = disk._flushed
        assert disk.remove_urls([models[4].url, models[1].url, "http://site.test/nope"]) == 6
        # The manifest swap was the only write; the reader that answered
        # before is succeeded, not closed.
        after = directory_bytes(tmp_path / "idx")
        assert after.keys() == files.keys()
        assert {name for name in files if after[name] != files[name]} == {MANIFEST_NAME}
        manifest = json.loads(after[MANIFEST_NAME])
        assert (manifest["version"], manifest["dead"]) == (2, {whole.name: [[3, 6], [12, 15]]})
        (retired,) = disk._flushed
        assert retired is not whole and retired.path == whole.path
        assert whole.num_states == 18 and whole.df("shared") == 18
        assert_parity(InvertedFile().build([models[0], *models[2:4], models[5]]), disk)
        # Gone is gone: a second removal finds nothing, a re-add is no duplicate.
        assert disk.remove_url(models[1].url) == 0
        stats = disk.stats()
        assert (stats["dead_states"], stats["segments"][0]["dead_states"]) == (6, 6)
        assert (stats["num_states"], stats["segments"][0]["num_states"]) == (12, 12)
        disk.add_model(models[1])
        disk.finalize()
        assert_parity(InvertedFile().build([models[0], *models[2:4], models[5], models[1]]), disk)
        disk.close()

    def test_no_segment_stays_more_dead_than_alive_past_a_compaction(self, tmp_path):
        models = corpus_texts(pages=5, states=2)
        disk = SegmentedIndex(tmp_path / "idx").build(models)
        (whole,) = disk._flushed
        disk.remove_urls([model.url for model in models[:2]])
        assert disk.maybe_compact() == 0  # 4 dead, 6 alive: masking is cheaper
        disk.remove_url(models[2].url)
        (retired,) = disk._flushed
        assert (retired.dead_states, retired.num_states) == (6, 4)
        assert disk.maybe_compact() == 1
        (purged,) = disk._flushed
        assert (purged.dead_states, purged.num_states) == (0, 4)
        assert purged.name != whole.name and not whole.path.exists()
        assert_parity(InvertedFile().build(models[3:]), disk)
        disk.close()

    def test_tiers_are_sized_by_live_postings(self, tmp_path, monkeypatch):
        wide, narrow = "a b c d e f g h i j k l", "a b c d"
        monkeypatch.setattr(segmented, "COMPACT_FANIN", 100)
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=36)
        for n in range(3):  # 2 x 12 + 3 x 4 = 36 postings a segment: tier 2
            disk.add_model(make_model(f"wide{n}", [wide] * 2))
            disk.add_model(make_model(f"narrow{n}", [narrow] * 3))
        assert [_tier(reader.num_postings) for reader in disk._flushed] == [2, 2, 2]
        monkeypatch.setattr(segmented, "COMPACT_FANIN", 3)
        disk.remove_url("wide0")  # 2 dead of 5 states, 12 live postings of 36
        assert [_tier(reader.num_postings) for reader in disk._flushed] == [1, 2, 2]
        assert disk.maybe_compact() == 0  # by what the files hold it would be a full tier
        disk.remove_url("wide1")
        assert disk.maybe_compact() == 0
        disk.remove_url("wide2")
        assert disk.maybe_compact() == 1 and disk.num_segments == 1
        assert disk.stats()["dead_states"] == 0
        disk.close()

    def test_remove_from_memtable_before_flush(self, tmp_path):
        disk = SegmentedIndex(tmp_path / "idx")
        disk.add_model(make_model("u1", ["alpha beta"]))
        assert disk.remove_url("u1") == 1
        assert disk.num_states == 0
        disk.close()

    def test_update_model_moves_states_to_end(self, tmp_path):
        models = corpus_texts(pages=3, states=2)
        memory = InvertedFile().build([m for m in models])
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=4).build(models)
        replacement = make_model("http://site.test/p0", ["replacement text here"])
        memory.update_model(replacement)
        disk.update_model(replacement)
        # Insertion order parity: p0's states re-enter at the end.
        assert disk.states() == memory.states()
        assert disk.states()[-1] == ("http://site.test/p0", "s0")
        assert_parity(memory, disk)
        disk.close()

    def test_duplicate_state_rejected_across_segments(self, tmp_path):
        disk = SegmentedIndex(tmp_path / "idx")
        model = make_model("u1", ["alpha beta"])
        disk.add_model(model)
        disk.finalize()  # frozen into a segment
        with pytest.raises(SearchError, match="indexed twice"):
            disk.add_model(make_model("u1", ["gamma"]))
        disk.close()

    def test_duplicate_state_rejected_in_memtable(self, tmp_path):
        disk = SegmentedIndex(tmp_path / "idx")
        disk.add_model(make_model("u1", ["alpha beta"]))
        with pytest.raises(SearchError, match="indexed twice"):
            disk.add_model(make_model("u1", ["gamma"]))
        disk.close()


class TestPersistence:
    def test_reopen_answers_identically(self, tmp_path):
        models = corpus_texts()
        memory = InvertedFile().build(models)
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=20).build(models)
        disk.close()
        reopened = SegmentedIndex.open(tmp_path / "idx")
        assert_parity(memory, reopened)
        reopened.close()

    def test_reopen_preserves_settings_and_sequences(self, tmp_path):
        disk = SegmentedIndex(tmp_path / "idx", max_state_index=3, block_size=7).build(
            corpus_texts(pages=2)
        )
        next_seq = disk._next_seq
        disk.close()
        reopened = SegmentedIndex.open(tmp_path / "idx")
        assert reopened.max_state_index == 3
        assert reopened.block_size == 7
        assert reopened._next_seq == next_seq
        # New states continue the global sequence, keeping order stable.
        reopened.add_model(make_model("late", ["late arrival"]))
        reopened.finalize()
        assert reopened.states()[-1] == ("late", "s0")
        reopened.close()

    @pytest.mark.parametrize("reopened_first", [False, True])
    def test_close_commits_the_buffer(self, tmp_path, reopened_first):
        """Regression: close() let go of the files and dropped what was
        buffered — any read in between used to flush it by accident."""
        models = corpus_texts(pages=3)
        disk = SegmentedIndex(tmp_path / "idx")
        if reopened_first:
            disk.build(models[:1]).close()
            disk = SegmentedIndex.open(tmp_path / "idx")
            disk.add_model(models[1])
        else:
            disk.add_model(models[0])
            disk.add_model(models[1])
        disk.close()
        assert disk.num_segments == 0  # the empty generation: no closed map left to read
        reopened = SegmentedIndex.open(tmp_path / "idx")
        assert_parity(InvertedFile().build(models[:2]), reopened)
        reopened.close()

    def test_reopen_refuses_settings_the_directory_was_not_indexed_with(self, tmp_path):
        """Regression: a reopen took the manifest's settings and silently
        dropped the ones it was handed."""
        models = corpus_texts(pages=2)
        SegmentedIndex(tmp_path / "all").build(models).close()
        SegmentedIndex(tmp_path / "capped", max_state_index=2).build(models).close()
        for path, asked, named in (
            ("all", 1, "max_state_index=None, not max_state_index=1"),
            ("capped", 3, "max_state_index=2, not max_state_index=3"),
        ):
            with pytest.raises(SearchError) as refused:
                SegmentedIndex(tmp_path / path, max_state_index=asked)
            assert named in str(refused.value), refused.value
        # Agreeing, or None ("the manifest's"), opens.
        for path, asked in (("capped", 2), ("capped", None), ("all", None)):
            reopened = SegmentedIndex(tmp_path / path, max_state_index=asked)
            capped = path == "capped"
            assert reopened.max_state_index == (2 if capped else None)
            assert reopened.num_states == (4 if capped else 8)
            reopened.close()

    @pytest.mark.parametrize(
        "setting", [{"stopwords": ["a", "the"]}, {"analyzer": "stem"}], ids=["stopwords", "unknown"]
    )
    def test_a_setting_this_version_does_not_have_is_refused(self, tmp_path, setting):
        """What the directory was indexed under and this version cannot
        honour — a dropped-word list, say — refuses the open; a null or
        empty one is no setting at all."""
        SegmentedIndex(tmp_path / "idx").build(corpus_texts(pages=2)).close()
        path = tmp_path / "idx" / MANIFEST_NAME
        manifest = json.loads(path.read_text(encoding="utf-8"))
        ((name, value),) = setting.items()
        path.write_text(json.dumps({**manifest, name: value}), encoding="utf-8")
        with pytest.raises(SearchError, match=f"indexed with {name}=.*cannot read"):
            SegmentedIndex.open(tmp_path / "idx")
        for nothing in (None, [], ""):
            path.write_text(json.dumps({**manifest, name: nothing}), encoding="utf-8")
            reopened = SegmentedIndex.open(tmp_path / "idx")
            assert reopened.num_states == 8
            reopened.close()

    def test_open_requires_manifest(self, tmp_path):
        with pytest.raises(SearchError, match="not a segmented index"):
            SegmentedIndex.open(tmp_path / "missing")

    def test_corrupt_manifest_rejected(self, tmp_path):
        root = tmp_path / "idx"
        root.mkdir()
        (root / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(SearchError, match="corrupt index manifest"):
            SegmentedIndex(root)

    def test_unsupported_manifest_version_rejected(self, tmp_path):
        root = tmp_path / "idx"
        root.mkdir()
        (root / MANIFEST_NAME).write_text(
            json.dumps({"version": 99}), encoding="utf-8"
        )
        with pytest.raises(SearchError, match="version"):
            SegmentedIndex(root)

    def test_a_version_1_manifest_still_opens(self, tmp_path):
        models = corpus_texts(pages=3)
        SegmentedIndex(tmp_path / "idx", flush_threshold=40).build(models).close()
        path = tmp_path / "idx" / MANIFEST_NAME
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest.pop("dead") == {}
        path.write_text(json.dumps({**manifest, "version": 1}), encoding="utf-8")
        reopened = SegmentedIndex.open(tmp_path / "idx")
        assert_parity(InvertedFile().build(models), reopened)
        # ... and is written back as version 2 by the first commit.
        reopened.remove_url(models[0].url)
        assert json.loads(path.read_text(encoding="utf-8"))["version"] == 2
        reopened.close()

    def test_tombstones_survive_a_reopen_with_their_df_re_derived(self, tmp_path):
        models = corpus_texts(pages=5)
        disk = SegmentedIndex(tmp_path / "idx", block_size=2).build(models)
        disk.remove_urls([models[0].url, models[3].url])
        manifest = (tmp_path / "idx" / MANIFEST_NAME).read_bytes()
        assert b"df" not in manifest and b"count" not in manifest  # ranges only
        disk.close()
        files = directory_bytes(tmp_path / "idx")
        reopened = SegmentedIndex.open(tmp_path / "idx")
        assert reopened.orphans_collected == 0
        assert reopened.stats()["dead_states"] == 8
        assert_parity(InvertedFile().build([models[1], models[2], models[4]]), reopened)
        reopened.close()
        assert directory_bytes(tmp_path / "idx") == files

    def test_a_reopen_decodes_nothing_until_a_query_asks(self, tmp_path, monkeypatch):
        """The dead runs are checked and masked on open, not counted: no
        block is decoded, the cache and every reader's per-term counts
        stay empty, and a query counts the terms it asks about only."""
        models = corpus_texts(pages=5)
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=40, block_size=2).build(models)
        disk.remove_urls([models[0].url, models[3].url])
        disk.close()
        decoded = []
        decode = SegmentReader._decode
        monkeypatch.setattr(
            SegmentReader, "_decode", lambda reader, block: decoded.append(block) or decode(reader, block)
        )
        reopened = SegmentedIndex.open(tmp_path / "idx")
        retired = [reader for reader in reopened._flushed if reader.dead]
        assert len(retired) == 2 and reopened.num_segments == 3
        cache = reopened.cache
        assert (decoded, cache.hits, cache.misses, len(cache)) == ([], 0, 0, 0)
        assert [reader._dead_df for reader in retired] == [{}, {}]
        assert reopened.document_frequency("shared") == 12
        assert [list(reader._dead_df) for reader in retired] == [[reader._terms["shared"]] for reader in retired]
        assert_parity(InvertedFile().build([models[1], models[2], models[4]]), reopened)
        reopened.close()

    @pytest.mark.parametrize(
        "dead",
        [
            {"seg-00000000.seg": [[8, 12], [0, 4]]},  # unsorted
            {"seg-00000000.seg": [[0, 8], [4, 12]]},  # overlapping
            {"seg-00000000.seg": [[16, 24]]},  # hi beyond the state table
            {"seg-00000000.seg": [[0, 20]]},  # every state: the writer drops such a segment
            {"seg-00000000.seg": [[1, 4]]},  # not whole URIs
            {"seg-00000007.seg": [[0, 4]]},  # a segment the manifest does not name
            {"seg-00000000.seg": [[0, "4"]]},
            {"seg-00000000.seg": [[0, 4, 8]]},
            {"seg-00000000.seg": [4]},
        ],
    )
    def test_corrupt_dead_ranges_are_refused_not_applied(self, tmp_path, dead):
        SegmentedIndex(tmp_path / "idx").build(corpus_texts(pages=5)).close()
        path = tmp_path / "idx" / MANIFEST_NAME
        manifest = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**manifest, "dead": dead}), encoding="utf-8")
        with pytest.raises(SearchError, match="dead range|no live state"):
            SegmentedIndex.open(tmp_path / "idx")
        path.write_text(json.dumps({**manifest, "dead": {"seg-00000000.seg": [[4, 8]]}}))
        reopened = SegmentedIndex.open(tmp_path / "idx")
        assert reopened.num_states == 16
        reopened.close()

    def test_stats_inventory(self, tmp_path):
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=20).build(
            corpus_texts()
        )
        stats = disk.stats()
        assert stats["num_segments"] == disk.num_segments == len(stats["segments"])
        assert stats["num_states"] == disk.num_states
        assert stats["num_bytes"] == sum(s["num_bytes"] for s in stats["segments"])
        assert stats["cache"]["capacity"] == disk.cache.capacity
        disk.close()


def directory_bytes(path):
    return {entry.name: entry.read_bytes() for entry in sorted(path.iterdir())}


READS = {
    "conjunction": lambda index: list(index.conjunction(["shared", "late"])),
    "posting_list": lambda index: list(index.conjunction(["late"])),
    "document_frequency": lambda index: index.document_frequency("shared"),
    "terms": lambda index: index.terms(),
    "states": lambda index: index.states(),
    "state_rows": lambda index: [row[:4] for row in index.state_rows()],
    # tf as ranking reads it: a term's rows, occurrences over length.
    "tf": lambda index: [len(p) / n for _, _, n, (p,) in index.conjunction(["late"])],
    "idf": lambda index: index.idf("late"),
    "vocabulary_size": lambda index: index.vocabulary_size,
    "num_states": lambda index: index.num_states,
}


class TestReadsNeverWrite:
    """A query used to open with finalize(): after one add_model any read
    left a new segment file behind.  Reads go through the buffer."""

    LATE = ("http://site.test/late", ["shared late arrival", "late late again"])

    def buffered(self, tmp_path):
        models = corpus_texts(pages=3)
        disk = SegmentedIndex(tmp_path / "idx", flush_threshold=40).build(models)
        return disk, InvertedFile().build(models + [make_model(*self.LATE)])

    def assert_untouched(self, disk, before):
        assert (directory_bytes(disk.path), disk.num_segments) == before
        assert disk._memtable.num_states == 2

    @pytest.mark.parametrize("read", sorted(READS))
    def test_a_read_leaves_the_directory_as_it_was(self, tmp_path, read):
        disk, fresh = self.buffered(tmp_path)
        disk.add_model(make_model(*self.LATE))
        before = (directory_bytes(disk.path), disk.num_segments)
        assert READS[read](disk) == READS[read](fresh)
        self.assert_untouched(disk, before)
        disk.close()

    def test_stats_counts_the_buffer_and_lists_the_files(self, tmp_path):
        disk, fresh = self.buffered(tmp_path)
        disk.add_model(make_model(*self.LATE))
        before = (directory_bytes(disk.path), disk.num_segments)
        stats = disk.stats()
        self.assert_untouched(disk, before)
        assert stats["num_segments"] == len(stats["segments"]) == disk.num_segments
        assert stats["num_states"] == fresh.num_states
        assert stats["vocabulary"] == fresh.vocabulary_size
        assert stats["num_states"] - sum(s["num_states"] for s in stats["segments"]) == 2
        disk.close()

    def test_a_search_reads_what_was_added_after_the_engine_was_built(self, tmp_path):
        disk, fresh = self.buffered(tmp_path)
        engine = SearchEngine(disk)  # its constructor commits; nothing is buffered yet
        disk.add_model(make_model(*self.LATE))
        before = (directory_bytes(disk.path), disk.num_segments)
        for query in ("late", "shared late", "shared"):
            assert engine.search(query) == SearchEngine(fresh).search(query), query
        self.assert_untouched(disk, before)
        disk.close()


class TestGenerationSnapshot:
    """The read half of snapshot isolation: what a reader took before a
    write is what it finishes on, whatever the writer publishes since."""

    @pytest.mark.parametrize("backend", ["memory", "segmented"])
    def test_an_answer_taken_before_a_write_is_the_pre_write_answer(
        self, tmp_path, monkeypatch, backend
    ):
        monkeypatch.setattr(segmented, "COMPACT_FANIN", 100)
        models = corpus_texts(pages=4)
        index = (
            InvertedFile()
            if backend == "memory"
            else SegmentedIndex(tmp_path / "idx", flush_threshold=40)
        ).build(models)
        fresh = InvertedFile().build(models)
        expected_rows = list(fresh.conjunction(["shared", "filler"]))
        expected_postings = rows(fresh, "shared")

        answer = index.conjunction(["shared", "filler"])
        postings = index.conjunction(["shared"])  # taken, not yet read
        first = next(answer)  # a reader in the middle of its answer
        index.add_model(make_model("http://site.test/a-first", ["shared filler first"]))
        index.finalize()
        if backend == "segmented":
            assert index.num_segments > 2
            index.compact_all()
            assert index.num_segments == 1
        index.remove_urls([models[0].url, models[3].url])

        assert [first, *answer] == expected_rows
        assert list(postings) == expected_postings
        # ... and the next reader sees every write.
        after = InvertedFile().build(
            [*models[1:3], make_model("http://site.test/a-first", ["shared filler first"])]
        )
        assert list(index.conjunction(["shared", "filler"])) == list(
            after.conjunction(["shared", "filler"])
        )
        assert rows(index, "shared") == rows(after, "shared")
        if backend == "segmented":
            index.close()


    def test_a_generation_taken_before_a_removal_still_holds_the_removed_states(self, tmp_path):
        """Removal succeeds a reader, it does not close one: the segments
        a reader took beforehand go on answering from the same map —
        cold, so from the file — with the states removed since."""
        models = corpus_texts(pages=4)
        index = SegmentedIndex(tmp_path / "idx", block_size=2).build(models)
        fresh = InvertedFile().build(models)
        before = index._segments()
        assert index.remove_urls([models[1].url, models[2].url]) == 8
        index.cache.clear()

        def read(segments, terms):
            return [
                row for segment in segments
                for row in segment.match_rows(*segment.live_columns(
                    *merge_conjunction_blocks([segment.view(term) for term in terms])
                ))
            ]

        for terms in (["shared"], ["shared", "page2"], ["marker1x3"]):
            assert read(before, terms) == list(fresh.conjunction(terms)), terms
        assert read(before, ["page1"]) == rows(fresh, "page1")
        assert sum(segment.num_states for segment in before) == 16
        assert index.num_states == 8 and rows(index, "page1") == []
        assert read(index._segments(), ["shared"]) == list(
            InvertedFile().build([models[0], models[3]]).conjunction(["shared"])
        )
        index.close()


# -- update_model == fresh rebuild (property) --------------------------------------

words = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
)
texts = st.lists(
    st.lists(words, min_size=1, max_size=5).map(" ".join), min_size=1, max_size=4
)


@given(initial=texts, replacement=texts, other=texts)
@settings(max_examples=25, deadline=None)
def test_update_model_equals_fresh_rebuild_property(
    tmp_path_factory, initial, replacement, other
):
    """update_model(m) leaves any index equal to a fresh build with m.

    Checked for both backends against the same fresh InvertedFile:
    postings, df, idf, lengths, depths and global state order.
    """
    updated = [make_model("u1", replacement), make_model("u2", other)]
    fresh = InvertedFile().build(updated)

    memory = InvertedFile().build(
        [make_model("u1", initial), make_model("u2", other)]
    )
    memory.update_model(make_model("u1", replacement))

    scratch = tmp_path_factory.mktemp("segmented")
    disk = SegmentedIndex(scratch / "idx", flush_threshold=3, block_size=2).build(
        [make_model("u1", initial), make_model("u2", other)]
    )
    disk.update_model(make_model("u1", replacement))

    for index in (memory, disk):
        assert index.num_states == fresh.num_states
        assert index.terms() == fresh.terms()
        for term in fresh.terms():
            assert rows(index, term) == rows(fresh, term), term
            assert index.document_frequency(term) == fresh.document_frequency(term)
            assert index.idf(term) == fresh.idf(term), term
        assert sorted(row[:4] for row in index.state_rows()) == sorted(
            row[:4] for row in fresh.state_rows()
        )
    # Order differs from a fresh build only in u1 moving to the end —
    # both backends must agree on the exact resulting order.
    assert disk.states() == memory.states()
    disk.close()


# -- the ordinal-native write path == the Posting-level reference (property) -------

#: Out of string order and interleaving: whatever order models arrive
#: in, a flush has to rank their states canonically.
PROPERTY_URIS = [
    "http://b.test/1", "http://a.test/9", "http://c.test/", "http://a.test/10", "http://b.test/0",
]
VOCABULARY = ["alpha", "beta", "gamma", "delta"]


def property_model(uri, num_states, salt):
    """``shared`` is in every state (df beyond two blocks at any block
    size tried), ``only...`` in exactly one; state ids run up to s130."""
    model = ApplicationModel(uri)
    tag = PROPERTY_URIS.index(uri)
    for k in range(num_states):
        words = [VOCABULARY[(k + salt + j) % 4] for j in range(1 + (k + salt) % 3)]
        text = f"shared {' '.join(words)} only{tag}x{salt}x{k} shared"
        model.add_state(f"{uri}#{salt}#{k}", text, depth=k % 4)
    return model


def assert_live_segments_equal_the_reference(disk, scratch):
    """A file is what was written, whatever has been retired in it since:
    the reference takes its content from a reader of its own."""
    for reader in disk._flushed:
        written = reader.path.read_bytes()
        as_written = SegmentReader(reader.path)
        assert written == reference_bytes(as_written, scratch / "reference.seg"), reader.name
        as_written.close()


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_every_written_segment_equals_the_reference_writer(tmp_path_factory, data):
    """Random add / update / remove / flush / compaction sequences: after
    every step each live segment is, byte for byte, what the reference
    writer makes of the same logical content, and the index answers like
    an InvertedFile fed the same operations."""
    scratch = tmp_path_factory.mktemp("writepath")
    fanin = data.draw(st.sampled_from([2, 4]), label="compact_fanin")
    with mock.patch.object(segmented, "COMPACT_FANIN", fanin):
        write_path_steps(scratch, data)


def write_path_steps(scratch, data):
    disk = SegmentedIndex(
        scratch / "idx",
        flush_threshold=data.draw(st.sampled_from([1, 60, 10**6, 10**6]), label="flush_threshold"),
        block_size=data.draw(st.sampled_from([1, 2, 4]), label="block_size"),
    )
    memory = InvertedFile()
    present: set[str] = set()
    operations = st.sampled_from(
        ["add", "add", "add", "update", "remove", "flush", "maybe_compact", "compact_all"]
    )
    for _ in range(data.draw(st.integers(min_value=1, max_value=10), label="steps")):
        operation = data.draw(operations, label="operation")
        if operation in ("add", "update"):
            # Several models a step, so that one flush ranks the
            # interleaving states of more than one URI.
            for uri in data.draw(
                st.lists(st.sampled_from(PROPERTY_URIS), min_size=1, max_size=3, unique=True),
                label="uris",
            ):
                model = property_model(
                    uri,
                    data.draw(st.sampled_from([1, 2, 3, 9, 131]), label="states"),
                    data.draw(st.integers(min_value=0, max_value=3), label="salt"),
                )
                if operation == "update" or uri in present:
                    memory.update_model(model)
                    disk.update_model(model)
                else:
                    memory.add_model(model)
                    disk.add_model(model)
                present.add(uri)
        elif operation == "remove":
            gone = data.draw(st.lists(st.sampled_from(PROPERTY_URIS), max_size=3), label="gone")
            assert disk.remove_urls(gone) == memory.remove_urls(gone)
            present.difference_update(gone)
        else:
            getattr(disk, operation)()
        assert_live_segments_equal_the_reference(disk, scratch)
        # Answers come through the buffer, whatever it spans: comparing
        # them flushes nothing.
        assert disk.states() == memory.states()
    assert disk.states() == memory.states()
    assert disk.terms() == memory.terms()
    for term in memory.terms():
        assert rows(disk, term) == rows(memory, term), term
        assert disk.document_frequency(term) == memory.document_frequency(term), term
    assert_live_segments_equal_the_reference(disk, scratch)
    disk.close()


# -- a state holds at most its length in postings; the tier fast path (property) ---


def assert_postings_within_lengths_and_tiers_exact(disk):
    """Every segment file: no state holds more postings than its token
    length, and the tier compaction takes without counting is the tier
    of the live postings counted by brute force."""
    for reader in disk._flushed:
        held = Counter()
        for term in reader.file_terms():
            held.update(reader.columns(term)[0])
        ordinals = list(held)
        lengths = reader.lengths(ordinals)
        assert all(held[o] <= length for o, length in zip(ordinals, lengths)), reader.name
        live = sum(count for ordinal, count in held.items() if reader.live[ordinal])
        assert _live_tier(reader) == _tier(live), (reader.name, reader.dead)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_state_holds_at_most_its_length_and_the_fast_tier_is_exact(tmp_path_factory, data):
    """Random add / update / remove / compaction sequences over texts
    with and without repeated words: every segment written by a flush or
    a rewrite keeps each state's postings within its length, the bound
    the tier fast path rests on, and that fast path names the exact tier
    of the live postings after every step."""
    fanin = data.draw(st.sampled_from([2, 3, 100]), label="compact_fanin")
    with mock.patch.object(segmented, "COMPACT_FANIN", fanin):
        tier_steps(tmp_path_factory.mktemp("tiers") / "idx", data)


def tier_steps(path, data):
    disk = SegmentedIndex(
        path,
        flush_threshold=data.draw(st.sampled_from([4, 16, 40, 10**6]), label="flush_threshold"),
        block_size=data.draw(st.sampled_from([1, 2, 128]), label="block_size"),
    )
    pages = [f"http://t.test/p{page}" for page in range(6)]
    page_texts = st.lists(
        st.lists(words, min_size=1, max_size=8).map(" ".join), min_size=1, max_size=5
    )
    operations = st.sampled_from(["add", "add", "remove", "remove", "maybe_compact", "compact_all"])
    for _ in range(data.draw(st.integers(min_value=1, max_value=12), label="steps")):
        operation = data.draw(operations, label="operation")
        if operation == "add":
            for url in data.draw(st.lists(st.sampled_from(pages), min_size=1, max_size=3, unique=True)):
                disk.update_model(make_model(url, data.draw(page_texts, label="texts")))
        elif operation == "remove":
            disk.remove_urls(data.draw(st.lists(st.sampled_from(pages), max_size=3), label="gone"))
        else:
            getattr(disk, operation)()
        assert_postings_within_lengths_and_tiers_exact(disk)
    disk.close()
