"""Crash-recovery tests for the segmented index directory.

The durability contract under test: the atomic ``MANIFEST.json`` swap is
the *only* commit point.  Segment files are written before it and
unlinked after it, so a process death anywhere in a mutation leaves the
directory in exactly one of two observable generations — never a
manifest naming a missing file, never a query answer mixing old and new
states.  Files stranded outside the manifest by a crash (fresh segments
never adopted, dropped victims never unlinked, half-written tmp files)
are garbage-collected on the next open.

Crashes are simulated by snapshotting directory bytes around the commit
point and restoring them — equivalent to the kernel losing the writes
that followed — plus fault-injection tests that make the manifest save
itself fail mid-``remove_urls``.  A removal writes nothing *but* the
manifest (the dead ordinal ranges it names are the removal), so its two
generations are the tombstones before and the tombstones after.
"""

import pytest

from repro.errors import SearchError
from repro.model import ApplicationModel
from repro.search import InvertedFile, SearchEngine, SegmentedIndex, segmented
from repro.search.segmented import MANIFEST_NAME


@pytest.fixture(autouse=True)
def no_tier_fills_up(monkeypatch):
    """Every flush stays its own segment until a test compacts."""
    monkeypatch.setattr(segmented, "COMPACT_FANIN", 100)


def make_model(url, state_texts):
    model = ApplicationModel(url)
    for offset, text in enumerate(state_texts):
        model.add_state(f"{url}-h{offset}", text, depth=offset)
    return model


def corpus(pages=4, states=3):
    return [
        make_model(
            f"http://site.test/p{page}",
            [
                f"shared page{page} state{state} marker{page}x{state}"
                for state in range(states)
            ],
        )
        for page in range(pages)
    ]


def assert_parity(memory, disk):
    assert disk.states() == memory.states()
    assert disk.terms() == memory.terms()
    for term in sorted(memory.terms()):
        assert list(disk.conjunction([term])) == list(memory.conjunction([term])), term
        assert disk.idf(term) == memory.idf(term), term


def seg_files(path):
    return sorted(p.name for p in path.glob("seg-*.seg"))


class TestCrashBetweenSegmentWriteAndManifestSwap:
    def test_reopen_serves_old_generation_and_collects_orphan(self, tmp_path):
        idx = tmp_path / "idx"
        old_models = corpus(pages=3)
        disk = SegmentedIndex(idx, flush_threshold=1).build(
            old_models
        )
        disk.close()
        old_manifest = (idx / MANIFEST_NAME).read_bytes()
        old_segments = seg_files(idx)

        disk = SegmentedIndex.open(idx)
        disk.add_model(make_model("http://site.test/new", ["fresh unseen terms"]))
        disk.finalize()
        disk.close()
        assert len(seg_files(idx)) == len(old_segments) + 1
        # Crash: the new segment hit disk, the manifest swap did not.
        (idx / MANIFEST_NAME).write_bytes(old_manifest)

        reopened = SegmentedIndex.open(idx)
        assert reopened.orphans_collected == 1
        assert seg_files(idx) == old_segments
        assert_parity(InvertedFile().build(old_models), reopened)
        assert list(reopened.conjunction(["unseen"])) == []
        reopened.close()

    def test_new_generation_visible_when_swap_landed(self, tmp_path):
        idx = tmp_path / "idx"
        models = corpus(pages=3)
        disk = SegmentedIndex(idx, flush_threshold=1).build(models)
        disk.close()
        reopened = SegmentedIndex.open(idx)
        assert reopened.orphans_collected == 0
        assert_parity(InvertedFile().build(models), reopened)
        reopened.close()


class TestCrashMidCompaction:
    def test_victims_surviving_past_manifest_swap_are_collected(self, tmp_path):
        idx = tmp_path / "idx"
        models = corpus(pages=4)
        disk = SegmentedIndex(idx, flush_threshold=1).build(models)
        victims = {
            reader.path: reader.path.read_bytes() for reader in disk._flushed
        }
        assert disk.compact_all() == 1
        disk.close()
        # Crash after the manifest adopted the merged segment but before
        # the victims were unlinked: resurrect their bytes.
        for path, data in victims.items():
            path.write_bytes(data)

        reopened = SegmentedIndex.open(idx)
        assert reopened.orphans_collected == len(victims)
        assert reopened.num_segments == 1
        assert_parity(InvertedFile().build(models), reopened)
        reopened.close()


class TestCrashDuringRemoveUrls:
    def test_manifest_failure_leaves_old_generation_intact(
        self, tmp_path, monkeypatch
    ):
        idx = tmp_path / "idx"
        models = corpus(pages=3)
        disk = SegmentedIndex(idx, flush_threshold=1).build(models)
        disk.close()
        old_manifest = (idx / MANIFEST_NAME).read_bytes()
        old_segments = seg_files(idx)

        disk = SegmentedIndex.open(idx)

        def torn_save():
            raise RuntimeError("simulated crash during manifest swap")

        monkeypatch.setattr(disk, "_save_manifest", torn_save)
        with pytest.raises(RuntimeError):
            disk.remove_url(models[0].url)
        # The commit never happened, so every file of the old generation
        # must still be on disk (victims are unlinked only *after* the
        # manifest stops naming them).
        assert (idx / MANIFEST_NAME).read_bytes() == old_manifest
        assert set(old_segments) <= set(seg_files(idx))

        reopened = SegmentedIndex.open(idx)
        assert_parity(InvertedFile().build(models), reopened)
        assert SearchEngine(reopened).result_count("marker0x0") == 1
        reopened.close()

    def test_committed_removal_survives_reopen(self, tmp_path):
        idx = tmp_path / "idx"
        models = corpus(pages=3)
        disk = SegmentedIndex(idx, flush_threshold=1).build(models)
        assert disk.remove_url(models[0].url) == 3
        disk.close()
        reopened = SegmentedIndex.open(idx)
        assert reopened.orphans_collected == 0
        assert_parity(InvertedFile().build(models[1:]), reopened)
        reopened.close()


    def test_manifest_failure_keeps_the_earlier_tombstones(self, tmp_path, monkeypatch):
        idx = tmp_path / "idx"
        models = corpus(pages=4)
        disk = SegmentedIndex(idx).build(models)  # one segment, four pages
        assert disk.remove_url(models[2].url) == 3
        disk.close()
        old_manifest = (idx / MANIFEST_NAME).read_bytes()
        old_segments = seg_files(idx)

        disk = SegmentedIndex.open(idx)

        def torn_save():
            raise RuntimeError("simulated crash during manifest swap")

        monkeypatch.setattr(disk, "_save_manifest", torn_save)
        with pytest.raises(RuntimeError):
            disk.remove_url(models[0].url)
        assert (idx / MANIFEST_NAME).read_bytes() == old_manifest
        assert seg_files(idx) == old_segments

        reopened = SegmentedIndex.open(idx)
        assert reopened.orphans_collected == 0
        assert reopened.stats()["dead_states"] == 3
        assert_parity(InvertedFile().build(models[:2] + models[3:]), reopened)
        assert SearchEngine(reopened).result_count("marker0x0") == 1
        assert SearchEngine(reopened).result_count("marker2x0") == 0
        reopened.close()

    def test_a_swap_that_landed_makes_the_tombstones_durable(self, tmp_path):
        idx = tmp_path / "idx"
        models = corpus(pages=4)
        disk = SegmentedIndex(idx).build(models)
        segments = {name: (idx / name).read_bytes() for name in seg_files(idx)}
        assert disk.remove_urls([models[0].url, models[2].url]) == 6
        # Crash right after the swap: no close(), nothing else written.
        assert {name: (idx / name).read_bytes() for name in seg_files(idx)} == segments
        reopened = SegmentedIndex.open(idx)
        assert reopened.orphans_collected == 0
        assert reopened.stats()["dead_states"] == 6
        assert_parity(InvertedFile().build([models[1], models[3]]), reopened)
        reopened.close()
        disk.close()


class TestStrayFiles:
    def test_stale_tmp_and_unknown_segment_collected(self, tmp_path):
        idx = tmp_path / "idx"
        models = corpus(pages=2)
        disk = SegmentedIndex(idx, flush_threshold=1).build(models)
        disk.close()
        (idx / "MANIFEST.json.tmp").write_text("{torn", encoding="utf-8")
        (idx / "seg-99999999.seg").write_bytes(b"\x00garbage")

        reopened = SegmentedIndex.open(idx)
        assert reopened.orphans_collected == 2
        assert not (idx / "MANIFEST.json.tmp").exists()
        assert not (idx / "seg-99999999.seg").exists()
        assert_parity(InvertedFile().build(models), reopened)
        reopened.close()

    def test_missing_manifest_still_refuses_open(self, tmp_path):
        with pytest.raises(SearchError):
            SegmentedIndex.open(tmp_path / "nothing-here")
