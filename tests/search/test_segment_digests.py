"""Byte identity of the segment write path (golden master).

``tests/golden/segment_digests.json`` holds the sha256 of
``MANIFEST.json`` and of every live ``seg-*.seg`` after each step of a
build / update / removal / full-compaction sequence over a minted
3 000-state corpus.  The format is ``AJXSEG01`` and does not change, so
any writer — however it gets from memtable and mmap to varint blocks —
must reproduce those files bit for bit.

The steps were re-recorded once, by name, when removal stopped rewriting
segments (PR 22: manifest version 2 everywhere; the update and removal
steps keep their victims' files and spend fewer segment ids).  What that
migration was *not* allowed to move is under ``"pinned"``, carried over
from the recording made before the write path went columnar (PR 19): the
``build`` step's segment names and bytes, and the bytes of the one
segment ``compact_all`` leaves.  Re-recording never touches the pins.

Re-record (only for an intended format change) by running this file as a
script: ``PYTHONPATH=src python tests/search/test_segment_digests.py``.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.model import ApplicationModel
from repro.search import SegmentedIndex
from repro.search.segmented import MANIFEST_NAME
from repro.testgen import corpus_models, corpus_spec

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "segment_digests.json"
STATES = 3_000
SEEDS = (7, 8)
#: ``(flush_threshold, block_size)``: one flush and full blocks; many
#: flushes, policy compactions inside the build and 4-posting blocks.
SHAPES = ((200_000, 128), (2_000, 4))


def directory_digests(index: SegmentedIndex) -> dict[str, str]:
    names = [MANIFEST_NAME] + [reader.name for reader in index._flushed]
    return {
        name: hashlib.sha256((index.path / name).read_bytes()).hexdigest()
        for name in names
    }


def recrawled(page: ApplicationModel, donor: ApplicationModel) -> ApplicationModel:
    """``page``'s URL with ``donor``'s states: a re-crawl that found other text."""
    model = ApplicationModel(page.url)
    for state in donor.states():
        model.add_state(f"recrawl-{state.state_id}", state.text, depth=state.depth)
    return model


def replay(path: Path, seed: int, flush_threshold: int, block_size: int) -> dict:
    """The recorded sequence; ``{step: {file name: sha256}}``."""
    models = corpus_models(corpus_spec(STATES, seed))
    pages = len(models)
    index = SegmentedIndex(path, flush_threshold=flush_threshold, block_size=block_size)
    steps = {}
    try:
        index.build(models)
        steps["build"] = directory_digests(index)
        for number, page in enumerate((pages // 6, pages // 2, (5 * pages) // 6), 1):
            index.update_model(recrawled(models[page], models[-page]))
            steps[f"update_model {number}"] = directory_digests(index)
        index.remove_urls([models[pages // 3].url, models[(2 * pages) // 3].url])
        steps["remove_urls"] = directory_digests(index)
        index.compact_all()
        steps["compact_all"] = directory_digests(index)
    finally:
        index.close()
    return steps


def segments(digests: dict[str, str]) -> dict[str, str]:
    return {name: digest for name, digest in digests.items() if name != MANIFEST_NAME}


def label(seed: int, flush_threshold: int, block_size: int) -> str:
    return f"seed={seed} flush_threshold={flush_threshold} block_size={block_size}"


@pytest.mark.parametrize("flush_threshold,block_size", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_segment_files_are_byte_identical_to_the_recording(
    tmp_path, seed, flush_threshold, block_size
):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    steps = replay(tmp_path / "idx", seed, flush_threshold, block_size)
    expected = recorded[label(seed, flush_threshold, block_size)]
    assert list(steps) == list(expected)
    for step, digests in steps.items():
        assert digests == expected[step], step  # names, order and bytes
    # What no migration of the recording may move: AJXSEG01 bytes.
    pinned = recorded["pinned"][label(seed, flush_threshold, block_size)]
    assert segments(steps["build"]) == pinned["build"]
    assert list(segments(steps["compact_all"]).values()) == [pinned["compact_all"]]
    # A removal is a manifest swap: the files of the step before, untouched.
    assert segments(steps["remove_urls"]) == segments(steps["update_model 3"])
    assert steps["remove_urls"][MANIFEST_NAME] != steps["update_model 3"][MANIFEST_NAME]


if __name__ == "__main__":
    record = {"pinned": json.loads(GOLDEN.read_text(encoding="utf-8"))["pinned"]}
    for seed in SEEDS:
        for flush_threshold, block_size in SHAPES:
            with tempfile.TemporaryDirectory() as scratch:
                record[label(seed, flush_threshold, block_size)] = replay(
                    Path(scratch) / "idx", seed, flush_threshold, block_size
                )
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(record) - 1} sequences into {GOLDEN}", file=sys.stderr)
