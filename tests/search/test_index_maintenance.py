"""Tests for incremental index maintenance (remove_url / update_model)."""

import json

import pytest

from repro.model import ApplicationModel
from repro.search import InvertedFile, SegmentedIndex
from repro.search.segmented import MANIFEST_NAME


def rows(index, term):
    """The posting list of ``term``: its one-term conjunction."""
    return list(index.conjunction([term]))


def make_model(url, state_texts):
    model = ApplicationModel(url)
    for offset, text in enumerate(state_texts):
        model.add_state(f"{url}-h{offset}", text, depth=offset)
    return model


def two_pages():
    return [
        make_model("u1", ["alpha beta", "beta gamma"]),
        make_model("u2", ["alpha delta"]),
    ]


def through_disk(index):
    """Close a segmented index and open its directory again."""
    index.close()
    return SegmentedIndex.open(index.path)


def state_stats(index):
    """Every state in insertion order, with its length and depth."""
    return [row[:4] for row in index.state_rows()]


@pytest.fixture
def index():
    return InvertedFile().build(two_pages())


class TestRemoveUrl:
    def test_removes_all_states_of_url(self, index):
        removed = index.remove_url("u1")
        assert removed == 2
        assert index.num_states == 1
        assert index.states() == [("u2", "s0")]

    def test_postings_purged(self, index):
        index.remove_url("u1")
        assert [uri for uri, *_ in rows(index, "alpha")] == ["u2"]
        assert rows(index, "gamma") == []

    def test_vocabulary_shrinks(self, index):
        before = index.vocabulary_size
        index.remove_url("u1")
        assert index.vocabulary_size < before

    def test_unknown_url_noop(self, index):
        assert index.remove_url("nope") == 0
        assert index.num_states == 3

    def test_idf_reflects_removal(self, index):
        import math

        index.remove_url("u1")
        # alpha now in 1 of 1 states.
        assert index.idf("alpha") == pytest.approx(math.log(1))


class TestUpdateModel:
    def test_replaces_states(self, index):
        index.update_model(make_model("u1", ["epsilon zeta"]))
        assert index.num_states == 2
        assert rows(index, "epsilon")
        assert rows(index, "beta") == []

    def test_equivalent_to_fresh_build(self, index):
        updated_model = make_model("u1", ["omega psi", "psi chi"])
        index.update_model(updated_model)
        fresh = InvertedFile().build(
            [updated_model, make_model("u2", ["alpha delta"])]
        )
        for term in ("omega", "psi", "chi", "alpha", "delta"):
            assert rows(index, term) == rows(fresh, term), term
        assert index.num_states == fresh.num_states

    def test_update_after_load(self, tmp_path):
        """A reopened index supports incremental maintenance too."""
        loaded = through_disk(SegmentedIndex(tmp_path / "idx").build(two_pages()))
        loaded.update_model(make_model("u1", ["fresh content"]))
        assert rows(loaded, "fresh")
        assert rows(loaded, "beta") == []
        loaded.close()

    def test_search_engine_sees_update(self, index):
        from repro.search import SearchEngine

        engine = SearchEngine(index)
        assert engine.result_count("beta") == 2
        index.update_model(make_model("u1", ["replaced text"]))
        assert engine.result_count("beta") == 0
        assert engine.result_count("replaced") == 1


class TestRemoveUrlsBatch:
    """Regression for per-removal posting-list rebuilds: removing k URIs
    must filter each touched term once and report exact counts."""

    def test_batch_equals_sequential(self):
        models = [
            make_model(f"u{i}", [f"shared only{i} text", f"shared more{i}"])
            for i in range(5)
        ]
        batch = InvertedFile().build(models)
        sequential = InvertedFile().build(models)
        assert batch.remove_urls(["u1", "u3"]) == 4
        assert sequential.remove_url("u1") + sequential.remove_url("u3") == 4
        assert batch.states() == sequential.states()
        for term in sorted(batch.terms() | sequential.terms()):
            assert rows(batch, term) == rows(sequential, term), term

    def test_batch_matches_fresh_build(self):
        models = [make_model(f"u{i}", ["shared", f"only{i}"]) for i in range(4)]
        index = InvertedFile().build(models)
        assert index.remove_urls(["u0", "u2", "nope"]) == 4
        fresh = InvertedFile().build([models[1], models[3]])
        assert index.states() == fresh.states()
        assert index.terms() == fresh.terms()
        for term in fresh.terms():
            assert rows(index, term) == rows(fresh, term), term

    def test_empty_batch_noop(self, index):
        assert index.remove_urls([]) == 0
        assert index.num_states == 3


class TestSequenceNumbersSurviveLoad:
    """Regression: a reload that restarts the sequence counter hands the
    next ``add_model`` numbers already in use, and ``states()`` — ordered
    by them — puts the new page before the pages it followed.  A reopened
    directory continues at its manifest's ``next_seq``."""

    def _script(self, index, reload):
        observed = []
        index = reload(index)
        index.add_model(make_model("u0", ["alpha omega", "omega beta beta"]))
        for term in ("alpha", "beta", "omega", "delta"):
            observed.append((term, rows(index, term)))
        observed.append(index.state_rows())
        assert index.remove_url("u1") == 2
        observed.append(index.states())
        index = reload(index)
        observed.append(index.state_rows())
        observed.append([uri for uri, *_ in rows(index, "alpha")])
        return observed

    def test_load_then_add_equals_a_never_saved_index(self, index, tmp_path):
        disk = SegmentedIndex(tmp_path / "idx").build(two_pages())
        assert self._script(disk, through_disk) == self._script(index, lambda i: i)

    def test_the_counter_continues_after_the_restored_rows(self, tmp_path):
        path = tmp_path / "idx"
        SegmentedIndex(path).build(two_pages()).close()
        next_seq = json.loads((path / MANIFEST_NAME).read_text(encoding="utf-8"))["next_seq"]
        assert next_seq == 3
        loaded = SegmentedIndex.open(path)
        loaded.add_model(make_model("u0", ["alpha"]))
        assert [row[4] for row in loaded._memtable.state_rows()] == [next_seq]
        loaded.close()


class TestMaintenanceParity:
    """One seeded sequence of writes and reads on both backends and on an
    ``InvertedFile`` built afresh from the surviving models: after every
    step — committed or still buffered — all three answer alike.  At
    ``flush_threshold=12`` the segmented index reads flushed segments and
    a view of its buffer together, removes from the buffer, and removes
    and re-adds a page before anything is committed.  Removal from a
    segment only retires states: no ``seg-*.seg`` appears for it, the
    tombstones (and the df re-derived from them) survive a close/reopen
    in the middle, and a page removed, re-added and removed again goes
    through a compaction without ever being two rows."""

    WORDS = ["ant", "bee", "cat", "dog", "eel", "fox"]

    def _model(self, rng, url):
        # A word of its own per version: removing the page removes the
        # last state holding it.
        own = f"only{rng.randrange(10**6)}"
        return make_model(
            url,
            [
                " ".join([own, *rng.choices(self.WORDS, k=rng.randint(1, 5))])
                for _ in range(rng.randint(1, 3))
            ],
        )

    def _observe(self, index, queries):
        return {
            "rows": [
                [(uri, state_id, length, list(occurrences))
                 for uri, state_id, length, occurrences in index.conjunction(query)]
                for query in queries
            ],
            "postings": {term: rows(index, term) for term in sorted(index.terms())},
            "df": [index.document_frequency(term) for term in self.WORDS + ["absent"]],
            "states": state_stats(index),
        }

    @pytest.mark.parametrize("seed", range(6))
    def test_both_backends_and_a_fresh_build_agree(self, seed, tmp_path):
        import random

        rng = random.Random(seed)
        memory = InvertedFile()
        live: dict[str, ApplicationModel] = {}  # url -> model, in insertion order
        mixed = 0  # comparisons made over flushed segments and a buffer view at once
        masked = 0  # ... and over segments holding dead states
        urls = [f"http://t.test/p{n}" for n in range(8)]

        def open_disk():
            """The index, its ``remove_urls`` watched: whatever else an
            update writes, the removal in it adds no segment file."""
            disk = SegmentedIndex(tmp_path / "idx", flush_threshold=12)
            plain = disk.remove_urls

            def watched(uris):
                before = set((tmp_path / "idx").glob("seg-*.seg"))
                removed = plain(uris)
                assert set((tmp_path / "idx").glob("seg-*.seg")) <= before
                return removed

            disk.remove_urls = watched
            return disk

        disk = open_disk()

        def add(url):
            live[url] = model = self._model(rng, url)
            for index in (memory, disk):
                index.add_model(model)
            compare()

        def remove(url):
            expected = len(live.pop(url, ApplicationModel(url)).states())
            assert memory.remove_url(url) == disk.remove_url(url) == expected
            compare()

        def update(url):
            live.pop(url, None)
            live[url] = model = self._model(rng, url)
            for index in (memory, disk):
                index.update_model(model)
            # An update flushes, a flush compacts, and past a compaction
            # no segment is more dead than alive.
            assert all(reader.dead_states <= reader.num_states for reader in disk._flushed)
            compare()

        def check():
            for index in (memory, disk):
                index.finalize()
            assert not disk._memtable
            compare()

        def reopen():
            nonlocal disk
            dead = disk.stats()["dead_states"]
            disk.close()
            disk = open_disk()
            assert disk.stats()["dead_states"] == dead
            compare()
            return dead

        def compare():
            nonlocal mixed, masked
            mixed += bool(disk._memtable and disk._flushed)
            masked += any(reader.dead for reader in disk._flushed)
            fresh = InvertedFile().build(live.values())
            queries = [[word] for word in self.WORDS] + [
                rng.sample(self.WORDS, 2) for _ in range(4)
            ] + [[next(iter(sorted(memory.terms())), "absent")], ["ant", "absent"], []]
            expected = self._observe(fresh, queries)
            assert self._observe(memory, queries) == expected
            assert self._observe(disk, queries) == expected

        # The three cases a stale rank, a reused sequence number or a
        # left-over empty column would break, then seeded steps.
        add(urls[5])
        add(urls[6])
        check()
        add(urls[2])  # sorts before everything finalized so far
        check()
        remove(urls[5])  # the last states holding its own word
        check()
        add(urls[5])  # back under a later seq, the same ordinal
        remove(urls[5])  # out of the buffer again, never committed
        add(urls[5])
        check()
        carried = 0  # dead states that went through a close/reopen
        for number in range(30):
            step = rng.choice([add, add, remove, update, check])
            if number in (10, 20):
                # A page out of a segment that holds another: a tombstone.
                shared = [r for r in disk._flushed if len({row[0] for row in r.state_rows()}) > 1]
                if shared:
                    remove(shared[0].state_rows()[0][0])
                carried += reopen()
            elif step is check:
                check()
            elif step is add:
                absent = [url for url in urls if url not in live]
                if absent:
                    add(rng.choice(absent))
            else:
                step(rng.choice(urls))
        check()
        # One page out, back in, out again, then everything through the
        # writer's duplicate-row check — with its first self still on disk.
        for url in (urls[2], urls[7]):
            if url not in live:
                add(url)
            check()
            remove(url)
            add(url)
            check()
            assert disk.compact_all() in (0, 1)
            compare()
            remove(url)
            add(url)
            remove(url)
            assert disk.compact_all() in (0, 1)
            assert disk.stats()["dead_states"] == 0
            compare()
        assert mixed >= 3 and masked >= 3 and carried
        disk.close()
