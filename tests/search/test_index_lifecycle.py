"""A model-based test of the index lifecycle: random schedules of writes,
flushes, compactions, reopens and held readers against a plain oracle.

Every other index test runs a fixed schedule; the index bugs found so
far were schedule bugs (a close dropping the buffer, a reopen ignoring
its settings, a reused sequence number, a shared dead-count memo).
Here a hypothesis state machine drives one :class:`SegmentedIndex` (a
tiny flush threshold and block size, ``COMPACT_FANIN`` patched to 2, so
flushes, block edges and tier merges come within a few steps) and one
:class:`InvertedFile` through the same schedule.  The oracle is a dict
of the live states and their tokens.  After every rule both backends
must answer as it does: the state rows, every one- and two-term
conjunction's rows, every term's df and idf, and ``SearchEngine.top``
against :func:`tests.search.test_top_k.reference_top`.

A *held reader* is a ``conjunction`` iterator advanced part-way and left
open while later rules write; drained, it must answer as the generation
it was taken from.
"""

import itertools
import math
import shutil
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.search import InvertedFile, RankingWeights, SearchEngine, SegmentedIndex
from repro.search import segmented
from repro.search.segments import state_sort_key

from tests.parallel.test_sharding import ranking
from tests.search.test_segmented_index import make_model
from tests.search.test_top_k import reference_top

VOCABULARY = ("ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen")
URIS = tuple(f"http://life.test/p{number}" for number in range(5))
QUERIES = [[term] for term in VOCABULARY] + [
    list(pair) for pair in itertools.combinations(VOCABULARY, 2)
]
FLUSH_THRESHOLD = 8
BLOCK_SIZE = 2

#: One page: one to three states of one to four words each.
TEXTS = st.lists(
    st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=4).map(" ".join),
    min_size=1,
    max_size=3,
)


def row(match):
    """A conjunction row with its position columns as plain tuples."""
    uri, state_id, length, positions = match
    return uri, state_id, length, tuple(map(tuple, positions))


class IndexLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.scratch = tempfile.mkdtemp(prefix="index-lifecycle-")
        self.memory = InvertedFile()
        self.disk = SegmentedIndex(
            self.scratch, flush_threshold=FLUSH_THRESHOLD, block_size=BLOCK_SIZE
        )
        # Built while the buffers are empty, so the engines' eager
        # finalize commits nothing the schedule did not.
        self.engines = {"memory": SearchEngine(self.memory), "disk": SearchEngine(self.disk)}
        #: The oracle: (uri, state_id) -> (tokens, depth, sequence
        #: number), in insertion order; and the live models by URI.
        self.live: dict[tuple[str, str], tuple[list[str], int, int]] = {}
        self.models = {}
        self.next_seq = 0
        #: Held readers: (backend, query, rows left, rows expected, rows read).
        self.held = []

    def indexes(self):
        return {"memory": self.memory, "disk": self.disk}

    def note(self, model):
        self.models[model.url] = model
        for state in model.states():
            tokens = state.text.split()
            self.live[(model.url, state.state_id)] = (tokens, state.depth, self.next_seq)
            self.next_seq += 1

    def forget(self, uris) -> int:
        gone = [key for key in self.live if key[0] in uris]
        for key in gone:
            del self.live[key]
        for uri in uris:
            self.models.pop(uri, None)
        return len(gone)

    def expected_rows(self, query):
        """The conjunction's rows, in canonical (uri, state index) order."""
        rows = []
        for key in sorted(self.live, key=state_sort_key):
            tokens = self.live[key][0]
            if all(term in tokens for term in query):
                positions = [
                    tuple(at for at, token in enumerate(tokens) if token == term) for term in query
                ]
                rows.append((*key, len(tokens), tuple(positions)))
        return rows

    def drain(self):
        for backend, query, rows, expected, read in self.held:
            assert read + [row(match) for match in rows] == expected, (backend, query)
        self.held = []

    # -- writes ----------------------------------------------------------------

    @precondition(lambda self: len(self.models) < len(URIS))
    @rule(data=st.data(), texts=TEXTS)
    def add_model(self, data, texts):
        uri = data.draw(st.sampled_from([uri for uri in URIS if uri not in self.models]))
        model = make_model(uri, texts)
        for index in self.indexes().values():
            index.add_model(model)
        self.note(model)

    @rule(uris=st.sets(st.sampled_from(URIS), max_size=3))
    def remove_urls(self, uris):
        removed = self.forget(uris)
        for backend, index in self.indexes().items():
            assert index.remove_urls(uris) == removed, backend

    @rule(uri=st.sampled_from(URIS), texts=TEXTS)
    def update_model(self, uri, texts):
        model = make_model(uri, texts)
        for index in self.indexes().values():
            index.update_model(model)
        self.forget({uri})
        self.note(model)

    @rule()
    def flush(self):
        self.disk.flush()
        self.memory.finalize()

    @rule()
    def compact_all(self):
        assert self.disk.compact_all() in (0, 1)
        assert self.disk.num_segments <= 1

    @rule()
    def close_and_reopen(self):
        # A close ends every read of the index: the held readers first.
        self.drain()
        self.disk.close()
        self.disk = SegmentedIndex.open(self.scratch, flush_threshold=FLUSH_THRESHOLD)
        assert self.disk.block_size == BLOCK_SIZE
        self.engines["disk"] = SearchEngine(self.disk)  # nothing buffered after a reopen

    # -- held readers ----------------------------------------------------------

    @rule(query=st.sampled_from(QUERIES), advance=st.integers(0, 3))
    def hold_reader(self, query, advance):
        expected = self.expected_rows(query)
        for backend, index in self.indexes().items():
            rows = iter(index.conjunction(query))
            read = [row(match) for match in itertools.islice(rows, advance)]
            self.held.append((backend, query, rows, expected, read))

    @precondition(lambda self: self.held)
    @rule()
    def drain_readers(self):
        self.drain()

    # -- the oracle ------------------------------------------------------------

    @invariant()
    def both_backends_answer_as_the_oracle(self):
        rows = [
            (uri, state_id, len(tokens), depth, seq)
            for (uri, state_id), (tokens, depth, seq) in self.live.items()
        ]
        num_states = len(rows)
        dfs = {term: sum(term in live[0] for live in self.live.values()) for term in VOCABULARY}
        conjunctions = {tuple(query): self.expected_rows(query) for query in QUERIES}
        models = list(self.models.values())
        tops = {
            " ".join(query): reference_top(models, " ".join(query), {}, {}, RankingWeights(), None)
            for query in QUERIES
        }
        for backend, index in self.indexes().items():
            assert index.state_rows() == rows, backend
            assert index.num_states == num_states, backend
            for term, df in dfs.items():
                assert index.document_frequency(term) == df, (backend, term)
                idf = math.log(num_states / df) if df else 0.0
                assert index.idf(term) == idf, (backend, term)
            for query, expected in conjunctions.items():
                assert [row(match) for match in index.conjunction(list(query))] == expected, (
                    backend, query,
                )
            engine = self.engines[backend]
            for query, expected in tops.items():
                count, hits = engine.top(query)
                assert (count, ranking(hits)) == expected, (backend, query)

    def teardown(self):
        try:
            self.drain()
        finally:
            self.disk.close()
            shutil.rmtree(self.scratch, ignore_errors=True)


def run_lifecycle(max_examples, steps):
    with mock.patch.object(segmented, "COMPACT_FANIN", 2):
        run_state_machine_as_test(
            IndexLifecycle,
            settings=settings(
                max_examples=max_examples,
                stateful_step_count=steps,
                derandomize=True,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow],
            ),
        )


def test_index_lifecycle():
    run_lifecycle(max_examples=40, steps=25)


@pytest.mark.slow
def test_index_lifecycle_long_schedules():
    run_lifecycle(max_examples=80, steps=50)
