"""Unit tests for the application model (transition graph)."""

import pytest

from repro.errors import CrawlerError
from repro.model import ApplicationModel, EventAnnotation, State, Transition


URL = "http://simtube.test/watch?v=v00000"


def event(handler="nextPage()", source="#next", trigger="onclick"):
    return EventAnnotation(source=source, trigger=trigger, handler=handler)


def three_state_model():
    """s0 -> s1 -> s2 with prev edges back, like comment pagination."""
    model = ApplicationModel(URL)
    s0, _ = model.add_state("h0", "page one text")
    s1, _ = model.add_state("h1", "page two text")
    s2, _ = model.add_state("h2", "page three text")
    model.add_transition(s0, s1, event("nextPage()"))
    model.add_transition(s1, s2, event("nextPage()"))
    model.add_transition(s1, s0, event("prevPage()", source="#prev"))
    model.add_transition(s2, s1, event("prevPage()", source="#prev"))
    model.add_transition(s0, s1, event("jumpToPage(2)", source="#page2"))
    return model


class TestStates:
    def test_sequential_ids(self):
        model = ApplicationModel(URL)
        s0, created0 = model.add_state("a", "ta")
        s1, created1 = model.add_state("b", "tb")
        assert (s0.state_id, s1.state_id) == ("s0", "s1")
        assert created0 and created1

    def test_first_state_is_initial(self):
        model = ApplicationModel(URL)
        s0, _ = model.add_state("a", "ta")
        assert model.initial_state is s0

    def test_duplicate_hash_resolves_to_existing(self):
        model = ApplicationModel(URL)
        s0, _ = model.add_state("same", "text")
        dup, created = model.add_state("same", "text")
        assert dup is s0
        assert created is False
        assert model.num_states == 1

    def test_contains_and_resolve(self):
        model = ApplicationModel(URL)
        s0, _ = model.add_state("a", "t")
        assert model.resolve_hash("a") is s0
        assert model.resolve_hash("b") is None

    def test_get_unknown_state_raises(self):
        with pytest.raises(CrawlerError):
            ApplicationModel(URL).get_state("s9")

    def test_empty_model_initial_raises(self):
        with pytest.raises(CrawlerError):
            _ = ApplicationModel(URL).initial_state

    def test_state_index(self):
        assert State("s12", "h", "t").index == 12


class TestTransitions:
    def test_transitions_recorded(self):
        model = three_state_model()
        assert model.num_transitions == 5

    def test_outgoing(self):
        model = three_state_model()
        handlers = [t.event.handler for t in model.outgoing("s0")]
        assert handlers == ["nextPage()", "jumpToPage(2)"]
        assert model.outgoing("s2")[0].event.handler == "prevPage()"
        assert model.outgoing("s99") == []

    def test_parallel_edges_allowed(self):
        """Two different events may connect the same pair of states
        (Table 2.1: next and 'page 2' both lead s1 -> s2)."""
        model = three_state_model()
        to_s1 = [t for t in model.outgoing("s0") if t.to_state == "s1"]
        assert len(to_s1) == 2


class TestEventPaths:
    def test_path_to_initial_is_empty(self):
        model = three_state_model()
        assert model.event_path_to("s0") == []

    def test_shortest_path(self):
        model = three_state_model()
        path = model.event_path_to("s2")
        assert [t.to_state for t in path] == ["s1", "s2"]
        assert all(isinstance(t, Transition) for t in path)

    def test_unreachable_state_raises(self):
        model = ApplicationModel(URL)
        model.add_state("a", "t")
        model.add_state("island", "t2")
        with pytest.raises(CrawlerError):
            model.event_path_to("s1")

    def test_unknown_state_raises(self):
        with pytest.raises(CrawlerError):
            three_state_model().event_path_to("s42")

    def test_compute_depths(self):
        model = three_state_model()
        model.compute_depths()
        depths = {s.state_id: s.depth for s in model.states()}
        assert depths == {"s0": 0, "s1": 1, "s2": 2}


class TestSerialization:
    def test_round_trip_dict(self):
        model = three_state_model()
        clone = ApplicationModel.from_dict(model.to_dict())
        assert clone.url == model.url
        assert clone.num_states == model.num_states
        assert clone.num_transitions == model.num_transitions
        assert clone.initial_state_id == model.initial_state_id
        assert [t.event.handler for t in clone.outgoing("s0")] == [
            t.event.handler for t in model.outgoing("s0")
        ]

    def test_round_trip_preserves_paths(self):
        model = three_state_model()
        clone = ApplicationModel.from_dict(model.to_dict())
        original = [t.event.handler for t in model.event_path_to("s2")]
        restored = [t.event.handler for t in clone.event_path_to("s2")]
        assert original == restored

    def test_save_load(self, tmp_path):
        model = three_state_model()
        path = tmp_path / "model.json"
        model.save(path)
        loaded = ApplicationModel.load(path)
        assert loaded.num_states == 3
        assert loaded.get_state("s1").text == "page two text"

    def test_state_round_trip_with_annotations(self):
        state = State("s1", "h", "t", html="<html></html>", depth=2)
        state.annotations["k"] = "v"
        clone = State.from_dict(state.to_dict())
        assert clone == state
