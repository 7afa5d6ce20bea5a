"""The AJAX page model: a transition graph per URL (chapter 2).

One :class:`ApplicationModel` holds all states reached on one AJAX page,
the transitions (events) connecting them, and the bookkeeping for
duplicate elimination.  It supports:

* hash-based state identity (``contains``/``resolve``),
* breadth-first event-path extraction for result aggregation (§5.4),
* JSON round-tripping (the thesis serialized models to disk between the
  crawling and indexing phases, §6.3.2).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Optional

from repro.errors import CrawlerError
from repro.model.state import State
from repro.model.transition import EventAnnotation, Transition


class ApplicationModel:
    """The transition graph of one AJAX page."""

    def __init__(self, url: str) -> None:
        self.url = url
        self._states: dict[str, State] = {}
        self._by_hash: dict[str, str] = {}
        self._transitions: list[Transition] = []
        self._outgoing: dict[str, list[Transition]] = {}
        self.initial_state_id: Optional[str] = None

    # -- states -------------------------------------------------------------------

    def add_state(
        self,
        content_hash: str,
        text: str,
        html: Optional[str] = None,
        depth: int = 0,
    ) -> tuple[State, bool]:
        """Add (or resolve) a state by content hash.

        Returns ``(state, created)``: when a state with the same hash
        already exists it is returned with ``created=False`` — this is
        the duplicate elimination of section 3.2.
        """
        existing_id = self._by_hash.get(content_hash)
        if existing_id is not None:
            return self._states[existing_id], False
        state = State(
            state_id=f"s{len(self._states)}",
            content_hash=content_hash,
            text=text,
            html=html,
            depth=depth,
        )
        self._states[state.state_id] = state
        self._by_hash[content_hash] = state.state_id
        if self.initial_state_id is None:
            self.initial_state_id = state.state_id
        return state, True

    def resolve_hash(self, content_hash: str) -> Optional[State]:
        """The state with this content hash, if any."""
        state_id = self._by_hash.get(content_hash)
        return self._states[state_id] if state_id is not None else None

    def get_state(self, state_id: str) -> State:
        try:
            return self._states[state_id]
        except KeyError:
            raise CrawlerError(f"unknown state {state_id!r} in model of {self.url}") from None

    @property
    def initial_state(self) -> State:
        if self.initial_state_id is None:
            raise CrawlerError(f"model of {self.url} has no states")
        return self._states[self.initial_state_id]

    def states(self) -> list[State]:
        """All states in insertion (= discovery) order."""
        return list(self._states.values())

    @property
    def num_states(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[State]:
        return iter(self._states.values())

    def __len__(self) -> int:
        return len(self._states)

    # -- transitions -----------------------------------------------------------------

    def add_transition(
        self,
        from_state: State,
        to_state: State,
        event: EventAnnotation,
        actions: tuple[str, ...] = ("innerHTML",),
        modified: tuple[str, ...] = (),
    ) -> Transition:
        """Record one observed transition (may be a duplicate edge)."""
        transition = Transition(
            from_state=from_state.state_id,
            to_state=to_state.state_id,
            event=event,
            actions=actions,
            modified=modified,
        )
        self._transitions.append(transition)
        self._outgoing.setdefault(from_state.state_id, []).append(transition)
        return transition

    def transitions(self) -> list[Transition]:
        return list(self._transitions)

    @property
    def num_transitions(self) -> int:
        return len(self._transitions)

    def outgoing(self, state_id: str) -> list[Transition]:
        """Transitions leaving ``state_id``."""
        return list(self._outgoing.get(state_id, []))

    # -- traversal ----------------------------------------------------------------------

    def event_path_to(self, state_id: str) -> list[Transition]:
        """Shortest event sequence from the initial state to ``state_id``.

        This is step 1 of the result aggregation algorithm (§5.4):
        "Extract from the page model the path from the initial state to
        the desired state."
        """
        if self.initial_state_id is None:
            raise CrawlerError("empty model has no paths")
        if state_id == self.initial_state_id:
            return []
        self.get_state(state_id)  # validate
        frontier = [self.initial_state_id]
        parents: dict[str, Transition] = {}
        seen = {self.initial_state_id}
        while frontier:
            next_frontier: list[str] = []
            for current in frontier:
                for transition in self._outgoing.get(current, []):
                    target = transition.to_state
                    if target in seen:
                        continue
                    parents[target] = transition
                    if target == state_id:
                        return self._unwind(parents, state_id)
                    seen.add(target)
                    next_frontier.append(target)
            frontier = next_frontier
        raise CrawlerError(f"state {state_id!r} is unreachable from the initial state")

    def _unwind(self, parents: dict[str, Transition], state_id: str) -> list[Transition]:
        path: list[Transition] = []
        current = state_id
        while current != self.initial_state_id:
            transition = parents[current]
            path.append(transition)
            current = transition.from_state
        path.reverse()
        return path

    def compute_depths(self) -> None:
        """Set every state's ``depth`` to its BFS distance from s0."""
        if self.initial_state_id is None:
            return
        depths = {self.initial_state_id: 0}
        frontier = [self.initial_state_id]
        while frontier:
            next_frontier: list[str] = []
            for current in frontier:
                for transition in self._outgoing.get(current, []):
                    target = transition.to_state
                    if target not in depths:
                        depths[target] = depths[current] + 1
                        next_frontier.append(target)
            frontier = next_frontier
        for state_id, depth in depths.items():
            self._states[state_id].depth = depth

    # -- visualization -----------------------------------------------------------------------

    def to_dot(self, max_label_length: int = 30) -> str:
        """The transition graph in Graphviz DOT format (Figure 2.2).

        States become nodes (the initial state doubly circled), events
        become labelled edges — handy for eyeballing crawled models.
        """
        lines = ["digraph app_model {", "  rankdir=LR;"]
        for state in self._states.values():
            shape = (
                "doublecircle" if state.state_id == self.initial_state_id else "circle"
            )
            preview = " ".join(state.text.split())[:max_label_length]
            lines.append(
                f'  {state.state_id} [shape={shape} label="{state.state_id}\\n{preview}"];'
            )
        for transition in self._transitions:
            label = transition.event.handler.replace('"', "'")
            lines.append(
                f'  {transition.from_state} -> {transition.to_state} [label="{label}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    # -- serialization ----------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "url": self.url,
            "initial_state_id": self.initial_state_id,
            "states": [state.to_dict() for state in self._states.values()],
            "transitions": [transition.to_dict() for transition in self._transitions],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ApplicationModel":
        model = cls(url=data["url"])
        for state_data in data["states"]:
            state = State.from_dict(state_data)
            model._states[state.state_id] = state
            model._by_hash[state.content_hash] = state.state_id
        model.initial_state_id = data.get("initial_state_id")
        for transition_data in data["transitions"]:
            transition = Transition.from_dict(transition_data)
            model._transitions.append(transition)
            model._outgoing.setdefault(transition.from_state, []).append(transition)
        return model

    def save(self, path: str | Path) -> None:
        """Write the model as JSON (the ``*.bin`` files of §6.3.2)."""
        Path(path).write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "ApplicationModel":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
