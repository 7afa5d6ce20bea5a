"""Span trees: reconstruct causal structure from a flat trace.

A trace recorded with ``Recorder(spans=True)`` interleaves paired
``span_start``/``span_end`` events with ordinary point events, all
linked by ``parent_id``.  :class:`SpanTree` folds that flat JSONL
stream back into a forest of :class:`Span` nodes, validating the
nesting as it goes, and charges every span two times:

* **inclusive** — ``end.t_ms - start.t_ms``, the whole subtree's
  virtual wall time;
* **exclusive** — inclusive minus the inclusive time of direct
  children, i.e. the time attributable to the span's own work.

Exclusive times are clamped at zero: per-partition clock rebinds
(:class:`repro.parallel.SimpleAjaxCrawler` starts a fresh
``SimClock`` per partition) mean time is only comparable *within* one
root span, and the builder never compares timestamps across roots.

Validation (strict mode, the default) rejects: duplicate span ids,
``span_end`` without a start, ends out of LIFO order with respect to
the per-parent open set, negative durations, parents that close before
their children, and children whose start refers to an unknown span.
Lenient mode (``strict=False``) keeps going and collects the problems
in :attr:`SpanTree.problems` — useful when doctoring a truncated trace
from a crashed crawl.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from repro.obs.events import SPAN_END, SPAN_START, TraceEvent, from_jsonl

#: Tolerance for float time comparisons (virtual-clock ms).
_EPS = 1e-6


class SpanNestingError(ValueError):
    """The trace's span events do not form a valid tree."""


@dataclass
class Span:
    """One reconstructed span: a node of the causal tree."""

    #: Unique id within one recorder (the ``span_id`` field).
    span_id: int
    #: Span kind — ``crawl``, ``page``, ``fire_event``, ``js_exec``, ...
    kind: str
    #: Parent span id, or None for a root.
    parent_id: Optional[int]
    #: Virtual-clock ms at ``span_start``.
    start_ms: float
    #: Virtual-clock ms at ``span_end`` (None while open / truncated).
    end_ms: Optional[float] = None
    #: Fields of the start event (minus the envelope).
    fields: dict[str, Any] = field(default_factory=dict)
    #: Fields the span_end event added (results, ``error`` flag).
    end_fields: dict[str, Any] = field(default_factory=dict)
    #: Direct children, in start order.
    children: list["Span"] = field(default_factory=list)
    #: Point events parented directly to this span, in seq order.
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return self.end_ms is not None

    @property
    def error(self) -> bool:
        return bool(self.end_fields.get("error"))

    @property
    def inclusive_ms(self) -> float:
        """Whole-subtree virtual time (0.0 for unclosed spans)."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    @property
    def exclusive_ms(self) -> float:
        """Inclusive minus direct children's inclusive, clamped at 0."""
        remaining = self.inclusive_ms
        for child in self.children:
            remaining -= child.inclusive_ms
        return max(0.0, remaining)

    def label(self) -> str:
        """Human-readable frame name for stacks and tables."""
        kind = self.kind
        if kind == "partition" and "partition" in self.fields:
            return f"partition:{self.fields['partition']}"
        if kind == "page" and "url" in self.fields:
            return f"page:{self.fields['url']}"
        return kind

    def walk(self) -> Iterator["Span"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()


class SpanTree:
    """A validated forest of spans plus the point events they own."""

    def __init__(
        self,
        roots: list[Span],
        spans_by_id: dict[int, Span],
        orphan_events: list[TraceEvent],
        problems: list[str],
    ) -> None:
        #: Top-level spans (no parent), in start order.
        self.roots = roots
        self._by_id = spans_by_id
        #: Point events with no (or unknown) parent span.
        self.orphan_events = orphan_events
        #: Validation problems collected in lenient mode.
        self.problems = problems

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent], strict: bool = True) -> "SpanTree":
        """Build (and validate) the tree from an event stream."""
        roots: list[Span] = []
        by_id: dict[int, Span] = {}
        open_ids: set[int] = set()
        orphans: list[TraceEvent] = []
        problems: list[str] = []

        def problem(message: str) -> None:
            if strict:
                raise SpanNestingError(message)
            problems.append(message)

        for event in sorted(events, key=lambda e: e.seq):
            if event.kind == SPAN_START:
                fields = dict(event.fields)
                span_id = fields.pop("span_id", None)
                kind = fields.pop("span", "?")
                parent_id = fields.pop("parent_id", None)
                if span_id is None:
                    problem(f"span_start without span_id at seq {event.seq}")
                    continue
                if span_id in by_id:
                    problem(f"duplicate span_id {span_id} at seq {event.seq}")
                    continue
                span = Span(
                    span_id=span_id,
                    kind=kind,
                    parent_id=parent_id,
                    start_ms=event.t_ms,
                    fields=fields,
                )
                by_id[span_id] = span
                open_ids.add(span_id)
                if parent_id is None:
                    roots.append(span)
                else:
                    parent = by_id.get(parent_id)
                    if parent is None:
                        problem(
                            f"span {span_id} ({kind}) starts under unknown "
                            f"parent {parent_id}"
                        )
                        span.parent_id = None
                        roots.append(span)
                    elif parent_id not in open_ids:
                        problem(
                            f"span {span_id} ({kind}) starts under already-"
                            f"closed parent {parent_id}"
                        )
                        span.parent_id = None
                        roots.append(span)
                    else:
                        parent.children.append(span)
            elif event.kind == SPAN_END:
                fields = dict(event.fields)
                span_id = fields.pop("span_id", None)
                fields.pop("span", None)
                fields.pop("parent_id", None)
                span = by_id.get(span_id)
                if span is None:
                    problem(f"span_end for unknown span {span_id} at seq {event.seq}")
                    continue
                if span.closed:
                    problem(f"span {span_id} ({span.kind}) ended twice")
                    continue
                still_open = [c.span_id for c in span.children if c.span_id in open_ids]
                if still_open:
                    problem(
                        f"span {span_id} ({span.kind}) closed while children "
                        f"{still_open} still open"
                    )
                if event.t_ms < span.start_ms - _EPS:
                    problem(
                        f"span {span_id} ({span.kind}) ends at {event.t_ms} "
                        f"before its start {span.start_ms}"
                    )
                span.end_ms = event.t_ms
                span.end_fields = fields
                open_ids.discard(span_id)
            else:
                parent_id = event.fields.get("parent_id")
                parent = by_id.get(parent_id) if parent_id is not None else None
                if parent is not None:
                    parent.events.append(event)
                else:
                    orphans.append(event)

        for span_id in sorted(open_ids):
            problem(f"span {span_id} ({by_id[span_id].kind}) never ended")

        tree = cls(roots, by_id, orphans, problems)
        tree._check_time_budget(problem)
        return tree

    @classmethod
    def from_jsonl(cls, text: str, strict: bool = True) -> "SpanTree":
        """Parse canonical JSONL then build the tree."""
        return cls.from_events(from_jsonl(text), strict=strict)

    def _check_time_budget(self, problem: Any) -> None:
        """Children's inclusive time must fit inside the parent's."""
        for span in self.walk():
            if not span.closed:
                continue
            child_sum = sum(c.inclusive_ms for c in span.children if c.closed)
            if child_sum > span.inclusive_ms + _EPS:
                problem(
                    f"span {span.span_id} ({span.kind}): children's inclusive "
                    f"time {child_sum:.6f}ms exceeds parent's "
                    f"{span.inclusive_ms:.6f}ms"
                )

    # -- queries ------------------------------------------------------------------

    def get(self, span_id: int) -> Optional[Span]:
        return self._by_id.get(span_id)

    def walk(self) -> Iterator[Span]:
        """Pre-order traversal of the whole forest."""
        for root in self.roots:
            yield from root.walk()

    def by_kind(self, kind: str) -> list[Span]:
        return [span for span in self.walk() if span.kind == kind]

    def __len__(self) -> int:
        return len(self._by_id)


def format_span_tree(tree: SpanTree, max_depth: Optional[int] = None) -> str:
    """Render the forest as an indented text outline."""
    lines: list[str] = []

    def render(span: Span, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        marker = " [error]" if span.error else ("" if span.closed else " [open]")
        lines.append(
            f"{'  ' * depth}{span.label()}  "
            f"incl={span.inclusive_ms:.1f}ms excl={span.exclusive_ms:.1f}ms"
            f"{marker}"
        )
        for child in span.children:
            render(child, depth + 1)

    for root in tree.roots:
        render(root, 0)
    if tree.problems:
        lines.append("")
        lines.append(f"{len(tree.problems)} validation problem(s):")
        for message in tree.problems:
            lines.append(f"  ! {message}")
    return "\n".join(lines)
