"""The span protocol and :class:`SpanTree` reconstruction."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.obs import NULL_RECORDER, NULL_SPAN, SPAN_END, SPAN_START
from repro.obs.events import TraceEvent, from_jsonl, to_jsonl
from repro.obs.recorder import Recorder
from repro.obs.spans import SpanNestingError, SpanTree, format_span_tree


def spanning_recorder():
    return Recorder(clock=SimClock(), spans=True)


# -- emission ------------------------------------------------------------------------


class TestSpanEmission:
    def test_span_emits_paired_start_end(self):
        recorder = spanning_recorder()
        with recorder.span("crawl", pages=3):
            recorder.clock.advance(10.0)
        kinds = [e.kind for e in recorder.events]
        assert kinds == [SPAN_START, SPAN_END]
        start, end = recorder.events
        assert start.fields["span"] == "crawl"
        assert start.fields["pages"] == 3
        assert end.fields["span_id"] == start.fields["span_id"]
        assert end.t_ms - start.t_ms == pytest.approx(10.0)

    def test_nested_spans_carry_parent_id(self):
        recorder = spanning_recorder()
        with recorder.span("crawl"):
            with recorder.span("page", url="u"):
                recorder.emit("page_fetch", url="u")
        start_crawl, start_page, fetch, end_page, end_crawl = recorder.events
        assert "parent_id" not in start_crawl.fields
        assert start_page.fields["parent_id"] == start_crawl.fields["span_id"]
        assert fetch.fields["parent_id"] == start_page.fields["span_id"]
        # Ends parent to the *enclosing* span, mirroring the starts.
        assert end_page.fields["parent_id"] == start_crawl.fields["span_id"]
        assert "parent_id" not in end_crawl.fields

    def test_annotate_lands_on_span_end(self):
        recorder = spanning_recorder()
        with recorder.span("page") as span:
            span.annotate(states=7)
        assert recorder.events[-1].fields["states"] == 7

    def test_exception_marks_span_as_error(self):
        recorder = spanning_recorder()
        with pytest.raises(RuntimeError):
            with recorder.span("page"):
                raise RuntimeError("boom")
        end = recorder.events[-1]
        assert end.kind == SPAN_END
        assert end.fields["error"] is True

    def test_explicit_parent_id_not_overwritten(self):
        recorder = spanning_recorder()
        with recorder.span("crawl"):
            event = recorder.emit("retry", parent_id=99)
        assert event.fields["parent_id"] == 99

    def test_spans_off_emits_nothing_and_injects_nothing(self):
        recorder = Recorder(clock=SimClock())
        with recorder.span("crawl") as span:
            span.annotate(ignored=True)
            event = recorder.emit("page_fetch", url="u")
        assert span is NULL_SPAN
        assert "parent_id" not in event.fields
        assert [e.kind for e in recorder.events] == ["page_fetch"]

    def test_null_recorder_span_is_noop(self):
        with NULL_RECORDER.span("crawl") as span:
            span.annotate(x=1)
        assert span is NULL_SPAN
        assert NULL_RECORDER.events == []


# -- reconstruction ------------------------------------------------------------------


class TestSpanTree:
    def test_round_trips_through_jsonl(self):
        recorder = spanning_recorder()
        with recorder.span("crawl"):
            recorder.clock.advance(1.0)
            with recorder.span("page", url="u") as page:
                recorder.clock.advance(5.0)
                recorder.emit("page_fetch", url="u", bytes=100)
                page.annotate(states=2)
            recorder.clock.advance(2.0)
        tree = SpanTree.from_events(from_jsonl(to_jsonl(recorder.events)))
        assert not tree.problems
        assert len(tree) == 2
        (crawl,) = tree.roots
        assert crawl.kind == "crawl"
        (page_span,) = crawl.children
        assert page_span.fields == {"url": "u"}
        assert page_span.end_fields == {"states": 2}
        assert [e.kind for e in page_span.events] == ["page_fetch"]
        assert crawl.inclusive_ms == pytest.approx(8.0)
        assert page_span.inclusive_ms == pytest.approx(5.0)
        assert crawl.exclusive_ms == pytest.approx(3.0)
        assert page_span.exclusive_ms == pytest.approx(5.0)

    def test_orphan_point_events_collected(self):
        events = [TraceEvent(0, 0.0, "page_fetch", {"url": "u"})]
        tree = SpanTree.from_events(events)
        assert tree.roots == []
        assert len(tree.orphan_events) == 1

    def _events(self, *tuples):
        return [TraceEvent(seq, t, kind, dict(fields)) for seq, t, kind, fields in tuples]

    def test_duplicate_span_id_rejected(self):
        events = self._events(
            (0, 0.0, SPAN_START, {"span": "a", "span_id": 1}),
            (1, 1.0, SPAN_START, {"span": "b", "span_id": 1}),
        )
        with pytest.raises(SpanNestingError, match="duplicate span_id"):
            SpanTree.from_events(events)

    def test_end_without_start_rejected(self):
        events = self._events((0, 0.0, SPAN_END, {"span": "a", "span_id": 5}),)
        with pytest.raises(SpanNestingError, match="unknown span"):
            SpanTree.from_events(events)

    def test_double_end_rejected(self):
        events = self._events(
            (0, 0.0, SPAN_START, {"span": "a", "span_id": 1}),
            (1, 1.0, SPAN_END, {"span": "a", "span_id": 1}),
            (2, 2.0, SPAN_END, {"span": "a", "span_id": 1}),
        )
        with pytest.raises(SpanNestingError, match="ended twice"):
            SpanTree.from_events(events)

    def test_end_before_start_rejected(self):
        events = self._events(
            (0, 10.0, SPAN_START, {"span": "a", "span_id": 1}),
            (1, 5.0, SPAN_END, {"span": "a", "span_id": 1}),
        )
        with pytest.raises(SpanNestingError, match="before its start"):
            SpanTree.from_events(events)

    def test_parent_closing_over_open_child_rejected(self):
        events = self._events(
            (0, 0.0, SPAN_START, {"span": "a", "span_id": 1}),
            (1, 1.0, SPAN_START, {"span": "b", "span_id": 2, "parent_id": 1}),
            (2, 2.0, SPAN_END, {"span": "a", "span_id": 1}),
        )
        with pytest.raises(SpanNestingError, match="still open"):
            SpanTree.from_events(events)

    def test_never_ended_span_rejected_strict_kept_lenient(self):
        events = self._events((0, 0.0, SPAN_START, {"span": "a", "span_id": 1}),)
        with pytest.raises(SpanNestingError, match="never ended"):
            SpanTree.from_events(events)
        tree = SpanTree.from_events(events, strict=False)
        assert len(tree.problems) == 1
        (span,) = tree.roots
        assert not span.closed
        assert span.inclusive_ms == 0.0

    def test_unknown_parent_reparented_to_root_in_lenient_mode(self):
        events = self._events(
            (0, 0.0, SPAN_START, {"span": "b", "span_id": 2, "parent_id": 42}),
            (1, 1.0, SPAN_END, {"span": "b", "span_id": 2}),
        )
        tree = SpanTree.from_events(events, strict=False)
        assert [s.kind for s in tree.roots] == ["b"]
        assert tree.problems and "unknown" in tree.problems[0]

    def test_child_exceeding_parent_budget_rejected(self):
        events = self._events(
            (0, 0.0, SPAN_START, {"span": "a", "span_id": 1}),
            (1, 0.0, SPAN_START, {"span": "b", "span_id": 2, "parent_id": 1}),
            (2, 9.0, SPAN_END, {"span": "b", "span_id": 2}),
            # Parent closes "after" the child per seq but earlier on the
            # clock: the child's inclusive time overflows the parent's.
            (3, 5.0, SPAN_END, {"span": "a", "span_id": 1}),
        )
        with pytest.raises(SpanNestingError, match="exceeds parent"):
            SpanTree.from_events(events)

    def test_format_span_tree_renders_outline(self):
        recorder = spanning_recorder()
        with recorder.span("crawl"):
            with recorder.span("page", url="u"):
                recorder.clock.advance(4.0)
        text = format_span_tree(SpanTree.from_events(recorder.events))
        assert "crawl" in text
        assert "  page:u" in text
        assert "incl=4.0ms" in text

    def test_max_depth_truncates_rendering(self):
        recorder = spanning_recorder()
        with recorder.span("crawl"):
            with recorder.span("page", url="u"):
                pass
        text = format_span_tree(SpanTree.from_events(recorder.events), max_depth=0)
        assert "page" not in text


# -- property: the emitted protocol always reconstructs, and children fit -------------


@st.composite
def span_programs(draw):
    """A random well-nested program: (push kind, advance ms, pop) ops."""
    ops = []
    depth = 0
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0 or depth == 0:
            ops.append(("push", draw(st.sampled_from(["crawl", "page", "js", "xhr"]))))
            depth += 1
        elif choice == 1:
            ops.append(("advance", draw(st.floats(min_value=0.0, max_value=50.0))))
        else:
            ops.append(("pop", None))
            depth -= 1
    ops.extend(("pop", None) for _ in range(depth))
    return ops


@given(span_programs())
@settings(max_examples=60, deadline=None)
def test_emitted_spans_always_form_valid_tree(ops):
    recorder = spanning_recorder()
    stack = []
    for op, arg in ops:
        if op == "push":
            handle = recorder.span(arg)
            handle.__enter__()
            stack.append(handle)
        elif op == "advance":
            recorder.clock.advance(arg)
        else:
            stack.pop().__exit__(None, None, None)
    tree = SpanTree.from_events(from_jsonl(to_jsonl(recorder.events)))  # strict: must not raise
    assert not tree.problems
    for span in tree.walk():
        child_sum = sum(c.inclusive_ms for c in span.children)
        # Children's inclusive time fits in the parent; exclusive is the rest.
        assert child_sum <= span.inclusive_ms + 1e-6
        assert span.exclusive_ms == pytest.approx(
            span.inclusive_ms - child_sum, abs=1e-6
        )


def test_span_events_are_canonical_json():
    recorder = spanning_recorder()
    with recorder.span("crawl", pages=1):
        pass
    for event in recorder.events:
        line = event.to_json()
        assert json.loads(line)["kind"] in (SPAN_START, SPAN_END)
        assert line == TraceEvent.from_json(line).to_json()
