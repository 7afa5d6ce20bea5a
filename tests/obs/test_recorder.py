"""Tests for the trace-event bus: recorder, sinks, serialization."""

import json

import pytest

from repro.clock import SimClock
from repro.obs import (
    EVENT_KINDS,
    JsonlTraceSink,
    MemorySink,
    NULL_RECORDER,
    NullRecorder,
    PAGE_FETCH,
    Recorder,
    RETRY,
    TraceEvent,
    XHR_CALL,
    diff_traces,
    format_summary,
    from_jsonl,
    normalize_lines,
    summarize,
    to_jsonl,
)


class TestTraceEvent:
    def test_canonical_json_is_sorted_and_compact(self):
        event = TraceEvent(seq=3, t_ms=1.5, kind=PAGE_FETCH, fields={"url": "u", "bytes": 9})
        line = event.to_json()
        assert line == '{"bytes":9,"kind":"page_fetch","seq":3,"t_ms":1.5,"url":"u"}'

    def test_json_round_trip(self):
        event = TraceEvent(seq=0, t_ms=0.0, kind=XHR_CALL, fields={"url": "u", "from_cache": True})
        back = TraceEvent.from_json(event.to_json())
        assert back == event

    def test_jsonl_round_trip_preserves_order(self):
        events = [
            TraceEvent(seq=i, t_ms=float(i), kind=PAGE_FETCH, fields={"url": f"u{i}"})
            for i in range(5)
        ]
        assert from_jsonl(to_jsonl(events)) == events

    def test_kind_vocabulary_is_unique(self):
        assert len(EVENT_KINDS) == len(set(EVENT_KINDS))


class TestRecorder:
    def test_seq_is_monotonic_from_zero(self):
        recorder = Recorder(clock=SimClock())
        for _ in range(4):
            recorder.emit(PAGE_FETCH, url="u")
        assert [event.seq for event in recorder.events] == [0, 1, 2, 3]

    def test_events_stamped_with_virtual_clock(self):
        clock = SimClock()
        recorder = Recorder(clock=clock)
        recorder.emit(PAGE_FETCH, url="u")
        clock.advance(250.0, "network")
        recorder.emit(PAGE_FETCH, url="u")
        assert [event.t_ms for event in recorder.events] == [0.0, 250.0]

    def test_bind_clock_only_binds_once(self):
        recorder = Recorder()
        first, second = SimClock(), SimClock()
        recorder.bind_clock(first)
        recorder.bind_clock(second)
        assert recorder.clock is first

    def test_rebind_clock_forces_new_clock(self):
        recorder = Recorder(clock=SimClock())
        fresh = SimClock()
        recorder.rebind_clock(fresh)
        assert recorder.clock is fresh

    def test_memory_sink_is_default(self):
        recorder = Recorder(clock=SimClock())
        assert isinstance(recorder.sink, MemorySink)


class TestNullRecorder:
    def test_disabled_and_emits_nothing(self):
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.emit(PAGE_FETCH, url="u") is None
        assert NULL_RECORDER.events == []

    def test_shared_singleton_stays_clockless(self):
        NullRecorder().bind_clock(SimClock())
        assert NULL_RECORDER.clock is None


class TestJsonlSink:
    def test_streams_events_to_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(path)
        recorder = Recorder(clock=SimClock(), sink=sink)
        recorder.emit(PAGE_FETCH, url="a")
        recorder.emit(XHR_CALL, url="b", from_cache=False)
        recorder.close()
        events = from_jsonl(path.read_text(encoding="utf-8"))
        assert [event.kind for event in events] == [PAGE_FETCH, XHR_CALL]

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.write(TraceEvent(0, 0.0, PAGE_FETCH))


class TestNormalizer:
    def test_rounds_floats(self):
        line = TraceEvent(0, 1.23456789, PAGE_FETCH, {"x": 0.123456789, "n": 7}).to_json()
        (normalized,) = normalize_lines([line])
        payload = json.loads(normalized)
        assert payload["t_ms"] == 1.234568
        assert payload["x"] == 0.123457
        assert payload["n"] == 7

    def test_skips_blank_lines(self):
        line = TraceEvent(0, 0.0, PAGE_FETCH).to_json()
        assert len(normalize_lines(["", line, "  "])) == 1


class TestDiff:
    def test_identical_traces_produce_no_problems(self):
        lines = [TraceEvent(i, 0.0, PAGE_FETCH, {"url": "u"}).to_json() for i in range(3)]
        assert diff_traces(lines, list(lines)) == []

    def test_mismatch_names_event_index_and_both_lines(self):
        expected = [TraceEvent(i, 0.0, PAGE_FETCH, {"url": "u"}).to_json() for i in range(3)]
        actual = list(expected)
        actual[1] = TraceEvent(1, 0.0, RETRY, {"url": "u"}).to_json()
        problems = diff_traces(expected, actual)
        text = "\n".join(problems)
        assert "event #1 differs" in text
        assert "page_fetch" in text and "retry" in text

    def test_length_mismatch_reported(self):
        lines = [TraceEvent(i, 0.0, PAGE_FETCH).to_json() for i in range(3)]
        problems = diff_traces(lines, lines[:2])
        assert any("length differs" in problem for problem in problems)


class TestSummary:
    def test_counts_span_and_urls(self):
        events = [
            TraceEvent(0, 100.0, PAGE_FETCH, {"url": "a"}),
            TraceEvent(1, 300.0, XHR_CALL, {"url": "a"}),
            TraceEvent(2, 600.0, XHR_CALL, {"url": "b"}),
        ]
        summary = summarize(events)
        assert summary["events"] == 3
        assert summary["by_kind"] == {PAGE_FETCH: 1, XHR_CALL: 2}
        assert summary["span_ms"] == 500.0
        assert summary["distinct_urls"] == 2
        assert summary["busiest_urls"][0] == ("a", 2)

    def test_format_summary_is_readable(self):
        text = format_summary(summarize([TraceEvent(0, 0.0, PAGE_FETCH, {"url": "u"})]))
        assert "events:" in text and "page_fetch" in text
