"""Edge cases of the golden-trace comparison primitives."""

from repro.clock import SimClock
from repro.obs.events import TraceEvent, to_jsonl
from repro.obs.recorder import Recorder
from repro.obs.trace import diff_traces, normalize_lines


def lines_of(*events):
    return to_jsonl(list(events)).splitlines()


class TestNormalizeLines:
    def test_empty_input(self):
        assert normalize_lines([]) == []

    def test_blank_lines_dropped(self):
        lines = normalize_lines(["", "  ", '{"seq":0,"t_ms":0.0,"kind":"retry"}'])
        assert len(lines) == 1

    def test_round_floats_canonicalizes_repr_drift(self):
        a = TraceEvent(0, 0.1234567891, "retry", {"backoff_ms": 10.00000049})
        b = TraceEvent(0, 0.1234567222, "retry", {"backoff_ms": 10.00000001})
        assert normalize_lines(lines_of(a)) == normalize_lines(lines_of(b))

    def test_non_float_fields_untouched(self):
        event = TraceEvent(0, 0.0, "event_fired", {"attempt": 3, "ok": True})
        (line,) = normalize_lines(lines_of(event))
        assert '"attempt":3' in line
        assert '"ok":true' in line


class TestDiffTraces:
    def test_equal_traces_no_problems(self):
        lines = ['{"kind":"retry","seq":0,"t_ms":0.0}']
        assert diff_traces(lines, lines) == []

    def test_both_empty(self):
        assert diff_traces([], []) == []

    def test_length_mismatch_reported_with_tail(self):
        base = ['{"kind":"retry","seq":0,"t_ms":0.0}']
        extra = base + ['{"kind":"retry","seq":1,"t_ms":1.0}']
        problems = diff_traces(base, extra)
        assert any("length differs" in p for p in problems)
        assert any("unexpected extra" in p for p in problems)
        problems = diff_traces(extra, base)
        assert any("missing from actual" in p for p in problems)

    def test_mismatch_shows_both_lines_and_context(self):
        expected = [f'{{"kind":"retry","seq":{i},"t_ms":0.0}}' for i in range(4)]
        actual = list(expected)
        actual[2] = '{"kind":"xhr_call","seq":2,"t_ms":0.0}'
        problems = diff_traces(expected, actual)
        assert any("event #2 differs" in p for p in problems)
        assert any(p.strip().startswith("- expected") for p in problems)
        assert any(p.strip().startswith("+ actual") for p in problems)
        assert any(p.strip().startswith("=") for p in problems)  # context line

    def test_mismatch_cap_suppresses_the_tail(self):
        expected = [f'{{"kind":"a","seq":{i},"t_ms":0.0}}' for i in range(30)]
        actual = [f'{{"kind":"b","seq":{i},"t_ms":0.0}}' for i in range(30)]
        problems = diff_traces(expected, actual, max_mismatches=3)
        assert problems[-1] == "... further mismatches suppressed"

    def test_equal_clock_events_compare_in_seq_order(self):
        """Events at the same virtual instant are still strictly ordered
        by seq, so reordering them is a detected difference, not drift."""
        recorder = Recorder(clock=SimClock())
        recorder.emit("event_fired", state_id="s1")
        recorder.emit("event_fired", state_id="s2")
        lines = normalize_lines(to_jsonl(recorder.events).splitlines())
        swapped = [lines[1], lines[0]]
        assert diff_traces(lines, swapped)

    def test_normalized_traces_diff_clean_after_masking(self):
        """Rounding masks digits below the sixth, and only those: every
        field is asserted, so a real change still differs."""
        a = TraceEvent(0, 5.0, "page_fetch", {"url": "u", "latency_ms": 1.0000001})
        b = TraceEvent(0, 5.0, "page_fetch", {"url": "u", "latency_ms": 1.0000004})
        c = TraceEvent(0, 5.0, "page_fetch", {"url": "u", "latency_ms": 2.0})
        assert diff_traces(normalize_lines(lines_of(a)), normalize_lines(lines_of(b))) == []
        assert diff_traces(normalize_lines(lines_of(a)), normalize_lines(lines_of(c)))
