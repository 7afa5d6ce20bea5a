"""Unit tests for the live serving telemetry (virtual clock, no HTTP)."""

import pytest

from repro.obs.slo import BURN_RATE_RULE
from repro.obs.window import DEFAULT_WINDOW_S
from repro.serve.telemetry import (
    DEFAULT_SLOS,
    SLOW_MS,
    SLOWLOG_CAPACITY,
    TRACE_CAPACITY,
    ServingTelemetry,
    format_top,
    sample_request,
)

from tests.serve.conftest import FakeClock, request_ids


def telemetry() -> tuple[ServingTelemetry, FakeClock]:
    clock = FakeClock(1000.0)
    return ServingTelemetry(clock), clock


def finish_one(
    tel,
    endpoint="search",
    status=200,
    duration_ms=1.0,
    request_id=None,
    **fields,
):
    trace = tel.begin(endpoint, "client", request_id)
    if fields:
        trace.annotate(**fields)
    tel.finish(trace, status, duration_ms)
    return trace


class TestSampling:
    def test_deterministic_and_roughly_one_in_n(self):
        decisions = [sample_request(f"req-{i:08d}", 16) for i in range(1600)]
        assert decisions == [sample_request(f"req-{i:08d}", 16) for i in range(1600)]
        sampled = sum(decisions)
        assert 50 <= sampled <= 150  # ~100 expected

    def test_sample_every_one_keeps_everything(self):
        assert all(sample_request(f"r{i}", 1) for i in range(20))

    def test_next_request_id_is_sequential(self):
        tel, _ = telemetry()
        assert tel.next_request_id() == "req-00000001"
        assert tel.next_request_id() == "req-00000002"


class TestWindowsAndVars:
    def test_requests_and_latency_are_booked_per_endpoint(self):
        tel, clock = telemetry()
        for duration in (1.0, 2.0, 3.0):
            finish_one(tel, duration_ms=duration)
            clock.advance(1.0)
        finish_one(tel, endpoint="result", status=500, duration_ms=50.0)
        data = tel.vars()
        search = data["endpoints"]["search"]
        assert search["requests"] == 3.0
        assert search["errors"] == 0.0
        assert search["latency_ms"]["count"] == 3
        result = data["endpoints"]["result"]
        assert result["errors"] == 1.0
        assert data["lifetime_latency_ms"]["count"] == 4
        assert data["admissions"]["requests"] == 4.0

    def test_cache_and_index_accounting(self):
        tel, _ = telemetry()
        finish_one(tel, cached=True)
        finish_one(tel, cached=False)
        trace = tel.begin("search", "c")
        trace.annotate(cached=False)
        trace.add_index_stats(10, 30, 500)
        tel.finish(trace, 200, 1.0)
        data = tel.vars()
        assert data["cache"]["hits"] == 1.0
        assert data["cache"]["misses"] == 2.0
        assert data["cache"]["hit_rate"] == pytest.approx(1 / 3)
        assert data["index"]["blocks_decoded"] == 10.0
        assert data["index"]["blocks_skipped"] == 30.0
        assert data["index"]["decode_fraction"] == pytest.approx(0.25)

    def test_windows_expire_on_the_clock(self):
        tel, clock = telemetry()
        finish_one(tel)
        clock.advance(DEFAULT_WINDOW_S + 1.0)
        data = tel.vars()
        assert data["endpoints"]["search"]["requests"] == 0.0


class TestTraceRetention:
    def test_sampled_ring_keeps_and_evicts_lru(self):
        tel, _ = telemetry()
        ids = request_ids(TRACE_CAPACITY + 1, sampled=True)
        for request_id in ids:
            finish_one(tel, request_id=request_id)
        assert tel.trace(ids[0]) is None
        assert tel.trace(ids[-1])["request_id"] == ids[-1]
        assert tel.vars()["traces"]["sampled"] == TRACE_CAPACITY

    def test_tail_always_retains_slow_and_error_requests(self):
        # Ids the hash sample skips: retention must come from the tail
        # ring alone.
        tel, _ = telemetry()
        fast, slow, boom = request_ids(3, sampled=False)
        finish_one(tel, request_id=fast, duration_ms=1.0)
        finish_one(tel, request_id=slow, duration_ms=SLOW_MS * 1.5)
        finish_one(tel, request_id=boom, status=502, duration_ms=1.0)
        assert tel.trace(fast) is None
        assert tel.trace(slow)["duration_ms"] == SLOW_MS * 1.5
        assert tel.trace(boom)["status"] == 502

    def test_slowlog_is_newest_first_and_bounded(self):
        tel, _ = telemetry()
        for index in range(SLOWLOG_CAPACITY + 1):
            finish_one(
                tel, request_id=f"s-{index}", duration_ms=SLOW_MS, query=f"q{index}"
            )
        slow = tel.slow_queries()
        assert [entry["request_id"] for entry in slow] == [
            f"s-{index}" for index in range(SLOWLOG_CAPACITY, 0, -1)
        ]
        assert slow[0]["query"] == f"q{SLOWLOG_CAPACITY}"

    def test_trace_includes_index_stats(self):
        tel, _ = telemetry()
        (request_id,) = request_ids(1, sampled=True)
        trace = tel.begin("search", "c", request_id)
        trace.add_index_stats(4, 12, 100)
        tel.finish(trace, 200, 1.0)
        found = tel.trace(request_id)
        assert found["index"]["decode_fraction"] == pytest.approx(0.25)


class TestLiveDoctor:
    def test_healthy_traffic_yields_no_findings(self):
        tel, clock = telemetry()
        for index in range(30):
            finish_one(tel, duration_ms=1.0, cached=index % 2 == 0)
            clock.advance(0.5)
        assert tel.diagnose() == []
        assert tel.slo_status()["findings"] == []
        assert set(tel.vars()["slo"].values()) == {0.0}  # no budget spent

    def test_cache_collapse_fires_below_hit_rate_floor(self):
        tel, _ = telemetry()
        for _ in range(25):
            finish_one(tel, cached=False)
        rules = {f.rule for f in tel.diagnose()}
        assert "serve-cache-collapse" in rules

    def test_throttle_storm_fires_on_429_share(self):
        tel, _ = telemetry()
        for _ in range(10):
            finish_one(tel)
        for _ in range(10):
            tel.record_rejection()
        findings = {f.rule: f for f in tel.diagnose()}
        assert "throttle-storm" in findings
        assert findings["throttle-storm"].signal == pytest.approx(0.5)

    def test_read_amplification_fires_when_skipping_disengages(self):
        tel, _ = telemetry()
        trace = tel.begin("search", "c")
        trace.add_index_stats(300, 100, 5000)
        tel.finish(trace, 200, 1.0)
        rules = {f.rule for f in tel.diagnose()}
        assert "segment-read-amplification" in rules

    def test_burn_rate_findings_flow_through(self):
        tel, clock = telemetry()
        for _ in range(20):
            finish_one(tel, status=500)
            clock.advance(1.0)
        rules = [f.rule for f in tel.diagnose()]
        assert BURN_RATE_RULE in rules

    def test_slo_status_lists_every_configured_objective(self):
        tel, _ = telemetry()
        names = [entry["name"] for entry in tel.slo_status()["slos"]]
        assert names == [slo.name for slo in DEFAULT_SLOS]


class TestFormatTop:
    def test_renders_endpoints_and_rates(self):
        tel, _ = telemetry()
        finish_one(tel, duration_ms=3.0, cached=True)
        finish_one(tel, endpoint="result", duration_ms=8.0)
        screen = format_top(tel.vars())
        assert "repro-ajax top" in screen
        assert "search" in screen and "result" in screen
        assert "hit rate" in screen
        assert "slo budget spent" in screen

    def test_renders_empty_vars(self):
        tel, _ = telemetry()
        assert "repro-ajax top" in format_top(tel.vars())
