"""The /debug/* endpoints and X-Request-Id, over real HTTP sockets."""

import json
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    REQUEST_ID_HEADER,
    SearchServer,
    SearchService,
    ServeConfig,
    TelemetryConfig,
)


def get(url, client="tester", request_id=None):
    """(status, parsed JSON, headers); 4xx/5xx do not raise."""
    headers = {"X-Client-Id": client}
    if request_id is not None:
        headers[REQUEST_ID_HEADER] = request_id
    request = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


@pytest.fixture
def server(engine):
    config = ServeConfig(
        telemetry=TelemetryConfig(sample_every=1, slow_ms=10_000.0)
    )
    with SearchServer(SearchService(engine, config)) as running:
        yield running


class TestRequestId:
    def test_client_request_id_is_echoed_and_traceable(self, server):
        status, _, headers = get(
            f"{server.url}/search?q=morcheeba", request_id="my-req-1"
        )
        assert status == 200
        assert headers[REQUEST_ID_HEADER] == "my-req-1"
        status, trace, _ = get(f"{server.url}/debug/trace?id=my-req-1")
        assert status == 200
        assert trace["request_id"] == "my-req-1"
        assert trace["endpoint"] == "search"
        assert trace["fields"]["query"] == "morcheeba"
        assert trace["fields"]["cached"] is False
        assert trace["fields"]["matches"] == 3
        assert trace["fields"]["completed"] == 3  # a page of ten holds all three

    def test_server_assigns_an_id_when_client_sends_none(self, server):
        status, _, headers = get(f"{server.url}/search?q=morcheeba")
        assert status == 200
        assigned = headers[REQUEST_ID_HEADER]
        assert assigned.startswith("req-")
        status, trace, _ = get(f"{server.url}/debug/trace?id={assigned}")
        assert status == 200
        assert trace["client"] == "tester"

    def test_error_requests_are_retained_in_the_tail(self, engine):
        # sample_every huge: only the tail ring can retain the 400.
        config = ServeConfig(telemetry=TelemetryConfig(sample_every=10**6))
        with SearchServer(SearchService(engine, config)) as server:
            status, _, _ = get(f"{server.url}/search?q=", request_id="bad-1")
            assert status == 400
            status, trace, _ = get(f"{server.url}/debug/trace?id=bad-1")
        assert status == 200
        assert trace["status"] == 400


class TestDebugEndpoints:
    def test_vars_reflects_traffic(self, server):
        get(f"{server.url}/search?q=morcheeba")
        get(f"{server.url}/search?q=morcheeba")  # cache hit
        status, data, _ = get(f"{server.url}/debug/vars")
        assert status == 200
        assert data["endpoints"]["search"]["requests"] == 2.0
        assert data["cache"]["hits"] == 1.0
        assert data["cache"]["misses"] == 1.0
        assert data["endpoints"]["search"]["latency_ms"]["p50"] > 0.0

    def test_slo_endpoint_shape(self, server):
        get(f"{server.url}/search?q=morcheeba")
        status, data, _ = get(f"{server.url}/debug/slo")
        assert status == 200
        assert {entry["name"] for entry in data["slos"]} == {
            "availability",
            "latency-p99",
        }
        assert data["findings"] == []

    def test_slow_log_over_http(self, engine):
        # slow_ms=0: every request counts as slow and lands in the log.
        config = ServeConfig(telemetry=TelemetryConfig(slow_ms=0.0))
        with SearchServer(SearchService(engine, config)) as server:
            get(f"{server.url}/search?q=morcheeba")
            status, data, _ = get(f"{server.url}/debug/slow")
        assert status == 200
        assert len(data["slow"]) == 1
        assert data["slow"][0]["query"] == "morcheeba"

    def test_trace_lookup_errors(self, server):
        status, body, _ = get(f"{server.url}/debug/trace?id=never-seen")
        assert status == 404
        assert "no retained trace" in body["error"]
        status, body, _ = get(f"{server.url}/debug/trace")
        assert status == 400

    def test_throttled_requests_are_counted(self, engine):
        config = ServeConfig(
            rate_limit_rps=0.001,
            rate_limit_burst=2.0,
            telemetry=TelemetryConfig(),
        )
        with SearchServer(SearchService(engine, config)) as server:
            statuses = [
                get(f"{server.url}/search?q=morcheeba", client="burster")[0]
                for _ in range(5)
            ]
            _, data, _ = get(f"{server.url}/debug/vars")
        assert statuses.count(429) == 3
        assert data["admissions"]["throttled"] == 3.0
        # 2 admitted + 3 rejected (/debug/* itself is not admitted).
        assert data["admissions"]["requests"] == 5.0

    def test_disabled_telemetry_turns_debug_into_404(self, engine):
        config = ServeConfig(telemetry=TelemetryConfig(enabled=False))
        with SearchServer(SearchService(engine, config)) as server:
            status, _, headers = get(f"{server.url}/search?q=morcheeba")
            assert status == 200
            assert REQUEST_ID_HEADER not in headers
            for path in ("/debug/vars", "/debug/slo", "/debug/slow"):
                status, body, _ = get(f"{server.url}{path}")
                assert status == 404
                assert "disabled" in body["error"]
