"""The /debug/* endpoints and X-Request-Id, over real HTTP sockets."""

import json
import urllib.error
import urllib.request

import pytest

from repro.net.latency import ConstantLatency
from repro.serve import (
    REQUEST_ID_HEADER,
    SearchServer,
    SearchService,
    ServeConfig,
)
from repro.serve.telemetry import SLOW_MS

from tests.serve.conftest import FakeClock, request_ids


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
    with SearchServer(SearchService(engine)) as running:
        yield running


@pytest.fixture
def slow_server(engine):
    """Every uncached request takes exactly ``SLOW_MS`` on a fake clock
    that the injected latency advances: slow without sleeping."""
    clock = FakeClock(1000.0)
    config = ServeConfig(
        latency_ms=SLOW_MS, latency_distribution=ConstantLatency(1.0)
    )
    service = SearchService(engine, config, clock=clock, sleep=clock.advance)
    with SearchServer(service) as running:
        yield running


class TestRequestId:
    def test_client_request_id_is_echoed_and_traceable(self, server):
        (mine,) = request_ids(1, sampled=True, prefix="my-req")
        status, _, headers = get(
            f"{server.url}/search?q=morcheeba", request_id=mine
        )
        assert status == 200
        assert headers[REQUEST_ID_HEADER] == mine
        status, trace, _ = get(f"{server.url}/debug/trace?id={mine}")
        assert status == 200
        assert trace["request_id"] == mine
        assert trace["endpoint"] == "search"
        assert trace["fields"]["query"] == "morcheeba"
        assert trace["fields"]["cached"] is False
        assert trace["fields"]["matches"] == 3
        assert trace["fields"]["completed"] == 3  # a page of ten holds all three

    def test_server_assigns_an_id_when_client_sends_none(self, slow_server):
        # Slow, so the tail ring keeps it whatever id the server picks.
        status, _, headers = get(f"{slow_server.url}/search?q=morcheeba")
        assert status == 200
        assigned = headers[REQUEST_ID_HEADER]
        assert assigned.startswith("req-")
        status, trace, _ = get(f"{slow_server.url}/debug/trace?id={assigned}")
        assert status == 200
        assert trace["client"] == "tester"

    def test_error_requests_are_retained_in_the_tail(self, server):
        # An id the hash sample skips: only the tail ring can retain the 400.
        (bad,) = request_ids(1, sampled=False, prefix="bad")
        status, _, _ = get(f"{server.url}/search?q=", request_id=bad)
        assert status == 400
        status, trace, _ = get(f"{server.url}/debug/trace?id={bad}")
        assert status == 200
        assert trace["status"] == 400

    def test_error_answers_carry_the_server_assigned_id(self, server):
        # The id of a failed request is the one thing the client needs
        # to ask /debug/trace what went wrong.
        status, _, headers = get(f"{server.url}/search?q=")
        assert status == 400
        assigned = headers[REQUEST_ID_HEADER]
        status, trace, _ = get(f"{server.url}/debug/trace?id={assigned}")
        assert status == 200
        assert trace["status"] == 400
        status, _, headers = get(f"{server.url}/result?uri=url1&state=s0")
        assert status == 404  # no models: result rendering not configured
        assert headers[REQUEST_ID_HEADER].startswith("req-")

    def test_a_500_carries_the_request_id(self, server, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(server.service.engine, "top", broken)
        status, body, headers = get(
            f"{server.url}/search?q=morcheeba", request_id="boom-1"
        )
        assert (status, body["status"]) == (500, 500)
        assert headers[REQUEST_ID_HEADER] == "boom-1"
        status, trace, _ = get(f"{server.url}/debug/trace?id=boom-1")
        assert (status, trace["status"]) == (200, 500)


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

    def test_slow_log_over_http(self, slow_server):
        get(f"{slow_server.url}/search?q=morcheeba")
        status, data, _ = get(f"{slow_server.url}/debug/slow")
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
        config = ServeConfig(rate_limit_rps=0.001, rate_limit_burst=2.0)
        with SearchServer(SearchService(engine, config)) as server:
            answers = [
                get(f"{server.url}/search?q=morcheeba", client="burster")
                for _ in range(5)
            ]
            _, data, _ = get(f"{server.url}/debug/vars")
        statuses = [status for status, _, _ in answers]
        assert statuses.count(429) == 3
        assert all(REQUEST_ID_HEADER in headers for _, _, headers in answers)
        assert data["admissions"]["throttled"] == 3.0
        # 2 admitted + 3 rejected (/debug/* itself is not admitted).
        assert data["admissions"]["requests"] == 5.0
