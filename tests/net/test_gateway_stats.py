"""Unit tests for the network gateway and statistics."""

import pytest

from repro.clock import CostModel, SimClock
from repro.errors import NetworkError
from repro.net import NETWORK_ACCOUNT, NetworkGateway, NetworkStats, Request, Response, StaticServer
from repro.net.server import SimulatedServer


def make_gateway(pages=None, jitter=0.0):
    clock = SimClock()
    model = CostModel(network_jitter=jitter)
    gateway = NetworkGateway(StaticServer(pages or {}), clock, model)
    return gateway, clock, model


class TestGateway:
    def test_fetch_page_returns_body(self):
        gateway, _, _ = make_gateway({"http://s/a": "hello"})
        assert gateway.fetch_page("http://s/a").body == "hello"

    def test_page_fetch_charges_clock(self):
        gateway, clock, model = make_gateway({"http://s/a": "hello"})
        gateway.fetch_page("http://s/a")
        assert clock.now_ms > 0
        assert clock.spent_on(NETWORK_ACCOUNT) == pytest.approx(clock.now_ms)

    def test_ajax_cheaper_than_page(self):
        gateway, clock, _ = make_gateway({"u": "x"})
        gateway.fetch_page("u")
        page_time = clock.spent_on(NETWORK_ACCOUNT)
        gateway.ajax_request("GET", "u")
        ajax_time = clock.spent_on(NETWORK_ACCOUNT) - page_time
        assert ajax_time < page_time

    def test_stats_counters(self):
        gateway, _, _ = make_gateway({"u": "abcd", "v": "efgh"})
        gateway.fetch_page("u")
        gateway.ajax_request("GET", "v")
        gateway.ajax_request("GET", "v")
        stats = gateway.stats
        assert stats.page_fetches == 1
        assert stats.ajax_calls == 2
        assert stats.bytes_transferred == 12
        assert stats.requests_by_url == {"u": 1, "v": 2}
        assert stats.network_time_ms > 0

    def test_server_error_raises(self):
        class Broken(SimulatedServer):
            def handle(self, request):
                return Response(status=500, body="boom")

        clock = SimClock()
        gateway = NetworkGateway(Broken(), clock, CostModel())
        with pytest.raises(NetworkError):
            gateway.fetch_page("u")

    def test_404_is_returned_not_raised(self):
        gateway, _, _ = make_gateway({})
        assert gateway.fetch_page("missing").status == 404


class TestNetworkStats:
    def test_cache_hits_are_booked_apart_from_network_calls(self):
        stats = NetworkStats()
        stats.record("ajax", "u", 10, 5.0)
        stats.record_cache_hit()
        stats.record_cache_hit()
        assert stats.ajax_calls == 1
        assert stats.cached_hits == 2
        assert stats.requests_by_url == {"u": 1}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            NetworkStats().record("smoke-signal", "u", 0, 0.0)

    def test_merge(self):
        a = NetworkStats()
        a.record("page", "u", 100, 10.0)
        b = NetworkStats()
        b.record("ajax", "u", 50, 5.0)
        b.record_cache_hit()
        a.merge(b)
        assert a.page_fetches == 1
        assert a.ajax_calls == 1
        assert a.cached_hits == 1
        assert a.bytes_transferred == 150
        assert a.network_time_ms == pytest.approx(15.0)
        assert a.requests_by_url == {"u": 2}
