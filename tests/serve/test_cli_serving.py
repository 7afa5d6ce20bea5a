"""CLI surface tests for ``repro-ajax serve``, ``loadtest`` and ``top``."""

import json

import pytest

from repro.cli import main
from repro.search import SegmentedIndex
from repro.serve import SearchServer, SearchService


class TestServeArgs:
    def test_requires_exactly_one_source(self):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["serve"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["serve", "--index", "x.json", "--site", "webmail"])

    def test_serves_saved_index(self, models, tmp_path, monkeypatch, capsys):
        """``serve --index`` boots from a segmented index directory; we
        stub the blocking accept loop and probe the configured service."""
        index_dir = tmp_path / "index"
        SegmentedIndex(index_dir).build(models).close()
        booted = {}

        def fake_serve_forever(self):
            booted["service"] = self.service

        monkeypatch.setattr(SearchServer, "serve_forever", fake_serve_forever)
        assert main(
            ["serve", "--index", str(index_dir), "--port", "0",
             "--rate-limit", "5", "--cache-ttl", "0"]
        ) == 0
        service = booted["service"]
        assert service.engine.index.num_states == 3
        assert service.limiter is not None and service.limiter.rate == 5.0
        assert service.cache.ttl_s is None
        assert service.search({"q": "morcheeba"})["total"] == 3
        assert "serving on" in capsys.readouterr().out

    def test_serves_crawled_site_with_models(self, monkeypatch, capsys):
        booted = {}
        monkeypatch.setattr(
            SearchServer,
            "serve_forever",
            lambda self: booted.update(service=self.service),
        )
        assert main(
            ["serve", "--site", "simtube:6:13", "--pages", "4", "--port", "0",
             "--latency-ms", "5", "--latency-shape", "const"]
        ) == 0
        service = booted["service"]
        assert len(service.models) == 4
        assert service.site is not None
        assert "replay enabled" in capsys.readouterr().out


class TestLoadtestCommand:
    def test_loadtest_against_live_server(self, engine, tmp_path, capsys):
        out = tmp_path / "report.json"
        with SearchServer(SearchService(engine)) as server:
            code = main(
                ["loadtest", "--url", server.url, "--workers", "2",
                 "--requests", "5", "--queries", "4", "--out", str(out)]
            )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["requests"] == 10
        assert report["errors"] == 0
        captured = capsys.readouterr().out
        assert "req/s" in captured
        assert "report written" in captured


class TestTopCommand:
    def test_top_renders_live_vars(self, engine, capsys):
        with SearchServer(SearchService(engine)) as server:
            server.service.search({"q": "morcheeba"})
            server.service.search({"q": "morcheeba"})
            code = main(
                ["top", "--url", server.url, "--iterations", "1"]
            )
        assert code == 0
        screen = capsys.readouterr().out
        assert "repro-ajax top" in screen
        assert "search" in screen
        assert "hit rate" in screen

    def test_top_fails_cleanly_when_server_is_gone(self, capsys):
        code = main(
            ["top", "--url", "http://127.0.0.1:1", "--iterations", "1",
             "--timeout", "0.5"]
        )
        assert code == 1
        assert "cannot read" in capsys.readouterr().err
