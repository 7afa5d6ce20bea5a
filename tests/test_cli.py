"""End-to-end tests of the CLI pipeline (the chapter-8 infrastructure)."""

import json
from pathlib import Path

import pytest

from repro.cli import build_site, main
from repro.sites import SyntheticWebmail, SyntheticYouTube


class TestBuildSite:
    def test_simtube_defaults(self):
        site = build_site("simtube")
        assert isinstance(site, SyntheticYouTube)
        assert site.config.num_videos == 100

    def test_simtube_with_params(self):
        site = build_site("simtube:12:3")
        assert site.config.num_videos == 12
        assert site.config.seed == 3

    def test_webmail(self):
        assert isinstance(build_site("webmail"), SyntheticWebmail)

    def test_unknown_spec(self):
        with pytest.raises(SystemExit):
            build_site("geocities")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full CLI pipeline once into a temp directory."""
    root = tmp_path_factory.mktemp("cli")
    pre = root / "pre"
    crawl_root = root / "crawl"
    index_file = root / "index.json"
    site = "simtube:12:3"
    assert main(["precrawl", "--site", site, "--out", str(pre), "--max-pages", "12"]) == 0
    assert main(["partition", "--precrawl", str(pre), "--size", "4", "--out", str(crawl_root)]) == 0
    assert main(["crawl", "--site", site, "--root", str(crawl_root)]) == 0
    assert main(["index", "--root", str(crawl_root), "--out", str(index_file)]) == 0
    return {"pre": pre, "crawl_root": crawl_root, "index": index_file, "site": site}


class TestPipeline:
    def test_precrawl_outputs(self, pipeline):
        urls = json.loads((pipeline["pre"] / "urls.json").read_text())
        assert len(urls) == 12
        pageranks = json.loads((pipeline["pre"] / "pagerank.json").read_text())
        assert len(pageranks) == 12

    def test_partitions_created(self, pipeline):
        names = sorted(p.name for p in pipeline["crawl_root"].iterdir())
        assert names == ["1", "2", "3"]
        assert (pipeline["crawl_root"] / "1" / "URLsToCrawl.txt").exists()

    def test_models_stored(self, pipeline):
        models = json.loads(
            (pipeline["crawl_root"] / "1" / "models.json").read_text()
        )
        assert len(models) == 4

    def test_index_built(self, pipeline):
        payload = json.loads(pipeline["index"].read_text())
        assert payload["postings"]
        assert payload["state_lengths"]

    def test_search(self, pipeline, capsys):
        assert main(["search", "--index", str(pipeline["index"]), "--query", "wow"]) == 0
        out = capsys.readouterr().out
        assert "result(s) for 'wow'" in out

    def test_search_prints_the_page_and_the_total(self, pipeline, capsys):
        index = str(pipeline["index"])
        assert main(["search", "--index", index, "--query", "wow", "--limit", "99"]) == 0
        everything = capsys.readouterr().out.splitlines()
        total = len(everything) - 1
        assert total > 10
        assert everything[0] == f"top {total} of {total} result(s) for 'wow':"
        assert main(["search", "--index", index, "--query", "wow"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"top 10 of {total} result(s) for 'wow':", *everything[1:11]
        ]
        assert main(["search", "--index", index, "--query", "wow", "--limit", "1"]) == 0
        page = capsys.readouterr().out.splitlines()
        assert page == [f"top 1 of {total} result(s) for 'wow':", everything[1]]

    def test_search_rejects_a_negative_limit(self, pipeline, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["search", "--index", str(pipeline["index"]), "--query", "wow",
                  "--limit", "-1"])
        assert exit_info.value.code == 2
        assert "limit must be >= 0" in capsys.readouterr().err

    def test_search_with_pagerank(self, pipeline, capsys):
        assert main([
            "search",
            "--index", str(pipeline["index"]),
            "--query", "wow",
            "--pagerank", str(pipeline["pre"] / "pagerank.json"),
            "--limit", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "simtube.test" in out

    def test_stats(self, pipeline, capsys):
        assert main(["stats", "--root", str(pipeline["crawl_root"])]) == 0
        out = capsys.readouterr().out
        assert "pages:       12" in out

    def test_traditional_crawl(self, pipeline, tmp_path, capsys):
        crawl_root = tmp_path / "trad"
        assert main([
            "partition", "--precrawl", str(pipeline["pre"]),
            "--size", "6", "--out", str(crawl_root),
        ]) == 0
        assert main([
            "crawl", "--site", pipeline["site"], "--root", str(crawl_root),
            "--traditional",
        ]) == 0
        out = capsys.readouterr().out
        assert "traditional crawl done: 12 pages, 12 states" in out

    def test_dot_export(self, pipeline, capsys):
        url = "http://simtube.test/watch?v=v00000"
        assert main(["dot", "--root", str(pipeline["crawl_root"]), "--url", url]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph app_model {")
        assert "s0 [shape=doublecircle" in out

    def test_dot_unknown_url(self, pipeline, capsys):
        assert main([
            "dot", "--root", str(pipeline["crawl_root"]), "--url", "http://nope/",
        ]) == 1

    def test_max_state_index_option(self, pipeline, tmp_path):
        out_file = tmp_path / "trad_index.json"
        assert main([
            "index", "--root", str(pipeline["crawl_root"]),
            "--out", str(out_file), "--max-state-index", "1",
        ]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["max_state_index"] == 1
        assert len(payload["state_lengths"]) == 12  # one state per page

    def test_index_compact_and_stats_report_dead_states(self, pipeline, tmp_path, capsys):
        from repro.search import SegmentedIndex

        segments = str(tmp_path / "seg")
        assert main(["index", "build", "--root", str(pipeline["crawl_root"]),
                     "--segments", segments, "--flush-postings", "100000"]) == 0
        index = SegmentedIndex.open(segments)
        states = index.num_states
        removed = index.remove_url(index.states()[0][0])  # a re-crawl lost one page
        index.close()
        capsys.readouterr()
        assert main(["index", "stats", "--segments", segments]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert (stats["dead_states"], stats["num_states"]) == (removed, states - removed)
        assert stats["segments"][0]["dead_states"] == removed
        # One segment, and still something to do: the purge is reported.
        assert main(["index", "compact", "--segments", segments]) == 0
        assert capsys.readouterr().out.strip() == (
            f"compacted 1 segment(s) -> 1 (1 merge(s), {states - removed} states, "
            f"{removed} dead state(s) purged)"
        )
        assert main(["index", "compact", "--segments", segments]) == 0
        assert "(0 merge(s)" in capsys.readouterr().out


class TestCrawlTraceIsPinned:
    #: Written by `crawl --trace` on the default backend at the commit
    #: before `cmd_crawl` got one body for both backends.
    EXPECTED = Path(__file__).parent / "golden" / "cli_crawl_trace.jsonl"

    @pytest.mark.parametrize("backend", ["simulated", "threads"])
    def test_two_partition_root_writes_the_recorded_bytes(self, backend, tmp_path):
        site = "simtube:4:3"
        pre, root, trace = tmp_path / "pre", tmp_path / "crawl", tmp_path / "t.jsonl"
        assert main(["precrawl", "--site", site, "--out", str(pre), "--max-pages", "4"]) == 0
        assert main(["partition", "--precrawl", str(pre), "--size", "2", "--out", str(root)]) == 0
        assert main([
            "crawl", "--site", site, "--root", str(root), "--trace", str(trace),
            "--backend", backend, "--workers", "2",
        ]) == 0
        assert sorted(p.name for p in root.iterdir()) == ["1", "2"]
        assert trace.read_bytes() == self.EXPECTED.read_bytes()
        assert all((root / n / "models.json").exists() for n in "12")


class TestFaultInjectionFlags:
    def test_crawl_with_faults_and_retries_completes(self, pipeline, tmp_path, capsys):
        crawl_root = tmp_path / "faulty"
        assert main([
            "partition", "--precrawl", str(pipeline["pre"]),
            "--size", "4", "--out", str(crawl_root),
        ]) == 0
        assert main([
            "crawl", "--site", pipeline["site"], "--root", str(crawl_root),
            "--fault-rate", "0.2", "--retries", "3", "--fault-seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "AJAX crawl done: 12 pages" in out
        assert "fault injection:" in out
        assert "seed 5" in out

    def test_zero_fault_rate_skips_injection_banner(self, pipeline, tmp_path, capsys):
        crawl_root = tmp_path / "clean"
        assert main([
            "partition", "--precrawl", str(pipeline["pre"]),
            "--size", "4", "--out", str(crawl_root),
        ]) == 0
        assert main([
            "crawl", "--site", pipeline["site"], "--root", str(crawl_root),
            "--retries", "3",
        ]) == 0
        assert "fault injection:" not in capsys.readouterr().out

    def test_dead_page_listed_in_output(self, pipeline, tmp_path, capsys):
        crawl_root = tmp_path / "dead"
        assert main([
            "partition", "--precrawl", str(pipeline["pre"]),
            "--size", "4", "--out", str(crawl_root),
        ]) == 0
        assert main([
            "crawl", "--site", pipeline["site"], "--root", str(crawl_root),
            "--fault-rate", "1.0", "--fault-pattern", r"watch\?v=v00000",
            "--retries", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "failed: http://simtube.test/watch?v=v00000" in out
        assert "after 2 attempt(s)" in out
        assert "11 pages" in out


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """One spanned+profiled webmail crawl shared by the observability
    tests (webmail stays under the state cap, so the doctor runs clean)."""
    root = tmp_path_factory.mktemp("profiled")
    pre = root / "pre"
    crawl_root = root / "crawl"
    trace = root / "trace.jsonl"
    metrics = root / "metrics.json"
    assert main(["precrawl", "--site", "webmail", "--out", str(pre),
                 "--max-pages", "5"]) == 0
    assert main([
        "partition", "--precrawl", str(pre),
        "--size", "1", "--out", str(crawl_root),
    ]) == 0
    assert main([
        "crawl", "--site", "webmail", "--root", str(crawl_root),
        "--trace", str(trace), "--metrics", str(metrics), "--profile",
    ]) == 0
    return {"trace": trace, "metrics": metrics, "root": root}


class TestObservabilityCommands:
    def test_profile_prints_table_and_doctor(self, profiled, capsys):
        # The fixture already ran --profile; re-run to capture its output.
        assert main([
            "crawl", "--site", "webmail", "--root",
            str(profiled["root"] / "crawl"), "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "component" in out
        assert "fire_event" in out
        assert "doctor:" in out

    def test_trace_contains_span_events(self, profiled):
        text = profiled["trace"].read_text(encoding="utf-8")
        assert '"kind":"span_start"' in text
        assert '"kind":"span_end"' in text

    def test_trace_spans_renders_tree(self, profiled, capsys):
        assert main(["trace", "spans", str(profiled["trace"])]) == 0
        out = capsys.readouterr().out
        assert "partition:1" in out
        assert "incl=" in out

    def test_trace_spans_max_depth(self, profiled, capsys):
        assert main([
            "trace", "spans", str(profiled["trace"]), "--max-depth", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "partition:1" in out
        assert "page:" not in out

    def test_trace_spans_without_spans_fails(self, pipeline, tmp_path, capsys):
        trace = tmp_path / "plain.jsonl"
        crawl_root = tmp_path / "plain"
        assert main([
            "partition", "--precrawl", str(pipeline["pre"]),
            "--size", "6", "--out", str(crawl_root),
        ]) == 0
        assert main([
            "crawl", "--site", pipeline["site"], "--root", str(crawl_root),
            "--trace", str(trace),
        ]) == 0
        assert main(["trace", "spans", str(trace)]) == 1
        assert "no spans" in capsys.readouterr().out

    def test_trace_flame_folded(self, profiled, capsys):
        assert main(["trace", "flame", str(profiled["trace"])]) == 0
        out = capsys.readouterr().out
        line = out.splitlines()[0]
        stack, weight = line.rsplit(" ", 1)
        assert ";" in stack or stack.startswith("partition")
        assert int(weight) > 0

    def test_trace_flame_speedscope_to_file(self, profiled, tmp_path, capsys):
        out_file = tmp_path / "profile.speedscope.json"
        assert main([
            "trace", "flame", str(profiled["trace"]),
            "--format", "speedscope", "--out", str(out_file),
        ]) == 0
        doc = json.loads(out_file.read_text(encoding="utf-8"))
        assert doc["$schema"].startswith("https://www.speedscope.app/")
        assert doc["profiles"]

    def test_trace_critical_path(self, profiled, capsys):
        assert main([
            "trace", "critical-path", str(profiled["trace"]), "--lines", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "straggler" in out

    def test_trace_doctor_healthy(self, profiled, capsys):
        assert main([
            "trace", "doctor", str(profiled["trace"]),
            "--metrics", str(profiled["metrics"]), "--fail-on-findings",
        ]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_trace_doctor_fail_on_findings(self, pipeline, tmp_path, capsys):
        trace = tmp_path / "sick.jsonl"
        crawl_root = tmp_path / "sick"
        assert main([
            "partition", "--precrawl", str(pipeline["pre"]),
            "--size", "12", "--out", str(crawl_root),
        ]) == 0
        assert main([
            "crawl", "--site", pipeline["site"], "--root", str(crawl_root),
            "--trace", str(trace), "--spans",
            "--fault-rate", "1.0", "--fault-pattern", "/comments", "--retries", "2",
        ]) == 0
        assert main([
            "trace", "doctor", str(trace), "--fail-on-findings",
        ]) == 1
        out = capsys.readouterr().out
        assert "quarantine-storm" in out

    def test_trace_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "spans", str(tmp_path / "nope.jsonl")])

    def test_metrics_json_round_trip(self, profiled, capsys):
        assert main(["metrics", str(profiled["metrics"])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "counters" in payload

    def test_metrics_prometheus(self, profiled, capsys):
        assert main([
            "metrics", str(profiled["metrics"]), "--format", "prom",
        ]) == 0
        out = capsys.readouterr().out
        assert "# TYPE crawl_pages counter" in out or "# TYPE" in out
        assert "crawl_events_invoked" in out


class TestArgumentErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_negative_near_dup_threshold_is_an_argparse_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "crawl", "--site", "simtube:2:3", "--root", str(tmp_path),
                "--near-dup-threshold", "-1",
            ])
        assert exit_info.value.code == 2
        assert "--near-dup-threshold" in capsys.readouterr().err
