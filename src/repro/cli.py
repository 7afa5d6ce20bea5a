"""Command-line driver for the AJAX Crawl pipeline.

Chapter 8 of the thesis describes running each phase (Precrawler,
URLPartitioner, MPAjaxCrawler, index building, query processing) from a
shell or a small Swing GUI.  This module is the equivalent CLI::

    repro-ajax precrawl  --site simtube:100:7 --out runs/pre --max-pages 100
    repro-ajax partition --precrawl runs/pre --size 20 --out runs/crawl
    repro-ajax crawl     --site simtube:100:7 --root runs/crawl \
                         --trace runs/crawl.trace.jsonl --metrics runs/metrics.json
    repro-ajax trace summarize runs/crawl.trace.jsonl
    repro-ajax index build --root runs/crawl --segments runs/index
    repro-ajax search    --index runs/index --query "american idol"
    repro-ajax stats     --root runs/crawl

Sites are addressed by spec strings (the servers are simulated):
``simtube[:videos[:seed]]`` or ``webmail``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.crawler import CrawlerConfig
from repro.dom.simhash import bands_for_threshold
from repro.errors import ReproError
from repro.net.faults import FaultInjector, FaultPlan, FaultRule
from repro.net.server import SimulatedServer
from repro.obs import (
    JsonlTraceSink,
    MetricsRegistry,
    NULL_RECORDER,
    Recorder,
    SpanTree,
    critical_path_from_spans,
    diagnose,
    folded_stacks,
    format_component_table,
    format_critical_path,
    format_findings,
    format_folded,
    format_span_tree,
    format_summary,
    from_jsonl,
    merge_partition_traces,
    profile_components,
    summarize,
    to_speedscope,
)
from repro.parallel import (
    BACKENDS,
    MPAjaxCrawler,
    Precrawler,
    PrecrawlResult,
    URLPartitioner,
    load_models,
    save_models,
)
from repro.search import SearchEngine, SegmentedIndex
from repro.search.segmented import DEFAULT_FLUSH_POSTINGS
from repro.sites import SiteConfig, SyntheticWebmail, SyntheticYouTube


def build_site(spec: str) -> SimulatedServer:
    """Construct a simulated site from a spec string."""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "simtube":
        videos = int(parts[1]) if len(parts) > 1 else 100
        seed = int(parts[2]) if len(parts) > 2 else 7
        return SyntheticYouTube(SiteConfig(num_videos=videos, seed=seed))
    if kind == "webmail":
        return SyntheticWebmail()
    raise SystemExit(f"unknown site spec {spec!r} (try simtube:100:7 or webmail)")


def _default_start_url(site: SimulatedServer) -> str:
    if isinstance(site, SyntheticYouTube):
        return site.video_url(0)
    if isinstance(site, SyntheticWebmail):
        return site.inbox_url
    raise SystemExit("--start-url is required for this site")


def read_input(args: argparse.Namespace, path: str, parse=json.loads):
    """``parse`` of the text of an input file.  A file that cannot be
    read or parsed ends the run with one line naming it and the cause,
    not a traceback."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        cause = error.strerror
    except (ValueError, KeyError) as error:  # JSONDecodeError, a field missing
        cause = f"malformed: {error}"
    raise SystemExit(f"repro-ajax {args.command}: {path}: {cause}")


# -- subcommands -----------------------------------------------------------------


def cmd_precrawl(args: argparse.Namespace) -> int:
    site = build_site(args.site)
    start = args.start_url or _default_start_url(site)
    precrawler = Precrawler(site, max_pages=args.max_pages)
    result = precrawler.run(start)
    result.save(args.out)
    print(f"precrawled {len(result.urls)} pages from {start}")
    print(f"link graph + PageRank written to {args.out}")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    precrawl = PrecrawlResult.load(args.precrawl)
    directories = URLPartitioner(args.size).write(precrawl.urls, args.out)
    print(f"{len(precrawl.urls)} URLs -> {len(directories)} partitions of {args.size} under {args.out}")
    return 0


def cmd_crawl(args: argparse.Namespace) -> int:
    site = build_site(args.site)
    server: SimulatedServer = site
    plan = None
    if args.fault_rate > 0.0:
        plan = FaultPlan(
            [FaultRule(args.fault_pattern, rate=args.fault_rate)],
            seed=args.fault_seed,
        )
        server = FaultInjector(site, plan)
    config = CrawlerConfig(
        max_additional_states=args.max_states,
        use_hot_node=not args.no_hotnode,
        retry_max_attempts=args.retries,
        near_dup_threshold=args.near_dup_threshold,
    )
    want_spans = args.spans or args.profile
    sink = None
    recorder = NULL_RECORDER
    if args.trace:
        sink = JsonlTraceSink(args.trace)
        recorder = Recorder(sink=sink, spans=want_spans)
    elif want_spans:
        # Profiling without a trace file keeps events in memory.
        recorder = Recorder(spans=True)
    profile_events = None
    metrics = MetricsRegistry() if (args.metrics or args.profile) else None
    directories = URLPartitioner.list_partitions(args.root)
    partitions = [URLPartitioner.read(d) for d in directories]
    partition_recorders: dict[int, Recorder] = {}

    def recorder_factory(partition: int) -> Recorder:
        if args.backend == "simulated":
            # Partitions run one after the other: all of them stream
            # through the one recorder.
            return recorder
        # Each concurrent partition records into its own memory buffer;
        # the buffers merge into one canonical stream afterwards, so the
        # written trace is deterministic however the threads interleaved.
        rec = Recorder(spans=want_spans)
        partition_recorders[partition] = rec
        return rec

    controller = MPAjaxCrawler(
        server,
        num_proc_lines=args.workers,
        config=config,
        traditional=args.traditional,
        recorder_factory=recorder_factory if recorder.enabled else None,
    )
    # The sink must be flushed/closed even when a partition crawl
    # raises mid-run — a truncated-but-flushed trace is still
    # diagnosable, a stranded buffer is not.
    try:
        run = controller.run(partitions, backend=args.backend)
        if partition_recorders:
            profile_events = merge_partition_traces(
                {p: r.events for p, r in partition_recorders.items()}
            )
            if sink is not None:
                for event in profile_events:
                    sink.write(event)
    finally:
        if sink is not None:
            sink.close()
    for directory, summary in zip(directories, run.summaries):
        save_models(run.partition_results[summary.partition].models, directory)
        print(
            f"partition {summary.partition}: {summary.num_pages} pages, "
            f"{summary.total_states} states, {summary.crawl_time_ms / 1000:.1f}s virtual"
            + (f", {summary.failed_pages} failed" if summary.failed_pages else "")
        )
    if metrics is not None:
        metrics.merge(run.stats.registry)
        metrics.merge(run.result.report.registry)
    if args.backend == "threads":
        print(
            f"threads backend: {args.workers} workers, "
            f"{run.wall_time_ms / 1000:.2f}s wall"
        )
    mode = "traditional" if args.traditional else "AJAX"
    report = run.result.report
    total_ms = sum(summary.crawl_time_ms for summary in run.summaries)
    print(f"{mode} crawl done: {report.num_pages} pages, {report.total_states} states, "
          f"{total_ms / 1000:.1f}s virtual total")
    for failure in run.result.failures:
        # RetriesExhausted messages already carry the attempt count.
        suffix = "" if "attempt(s)" in failure.error else (
            f" after {failure.attempts} attempt(s)"
        )
        print(f"  failed: {failure.url} ({failure.error}){suffix}")
    if plan is not None:
        print(f"fault injection: {plan.num_injected} faults injected "
              f"(rate {args.fault_rate:.0%} on {args.fault_pattern!r}, "
              f"seed {args.fault_seed})")
    if sink is not None:
        print(f"trace written to {args.trace}")
    if args.metrics and metrics is not None:
        Path(args.metrics).write_text(metrics.to_json(), encoding="utf-8")
        print(f"metrics written to {args.metrics}")
    if args.profile:
        if profile_events is not None:
            events = profile_events
        elif sink is not None:
            events = read_input(args, args.trace, from_jsonl)
        else:
            events = recorder.events
        tree = SpanTree.from_events(events, strict=False)
        print()
        print(format_component_table(profile_components(tree)))
        print()
        print(format_findings(diagnose(events=events, metrics=metrics)))
    return 0


def crawled_models(root: str):
    """Every application model under a crawl root, partition by partition."""
    for directory in URLPartitioner.list_partitions(root):
        yield from load_models(directory)


def build_index(index, root: str) -> str:
    """``index.build`` over a crawl root, one partition in memory at a
    time; returns the summary line's head."""
    pages = 0

    def counted():
        nonlocal pages
        for model in crawled_models(root):
            pages += 1
            yield model

    index.build(counted())
    return (f"indexed {pages} page models / {index.num_states} states "
            f"({index.vocabulary_size} terms)")


def cmd_index_build(args: argparse.Namespace) -> int:
    index = SegmentedIndex(
        args.segments,
        max_state_index=args.max_state_index,
        flush_threshold=args.flush_postings,
        block_size=args.block_size,
    )
    summary = build_index(index, args.root)
    print(f"{summary} -> {index.num_segments} segment(s) under {args.segments}")
    index.close()
    return 0


def cmd_index_compact(args: argparse.Namespace) -> int:
    index = SegmentedIndex.open(args.segments)
    before, dead = index.num_segments, index.stats()["dead_states"]
    merges = index.compact_all()
    print(f"compacted {before} segment(s) -> {index.num_segments} "
          f"({merges} merge(s), {index.num_states} states, {dead} dead state(s) purged)")
    index.close()
    return 0


def cmd_index_stats(args: argparse.Namespace) -> int:
    index = SegmentedIndex.open(args.segments)
    print(json.dumps(index.stats(), sort_keys=True, indent=2))
    index.close()
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    index = SegmentedIndex.open(args.index)
    pageranks = read_input(args, args.pagerank) if args.pagerank else {}
    engine = SearchEngine(index, pageranks=pageranks)
    total, results = engine.top(args.query, args.limit)
    print(f"top {len(results)} of {total} result(s) for {args.query!r}:")
    for result in results:
        print(f"  {result.score:8.4f}  {result.uri}  {result.state_id}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.clock import CostModel
    from repro.crawler import AjaxCrawler
    from repro.net.latency import (
        ConstantLatency,
        LognormalLatency,
        SpikyLatency,
        UniformJitter,
    )
    from repro.serve import SearchServer, SearchService, ServeConfig

    if bool(args.index) == bool(args.site):
        raise SystemExit("serve needs exactly one of --index or --site")
    models = None
    site = None
    if args.index:
        engine = SearchEngine(SegmentedIndex.open(args.index))
        print(f"loaded index {args.index}: {engine.index.num_states} states")
    else:
        site = build_site(args.site)
        urls = (
            [site.video_url(i) for i in range(args.pages)]
            if isinstance(site, SyntheticYouTube)
            else [_default_start_url(site)]
        )
        crawler = AjaxCrawler(site, cost_model=CostModel(network_jitter=0.0))
        crawled = crawler.crawl(urls)
        models = crawled.models
        engine = SearchEngine.build(models)
        print(
            f"crawled {len(models)} pages -> {engine.index.num_states} states "
            "indexed (result replay enabled)"
        )
    shapes = {
        "const": lambda seed: ConstantLatency(),
        "uniform": lambda seed: UniformJitter(seed=seed),
        "lognormal": lambda seed: LognormalLatency(seed=seed),
        "spiky": lambda seed: SpikyLatency(seed=seed),
    }
    config = ServeConfig(
        cache_entries=args.cache_entries,
        cache_ttl_s=args.cache_ttl if args.cache_ttl > 0 else None,
        rate_limit_rps=args.rate_limit if args.rate_limit > 0 else None,
        rate_limit_burst=args.burst,
        latency_ms=args.latency_ms,
        latency_distribution=shapes[args.latency_shape](args.latency_seed),
    )
    service = SearchService(engine, config, models=models, site=site)
    server = SearchServer(service, host=args.host, port=args.port)
    print(f"serving on {server.url} (Ctrl-C to stop)")
    print(f"  try: curl '{server.url}/search?q=american+idol'")
    server.serve_forever()
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.serve import LoadTestConfig, run_loadtest
    from repro.sites import full_workload

    queries = [query.text for query in full_workload(args.queries)]
    config = LoadTestConfig(
        workers=args.workers,
        requests_per_worker=args.requests,
        limit=args.limit,
    )
    report = run_loadtest(args.url, queries, config)
    print(report.summary())
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.out}")
    return 1 if report.errors else 0


def cmd_top(args: argparse.Namespace) -> int:
    import time as _time
    import urllib.error
    import urllib.request

    from repro.serve import format_top

    url = args.url.rstrip("/") + "/debug/vars"
    remaining = args.iterations
    while True:
        try:
            with urllib.request.urlopen(url, timeout=args.timeout) as response:
                data = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"top: cannot read {url}: {exc}", file=sys.stderr)
            return 1
        print(format_top(data))
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                return 0
        print()
        _time.sleep(args.interval)


def cmd_dot(args: argparse.Namespace) -> int:
    for model in crawled_models(args.root):
        if model.url == args.url:
            print(model.to_dot())
            return 0
    print(f"no crawled model found for {args.url}", file=sys.stderr)
    return 1


def _load_trace(args: argparse.Namespace) -> list:
    return read_input(args, args.trace_file, from_jsonl)


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    print(format_summary(summarize(_load_trace(args))))
    return 0


def cmd_trace_spans(args: argparse.Namespace) -> int:
    tree = SpanTree.from_events(_load_trace(args), strict=False)
    if not tree.roots:
        print("no spans in trace (crawl with --spans or Recorder(spans=True))")
        return 1
    print(format_span_tree(tree, max_depth=args.max_depth))
    return 0


def cmd_trace_flame(args: argparse.Namespace) -> int:
    tree = SpanTree.from_events(_load_trace(args), strict=False)
    if not tree.roots:
        print("no spans in trace (crawl with --spans or Recorder(spans=True))")
        return 1
    if args.format == "speedscope":
        output = json.dumps(to_speedscope(tree), sort_keys=True)
    else:
        output = format_folded(folded_stacks(tree))
    if args.out:
        Path(args.out).write_text(output + "\n", encoding="utf-8")
        print(f"{args.format} output written to {args.out}")
    else:
        print(output)
    return 0


def cmd_trace_critical_path(args: argparse.Namespace) -> int:
    tree = SpanTree.from_events(_load_trace(args), strict=False)
    report = critical_path_from_spans(tree, args.lines)
    if not report.partitions:
        print("no partition spans in trace (use a parallel crawl with spans on)")
        return 1
    print(format_critical_path(report))
    return 0


def cmd_trace_doctor(args: argparse.Namespace) -> int:
    events = _load_trace(args)
    metrics = read_input(args, args.metrics) if args.metrics else None
    findings = diagnose(events=events, metrics=metrics)
    print(format_findings(findings))
    if findings and args.fail_on_findings:
        return 1
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    snapshot = read_input(args, args.metrics_file)
    if args.format == "prom":
        print(MetricsRegistry.from_snapshot(snapshot).to_prometheus(), end="")
    else:
        print(json.dumps(snapshot, sort_keys=True, indent=2))
    return 0


def _parse_seeds(text: str) -> list[int]:
    """Seed selectors: ``7``, ``3,5,8``, or a half-open range ``0:50``."""
    if ":" in text:
        start, _, stop = text.partition(":")
        return list(range(int(start or 0), int(stop)))
    return [int(part) for part in text.split(",")]


def cmd_testgen_generate(args: argparse.Namespace) -> int:
    from repro.testgen import spec_for_seed

    spec = spec_for_seed(args.seed, num_pages=args.pages)
    if args.out:
        spec.save(args.out)
        print(f"spec saved to {args.out}")
    else:
        print(json.dumps(spec.to_dict(), indent=2))
    print(
        f"seed {spec.seed}: {len(spec.pages)} page(s), "
        f"{spec.total_states} states, {spec.total_transitions} transitions",
        file=sys.stderr,
    )
    return 0


def cmd_testgen_conformance(args: argparse.Namespace) -> int:
    from repro.testgen import CHECK_NAMES, run_corpus

    checks = tuple(args.checks.split(",")) if args.checks else CHECK_NAMES
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        print(f"unknown checks: {sorted(unknown)}", file=sys.stderr)
        return 2
    reports = run_corpus(_parse_seeds(args.seeds), checks=checks, num_pages=args.pages)
    failed = 0
    for report in reports:
        if not args.quiet or not report.passed:
            print(report.summary())
        for failure in report.failures:
            failed += 1
            print(f"  {failure}")
    print(f"{len(reports)} seed(s), {failed} conformance failure(s)")
    return 1 if failed else 0


def cmd_testgen_corpus(args: argparse.Namespace) -> int:
    from repro.testgen import corpus_models, corpus_spec

    spec = corpus_spec(args.states, seed=args.seed, states_per_page=args.states_per_page)
    if args.out:
        spec.save(args.out)
        print(f"spec saved to {args.out}")
    models = corpus_models(spec)
    total = sum(model.num_states for model in models)
    print(
        f"seed {spec.seed}: {len(spec.pages)} page(s), {total} states "
        f"({args.states_per_page}/page), minted without crawling"
    )
    return 0


def cmd_testgen_fuzz(args: argparse.Namespace) -> int:
    from repro.testgen import fuzz_corpus, shrink_case

    summary = fuzz_corpus(_parse_seeds(args.seeds))
    rejections = ", ".join(
        f"{name}={count}" for name, count in sorted(summary.rejections.items())
    )
    print(f"{summary.cases_run} cases, {len(summary.crashes)} crash(es)")
    print(f"clean rejections: {rejections or 'none'}")
    for crash in summary.crashes:
        print(f"CRASH {crash.describe()}")
        if args.shrink:
            minimal = shrink_case(crash)
            print(f"  minimal repro ({len(minimal.text)} chars): {minimal.text!r}")
    return 1 if summary.crashes else 0


def cmd_stats(args: argparse.Namespace) -> int:
    total_models = total_states = total_transitions = 0
    for model in crawled_models(args.root):
        total_models += 1
        total_states += model.num_states
        total_transitions += model.num_transitions
    print(f"pages:       {total_models}")
    print(f"states:      {total_states}")
    print(f"transitions: {total_transitions}")
    if total_models:
        print(f"states/page: {total_states / total_models:.2f}")
    return 0


# -- parser ------------------------------------------------------------------------


def _near_dup_bits(text: str) -> int:
    """``--near-dup-threshold``: a Hamming distance the collapser accepts."""
    try:
        bits = int(text)
        bands_for_threshold(bits)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return bits


def _in_range(low, high=None, convert=int):
    """An argparse type: ``convert(text)``, refused outside ``low..high``
    while parsing, so a bad value is a usage error and not a traceback."""

    def parse(text: str):
        value = convert(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, not {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, not {value}")
        return value

    # argparse names the type in its "invalid int value" message.
    parse.__name__ = convert.__name__
    return parse


#: A count that has to be at least 1 (``--workers``, ``--size``, ...).
_positive = _in_range(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ajax",
        description="AJAX Crawl pipeline: precrawl, partition, crawl, index, search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    precrawl = sub.add_parser("precrawl", help="build hyperlink graph + PageRank")
    precrawl.add_argument("--site", required=True, help="site spec, e.g. simtube:100:7")
    precrawl.add_argument("--start-url", default=None)
    precrawl.add_argument("--max-pages", type=_positive, default=100)
    precrawl.add_argument("--out", required=True)
    precrawl.set_defaults(fn=cmd_precrawl)

    partition = sub.add_parser("partition", help="split the URL list into partitions")
    partition.add_argument("--precrawl", required=True, help="precrawl output dir")
    partition.add_argument("--size", type=_positive, default=20)
    partition.add_argument("--out", required=True)
    partition.set_defaults(fn=cmd_partition)

    crawl = sub.add_parser("crawl", help="crawl all partitions under a root dir")
    crawl.add_argument("--site", required=True)
    crawl.add_argument("--root", required=True)
    crawl.add_argument("--traditional", action="store_true")
    crawl.add_argument("--no-hotnode", action="store_true")
    crawl.add_argument("--max-states", type=int, default=10)
    crawl.add_argument(
        "--near-dup-threshold", type=_near_dup_bits, default=None, metavar="BITS",
        help="collapse states within this simhash Hamming distance into "
             "one canonical state (default: off, exact identity only)",
    )
    crawl.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="attempts per network request (1 = no retries)",
    )
    crawl.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="P",
        help="inject 5xx responses with probability P (testing robustness)",
    )
    crawl.add_argument(
        "--fault-pattern", default=r"/comments", metavar="REGEX",
        help="URL regex the injected faults apply to",
    )
    crawl.add_argument("--fault-seed", type=int, default=0)
    crawl.add_argument(
        "--trace", default=None, metavar="FILE",
        help="stream a JSONL trace of every crawl event to FILE",
    )
    crawl.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="dump the merged metrics registry to FILE as JSON",
    )
    crawl.add_argument(
        "--spans", action="store_true",
        help="record span_start/span_end causal events in the trace",
    )
    crawl.add_argument(
        "--profile", action="store_true",
        help="record spans and print the component profile + doctor findings",
    )
    crawl.add_argument(
        "--backend", choices=sorted(BACKENDS), default="simulated",
        help="execution engine: deterministic virtual-time simulation "
             "(default) or real worker threads",
    )
    crawl.add_argument(
        "--workers", type=_positive, default=4, metavar="N",
        help="worker threads for --backend threads (default 4)",
    )
    crawl.set_defaults(fn=cmd_crawl)

    index = sub.add_parser("index", help="build, compact and inspect a segmented index")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    ix_build = index_sub.add_parser(
        "build", help="build an on-disk segmented index from crawled models"
    )
    ix_build.add_argument("--root", required=True, help="crawl partitions root")
    ix_build.add_argument("--segments", required=True, help="index directory to create")
    ix_build.add_argument("--max-state-index", type=int, default=None)
    ix_build.add_argument(
        "--flush-postings", type=int, default=DEFAULT_FLUSH_POSTINGS, metavar="N",
        help="memtable flush threshold in postings",
    )
    ix_build.add_argument("--block-size", type=int, default=128, metavar="N",
                          help="postings per on-disk block (skip granularity)")
    ix_build.set_defaults(fn=cmd_index_build)
    ix_compact = index_sub.add_parser(
        "compact", help="merge every segment of an index directory into one"
    )
    ix_compact.add_argument("--segments", required=True, help="index directory")
    ix_compact.set_defaults(fn=cmd_index_compact)
    ix_stats = index_sub.add_parser(
        "stats", help="print a segmented index's inventory as JSON"
    )
    ix_stats.add_argument("--segments", required=True, help="index directory")
    ix_stats.set_defaults(fn=cmd_index_stats)

    search = sub.add_parser("search", help="query a segmented index directory")
    search.add_argument("--index", required=True, help="segmented index directory")
    search.add_argument("--query", required=True)
    search.add_argument("--pagerank", default=None)
    search.add_argument("--limit", type=_in_range(0), default=10)
    search.set_defaults(fn=cmd_search)

    serve = sub.add_parser("serve", help="HTTP search service over an index or site")
    serve.add_argument("--index", default=None, help="segmented index directory (search only)")
    serve.add_argument(
        "--site", default=None,
        help="site spec to crawl + serve with /result replay, e.g. simtube:50:7",
    )
    serve.add_argument("--pages", type=int, default=25, help="pages to crawl with --site")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=_in_range(0, 65535), default=8080, help="0 = ephemeral"
    )
    serve.add_argument("--cache-entries", type=_in_range(0), default=256)
    serve.add_argument(
        "--cache-ttl", type=float, default=30.0, metavar="SECONDS",
        help="query-cache TTL (0 = never expire)",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=0.0, metavar="RPS",
        help="per-client sustained requests/second (0 = unlimited)",
    )
    serve.add_argument(
        "--burst", type=_in_range(1, convert=float), default=20.0,
        help="token-bucket capacity",
    )
    serve.add_argument(
        "--latency-ms", type=float, default=0.0,
        help="injected base latency per request (soak realism)",
    )
    serve.add_argument(
        "--latency-shape", choices=("const", "uniform", "lognormal", "spiky"),
        default="uniform",
    )
    serve.add_argument("--latency-seed", type=int, default=0x5EED)
    serve.set_defaults(fn=cmd_serve)

    loadtest = sub.add_parser("loadtest", help="closed-loop load test of a live server")
    loadtest.add_argument("--url", required=True, help="server base URL")
    loadtest.add_argument("--workers", type=_positive, default=4)
    loadtest.add_argument(
        "--requests", type=_positive, default=100, help="requests per worker"
    )
    loadtest.add_argument(
        "--queries", type=_positive, default=100,
        help="workload size (Table 7.4 queries first)",
    )
    loadtest.add_argument("--limit", type=_positive, default=10)
    loadtest.add_argument("--out", default=None, metavar="FILE", help="JSON report")
    loadtest.set_defaults(fn=cmd_loadtest)

    top = sub.add_parser(
        "top", help="live telemetry of a running server (polls /debug/vars)"
    )
    top.add_argument("--url", required=True, help="server base URL")
    top.add_argument(
        "--interval", type=_in_range(0, convert=float), default=2.0,
        help="seconds between refreshes",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N snapshots (default: poll forever)",
    )
    top.add_argument("--timeout", type=float, default=5.0, help="HTTP timeout")
    top.set_defaults(fn=cmd_top)

    stats = sub.add_parser("stats", help="statistics over crawled models")
    stats.add_argument("--root", required=True)
    stats.set_defaults(fn=cmd_stats)

    trace = sub.add_parser("trace", help="inspect JSONL crawl traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_sub.add_parser(
        "summarize", help="event counts, virtual span and busiest URLs"
    )
    trace_summarize.add_argument("trace_file", help="JSONL trace file")
    trace_summarize.set_defaults(fn=cmd_trace_summarize)

    trace_spans = trace_sub.add_parser(
        "spans", help="reconstruct and print the span tree of a trace"
    )
    trace_spans.add_argument("trace_file", help="JSONL trace file")
    trace_spans.add_argument("--max-depth", type=int, default=None)
    trace_spans.set_defaults(fn=cmd_trace_spans)

    trace_flame = trace_sub.add_parser(
        "flame", help="flamegraph export (folded stacks or speedscope JSON)"
    )
    trace_flame.add_argument("trace_file", help="JSONL trace file")
    trace_flame.add_argument(
        "--format", choices=("folded", "speedscope"), default="folded",
        help="folded = flamegraph.pl input; speedscope = speedscope.app JSON",
    )
    trace_flame.add_argument("--out", default=None, metavar="FILE")
    trace_flame.set_defaults(fn=cmd_trace_flame)

    trace_cp = trace_sub.add_parser(
        "critical-path", help="per-partition makespan / straggler analysis"
    )
    trace_cp.add_argument("trace_file", help="JSONL trace file with partition spans")
    trace_cp.add_argument(
        "--lines", type=int, default=4, metavar="N",
        help="process lines to replay the scheduler with",
    )
    trace_cp.set_defaults(fn=cmd_trace_critical_path)

    trace_doctor = trace_sub.add_parser(
        "doctor", help="rule-based diagnosis of a crawl trace"
    )
    trace_doctor.add_argument("trace_file", help="JSONL trace file")
    trace_doctor.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="metrics snapshot JSON to include as evidence",
    )
    trace_doctor.add_argument(
        "--fail-on-findings", action="store_true",
        help="exit 1 when the doctor reports any finding (CI gates)",
    )
    trace_doctor.set_defaults(fn=cmd_trace_doctor)

    metrics = sub.add_parser("metrics", help="render a saved metrics snapshot")
    metrics.add_argument("metrics_file", help="metrics JSON written by crawl --metrics")
    metrics.add_argument(
        "--format", choices=("json", "prom"), default="json",
        help="prom = Prometheus text exposition",
    )
    metrics.set_defaults(fn=cmd_metrics)

    testgen = sub.add_parser(
        "testgen", help="synthetic sites with ground truth: generate, verify, fuzz"
    )
    testgen_sub = testgen.add_subparsers(dest="testgen_command", required=True)
    tg_generate = testgen_sub.add_parser(
        "generate", help="sample a site spec from a seed"
    )
    tg_generate.add_argument("--seed", type=int, required=True)
    tg_generate.add_argument("--pages", type=int, default=None, help="page count (default: vary by seed)")
    tg_generate.add_argument("--out", default=None, help="write the spec JSON here instead of stdout")
    tg_generate.set_defaults(fn=cmd_testgen_generate)
    tg_conformance = testgen_sub.add_parser(
        "conformance", help="crawl generated sites, compare against ground truth"
    )
    tg_conformance.add_argument(
        "--seeds", default="0:50", help="seed selector: N, N,M,..., or START:STOP"
    )
    tg_conformance.add_argument(
        "--checks", default=None, help="comma-separated subset of checks to run"
    )
    tg_conformance.add_argument("--pages", type=int, default=None)
    tg_conformance.add_argument(
        "--quiet", action="store_true", help="only print failures and the final tally"
    )
    tg_conformance.set_defaults(fn=cmd_testgen_conformance)
    tg_corpus = testgen_sub.add_parser(
        "corpus",
        help="mint a large deterministic corpus (the benchmark scale knob)",
    )
    tg_corpus.add_argument("--states", type=int, required=True, help="corpus size in states")
    tg_corpus.add_argument("--seed", type=int, default=0)
    tg_corpus.add_argument("--states-per-page", type=int, default=5)
    tg_corpus.add_argument("--out", default=None, help="write the spec JSON here")
    tg_corpus.set_defaults(fn=cmd_testgen_corpus)
    tg_fuzz = testgen_sub.add_parser(
        "fuzz", help="crash-fuzz the JS and DOM pipelines"
    )
    tg_fuzz.add_argument("--seeds", default="0:2000")
    tg_fuzz.add_argument(
        "--shrink", action="store_true", help="shrink each crash to a minimal repro"
    )
    tg_fuzz.set_defaults(fn=cmd_testgen_fuzz)

    dot = sub.add_parser("dot", help="print one page's transition graph as DOT")
    dot.add_argument("--root", required=True)
    dot.add_argument("--url", required=True)
    dot.set_defaults(fn=cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as error:
        raise SystemExit(f"repro-ajax {args.command}: {error}") from None


if __name__ == "__main__":
    sys.exit(main())
