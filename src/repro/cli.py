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
from contextlib import closing
from pathlib import Path

from repro.crawler import CrawlerConfig
from repro.dom.simhash import FINGERPRINT_BITS
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
    profile_components,
    summarize,
    to_speedscope,
)
from repro.parallel import (
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
from repro.testgen import MIN_STATES


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
        plan = FaultPlan([FaultRule(args.fault_pattern, rate=args.fault_rate)],
                         seed=args.fault_seed)
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
    metrics = MetricsRegistry() if (args.metrics or args.profile) else None
    directories = URLPartitioner.list_partitions(args.root)
    partitions = [URLPartitioner.read(d) for d in directories]
    controller = MPAjaxCrawler(
        server,
        num_proc_lines=args.workers,
        config=config,
        traditional=args.traditional,
        recorder=recorder,
    )
    # The sink must be flushed/closed even when a partition crawl
    # raises mid-run — a truncated-but-flushed trace is still
    # diagnosable, a stranded buffer is not.
    try:
        run = controller.run(partitions)
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
    mode = "traditional" if args.traditional else "AJAX"
    report = run.result.report
    total_ms = sum(summary.crawl_time_ms for summary in run.summaries)
    print(f"{mode} crawl done: {report.num_pages} pages, {report.total_states} states, "
          f"{total_ms / 1000:.1f}s virtual total")
    for failure in run.result.failures:
        # RetriesExhausted messages already carry the attempt count.
        suffix = "" if "attempt(s)" in failure.error else f" after {failure.attempts} attempt(s)"
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
        if sink is not None:
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


def cmd_index_build(args: argparse.Namespace) -> int:
    index = SegmentedIndex(
        args.segments,
        max_state_index=args.max_state_index,
        flush_threshold=args.flush_postings,
        block_size=args.block_size,
    )
    pages = 0  # crawled_models holds one partition in memory at a time
    for pages, model in enumerate(crawled_models(args.root), 1):
        index.add_model(model)
    index.finalize()
    print(f"indexed {pages} page models / {index.num_states} states "
          f"({index.vocabulary_size} terms) -> {index.num_segments} segment(s) "
          f"under {args.segments}")
    index.close()
    return 0


def on_index(handler):
    """A command over an existing index: ``handler(args, index)`` on the
    directory ``--segments`` (or ``--index``) names, closed after."""

    def run(args: argparse.Namespace) -> int:
        with closing(SegmentedIndex.open(getattr(args, "segments", None) or args.index)) as index:
            return handler(args, index)

    return run


@on_index
def cmd_index_compact(args: argparse.Namespace, index: SegmentedIndex) -> int:
    before, dead = index.num_segments, index.stats()["dead_states"]
    merges = index.compact_all()
    print(f"compacted {before} segment(s) -> {index.num_segments} "
          f"({merges} merge(s), {index.num_states} states, {dead} dead state(s) purged)")
    return 0


@on_index
def cmd_index_stats(args: argparse.Namespace, index: SegmentedIndex) -> int:
    print(json.dumps(index.stats(), sort_keys=True, indent=2))
    return 0


@on_index
def cmd_search(args: argparse.Namespace, index: SegmentedIndex) -> int:
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
    from repro.net import latency
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
        urls = ([site.video_url(i) for i in range(args.pages)]
                if isinstance(site, SyntheticYouTube) else [_default_start_url(site)])
        crawler = AjaxCrawler(site, cost_model=CostModel(network_jitter=0.0))
        crawled = crawler.crawl(urls)
        models = crawled.models
        engine = SearchEngine.build(models)
        print(
            f"crawled {len(models)} pages -> {engine.index.num_states} states "
            "indexed (result replay enabled)"
        )
    shapes = {
        "const": lambda seed: latency.ConstantLatency(),
        "uniform": latency.UniformJitter,
        "lognormal": latency.LognormalLatency,
        "spiky": latency.SpikyLatency,
    }
    config = ServeConfig(
        cache_entries=args.cache_entries,
        cache_ttl_s=args.cache_ttl if args.cache_ttl > 0 else None,
        rate_limit_rps=args.rate_limit if args.rate_limit > 0 else None,
        rate_limit_burst=args.burst,
        latency_ms=args.latency_ms,
        latency_distribution=shapes[args.latency_shape](seed=args.latency_seed),
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
    config = LoadTestConfig(workers=args.workers, requests_per_worker=args.requests,
                            limit=args.limit)
    report = run_loadtest(args.url, queries, config)
    print(report.summary())
    if args.out:
        Path(args.out).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {args.out}")
    return 1 if report.errors else 0


def cmd_top(args: argparse.Namespace) -> int:
    import itertools
    import time
    import urllib.error
    import urllib.request

    from repro.serve import format_top

    url = args.url.rstrip("/") + "/debug/vars"
    for shown in itertools.count(1):
        try:
            with urllib.request.urlopen(url, timeout=args.timeout) as response:
                data = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print(f"top: cannot read {url}: {exc}", file=sys.stderr)
            return 1
        print(format_top(data))
        if shown == args.iterations:
            return 0
        print()
        time.sleep(args.interval)


def cmd_dot(args: argparse.Namespace) -> int:
    for model in crawled_models(args.root):
        if model.url == args.url:
            print(model.to_dot())
            return 0
    print(f"no crawled model found for {args.url}", file=sys.stderr)
    return 1


def _load_trace(args: argparse.Namespace) -> list:
    return read_input(args, args.trace_file, from_jsonl)


def on_spans(handler):
    """A command over a trace's span tree: ``handler(args, tree)``; a
    trace that recorded no spans prints why and exits 1."""

    def run(args: argparse.Namespace) -> int:
        tree = SpanTree.from_events(_load_trace(args), strict=False)
        if not tree.roots:
            print("no spans in trace (crawl with --spans or Recorder(spans=True))")
            return 1
        return handler(args, tree)

    return run


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    print(format_summary(summarize(_load_trace(args))))
    return 0


@on_spans
def cmd_trace_spans(args: argparse.Namespace, tree: SpanTree) -> int:
    print(format_span_tree(tree, max_depth=args.max_depth))
    return 0


@on_spans
def cmd_trace_flame(args: argparse.Namespace, tree: SpanTree) -> int:
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


@on_spans
def cmd_trace_critical_path(args: argparse.Namespace, tree: SpanTree) -> int:
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
    reports = run_corpus(args.seeds, checks=checks, num_pages=args.pages)
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

    summary = fuzz_corpus(args.seeds)
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
#: A count, and a duration or rate, that may be 0 but not negative.
_count = _in_range(0)
_seconds = _in_range(0, convert=float)


def _parse_seeds(text: str) -> list[int]:
    """Seed selectors: ``7``, ``3,5,8``, or a half-open range ``0:50``;
    one that is malformed or selects no seed is a usage error."""
    try:
        if ":" in text:
            start, _, stop = text.partition(":")
            seeds = list(range(int(start or 0), int(stop)))
        else:
            seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not N, N,M,... or START:STOP"
        ) from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} selects no seed")
    return seeds


def arg(*names, **options):
    """One ``add_argument`` call, as data."""
    return names, options


def like(shared, **options):
    """A shared argument with some of its options replaced."""
    names, base = shared
    return names, {**base, **options}


SITE = arg("--site", required=True)
ROOT = arg("--root", required=True)
SEGMENTS = arg("--segments", required=True, help="index directory")
TRACE_FILE = arg("trace_file", help="JSONL trace file")
URL = arg("--url", required=True, help="server base URL")
OUT = arg("--out", required=True)


#: The CLI as data: ``(words, handler, help, arguments)`` per parser, in
#: ``--help`` order.  A row without a handler opens a group whose
#: subcommands follow it (``index build`` is the ``build`` of ``index``).
COMMANDS = [
    ("precrawl", cmd_precrawl, "build hyperlink graph + PageRank", [
        like(SITE, help="site spec, e.g. simtube:100:7"),
        arg("--start-url"),
        arg("--max-pages", type=_positive, default=100),
        OUT,
    ]),
    ("partition", cmd_partition, "split the URL list into partitions", [
        arg("--precrawl", required=True, help="precrawl output dir"),
        arg("--size", type=_positive, default=20),
        OUT,
    ]),
    ("crawl", cmd_crawl, "crawl all partitions under a root dir", [
        SITE,
        ROOT,
        arg("--traditional", action="store_true"),
        arg("--no-hotnode", action="store_true"),
        arg("--max-states", type=_count, default=10),
        arg("--near-dup-threshold", type=_in_range(0, FINGERPRINT_BITS - 1), metavar="BITS",
            help="collapse states within this simhash Hamming distance into "
                 "one canonical state (default: off, exact identity only)"),
        arg("--retries", type=_positive, default=1, metavar="N",
            help="attempts per network request (1 = no retries)"),
        arg("--fault-rate", type=_in_range(0, 1, float), default=0.0, metavar="P",
            help="inject 5xx responses with probability P (testing robustness)"),
        arg("--fault-pattern", default=r"/comments", metavar="REGEX",
            help="URL regex the injected faults apply to"),
        arg("--fault-seed", type=int, default=0),
        arg("--trace", metavar="FILE", help="stream a JSONL trace of every crawl event to FILE"),
        arg("--metrics", metavar="FILE", help="dump the merged metrics registry to FILE as JSON"),
        arg("--spans", action="store_true",
            help="record span_start/span_end causal events in the trace"),
        arg("--profile", action="store_true",
            help="record spans and print the component profile + doctor findings"),
        arg("--workers", type=_positive, default=4, metavar="N",
            help="process lines the partitions are scheduled on (default 4)"),
    ]),
    ("index", None, "build, compact and inspect a segmented index", []),
    ("index build", cmd_index_build, "build an on-disk segmented index from crawled models", [
        like(ROOT, help="crawl partitions root"),
        like(SEGMENTS, help="index directory to create"),
        arg("--max-state-index", type=_positive),
        arg("--flush-postings", type=_positive, default=DEFAULT_FLUSH_POSTINGS, metavar="N",
            help="memtable flush threshold in postings"),
        arg("--block-size", type=_positive, default=128, metavar="N",
            help="postings per on-disk block (skip granularity)"),
    ]),
    ("index compact", cmd_index_compact,
     "merge every segment of an index directory into one", [SEGMENTS]),
    ("index stats", cmd_index_stats, "print a segmented index's inventory as JSON", [SEGMENTS]),
    ("search", cmd_search, "query a segmented index directory", [
        arg("--index", required=True, help="segmented index directory"),
        arg("--query", required=True),
        arg("--pagerank"),
        arg("--limit", type=_count, default=10),
    ]),
    ("serve", cmd_serve, "HTTP search service over an index or site", [
        arg("--index", help="segmented index directory (search only)"),
        like(SITE, required=False,
             help="site spec to crawl + serve with /result replay, e.g. simtube:50:7"),
        arg("--pages", type=_positive, default=25, help="pages to crawl with --site"),
        arg("--host", default="127.0.0.1"),
        arg("--port", type=_in_range(0, 65535), default=8080, help="0 = ephemeral"),
        arg("--cache-entries", type=_count, default=256),
        arg("--cache-ttl", type=_seconds, default=30.0, metavar="SECONDS",
            help="query-cache TTL (0 = never expire)"),
        arg("--rate-limit", type=_seconds, default=0.0, metavar="RPS",
            help="per-client sustained requests/second (0 = unlimited)"),
        arg("--burst", type=_in_range(1, convert=float), default=20.0,
            help="token-bucket capacity"),
        arg("--latency-ms", type=_seconds, default=0.0,
            help="injected base latency per request (soak realism)"),
        arg("--latency-shape", choices=("const", "uniform", "lognormal", "spiky"),
            default="uniform"),
        arg("--latency-seed", type=int, default=0x5EED),
    ]),
    ("loadtest", cmd_loadtest, "closed-loop load test of a live server", [
        URL,
        arg("--workers", type=_positive, default=4),
        arg("--requests", type=_positive, default=100, help="requests per worker"),
        arg("--queries", type=_positive, default=100,
            help="workload size (Table 7.4 queries first)"),
        arg("--limit", type=_positive, default=10),
        arg("--out", metavar="FILE", help="JSON report"),
    ]),
    ("top", cmd_top, "live telemetry of a running server (polls /debug/vars)", [
        URL,
        arg("--interval", type=_seconds, default=2.0, help="seconds between refreshes"),
        arg("--iterations", type=_positive, metavar="N",
            help="stop after N snapshots (default: poll forever)"),
        arg("--timeout", type=_seconds, default=5.0, help="HTTP timeout"),
    ]),
    ("stats", cmd_stats, "statistics over crawled models", [ROOT]),
    ("trace", None, "inspect JSONL crawl traces", []),
    ("trace summarize", cmd_trace_summarize,
     "event counts, virtual span and busiest URLs", [TRACE_FILE]),
    ("trace spans", cmd_trace_spans, "reconstruct and print the span tree of a trace", [
        TRACE_FILE,
        arg("--max-depth", type=_count),
    ]),
    ("trace flame", cmd_trace_flame, "flamegraph export (folded stacks or speedscope JSON)", [
        TRACE_FILE,
        arg("--format", choices=("folded", "speedscope"), default="folded",
            help="folded = flamegraph.pl input; speedscope = speedscope.app JSON"),
        arg("--out", metavar="FILE"),
    ]),
    ("trace critical-path", cmd_trace_critical_path,
     "per-partition makespan / straggler analysis", [
        like(TRACE_FILE, help="JSONL trace file with partition spans"),
        arg("--lines", type=_positive, default=4, metavar="N",
            help="process lines to replay the scheduler with"),
    ]),
    ("trace doctor", cmd_trace_doctor, "rule-based diagnosis of a crawl trace", [
        TRACE_FILE,
        arg("--metrics", metavar="FILE", help="metrics snapshot JSON to include as evidence"),
        arg("--fail-on-findings", action="store_true",
            help="exit 1 when the doctor reports any finding (CI gates)"),
    ]),
    ("metrics", cmd_metrics, "render a saved metrics snapshot", [
        arg("metrics_file", help="metrics JSON written by crawl --metrics"),
        arg("--format", choices=("json", "prom"), default="json",
            help="prom = Prometheus text exposition"),
    ]),
    ("testgen", None, "synthetic sites with ground truth: generate, verify, fuzz", []),
    ("testgen generate", cmd_testgen_generate, "sample a site spec from a seed", [
        arg("--seed", type=int, required=True),
        arg("--pages", type=_positive, help="page count (default: vary by seed)"),
        arg("--out", help="write the spec JSON here instead of stdout"),
    ]),
    ("testgen conformance", cmd_testgen_conformance,
     "crawl generated sites, compare against ground truth", [
        arg("--seeds", type=_parse_seeds, default="0:50",
            help="seed selector: N, N,M,..., or START:STOP"),
        arg("--checks", help="comma-separated subset of checks to run"),
        arg("--pages", type=_positive),
        arg("--quiet", action="store_true", help="only print failures and the final tally"),
    ]),
    ("testgen corpus", cmd_testgen_corpus,
     "mint a large deterministic corpus (the benchmark scale knob)", [
        arg("--states", type=_positive, required=True, help="corpus size in states"),
        arg("--seed", type=int, default=0),
        arg("--states-per-page", type=_in_range(MIN_STATES), default=5),
        arg("--out", help="write the spec JSON here"),
    ]),
    ("testgen fuzz", cmd_testgen_fuzz, "crash-fuzz the JS and DOM pipelines", [
        arg("--seeds", type=_parse_seeds, default="0:2000"),
        arg("--shrink", action="store_true", help="shrink each crash to a minimal repro"),
    ]),
    ("dot", cmd_dot, "print one page's transition graph as DOT", [
        ROOT,
        arg("--url", required=True),
    ]),
]


def build_parser() -> argparse.ArgumentParser:
    """One parser per row of :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro-ajax",
        description="AJAX Crawl pipeline: precrawl, partition, crawl, index, search.",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for words, handler, summary, arguments in COMMANDS:
        group, _, name = words.rpartition(" ")
        command = groups[group].add_parser(name, help=summary)
        for names, options in arguments:
            command.add_argument(*names, **options)
        if handler is None:
            groups[words] = command.add_subparsers(dest=f"{name}_command", required=True)
        else:
            command.set_defaults(fn=handler)
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
