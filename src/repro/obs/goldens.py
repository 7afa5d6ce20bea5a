"""Golden-trace corpora and the regression harness around them.

Because the virtual clock and every RNG are seeded, a crawl of a fixed
corpus emits a byte-stable canonical trace.  Three small corpora are
checked in under ``tests/golden/``:

* **webmail** — one AJAX crawl of SimMail's inbox (folder tabs, AJAX
  folder loads, destructive events that must be skipped),
* **youtube** — an AJAX crawl of the first :data:`YOUTUBE_VIDEOS`
  SimTube videos (hot-node cache traffic, duplicate states),
* **webmail_spans** — the webmail crawl with the span layer on.

``tests/obs/test_golden_traces.py`` re-runs every crawl and diffs the
event streams against the goldens (:func:`verify`); any change to crawl
order, cache behaviour, retry accounting or state dedup fails loudly
with an event-level diff instead of silently drifting away from the
paper's figures.  When a change is *intentional*, regenerate with::

    python -m repro.obs.goldens --regen

and commit the new golden files together with the change that explains
them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.clock import CostModel, SimClock
from repro.crawler import AjaxCrawler, CrawlerConfig
from repro.obs.recorder import Recorder
from repro.obs.trace import diff_traces, normalize_lines
from repro.obs.events import TraceEvent, to_jsonl
from repro.sites import SiteConfig, SyntheticWebmail, SyntheticYouTube

#: Where the golden traces live, relative to the repo root.
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

#: SimTube size/seed of the youtube golden corpus (small on purpose —
#: goldens are reviewed by humans).
YOUTUBE_VIDEOS = 3
YOUTUBE_SEED = 7


def webmail_trace() -> list[TraceEvent]:
    """The canonical trace of the seeded SimMail crawl."""
    site = SyntheticWebmail()
    recorder = Recorder(clock=SimClock())
    crawler = AjaxCrawler(
        site, CrawlerConfig(), clock=recorder.clock, cost_model=CostModel(), recorder=recorder
    )
    crawler.crawl([site.inbox_url])
    return recorder.events


def youtube_trace() -> list[TraceEvent]:
    """The canonical trace of the seeded SimTube crawl."""
    site = SyntheticYouTube(SiteConfig(num_videos=YOUTUBE_VIDEOS, seed=YOUTUBE_SEED))
    recorder = Recorder(clock=SimClock())
    crawler = AjaxCrawler(
        site, CrawlerConfig(), clock=recorder.clock, cost_model=CostModel(), recorder=recorder
    )
    crawler.crawl([site.video_url(i) for i in range(YOUTUBE_VIDEOS)])
    return recorder.events


def webmail_spans_trace() -> list[TraceEvent]:
    """The SimMail crawl traced with the span layer on.

    Same crawl as :func:`webmail_trace` (spans never charge virtual
    time, so the point events are byte-identical modulo the injected
    ``parent_id``) plus the ``span_start``/``span_end`` envelope — the
    golden that pins the span schema and parent-id propagation.
    """
    site = SyntheticWebmail()
    recorder = Recorder(clock=SimClock(), spans=True)
    crawler = AjaxCrawler(
        site, CrawlerConfig(), clock=recorder.clock, cost_model=CostModel(), recorder=recorder
    )
    crawler.crawl([site.inbox_url])
    return recorder.events


#: corpus name -> (golden filename, trace producer).
CORPORA = {
    "webmail": ("webmail_trace.jsonl", webmail_trace),
    "youtube": ("youtube_trace.jsonl", youtube_trace),
    "webmail_spans": ("webmail_spans_trace.jsonl", webmail_spans_trace),
}


def golden_path(corpus: str) -> Path:
    return GOLDEN_DIR / CORPORA[corpus][0]


def current_lines(corpus: str) -> list[str]:
    """The freshly produced, normalized trace of one corpus."""
    events = CORPORA[corpus][1]()
    return normalize_lines(to_jsonl(events).splitlines())


def verify(corpus: str) -> list[str]:
    """Diff a fresh crawl against the checked-in golden.

    Returns the problem lines (empty = match).
    """
    path = golden_path(corpus)
    if not path.exists():
        return [f"golden trace missing: {path} (run --regen and commit it)"]
    expected = normalize_lines(path.read_text(encoding="utf-8").splitlines())
    return diff_traces(expected, current_lines(corpus))


def regenerate(corpus: str) -> Path:
    """Overwrite one golden trace with a fresh crawl's canonical output."""
    path = golden_path(corpus)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(current_lines(corpus)) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.goldens",
        description="Regenerate the golden crawl traces (the test suite verifies them).",
    )
    parser.add_argument("--regen", action="store_true", required=True, help="rewrite the goldens")
    parser.add_argument(
        "--corpus", choices=sorted(CORPORA), action="append", default=None,
        help="limit to one corpus (default: all)",
    )
    args = parser.parse_args(argv)
    for corpus in args.corpus or sorted(CORPORA):
        print(f"{corpus}: regenerated {regenerate(corpus)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
