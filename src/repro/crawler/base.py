"""Shared result types and the crawler interface."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.crawler.metrics import CrawlReport, PageMetrics
from repro.errors import ReproError
from repro.model import ApplicationModel
from repro.obs import NULL_RECORDER, PAGE_INTERNAL_ERROR

#: The package directory; frames under it name where an internal error arose.
_PACKAGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class PageCrawlResult:
    """Everything produced by crawling one page."""

    model: ApplicationModel
    metrics: PageMetrics


@dataclass
class PageFailure:
    """One URL whose crawl failed, with enough context to triage it.

    Deferred/failed representations are a first-class crawl outcome
    (cf. two-tiered crawling in PAPERS.md), not an exception: the report
    carries what went wrong, how hard the gateway tried and how much
    virtual time the attempt burned.
    """

    url: str
    #: Human-readable error: a library error's message, or for any
    #: other exception its type and innermost frame in this package
    #: (``RecursionError in dom/hashing.py:_build``).
    error: str
    #: Network attempts made for the failing request (1 = no retries).
    attempts: int = 1
    #: Virtual milliseconds spent on the page before giving up.
    elapsed_ms: float = 0.0


@dataclass
class CrawlResult:
    """Everything produced by crawling a list of URLs."""

    models: list[ApplicationModel] = field(default_factory=list)
    report: CrawlReport = field(default_factory=CrawlReport)
    #: URLs whose crawl failed (dead links, server errors) when the
    #: crawler runs in fault-tolerant mode.
    failed_urls: list[str] = field(default_factory=list)
    #: Per-URL failure records (same URLs as ``failed_urls``, enriched).
    failures: list[PageFailure] = field(default_factory=list)

    def add(self, page_result: PageCrawlResult) -> None:
        self.models.append(page_result.model)
        self.report.add(page_result.metrics)

    def merge(self, other: "CrawlResult") -> None:
        self.models.extend(other.models)
        self.report.merge(other.report)
        self.failed_urls.extend(other.failed_urls)
        self.failures.extend(other.failures)


class Crawler:
    """Interface: crawl one page or a list of pages."""

    def crawl_page(self, url: str) -> PageCrawlResult:
        raise NotImplementedError

    def crawl(self, urls: list[str], fail_fast: bool = False) -> CrawlResult:
        """Crawl every URL, collecting models and metrics.

        By default a page that fails (404, server error, broken script
        environment) is recorded as a :class:`PageFailure` (and in
        ``failed_urls``) and the crawl moves on — a production crawler
        must survive dead links.  So does a page whose input trips a
        substrate bug or a Python limit: an ``Exception`` that is not a
        :class:`~repro.errors.ReproError` costs that page too, named by
        :func:`internal_error` and counted by a ``page_internal_error``
        event.  With ``fail_fast=True`` the first failure propagates; a
        ``BaseException`` that is not an ``Exception`` always does.
        """
        result = CrawlResult()
        clock = getattr(self, "clock", None)
        recorder = getattr(self, "recorder", NULL_RECORDER)
        with recorder.span("crawl", pages=len(urls)) as crawl_span:
            for url in urls:
                started_ms = clock.now_ms if clock is not None else 0.0
                with recorder.span("page", url=url) as page_span:
                    try:
                        page_result = self.crawl_page(url)
                    except Exception as error:
                        if fail_fast:
                            raise
                        elapsed = (
                            clock.now_ms - started_ms if clock is not None else 0.0
                        )
                        if isinstance(error, ReproError):
                            message = str(error)
                        else:
                            message = internal_error(error)
                            recorder.emit(PAGE_INTERNAL_ERROR, url=url, error=message)
                        result.failed_urls.append(url)
                        result.failures.append(
                            PageFailure(
                                url=url,
                                error=message,
                                attempts=getattr(error, "attempts", 1),
                                elapsed_ms=elapsed,
                            )
                        )
                        page_span.annotate(failed=True)
                    else:
                        result.add(page_result)
                        page_span.annotate(states=page_result.metrics.states)
            crawl_span.annotate(
                pages_ok=result.report.num_pages, pages_failed=len(result.failed_urls)
            )
        return result


def internal_error(error: BaseException) -> str:
    """``"<type> in <file>:<function>"``: the exception's type and the
    innermost frame of this package its traceback passed through (the
    type alone when none did)."""
    where = ""
    tb = error.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        if code.co_filename.startswith(_PACKAGE + os.sep):
            path = os.path.relpath(code.co_filename, _PACKAGE).replace(os.sep, "/")
            where = f" in {path}:{code.co_name}"
        tb = tb.tb_next
    return type(error).__name__ + where
