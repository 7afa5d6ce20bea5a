"""Trace post-processing: normalization, diffing and summaries.

Golden-trace regression testing compares the canonical JSONL of a
seeded crawl against a checked-in file.  The whole pipeline is
deterministic, so every field is asserted: the comparison goes through
a *normalizer* that only rounds floats, and through
:func:`diff_traces`, which renders a readable event-level diff instead
of a wall of bytes.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.obs.events import TraceEvent


def normalize_lines(lines: Iterable[str]) -> list[str]:
    """Canonicalize trace lines for comparison.

    Floats are rounded to 6 digits, which guards against float-repr
    drift across interpreter versions; blank lines are dropped.
    """
    out = []
    for line in lines:
        if not line.strip():
            continue
        event = TraceEvent.from_json(line)
        fields = {
            name: round(value, 6) if isinstance(value, float) else value
            for name, value in event.fields.items()
        }
        out.append(TraceEvent(event.seq, round(event.t_ms, 6), event.kind, fields).to_json())
    return out


def diff_traces(
    expected: Sequence[str],
    actual: Sequence[str],
    context: int = 2,
    max_mismatches: int = 10,
) -> list[str]:
    """Readable event-level differences between two normalized traces.

    Returns an empty list when the traces match.  Each mismatch shows
    the event index, both lines, and a little surrounding context.
    """
    problems: list[str] = []
    if len(expected) != len(actual):
        problems.append(
            f"trace length differs: expected {len(expected)} events, got {len(actual)}"
        )
    mismatches = 0
    for index in range(min(len(expected), len(actual))):
        if expected[index] == actual[index]:
            continue
        mismatches += 1
        if mismatches > max_mismatches:
            problems.append("... further mismatches suppressed")
            break
        problems.append(f"event #{index} differs:")
        lo = max(0, index - context)
        for j in range(lo, index):
            problems.append(f"    = {expected[j]}")
        problems.append(f"  - expected: {expected[index]}")
        problems.append(f"  + actual:   {actual[index]}")
    if len(expected) != len(actual) and mismatches <= max_mismatches:
        longer, label = (
            (expected, "missing from actual")
            if len(expected) > len(actual)
            else (actual, "unexpected extra")
        )
        start = min(len(expected), len(actual))
        for line in list(longer[start:])[:context + 1]:
            problems.append(f"  ! {label}: {line}")
    return problems


def summarize(events: Iterable[TraceEvent]) -> dict:
    """Aggregate an event stream into the numbers a human wants first."""
    counts: dict[str, int] = {}
    first_ms: Optional[float] = None
    last_ms = 0.0
    urls: dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
        if first_ms is None:
            first_ms = event.t_ms
        last_ms = max(last_ms, event.t_ms)
        url = event.fields.get("url")
        if url:
            urls[url] = urls.get(url, 0) + 1
    return {
        "events": sum(counts.values()),
        "by_kind": dict(sorted(counts.items())),
        "span_ms": (last_ms - first_ms) if first_ms is not None else 0.0,
        "distinct_urls": len(urls),
        "busiest_urls": sorted(urls.items(), key=lambda kv: (-kv[1], kv[0]))[:5],
    }


def format_summary(summary: dict) -> str:
    lines = [f"events:        {summary['events']}"]
    lines.append(f"span:          {summary['span_ms'] / 1000.0:.1f}s virtual")
    lines.append(f"distinct URLs: {summary['distinct_urls']}")
    lines.append("by kind:")
    for kind, count in summary["by_kind"].items():
        lines.append(f"  {kind:20s} {count}")
    if summary["busiest_urls"]:
        lines.append("busiest URLs:")
        for url, count in summary["busiest_urls"]:
            lines.append(f"  {count:6d}  {url}")
    return "\n".join(lines)
