"""Trace post-processing: normalization, diffing and summaries.

Golden-trace regression testing compares the canonical JSONL of a
seeded crawl against a checked-in file.  The comparison goes through a
*normalizer* so that intentionally unstable fields (none by default —
the whole pipeline is deterministic) can be masked without weakening
the rest of the trace, and through :func:`diff_traces`, which renders a
readable event-level diff instead of a wall of bytes.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from repro.obs.events import TraceEvent, from_jsonl


def merge_partition_traces(
    traces: Mapping[int, Sequence[TraceEvent]],
) -> list[TraceEvent]:
    """One canonical stream from per-partition recorder outputs.

    A parallel crawl gives every partition its own recorder (one shared
    sequence across concurrent workers would make ``seq`` depend on
    thread interleaving).  This merge makes the combined stream
    deterministic again: partitions concatenate in ascending partition
    number, each partition's events keep their internal emission order,
    and ``seq`` is renumbered globally — so the merged trace of a
    seeded crawl is identical whichever backend (and however many
    threads) produced it.  Nondeterministic ``wall_ms`` annotations are
    dropped for the same reason.
    """
    merged: list[TraceEvent] = []
    seq = 0
    span_offset = 0
    for partition in sorted(traces):
        max_span_id = -1
        for event in traces[partition]:
            fields = {k: v for k, v in event.fields.items() if k != "wall_ms"}
            # Per-partition recorders each start span ids at 0; offset
            # them into disjoint ranges so the merged stream looks like
            # one recorder produced it (span trees stay well-formed).
            for key in ("span_id", "parent_id"):
                if key in fields:
                    max_span_id = max(max_span_id, fields[key])
                    fields[key] = fields[key] + span_offset
            merged.append(
                TraceEvent(seq=seq, t_ms=event.t_ms, kind=event.kind, fields=fields)
            )
            seq += 1
        span_offset += max_span_id + 1
    return merged


def normalize_lines(
    lines: Iterable[str],
    drop_fields: Sequence[str] = (),
    round_floats: Optional[int] = 6,
) -> list[str]:
    """Canonicalize trace lines for comparison.

    ``drop_fields`` masks allowed-to-change fields (their values are
    replaced by ``"*"`` so presence is still asserted); ``round_floats``
    guards against float-repr drift across interpreter versions.
    """
    out = []
    for line in lines:
        if not line.strip():
            continue
        event = TraceEvent.from_json(line)
        fields = {}
        for name, value in event.fields.items():
            if name in drop_fields:
                fields[name] = "*"
            elif isinstance(value, float) and round_floats is not None:
                fields[name] = round(value, round_floats)
            else:
                fields[name] = value
        t_ms = round(event.t_ms, round_floats) if round_floats is not None else event.t_ms
        out.append(TraceEvent(event.seq, t_ms, event.kind, fields).to_json())
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


def summarize_jsonl(text: str) -> dict:
    return summarize(from_jsonl(text))


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
