"""Profiling on top of span trees: where did the crawl's budget go?

Chapter 7 reasons in aggregates (states/sec, requests saved, N-line
speedup); this module answers the *inside* questions.  Three outputs,
all derived from a :class:`~repro.obs.spans.SpanTree`:

* :func:`profile_components` — per-span-kind attribution of inclusive/
  exclusive virtual time plus the network bytes and calls charged by
  point events inside each kind (``page_fetch``/``xhr_call``).

* :func:`folded_stacks` / :func:`to_speedscope` — flamegraph exports.
  Folded stacks are the ``flamegraph.pl`` input format (one
  ``root;child;leaf <weight>`` line per unique stack, weights in
  integer microseconds of *exclusive* time); speedscope JSON is the
  evented format, one profile per root span, because per-partition
  clock rebinds make timestamps comparable only within a root.

* :func:`critical_path` / :func:`critical_path_from_spans` — replay of
  :func:`earliest_free_lines`, the :class:`~repro.parallel.MPAjaxCrawler`
  scheduler, over per-partition durations: per-line finish times, the
  makespan, the straggler partition and its makespan share, and the
  skew ratio (max/mean duration).  This is the quantitative answer to "why was
  the four-line speedup only ~27%?" (Figure 7.8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.events import PAGE_FETCH, XHR_CALL
from repro.obs.spans import Span, SpanTree

# -- per-component attribution -------------------------------------------------------


@dataclass
class ComponentRow:
    """Aggregate over every span of one kind."""

    kind: str
    count: int = 0
    inclusive_ms: float = 0.0
    exclusive_ms: float = 0.0
    network_bytes: int = 0
    network_calls: int = 0
    errors: int = 0


def profile_components(tree: SpanTree) -> list[ComponentRow]:
    """Per-kind time/network attribution, sorted by exclusive time."""
    rows: dict[str, ComponentRow] = {}
    for span in tree.walk():
        row = rows.setdefault(span.kind, ComponentRow(kind=span.kind))
        row.count += 1
        row.inclusive_ms += span.inclusive_ms
        row.exclusive_ms += span.exclusive_ms
        if span.error:
            row.errors += 1
        for event in span.events:
            if event.kind in (PAGE_FETCH, XHR_CALL):
                row.network_calls += 1
                row.network_bytes += int(event.fields.get("bytes", 0))
    return sorted(rows.values(), key=lambda r: (-r.exclusive_ms, r.kind))


def format_component_table(rows: Iterable[ComponentRow]) -> str:
    """Fixed-width text table of the component profile."""
    header = (
        f"{'component':<14} {'count':>6} {'incl ms':>12} {'excl ms':>12} "
        f"{'net calls':>9} {'net bytes':>10} {'errors':>6}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.kind:<14} {row.count:>6} {row.inclusive_ms:>12.1f} "
            f"{row.exclusive_ms:>12.1f} {row.network_calls:>9} "
            f"{row.network_bytes:>10} {row.errors:>6}"
        )
    return "\n".join(lines)


# -- flamegraph exports --------------------------------------------------------------


def folded_stacks(tree: SpanTree) -> dict[str, int]:
    """Collapse the forest into ``flamegraph.pl`` folded-stack lines.

    Keys are ``;``-joined span labels root-first; values are integer
    microseconds of the leaf span's *exclusive* time (µs so short spans
    survive integer truncation).  Unclosed spans contribute nothing.
    """
    folded: dict[str, int] = {}

    def descend(span: Span, prefix: str) -> None:
        stack = f"{prefix};{span.label()}" if prefix else span.label()
        weight_us = int(round(span.exclusive_ms * 1000.0))
        if span.closed and weight_us > 0:
            folded[stack] = folded.get(stack, 0) + weight_us
        for child in span.children:
            descend(child, stack)

    for root in tree.roots:
        descend(root, "")
    return folded


def format_folded(folded: dict[str, int]) -> str:
    """One ``stack weight`` line per entry, sorted for determinism."""
    return "\n".join(f"{stack} {weight}" for stack, weight in sorted(folded.items()))


def to_speedscope(tree: SpanTree, name: str = "repro-trace") -> dict[str, Any]:
    """Export the forest as a speedscope-JSON document.

    Evented format, one profile per root span: per-partition clock
    rebinds reset timestamps between roots, so each root gets its own
    self-consistent timeline (unit: milliseconds).
    """
    frames: list[dict[str, str]] = []
    frame_index: dict[str, int] = {}

    def frame_of(span: Span) -> int:
        label = span.label()
        if label not in frame_index:
            frame_index[label] = len(frames)
            frames.append({"name": label})
        return frame_index[label]

    profiles: list[dict[str, Any]] = []
    for number, root in enumerate(tree.roots):
        events: list[dict[str, Any]] = []
        end_at = root.end_ms if root.end_ms is not None else root.start_ms

        def emit(span: Span) -> None:
            if not span.closed:
                return
            events.append({"type": "O", "frame": frame_of(span), "at": span.start_ms})
            for child in span.children:
                emit(child)
            events.append({"type": "C", "frame": frame_of(span), "at": span.end_ms})

        emit(root)
        profiles.append(
            {
                "type": "evented",
                "name": f"{name}#{number}:{root.label()}",
                "unit": "milliseconds",
                "startValue": root.start_ms,
                "endValue": end_at,
                "events": events,
            }
        )
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": profiles,
        "name": name,
        "exporter": "repro.obs.profile",
    }


# -- critical path over process lines ------------------------------------------------


@dataclass(frozen=True)
class PartitionCost:
    """One partition's scheduled duration on a process line."""

    partition: int
    duration_ms: float


@dataclass
class CriticalPathReport:
    """Replay of the earliest-free-line scheduler over partition costs."""

    num_lines: int
    partitions: list[PartitionCost] = field(default_factory=list)
    #: Which line each partition landed on (parallel to ``partitions``).
    assignments: list[int] = field(default_factory=list)
    line_finish_ms: list[float] = field(default_factory=list)
    makespan_ms: float = 0.0
    #: The partition with the largest duration — the run's straggler.
    straggler_partition: int = 0
    straggler_duration_ms: float = 0.0
    #: The straggler's duration as a fraction of the makespan.
    straggler_share: float = 0.0
    #: max / mean partition duration (1.0 means perfectly balanced).
    skew: float = 0.0
    #: Partitions on the critical (makespan-defining) line, in order.
    critical_line_partitions: list[int] = field(default_factory=list)

    @property
    def critical_line(self) -> int:
        if not self.line_finish_ms:
            return 0
        return max(range(len(self.line_finish_ms)), key=lambda i: self.line_finish_ms[i])


def earliest_free_lines(
    durations: Iterable[float], num_lines: int
) -> tuple[list[float], list[int]]:
    """The ``getPartitionID()`` scheduler of both parallel engines.

    Durations are taken in order, each landing on the line with the
    smallest accumulated time (``min`` breaks ties at the lowest index).
    Returns each line's finish time and the line each duration took.
    """
    line_times = [0.0] * num_lines
    assignments: list[int] = []
    for duration in durations:
        line = min(range(num_lines), key=line_times.__getitem__)
        line_times[line] += duration
        assignments.append(line)
    return line_times, assignments


def critical_path(costs: list[PartitionCost], num_lines: int) -> CriticalPathReport:
    """Schedule ``costs`` onto ``num_lines`` earliest-free lines, the
    replay of :func:`earliest_free_lines` the simulated engine ran."""
    if num_lines < 1:
        raise ValueError("need at least one process line")
    line_times, assignments = earliest_free_lines(
        (cost.duration_ms for cost in costs), num_lines
    )
    makespan = max(line_times) if costs else 0.0
    straggler = max(costs, key=lambda c: c.duration_ms) if costs else None
    durations = [c.duration_ms for c in costs]
    mean = sum(durations) / len(durations) if durations else 0.0
    report = CriticalPathReport(
        num_lines=num_lines,
        partitions=list(costs),
        assignments=assignments,
        line_finish_ms=line_times,
        makespan_ms=makespan,
        straggler_partition=straggler.partition if straggler else 0,
        straggler_duration_ms=straggler.duration_ms if straggler else 0.0,
        straggler_share=(straggler.duration_ms / makespan) if straggler and makespan else 0.0,
        skew=(max(durations) / mean) if durations and mean else 0.0,
    )
    report.critical_line_partitions = [
        cost.partition
        for cost, line in zip(costs, assignments)
        if line == report.critical_line
    ]
    return report


def critical_path_from_spans(tree: SpanTree, num_lines: int) -> CriticalPathReport:
    """Critical-path analysis from ``partition`` spans in a trace.

    Each partition's duration is its span's inclusive time (valid even
    across clock rebinds — inclusive time is within-root).  Startup
    overhead is not in the trace, so this is the network+CPU view.
    """
    costs = [
        PartitionCost(
            partition=int(span.fields.get("partition", 0)),
            duration_ms=span.inclusive_ms,
        )
        for span in tree.by_kind("partition")
    ]
    costs.sort(key=lambda c: c.partition)
    return critical_path(costs, num_lines)


def format_critical_path(report: CriticalPathReport) -> str:
    """Human-readable critical-path summary."""
    lines = [
        f"process lines : {report.num_lines}",
        f"partitions    : {len(report.partitions)}",
        f"makespan      : {report.makespan_ms:.1f} ms",
        f"line finishes : "
        + ", ".join(f"L{i}={t:.1f}" for i, t in enumerate(report.line_finish_ms)),
        f"critical line : L{report.critical_line} "
        f"(partitions {report.critical_line_partitions})",
        f"straggler     : partition {report.straggler_partition} "
        f"({report.straggler_duration_ms:.1f} ms, "
        f"{report.straggler_share:.1%} of makespan)",
        f"skew          : {report.skew:.2f}x (max/mean partition duration)",
    ]
    return "\n".join(lines)
