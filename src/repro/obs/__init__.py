"""Unified observability: the trace-event bus and the metrics registry.

``repro.obs`` is the substrate behind every number in the evaluation
chapter.  The :class:`Recorder` collects typed, virtual-clock-stamped
:class:`TraceEvent` objects from the whole pipeline (network gateway,
XHR/hot-node layer, crawler, index, query engine); the
:class:`MetricsRegistry` is the single home of counters/gauges/
histograms, mergeable exactly across crawl partitions.  Both are
zero-cost when disabled — the default :data:`NULL_RECORDER` does
nothing, and untraced runs stay byte-identical to pre-observability
builds.

See docs/API.md (event schema table) and ``repro.obs.goldens`` for the
golden-trace regression harness.
"""

from repro.obs.events import (
    COMPACTION,
    EVENT_KINDS,
    EVENT_FIRED,
    HOTNODE_CACHE_HIT,
    HOTNODE_CACHE_MISS,
    INDEX_FLUSH,
    PAGE_FETCH,
    SEGMENT_FLUSH,
    QUERY_EVAL,
    REQUEST_FAILED,
    RETRY,
    SERVE_REQUEST,
    SPAN_END,
    SPAN_START,
    STATE_CAPPED,
    STATE_COLLAPSED,
    STATE_DISCOVERED,
    STATE_DUPLICATE,
    TraceEvent,
    XHR_CALL,
    from_jsonl,
    to_jsonl,
)
from repro.obs.doctor import (
    DEFAULT_DOCTOR_CONFIG,
    DoctorConfig,
    Finding,
    diagnose,
    format_findings,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    SERVE_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    bucket_bounds,
    register_buckets,
)
from repro.obs.reqtrace import RequestTrace, active_request, current_request_trace
from repro.obs.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    QuantileSketch,
    merge_sketches,
    nearest_rank,
)
from repro.obs.slo import (
    BURN_RATE_RULE,
    DEFAULT_BURN_RULES,
    SLO,
    BurnRateRule,
    SLOTracker,
    burn_rate,
)
from repro.obs.window import RollingCounter, RollingSketch
from repro.obs.profile import (
    ComponentRow,
    CriticalPathReport,
    PartitionCost,
    critical_path,
    critical_path_from_spans,
    critical_path_report,
    folded_stacks,
    format_component_table,
    format_critical_path,
    format_folded,
    hotnode_attribution,
    profile_components,
    to_speedscope,
)
from repro.obs.recorder import (
    JsonlTraceSink,
    MemorySink,
    NULL_RECORDER,
    NULL_SPAN,
    NullRecorder,
    Recorder,
)
from repro.obs.spans import Span, SpanNestingError, SpanTree, format_span_tree
from repro.obs.trace import (
    diff_traces,
    format_summary,
    merge_partition_traces,
    normalize_lines,
    summarize,
    summarize_jsonl,
)

__all__ = [
    "TraceEvent",
    "EVENT_KINDS",
    "PAGE_FETCH",
    "XHR_CALL",
    "HOTNODE_CACHE_HIT",
    "HOTNODE_CACHE_MISS",
    "RETRY",
    "REQUEST_FAILED",
    "EVENT_FIRED",
    "STATE_DISCOVERED",
    "STATE_DUPLICATE",
    "STATE_COLLAPSED",
    "STATE_CAPPED",
    "INDEX_FLUSH",
    "SEGMENT_FLUSH",
    "COMPACTION",
    "QUERY_EVAL",
    "SERVE_REQUEST",
    "SPAN_START",
    "SPAN_END",
    "to_jsonl",
    "from_jsonl",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "NULL_SPAN",
    "MemorySink",
    "JsonlTraceSink",
    "MetricsRegistry",
    "Histogram",
    "DEFAULT_BUCKETS",
    "SERVE_LATENCY_BUCKETS",
    "register_buckets",
    "bucket_bounds",
    "QuantileSketch",
    "merge_sketches",
    "nearest_rank",
    "DEFAULT_RELATIVE_ACCURACY",
    "RollingCounter",
    "RollingSketch",
    "SLO",
    "SLOTracker",
    "BurnRateRule",
    "DEFAULT_BURN_RULES",
    "BURN_RATE_RULE",
    "burn_rate",
    "RequestTrace",
    "current_request_trace",
    "active_request",
    "normalize_lines",
    "merge_partition_traces",
    "diff_traces",
    "summarize",
    "summarize_jsonl",
    "format_summary",
    "Span",
    "SpanTree",
    "SpanNestingError",
    "format_span_tree",
    "ComponentRow",
    "profile_components",
    "format_component_table",
    "folded_stacks",
    "format_folded",
    "to_speedscope",
    "hotnode_attribution",
    "PartitionCost",
    "CriticalPathReport",
    "critical_path",
    "critical_path_report",
    "critical_path_from_spans",
    "format_critical_path",
    "DoctorConfig",
    "DEFAULT_DOCTOR_CONFIG",
    "Finding",
    "diagnose",
    "format_findings",
]
