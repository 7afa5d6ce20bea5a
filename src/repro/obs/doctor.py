"""The trace doctor: rule-based diagnosis of sick crawls.

:func:`diagnose` scans whatever evidence is available — a trace-event
stream, a metrics snapshot (a :class:`MetricsRegistry` or its
``snapshot()`` dict), a finished parallel run — and emits typed
:class:`Finding` objects, each naming the rule that fired, the
measured signal, the threshold it crossed, and a suggested action.
A healthy crawl produces an empty list; ``make profile-smoke`` gates
on exactly that.

The rule table (also in docs/API.md):

==================== ============================================ =====================
rule id              signal                                        default threshold
==================== ============================================ =====================
quarantine-storm     quarantined events vs. fired events           >=3 and >=10% of fired
cache-collapse       hot-node hit rate over enough lookups         <10% over >=10 lookups
state-cap-truncation states rejected by the per-page cap           >=1
retry-amplification  retries vs. terminal network requests         >=3 and >=50% of requests
partition-skew       max/mean partition duration                   >=1.5x over >=2 partitions
hash-regression      subtree skip rate with incremental hashing    <40% over >=1 incr. pass
==================== ============================================ =====================

Evidence from different sources describes the *same* crawl, so
event-derived and metrics-derived counts are reconciled by ``max`` —
whichever source saw more of the phenomenon wins (a truncated trace
must not mask what the metrics recorded, and vice versa).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from repro.obs.events import (
    EVENT_FIRED,
    HOTNODE_CACHE_HIT,
    HOTNODE_CACHE_MISS,
    PAGE_FETCH,
    RETRY,
    STATE_CAPPED,
    TraceEvent,
    XHR_CALL,
)
from repro.obs.metrics import MetricsRegistry

# -- findings ------------------------------------------------------------------------

#: Finding severities, mild to severe.
SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class Finding:
    """One diagnosed anomaly, with evidence."""

    #: Stable rule identifier (the table above / docs/API.md).
    rule: str
    #: ``info`` | ``warning`` | ``critical``.
    severity: str
    #: One-line human statement of what was observed.
    message: str
    #: The measured value that triggered the rule.
    signal: float
    #: The threshold it crossed.
    threshold: float
    #: What the operator should do about it.
    action: str
    #: Supporting numbers (counts, rates, partition ids).
    evidence: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class DoctorConfig:
    """The thresholds callers tune (see the module docstring table)."""

    quarantine_min_count: int = 3
    quarantine_min_ratio: float = 0.10
    cache_min_lookups: int = 10


# Thresholds of the remaining rules (module docstring table).
CACHE_MIN_HIT_RATE = 0.10
RETRY_MIN_COUNT = 3
RETRY_MIN_RATIO = 0.50
SKEW_MIN_PARTITIONS = 2
SKEW_MAX_RATIO = 1.5
HASH_MIN_INCREMENTAL_PASSES = 1
HASH_MIN_SKIP_RATE = 0.40


DEFAULT_DOCTOR_CONFIG = DoctorConfig()


# -- signals: one normalized view over heterogeneous evidence ------------------------


@dataclass
class Signals:
    """The doctor's working set, extracted from any evidence source."""

    events_fired: int = 0
    events_quarantined: int = 0
    states_capped: int = 0
    retries: int = 0
    network_requests: int = 0
    cache_lookups: int = 0
    cache_hits: int = 0
    hash_incremental_passes: int = 0
    hash_nodes_hashed: int = 0
    hash_nodes_skipped: int = 0
    #: (partition number, duration ms) pairs, when a parallel run or
    #: partition spans are available.
    partition_durations: list[tuple[int, float]] = field(default_factory=list)

    def merge_max(self, other: "Signals") -> None:
        """Reconcile two views of the same crawl (max wins per count)."""
        self.events_fired = max(self.events_fired, other.events_fired)
        self.events_quarantined = max(self.events_quarantined, other.events_quarantined)
        self.states_capped = max(self.states_capped, other.states_capped)
        self.retries = max(self.retries, other.retries)
        self.network_requests = max(self.network_requests, other.network_requests)
        self.cache_lookups = max(self.cache_lookups, other.cache_lookups)
        self.cache_hits = max(self.cache_hits, other.cache_hits)
        self.hash_incremental_passes = max(
            self.hash_incremental_passes, other.hash_incremental_passes
        )
        self.hash_nodes_hashed = max(self.hash_nodes_hashed, other.hash_nodes_hashed)
        self.hash_nodes_skipped = max(self.hash_nodes_skipped, other.hash_nodes_skipped)
        if other.partition_durations and not self.partition_durations:
            self.partition_durations = list(other.partition_durations)


def signals_from_events(events: Iterable[TraceEvent]) -> Signals:
    """Extract the doctor's signals from a trace-event stream."""
    events = list(events)
    signals = Signals()
    partition_spans: dict[int, float] = {}
    for event in events:
        kind = event.kind
        if kind == EVENT_FIRED:
            signals.events_fired += 1
            if event.fields.get("quarantined"):
                signals.events_quarantined += 1
        elif kind == STATE_CAPPED:
            signals.states_capped += 1
        elif kind == RETRY:
            signals.retries += 1
        elif kind == PAGE_FETCH:
            signals.network_requests += 1
        elif kind == XHR_CALL:
            if not event.fields.get("from_cache"):
                signals.network_requests += 1
        elif kind == HOTNODE_CACHE_HIT:
            signals.cache_lookups += 1
            signals.cache_hits += 1
        elif kind == HOTNODE_CACHE_MISS:
            signals.cache_lookups += 1
    # Partition durations via span pairing (start t_ms by span_id).
    starts: dict[Any, TraceEvent] = {}
    for event in events:
        if event.kind == "span_start" and event.fields.get("span") == "partition":
            starts[event.fields.get("span_id")] = event
        elif event.kind == "span_end" and event.fields.get("span") == "partition":
            start = starts.get(event.fields.get("span_id"))
            if start is not None:
                number = int(start.fields.get("partition", 0))
                partition_spans[number] = event.t_ms - start.t_ms
    signals.partition_durations = sorted(partition_spans.items())
    return signals


def signals_from_metrics(metrics: Any) -> Signals:
    """Extract signals from a :class:`MetricsRegistry` or snapshot dict.

    Counter names come from ``crawl.*`` (:class:`CrawlReport`) and
    ``net.*`` (:class:`NetworkStats`).
    """
    if isinstance(metrics, MetricsRegistry):
        snapshot = metrics.snapshot()
    else:
        snapshot = dict(metrics)
    counters = snapshot.get("counters", snapshot)

    def counter(name: str) -> float:
        return float(counters.get(name, 0))

    signals = Signals()
    signals.events_fired = int(counter("crawl.events_invoked"))
    signals.events_quarantined = int(counter("crawl.events_quarantined"))
    signals.states_capped = int(counter("crawl.states_capped"))
    signals.retries = int(counter("net.retries"))
    signals.network_requests = int(
        counter("net.page_fetches") + counter("net.ajax_calls")
    )
    signals.cache_hits = int(counter("crawl.cached_hits"))
    signals.cache_lookups = signals.cache_hits + int(counter("crawl.ajax_calls"))
    signals.hash_incremental_passes = int(counter("crawl.hash_incremental_passes"))
    signals.hash_nodes_hashed = int(counter("crawl.hash_nodes_hashed"))
    signals.hash_nodes_skipped = int(counter("crawl.hash_nodes_skipped"))
    return signals


def signals_from_parallel(run: Any) -> Signals:
    """Partition durations from a finished parallel run (duck-typed)."""
    signals = Signals()
    numbers = list(getattr(run, "partition_numbers", []))
    durations = list(getattr(run, "partition_durations_ms", []))
    signals.partition_durations = sorted(zip(numbers, durations))
    return signals


# -- the rules -----------------------------------------------------------------------


def _rule_quarantine_storm(s: Signals, cfg: DoctorConfig) -> Optional[Finding]:
    if s.events_quarantined < cfg.quarantine_min_count or not s.events_fired:
        return None
    ratio = s.events_quarantined / s.events_fired
    if ratio < cfg.quarantine_min_ratio:
        return None
    return Finding(
        rule="quarantine-storm",
        severity="critical",
        message=(
            f"{s.events_quarantined}/{s.events_fired} fired events were "
            f"quarantined ({ratio:.0%}) — the model has large blind spots"
        ),
        signal=ratio,
        threshold=cfg.quarantine_min_ratio,
        action=(
            "check server health / fault injection; raise retry budget "
            "(retry_max_attempts) or fix the failing endpoints"
        ),
        evidence={
            "events_quarantined": s.events_quarantined,
            "events_fired": s.events_fired,
        },
    )


def _rule_cache_collapse(s: Signals, cfg: DoctorConfig) -> Optional[Finding]:
    if s.cache_lookups < cfg.cache_min_lookups:
        return None
    hit_rate = s.cache_hits / s.cache_lookups
    if hit_rate >= CACHE_MIN_HIT_RATE:
        return None
    return Finding(
        rule="cache-collapse",
        severity="warning",
        message=(
            f"hot-node cache hit rate {hit_rate:.0%} over {s.cache_lookups} "
            f"lookups — the cache is not earning its keep"
        ),
        signal=hit_rate,
        threshold=CACHE_MIN_HIT_RATE,
        action=(
            "inspect hot-node signatures (trace doctor prints the hit "
            "rate only; each miss is a hotnode_cache_miss event of the "
            "trace, with its url and signature): argument-varying calls "
            "never repeat; consider widening the signature normalization"
        ),
        evidence={"cache_hits": s.cache_hits, "cache_lookups": s.cache_lookups},
    )


def _rule_state_cap(s: Signals, cfg: DoctorConfig) -> Optional[Finding]:
    if s.states_capped < 1:
        return None
    return Finding(
        rule="state-cap-truncation",
        severity="warning",
        message=(
            f"{s.states_capped} new state(s) rejected by the per-page "
            f"state cap — content is being hidden from the index"
        ),
        signal=float(s.states_capped),
        threshold=1.0,
        action="raise CrawlerConfig.max_additional_states or tighten the event filter",
        evidence={"states_capped": s.states_capped},
    )


def _rule_retry_amplification(s: Signals, cfg: DoctorConfig) -> Optional[Finding]:
    if s.retries < RETRY_MIN_COUNT or not s.network_requests:
        return None
    ratio = s.retries / s.network_requests
    if ratio < RETRY_MIN_RATIO:
        return None
    return Finding(
        rule="retry-amplification",
        severity="warning",
        message=(
            f"{s.retries} retries against {s.network_requests} completed "
            f"requests ({ratio:.0%}) — backoff time dominates the crawl"
        ),
        signal=ratio,
        threshold=RETRY_MIN_RATIO,
        action=(
            "server is flaky: check fault rate; lower retry_max_attempts "
            "or fix the origin before recrawling"
        ),
        evidence={"retries": s.retries, "network_requests": s.network_requests},
    )


def _rule_partition_skew(s: Signals, cfg: DoctorConfig) -> Optional[Finding]:
    if len(s.partition_durations) < SKEW_MIN_PARTITIONS:
        return None
    durations = [d for _, d in s.partition_durations]
    mean = sum(durations) / len(durations)
    if mean <= 0:
        return None
    worst_partition, worst = max(s.partition_durations, key=lambda p: p[1])
    skew = worst / mean
    if skew < SKEW_MAX_RATIO:
        return None
    return Finding(
        rule="partition-skew",
        severity="warning",
        message=(
            f"partition {worst_partition} ran {skew:.1f}x the mean partition "
            f"duration — the straggler caps parallel speedup"
        ),
        signal=skew,
        threshold=SKEW_MAX_RATIO,
        action=(
            "rebalance the URL partitioner (split the straggler partition) "
            "or raise num_proc_lines past the partition count"
        ),
        evidence={
            "straggler_partition": worst_partition,
            "straggler_ms": worst,
            "mean_ms": mean,
            "partitions": len(durations),
        },
    )


def _rule_hash_regression(s: Signals, cfg: DoctorConfig) -> Optional[Finding]:
    if s.hash_incremental_passes < HASH_MIN_INCREMENTAL_PASSES:
        return None
    total = s.hash_nodes_hashed + s.hash_nodes_skipped
    if not total:
        return None
    skip_rate = s.hash_nodes_skipped / total
    if skip_rate >= HASH_MIN_SKIP_RATE:
        return None
    return Finding(
        rule="hash-regression",
        severity="warning",
        message=(
            f"incremental hashing only skipped {skip_rate:.0%} of DOM nodes "
            f"over {s.hash_incremental_passes} incremental pass(es) — the "
            f"Merkle caches are not being reused"
        ),
        signal=skip_rate,
        threshold=HASH_MIN_SKIP_RATE,
        action=(
            "events are dirtying most of the tree (or caches are being "
            "invalidated wholesale): check dirty-propagation in repro.dom"
        ),
        evidence={
            "nodes_hashed": s.hash_nodes_hashed,
            "nodes_skipped": s.hash_nodes_skipped,
            "incremental_passes": s.hash_incremental_passes,
        },
    )


#: Every rule, in report order.
RULES = (
    _rule_quarantine_storm,
    _rule_cache_collapse,
    _rule_state_cap,
    _rule_retry_amplification,
    _rule_partition_skew,
    _rule_hash_regression,
)


# -- entry points --------------------------------------------------------------------


def diagnose(
    events: Optional[Iterable[TraceEvent]] = None,
    metrics: Optional[Any] = None,
    parallel: Optional[Any] = None,
    config: DoctorConfig = DEFAULT_DOCTOR_CONFIG,
) -> list[Finding]:
    """Run every rule over the available evidence.

    Any combination of sources may be given; their signals are
    reconciled by ``max`` (they describe the same crawl).
    """
    signals = Signals()
    if events is not None:
        signals.merge_max(signals_from_events(events))
    if metrics is not None:
        signals.merge_max(signals_from_metrics(metrics))
    if parallel is not None:
        signals.merge_max(signals_from_parallel(parallel))
    findings = []
    for rule in RULES:
        finding = rule(signals, config)
        if finding is not None:
            findings.append(finding)
    return findings


def format_findings(findings: list[Finding]) -> str:
    """Render a findings list the way ``trace doctor`` prints it."""
    if not findings:
        return "doctor: no findings — crawl looks healthy"
    lines = [f"doctor: {len(findings)} finding(s)"]
    for finding in findings:
        lines.append(f"[{finding.severity}] {finding.rule}: {finding.message}")
        lines.append(
            f"    signal={finding.signal:.4g} threshold={finding.threshold:.4g}"
        )
        lines.append(f"    action: {finding.action}")
    return "\n".join(lines)
