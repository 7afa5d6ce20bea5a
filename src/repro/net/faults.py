"""Deterministic fault injection and the retry/backoff policy.

The thesis crawls a live site where servers misbehave; our simulated
substrate was perfectly reliable, so the crawler's robustness was
untestable.  This module closes that gap with two pieces:

* :class:`FaultPlan` — a seedable, fully deterministic schedule of
  server failures.  A plan owns a list of :class:`FaultRule` objects
  (per-URL-pattern 5xx rates, injected timeouts, N-failures-then-recover
  flaky endpoints) and keeps an :attr:`FaultPlan.log` of every injected
  fault, so tests can assert that the gateway observed *exactly* the
  failures the plan produced.  :class:`FaultInjector` wraps any
  :class:`~repro.net.server.SimulatedServer` and consults the plan
  before delegating to the real server.

* :class:`RetryPolicy` — how the :class:`~repro.net.gateway.NetworkGateway`
  reacts to a failed attempt: a retryable-status set, a maximum attempt
  count and exponential backoff with *deterministic* jitter (derived
  from a hash of the URL and attempt number, never from wall-clock
  randomness), so reruns of a crawl are bit-for-bit reproducible.

Injected timeouts are modelled as a 504 response carrying the
:data:`TIMEOUT_HEADER`; the gateway charges the advertised timeout
latency to the virtual clock instead of drawing from the cost model.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass
from typing import Optional

from repro.net.http import Request, Response
from repro.net.server import SimulatedServer

#: Marks a response as an injected fault (diagnostics only).
FAULT_HEADER = "x-injected-fault"
#: On an injected timeout: the virtual milliseconds the client waited.
TIMEOUT_HEADER = "x-injected-timeout-ms"


@dataclass(frozen=True)
class FaultRule:
    """One failure behaviour applied to URLs matching ``pattern``.

    Exactly one trigger is active per rule: ``fail_first`` (deterministic
    N-failures-then-recover) when positive, otherwise the random ``rate``.
    """

    #: Regex searched against the full request URL.
    pattern: str
    #: Probability in [0, 1] that a matching request fails.
    rate: float = 0.0
    #: Status of the injected failure (5xx; ignored for timeouts).
    status: int = 500
    #: ``"error"`` for a plain 5xx, ``"timeout"`` for a hung request.
    kind: str = "error"
    #: Virtual latency charged for an injected timeout.
    timeout_ms: float = 5000.0
    #: Fail the first N matching requests per URL, then recover.
    fail_first: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.kind not in ("error", "timeout"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "error" and self.status < 500:
            raise ValueError(f"injected errors must be 5xx, got {self.status}")

    def matches(self, url: str) -> bool:
        return re.search(self.pattern, url) is not None


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded in :attr:`FaultPlan.log`."""

    seq: int
    url: str
    rule_index: int
    kind: str
    status: int


class FaultPlan:
    """A deterministic schedule of failures over a rule list.

    Decisions consume a private seeded RNG in request order, so the same
    plan replayed over the same request sequence injects the same
    faults.  ``decide`` is thread-safe (the threaded scheduler shares
    one plan across partitions), though cross-thread request order — and
    therefore which *specific* requests fail — is then up to the OS; the
    log/counter invariants still hold exactly.
    """

    def __init__(self, rules: list[FaultRule], seed: int = 0) -> None:
        import random

        self.rules = list(rules)
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: Per (rule, URL) match counts, for ``fail_first`` rules.
        self._match_counts: dict[tuple[int, str], int] = {}
        #: Every fault injected so far, in injection order.
        self.log: list[FaultEvent] = []

    @property
    def num_injected(self) -> int:
        """Total faults injected so far."""
        return len(self.log)

    def decide(self, request: Request) -> Optional[Response]:
        """The fault response for ``request``, or ``None`` to pass through."""
        with self._lock:
            for index, rule in enumerate(self.rules):
                if not rule.matches(request.url):
                    continue
                if rule.fail_first > 0:
                    key = (index, request.url)
                    count = self._match_counts.get(key, 0)
                    self._match_counts[key] = count + 1
                    inject = count < rule.fail_first
                elif rule.rate > 0.0:
                    inject = self._rng.random() < rule.rate
                else:
                    inject = False
                if inject:
                    return self._inject(request.url, index, rule)
            return None

    def _inject(self, url: str, index: int, rule: FaultRule) -> Response:
        status = 504 if rule.kind == "timeout" else rule.status
        self.log.append(
            FaultEvent(
                seq=len(self.log),
                url=url,
                rule_index=index,
                kind=rule.kind,
                status=status,
            )
        )
        if rule.kind == "timeout":
            return Response(
                status=status,
                body="",
                headers={
                    FAULT_HEADER: "timeout",
                    TIMEOUT_HEADER: str(rule.timeout_ms),
                },
            )
        return Response(
            status=status,
            body=f"<html><body>{status}: injected fault</body></html>",
            headers={FAULT_HEADER: "error"},
        )

    def reset(self) -> None:
        """Rewind the plan to its initial state (same seed, empty log)."""
        import random

        with self._lock:
            self._rng = random.Random(self.seed)
            self._match_counts.clear()
            self.log.clear()


class FaultInjector(SimulatedServer):
    """Wraps a server, substituting failures according to a plan."""

    def __init__(self, inner: SimulatedServer, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    def handle(self, request: Request) -> Response:
        fault = self.plan.decide(request)
        if fault is not None:
            return fault
        return self.inner.handle(request)


#: Statuses worth retrying: transient server errors and timeouts.
DEFAULT_RETRYABLE_STATUSES = frozenset({500, 502, 503, 504, 408, 429})


@dataclass(frozen=True)
class RetryPolicy:
    """How the gateway reacts to a failed request attempt."""

    #: Total attempts per request (1 = no retries, the legacy behaviour).
    max_attempts: int = 3
    #: Backoff before the first retry.
    backoff_base_ms: float = 100.0
    #: Growth factor per additional retry (exponential backoff).
    backoff_multiplier: float = 2.0
    #: Jitter half-range as a fraction of the backoff (0.1 = ±10%).
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def is_retryable(self, status: int) -> bool:
        return status in DEFAULT_RETRYABLE_STATUSES or status >= 500

    def should_retry(self, attempt: int, status: int) -> bool:
        """Whether to retry after ``attempt`` attempts ended in ``status``."""
        return attempt < self.max_attempts and self.is_retryable(status)

    def backoff_ms(self, attempt: int, url: str = "") -> float:
        """Backoff before attempt ``attempt + 1``.

        The jitter is a pure function of ``(url, attempt)`` — two runs of
        the same crawl wait exactly the same virtual time, yet distinct
        URLs retrying simultaneously do not thunder in lock-step.
        """
        base = self.backoff_base_ms * self.backoff_multiplier ** (attempt - 1)
        if self.jitter <= 0.0:
            return base
        digest = hashlib.sha256(f"{url}#{attempt}".encode("utf-8")).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64  # [0, 1)
        return base * (1.0 + self.jitter * (2.0 * fraction - 1.0))


#: The legacy behaviour: one attempt, no backoff.
NO_RETRY = RetryPolicy(max_attempts=1)
