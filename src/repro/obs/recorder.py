"""The trace-event bus: a :class:`Recorder` stamps and collects events.

Design constraints, in order:

1. **Zero cost when disabled.**  Tracing is off by default; the crawl
   hot path must not pay for it.  Every instrumented component holds a
   recorder that defaults to :data:`NULL_RECORDER`, whose ``enabled``
   is False and whose :meth:`~NullRecorder.emit` returns immediately.
   Hot paths with expensive field construction guard on
   ``recorder.enabled`` first.  Crucially, the disabled path draws no
   randomness and charges no virtual time, so traced and untraced runs
   of the same seed produce byte-identical experiment outputs.

2. **Determinism.**  The sequence number is a lock-protected monotonic
   counter; timestamps come from the shared virtual clock.  A seeded
   crawl therefore yields the same canonical trace on every run.

3. **Bounded memory.**  Events go to a sink; the default in-memory sink
   keeps them all (tests, summaries), the JSONL sink streams them to a
   file for long crawls.

Spans
-----

``Recorder(spans=True)`` turns on the causal layer: ``with
recorder.span("page", url=...):`` emits a ``span_start`` event, pushes
the span onto a per-thread stack, and emits the matching ``span_end``
on exit.  While a span is open, every event emitted on the same thread
— point events included — carries its ``span_id`` as ``parent_id``, so
the flat JSONL stream reconstructs into a tree
(:class:`repro.obs.spans.SpanTree`).  The flag defaults to False so
span-free traces (and the golden corpora recorded before spans
existed) stay byte-identical.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Optional, TextIO

from repro.clock import SimClock
from repro.obs.events import SPAN_END, SPAN_START, TraceEvent


class MemorySink:
    """Keeps every event in a list (the default sink)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def write(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass


class JsonlTraceSink:
    """Streams events to a JSONL file as they are emitted.

    Usable as a context manager so a crawl that raises mid-run still
    flushes and closes the file — otherwise buffered events are lost
    with the interpreter's stdio teardown.

    One sink may be shared by several recorders on several threads: a
    write lock serializes whole lines, so concurrent writers interleave
    *events*, never bytes — every line stays valid JSON.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle: Optional[TextIO] = self.path.open("w", encoding="utf-8")
        self._lock = threading.Lock()

    def write(self, event: TraceEvent) -> None:
        line = event.to_json() + "\n"
        with self._lock:
            if self._handle is None:
                raise ValueError(f"trace sink {self.path} already closed")
            self._handle.write(line)

    def flush(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()


class _SpanHandle:
    """One open span: context manager + late-field annotation.

    The handle carries fields destined for the ``span_end`` event
    (results known only at exit, e.g. ``states=7``); ``annotate`` adds
    them while the span is open.
    """

    __slots__ = ("_recorder", "kind", "span_id", "_end_fields")

    def __init__(self, recorder: "Recorder", kind: str, span_id: int) -> None:
        self._recorder = recorder
        self.kind = kind
        self.span_id = span_id
        self._end_fields: dict[str, Any] = {}

    def annotate(self, **fields: Any) -> None:
        """Attach fields to the eventual ``span_end`` event."""
        self._end_fields.update(fields)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self._end_fields["error"] = True
        self._recorder._end_span(self, self._end_fields)


class _NullSpan:
    """The span handle of a disabled (or spans-off) recorder."""

    __slots__ = ()
    kind = ""
    span_id = -1

    def annotate(self, **fields: Any) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


#: Shared no-op span handle — one allocation for every disabled span.
NULL_SPAN = _NullSpan()


class Recorder:
    """An enabled trace bus bound to a virtual clock."""

    enabled = True

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        sink: Optional[Any] = None,
        spans: bool = False,
        wall_clock: bool = False,
    ) -> None:
        self.clock = clock
        self.sink = sink if sink is not None else MemorySink()
        #: Whether the causal span layer is on.  Off by default so
        #: span-free traces stay byte-identical to earlier builds.
        self.spans = spans
        #: Whether events also carry ``wall_ms`` — real elapsed ms since
        #: the recorder was created, alongside the virtual ``t_ms``.
        #: Off by default: wall time is nondeterministic, so it never
        #: appears in golden traces or parity comparisons.
        self.wall_clock = wall_clock
        self._wall_start = time.perf_counter()
        self._seq = 0
        self._span_ids = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def bind_clock(self, clock: SimClock) -> None:
        """Late-bind the clock (components that create their own)."""
        if self.clock is None:
            self.clock = clock

    def rebind_clock(self, clock: SimClock) -> None:
        """Force a new clock (a worker starting a fresh partition)."""
        self.clock = clock

    # -- span protocol -------------------------------------------------------------

    def _span_stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, kind: str, **fields: Any) -> Any:
        """Open a causal span (context manager).

        Emits ``span_start`` (parented to the enclosing span, if any),
        pushes the span id on this thread's stack so nested events and
        spans pick it up as ``parent_id``, and emits ``span_end`` on
        exit.  With ``spans`` off this is a shared no-op handle.
        """
        if not self.spans:
            return NULL_SPAN
        with self._lock:
            span_id = self._span_ids
            self._span_ids += 1
        handle = _SpanHandle(self, kind, span_id)
        # The start event is emitted *before* the push, so its own
        # parent_id is the enclosing span — then the push makes this
        # span the parent of everything inside it.
        self.emit(SPAN_START, span=kind, span_id=span_id, **fields)
        self._span_stack().append(span_id)
        return handle

    def _end_span(self, handle: _SpanHandle, fields: dict[str, Any]) -> None:
        stack = self._span_stack()
        # Pop before emitting so span_end parents to the *enclosing*
        # span, mirroring span_start.
        if stack and stack[-1] == handle.span_id:
            stack.pop()
        elif handle.span_id in stack:  # pragma: no cover - defensive
            stack.remove(handle.span_id)
        self.emit(SPAN_END, span=handle.kind, span_id=handle.span_id, **fields)

    def emit(self, kind: str, **fields: Any) -> TraceEvent:
        """Stamp and record one event; returns it (tests, chaining).

        ``kind``, ``seq`` and ``t_ms`` are reserved — they are the
        envelope, not payload field names.  With spans on, events
        emitted inside an open span gain its id as ``parent_id``.
        """
        if self.spans and "parent_id" not in fields:
            stack = self._span_stack()
            if stack:
                fields["parent_id"] = stack[-1]
        if self.wall_clock:
            fields["wall_ms"] = round(
                (time.perf_counter() - self._wall_start) * 1000.0, 3
            )
        with self._lock:
            seq = self._seq
            self._seq += 1
            t_ms = self.clock.now_ms if self.clock is not None else 0.0
            event = TraceEvent(seq=seq, t_ms=t_ms, kind=kind, fields=fields)
            self.sink.write(event)
        return event

    @property
    def events(self) -> list[TraceEvent]:
        """The recorded events (only for sinks that retain them)."""
        return getattr(self.sink, "events", [])

    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()


class NullRecorder:
    """The disabled bus: every emit is an immediate no-op."""

    enabled = False
    spans = False
    clock = None

    def emit(self, kind: str, **fields: Any) -> None:
        return None

    def span(self, kind: str, **fields: Any) -> _NullSpan:
        return NULL_SPAN

    def bind_clock(self, clock: SimClock) -> None:
        return None

    def rebind_clock(self, clock: SimClock) -> None:
        return None

    @property
    def events(self) -> list[TraceEvent]:
        return []

    def close(self) -> None:
        return None

    def __enter__(self) -> "NullRecorder":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


#: The shared disabled recorder every component defaults to.
NULL_RECORDER = NullRecorder()
