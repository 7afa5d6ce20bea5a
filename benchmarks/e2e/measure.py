"""Measurement helpers shared by the e2e workloads.

Nothing here knows about a workload, and importing this module does
not import the program (run.py times that import): the speed probe and the two timers
built on it, nearest-rank percentiles and quartiles, peak RSS, and the
folding of a recorded span stream into *self* wall time per span kind
(``repro.obs.profile`` only knows virtual time).

Speed correction
----------------

The box this benchmark was written on is a two-core VM on a shared
host: the same work takes 5.6 s or 9.3 s depending on the minute, and
stays slow for longer than a repetition, so neither medians nor best-of
repeat (README.md has the numbers).  What does repeat is wall time
measured against a probe: a fixed arithmetic loop, independent of the
program under test, run every ``SLICE_S`` of measured work.  Each
slice's wall time is scaled by ``REFERENCE_MS / probe ms`` (the mean of
the probes around it), i.e. to what it would have taken with the probe
at its undisturbed speed on the recording box.  A quiet machine gives a
factor of 1 and the raw wall clock; raw and corrected time are both
recorded.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

#: Iterations of the probe loop.
PROBE_ITERATIONS = 60_000
#: What the probe takes on the recording box when nothing disturbs it.
REFERENCE_MS = 5.0
#: Measured work between two probes.
SLICE_S = 0.1
#: Probes around a repetition further apart than this flag it noisy.
NOISE_THRESHOLD = 0.10


def probe() -> float:
    """Wall ms of a fixed pure-Python loop: the machine's speed, now."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return (time.perf_counter() - start) * 1000.0


class Pace:
    """Times units of work and corrects them, slice by slice, for the
    machine's speed while they ran (see the module docstring)."""

    def __init__(self) -> None:
        #: Wall seconds inside units, as measured.
        self.raw_s = 0.0
        #: The same at reference speed.
        self.s = 0.0
        #: Corrected ms of every unit, in order.
        self.unit_ms: list[float] = []
        #: Every probe taken, first to last.
        self.probes_ms = [probe()]
        self._open: list[float] = []  # raw ms of the units since the last probe
        self._open_ms = 0.0

    @contextmanager
    def unit(self) -> Iterator[None]:
        start = time.perf_counter()
        yield
        ms = (time.perf_counter() - start) * 1000.0
        self._open.append(ms)
        self._open_ms += ms
        if self._open_ms >= SLICE_S * 1000.0:
            self.finish()

    def finish(self) -> None:
        """Close the open slice: probe, then correct its units."""
        if not self._open:
            return
        self.probes_ms.append(probe())
        factor = REFERENCE_MS / statistics.mean(self.probes_ms[-2:])
        self.raw_s += self._open_ms / 1000.0
        self.s += self._open_ms * factor / 1000.0
        self.unit_ms += [ms * factor for ms in self._open]
        self._open, self._open_ms = [], 0.0

    @property
    def noisy(self) -> bool:
        """Whether the machine changed speed from the first probe to the last."""
        first, last = self.probes_ms[0], self.probes_ms[-1]
        return abs(last - first) / min(first, last) > NOISE_THRESHOLD


class Timer:
    """``with Timer() as t: ...`` then ``t.ms`` / ``t.s`` at reference
    speed (one slice: a probe before and after) and ``t.raw_s``."""

    def __enter__(self) -> "Timer":
        self._before = probe()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = time.perf_counter() - self._start
        self.s = self.raw_s * REFERENCE_MS / statistics.mean((self._before, probe()))

    @property
    def ms(self) -> float:
        return self.s * 1000.0


def rank(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile (the rule of ``repro.serve.percentile``)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(fraction * len(ordered)) - 1))]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span_self_ms(events) -> dict[str, tuple[float, int]]:
    """``kind -> (self wall ms, span count)`` of a recorded span stream.

    A span's self time is its duration minus the part its direct child
    spans cover.  Needs ``Recorder(spans=True, wall_clock=True)`` events.
    """
    from repro.obs import SPAN_END, SPAN_START

    open_spans: dict[int, list] = {}  # span_id -> [kind, start, child ms, parent]
    totals: dict[str, list] = {}
    for event in events:
        fields = event.fields
        if event.kind == SPAN_START:
            open_spans[fields["span_id"]] = [
                fields["span"], fields["wall_ms"], 0.0, fields.get("parent_id")
            ]
        elif event.kind == SPAN_END:
            kind, start, child_ms, parent = open_spans.pop(fields["span_id"])
            duration = fields["wall_ms"] - start
            total = totals.setdefault(kind, [0.0, 0])
            total[0] += duration - child_ms
            total[1] += 1
            if parent in open_spans:
                open_spans[parent][2] += duration
    return {kind: (ms, count) for kind, (ms, count) in totals.items()}
