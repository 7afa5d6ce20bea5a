"""A mergeable streaming quantile sketch (DDSketch-style).

The serving tier needs live percentiles: p50/p95/p99 latency over an
unbounded request stream, readable at any moment, mergeable across
load-test workers and rolling-window slots.  A sorted list (what the
load-test harness used post-hoc) is O(n) memory and cannot merge; a
fixed-bound histogram loses all resolution below its first bucket.

:class:`QuantileSketch` stores counts in logarithmic buckets: bucket
``k`` covers ``(gamma^(k-1), gamma^k]`` with
``gamma = (1 + a) / (1 - a)`` for a configured relative accuracy
``a``.  Every quantile estimate is therefore within ``a`` *relative*
error of the true value at the same nearest-rank position — 1% of a
0.3 ms cache hit and 1% of a 2 s replay alike, with a few hundred
buckets total.

Guarantees the tests pin down:

* **relative-error bound** — ``|quantile(q) - exact(q)| <= a * exact(q)``
  where ``exact`` is the nearest-rank value of the sorted stream under
  the same rank rule (:func:`nearest_rank`);
* **exact merge** — merging is bucket-wise addition, so any split of a
  stream into sub-sketches, merged in any order or grouping, yields the
  byte-identical sketch of the whole stream (the
  :class:`~repro.obs.metrics.MetricsRegistry` merge property, lifted to
  quantiles);
* **serializable** — :meth:`to_dict`/:meth:`from_dict` round-trip the
  whole state exactly, like :class:`~repro.obs.metrics.Histogram`.
"""

from __future__ import annotations

import math
import threading
from typing import Mapping, Sequence

#: Default relative accuracy: estimates within 1% of the true value.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Values below this collapse into the zero bucket (sub-nanosecond
#: latencies are indistinguishable from zero for every consumer here).
MIN_TRACKED_VALUE = 1e-9


def nearest_rank(count: int, fraction: float) -> int:
    """The 0-based nearest-rank index used by every percentile here.

    On a sorted list of ``count`` values: ``round(fraction * count) - 1``,
    clamped into ``[0, count - 1]``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    return min(count - 1, max(0, round(fraction * count) - 1))


class QuantileSketch:
    """Log-bucketed quantile sketch over non-negative values.

    Thread-safe: serving handler threads observe concurrently.
    """

    __slots__ = (
        "relative_accuracy",
        "_gamma",
        "_log_gamma",
        "_lock",
        "buckets",
        "zero_count",
        "count",
        "sum",
        "_min",
        "_max",
    )

    def __init__(
        self, relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY
    ) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        self.relative_accuracy = relative_accuracy
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._lock = threading.Lock()
        #: bucket index -> count; index k covers (gamma^(k-1), gamma^k].
        self.buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = 0.0

    # -- ingest -------------------------------------------------------------------

    def bucket_key(self, value: float) -> int:
        """The bucket index holding ``value`` (>= MIN_TRACKED_VALUE)."""
        return math.ceil(math.log(value) / self._log_gamma)

    def observe(self, value: float) -> None:
        """Record one non-negative observation."""
        if value < 0:
            raise ValueError(f"sketch values must be >= 0, got {value}")
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value < MIN_TRACKED_VALUE:
                self.zero_count += 1
            else:
                key = self.bucket_key(value)
                self.buckets[key] = self.buckets.get(key, 0) + 1

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` in; exact and order/grouping-insensitive."""
        if other.relative_accuracy != self.relative_accuracy:
            raise ValueError(
                "cannot merge sketches with different relative accuracies "
                f"({self.relative_accuracy} vs {other.relative_accuracy})"
            )
        with other._lock:
            buckets = dict(other.buckets)
            zero_count = other.zero_count
            count = other.count
            total = other.sum
            other_min, other_max = other._min, other._max
        with self._lock:
            for key, bucket_count in buckets.items():
                self.buckets[key] = self.buckets.get(key, 0) + bucket_count
            self.zero_count += zero_count
            self.count += count
            self.sum += total
            self._min = min(self._min, other_min)
            self._max = max(self._max, other_max)

    # -- reads --------------------------------------------------------------------

    def quantile(self, fraction: float) -> float:
        """The value at nearest-rank ``fraction``, within relative error.

        Returns 0.0 for an empty sketch.
        """
        with self._lock:
            if self.count == 0:
                if not 0.0 <= fraction <= 1.0:
                    raise ValueError(
                        f"fraction must be in [0, 1], got {fraction}"
                    )
                return 0.0
            rank = nearest_rank(self.count, fraction)
            if rank < self.zero_count:
                return 0.0
            seen = self.zero_count
            for key in sorted(self.buckets):
                seen += self.buckets[key]
                if rank < seen:
                    # Midpoint of (gamma^(k-1), gamma^k]: within
                    # relative_accuracy of anything in the bucket.
                    return 2.0 * self._gamma ** key / (self._gamma + 1.0)
            return self._max  # pragma: no cover - counts always add up

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        """Smallest observed value (0.0 when empty)."""
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return True

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """Whole state, JSON-able; :meth:`from_dict` inverts exactly."""
        with self._lock:
            return {
                "relative_accuracy": self.relative_accuracy,
                "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
                "zero_count": self.zero_count,
                "count": self.count,
                "sum": self.sum,
                "min": self._min if self.count else None,
                "max": self._max,
            }

    @classmethod
    def from_dict(cls, data: Mapping) -> "QuantileSketch":
        sketch = cls(relative_accuracy=data["relative_accuracy"])
        sketch.buckets = {int(k): int(v) for k, v in data["buckets"].items()}
        sketch.zero_count = int(data["zero_count"])
        sketch.count = int(data["count"])
        sketch.sum = float(data["sum"])
        minimum = data.get("min")
        sketch._min = math.inf if minimum is None else float(minimum)
        sketch._max = float(data["max"])
        return sketch

    def summary(self, quantiles: Sequence[float] = (0.5, 0.95, 0.99)) -> dict:
        """The standard reporting block: count/mean/min/max + quantiles."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            **{f"p{100 * q:g}": self.quantile(q) for q in quantiles},
        }
