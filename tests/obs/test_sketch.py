"""QuantileSketch: relative-error bound, exact merge, serialization.

The two properties the serving tier leans on (hypothesis-verified):

* **relative error** — for any stream and any quantile, the sketch's
  estimate is within ``relative_accuracy`` of the exact nearest-rank
  value under the same rank rule as :func:`percentile`, the exact
  sort-based reference below;
* **merge insensitivity** — splitting a stream into arbitrary chunks
  and merging the chunk sketches in any order reproduces the
  single-sketch state exactly (bucket-wise, not approximately).
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch, nearest_rank

values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=200,
)


def percentile(sorted_values, fraction):
    """Nearest-rank percentile of an ascending-sorted sequence: the
    exact answer every sketch estimate is held to."""
    if not sorted_values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rank = min(len(sorted_values) - 1, max(0, round(fraction * len(sorted_values)) - 1))
    return sorted_values[rank]


def exact(values, fraction):
    return percentile(sorted(values), fraction)


class TestAccuracy:
    @given(values_strategy, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_quantile_within_relative_error(self, values, fraction):
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        estimate = sketch.quantile(fraction)
        truth = exact(values, fraction)
        assert abs(estimate - truth) <= sketch.relative_accuracy * truth + 1e-9

    def test_matches_loadtest_percentile_rule(self):
        # The rank rule itself must agree with the sort-based helper the
        # sketch replaced, index for index.
        for count in (1, 2, 3, 10, 99, 100):
            values = sorted(float(i + 1) for i in range(count))
            for fraction in (0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
                rank = nearest_rank(count, fraction)
                assert values[rank] == percentile(values, fraction)

    def test_empty_sketch_quantile_is_zero(self):
        assert QuantileSketch().quantile(0.5) == 0.0

    def test_zero_values_tracked_exactly(self):
        sketch = QuantileSketch()
        for _ in range(10):
            sketch.observe(0.0)
        sketch.observe(100.0)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.zero_count == 10
        assert sketch.min == 0.0
        assert sketch.max == 100.0

    def test_rejects_negative_values_and_bad_fractions(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.observe(-1.0)
        sketch.observe(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            QuantileSketch().quantile(-0.1)
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.0)

    def test_mean_min_max_are_exact(self):
        sketch = QuantileSketch()
        for value in (1.0, 2.0, 3.0, 10.0):
            sketch.observe(value)
        assert sketch.mean == 4.0
        assert sketch.min == 1.0
        assert sketch.max == 10.0
        assert len(sketch) == 4


class TestMerge:
    @given(values_strategy, st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_merge_is_split_and_order_insensitive(self, values, rng):
        whole = QuantileSketch()
        for value in values:
            whole.observe(value)

        # Random split into chunks, shuffled merge order.
        chunks: list[list[float]] = [[]]
        for value in values:
            if chunks[-1] and rng.random() < 0.3:
                chunks.append([])
            chunks[-1].append(value)
        sketches = []
        for chunk in chunks:
            sketch = QuantileSketch()
            for value in chunk:
                sketch.observe(value)
            sketches.append(sketch)
        rng.shuffle(sketches)
        merged = QuantileSketch()
        for sketch in sketches:
            merged.merge(sketch)

        assert merged.buckets == whole.buckets
        assert merged.zero_count == whole.zero_count
        assert merged.count == whole.count
        assert merged.sum == pytest.approx(whole.sum)
        assert merged.min == whole.min
        assert merged.max == whole.max

    def test_merge_rejects_mixed_accuracies(self):
        with pytest.raises(ValueError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_merge_sketches_empty_input(self):
        # A load test whose workers all failed merges only empty sketches.
        merged = QuantileSketch()
        merged.merge(QuantileSketch())
        assert merged.count == 0
        assert merged.quantile(0.5) == 0.0 and merged.min == 0.0
        assert merged.relative_accuracy == DEFAULT_RELATIVE_ACCURACY


class TestSerialization:
    @given(values_strategy)
    @settings(max_examples=50)
    def test_round_trip_is_exact_and_json_able(self, values):
        sketch = QuantileSketch()
        for value in values:
            sketch.observe(value)
        data = json.loads(json.dumps(sketch.to_dict()))
        restored = QuantileSketch.from_dict(data)
        assert restored.buckets == sketch.buckets
        assert restored.count == sketch.count
        assert restored.zero_count == sketch.zero_count
        assert restored.min == sketch.min
        assert restored.max == sketch.max
        for fraction in (0.5, 0.95, 0.99):
            assert restored.quantile(fraction) == sketch.quantile(fraction)

    def test_summary_keys(self):
        sketch = QuantileSketch()
        sketch.observe(1.0)
        summary = sketch.summary(quantiles=(0.5, 0.999))
        assert set(summary) == {"count", "mean", "min", "max", "p50", "p99.9"}
