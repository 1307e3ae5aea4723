"""Tests for the KNW F0 estimators: Figure 3, the combined counter, and merging."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BitMatrixSkeleton,
    KNWDistinctCounter,
    KNWFigure3Sketch,
    bins_for_eps,
)
from repro.exceptions import MergeError, ParameterError, SketchFailure
from repro.hashing.bitops import ceil_log2
from repro.streams import (
    distinct_items_stream,
    duplicated_union_streams,
    low_bits_adversarial_stream,
    zipf_stream,
)

UNIVERSE = 1 << 16


class TestBinsForEps:
    def test_power_of_two_and_minimum(self):
        assert bins_for_eps(0.1) == 128
        assert bins_for_eps(0.5) == 32
        assert bins_for_eps(0.03) == 2048

    def test_invalid_eps(self):
        with pytest.raises(ParameterError):
            bins_for_eps(0.0)
        with pytest.raises(ParameterError):
            bins_for_eps(1.5)


class TestFigure3Sketch:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            KNWFigure3Sketch(1)
        with pytest.raises(ParameterError):
            KNWFigure3Sketch(UNIVERSE, bins=48)
        with pytest.raises(ParameterError):
            KNWFigure3Sketch(UNIVERSE, bins=64, offset_divisor=3)
        with pytest.raises(ParameterError):
            KNWFigure3Sketch(UNIVERSE, bins=64, offset_divisor=128)

    def test_paper_offset_divisor_default(self):
        sketch = KNWFigure3Sketch(UNIVERSE, eps=0.1, seed=1)
        assert sketch.offset_divisor == KNWFigure3Sketch.PAPER_OFFSET_DIVISOR == 32

    def test_constant_factor_estimate_in_analysed_regime(self):
        # With the paper's conservative constants the estimate is a
        # (1 +/- O(eps)) approximation with an unspecified constant; this
        # checks the constant-factor behaviour on a comfortably large stream.
        stream = distinct_items_stream(UNIVERSE, 6000, repetitions=1, seed=50)
        sketch = KNWFigure3Sketch(UNIVERSE, eps=0.1, seed=2, rough_counters=16)
        estimate = sketch.process_stream(stream)
        assert 0.3 * 6000 <= estimate <= 3.0 * 6000

    def test_practical_divisor_improves_accuracy(self):
        stream = distinct_items_stream(UNIVERSE, 6000, repetitions=1, seed=51)
        practical = KNWFigure3Sketch(
            UNIVERSE, eps=0.1, seed=3, rough_counters=16, offset_divisor=2
        )
        estimate = practical.process_stream(stream)
        assert abs(estimate - 6000) / 6000 < 0.3

    def test_occupied_counters_tracks_estimator_input(self):
        sketch = KNWFigure3Sketch(UNIVERSE, eps=0.1, seed=4, offset_divisor=2)
        assert sketch.occupied_counters() == 0
        for item in range(500):
            sketch.update(item)
        assert 0 < sketch.occupied_counters() <= sketch.bins

    def test_no_fail_on_ordinary_streams(self):
        stream = zipf_stream(UNIVERSE, 8000, seed=52)
        sketch = KNWFigure3Sketch(UNIVERSE, eps=0.1, seed=5, offset_divisor=2)
        sketch.process_stream(stream)
        assert not sketch.has_failed()

    def test_fail_raises_sketch_failure(self):
        sketch = KNWFigure3Sketch(UNIVERSE, eps=0.1, seed=6)
        sketch._failed = True
        with pytest.raises(SketchFailure):
            sketch.estimate()

    def test_space_budget_stays_within_fail_bound(self):
        sketch = KNWFigure3Sketch(UNIVERSE, eps=0.1, seed=7, offset_divisor=2)
        for item in range(0, UNIVERSE, 7):
            sketch.update(item)
        assert sketch._bit_budget <= sketch.FAIL_FACTOR * sketch.bins
        breakdown = sketch.space_breakdown().as_dict()
        assert breakdown["packed-counters"] <= 4 * sketch.bins

    def test_update_validates_universe(self):
        sketch = KNWFigure3Sketch(UNIVERSE, eps=0.1, seed=8)
        with pytest.raises(ParameterError):
            sketch.update(UNIVERSE)


class TestCombinedCounter:
    def test_exact_for_tiny_cardinalities(self):
        counter = KNWDistinctCounter(UNIVERSE, eps=0.05, seed=9)
        for item in [5, 9, 9, 12, 5]:
            counter.update(item)
        assert counter.estimate() == 3.0

    def test_small_regime_accuracy(self, small_stream):
        counter = KNWDistinctCounter(UNIVERSE, eps=0.05, seed=10)
        estimate = counter.process_stream(small_stream)
        truth = small_stream.ground_truth()
        assert abs(estimate - truth) / truth < 0.05

    def test_medium_regime_accuracy(self, medium_stream):
        counter = KNWDistinctCounter(UNIVERSE, eps=0.05, seed=11)
        estimate = counter.process_stream(medium_stream)
        truth = medium_stream.ground_truth()
        assert abs(estimate - truth) / truth < 0.25

    def test_adversarial_low_bits_stream(self):
        # Identifiers with adversarial low-order bits must not fool the
        # estimator because levels come from a hash, not the raw identifier.
        stream = low_bits_adversarial_stream(UNIVERSE, 3000)
        counter = KNWDistinctCounter(UNIVERSE, eps=0.1, seed=12)
        estimate = counter.process_stream(stream)
        assert abs(estimate - 3000) / 3000 < 0.35

    def test_mid_stream_reporting(self, medium_stream):
        counter = KNWDistinctCounter(UNIVERSE, eps=0.1, seed=13)
        positions = [len(medium_stream) // 4, len(medium_stream) // 2, len(medium_stream)]
        truths = medium_stream.ground_truth_at(positions)
        cursor = 0
        for position, truth in zip(positions, truths):
            while cursor < position:
                counter.update(medium_stream[cursor].item)
                cursor += 1
            estimate = counter.estimate()
            assert abs(estimate - truth) / truth < 0.4

    def test_space_breakdown_charges_hash_bundle_once(self):
        counter = KNWDistinctCounter(UNIVERSE, eps=0.1, seed=14)
        breakdown = counter.space_breakdown().as_dict()
        assert "hash-bundle" in breakdown
        assert counter.space_bits() == sum(breakdown.values())

    def test_space_scales_with_eps_and_universe(self):
        coarse = KNWDistinctCounter(1 << 16, eps=0.2, seed=15).space_bits()
        fine = KNWDistinctCounter(1 << 16, eps=0.05, seed=15).space_bits()
        assert fine > coarse
        bigger_universe = KNWDistinctCounter(1 << 24, eps=0.2, seed=15).space_bits()
        assert bigger_universe > coarse

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            KNWDistinctCounter(UNIVERSE, eps=0.0)
        with pytest.raises(ParameterError):
            KNWDistinctCounter(1, eps=0.1)


class TestMerging:
    def test_merged_counter_estimates_union(self):
        left, right = duplicated_union_streams(UNIVERSE, 1500, overlap_fraction=0.4, seed=60)
        union_truth = left.concat(right).ground_truth()
        a = KNWDistinctCounter(UNIVERSE, eps=0.1, seed=77)
        b = KNWDistinctCounter(UNIVERSE, eps=0.1, seed=77)
        a.process_stream(left)
        b.process_stream(right)
        a.merge(b)
        assert abs(a.estimate() - union_truth) / union_truth < 0.35

    def test_merge_requires_matching_seed(self):
        a = KNWDistinctCounter(UNIVERSE, eps=0.1, seed=1)
        b = KNWDistinctCounter(UNIVERSE, eps=0.1, seed=2)
        with pytest.raises(MergeError):
            a.merge(b)

    def test_merge_requires_explicit_seed(self):
        a = KNWDistinctCounter(UNIVERSE, eps=0.1)
        b = KNWDistinctCounter(UNIVERSE, eps=0.1)
        with pytest.raises(MergeError):
            a.merge(b)

    def test_merge_rejects_other_types(self):
        a = KNWDistinctCounter(UNIVERSE, eps=0.1, seed=1)
        with pytest.raises(MergeError):
            a.merge(object())  # type: ignore[arg-type]

    def test_figure3_merge_equals_single_pass(self):
        left = distinct_items_stream(UNIVERSE, 2000, seed=61)
        right = distinct_items_stream(UNIVERSE, 2000, seed=62)
        merged = KNWFigure3Sketch(UNIVERSE, eps=0.1, seed=33, offset_divisor=2)
        other = KNWFigure3Sketch(UNIVERSE, eps=0.1, seed=33, offset_divisor=2)
        merged.process_stream(left)
        other.process_stream(right)
        merged.merge(other)
        solo = KNWFigure3Sketch(UNIVERSE, eps=0.1, seed=33, offset_divisor=2)
        solo.process_stream(left.concat(right))
        # The merged state and the single-pass state see the same items with
        # the same hash functions; estimates must agree up to the rebasing
        # schedule (bounded by a factor well inside the accuracy band).
        assert abs(merged.estimate() - solo.estimate()) / solo.estimate() < 0.25


class TestSkeletonAgreement:
    def test_skeleton_with_exact_oracle_is_accurate(self):
        stream = distinct_items_stream(UNIVERSE, 4000, seed=70)
        skeleton = BitMatrixSkeleton(UNIVERSE, eps=0.1, seed=21, oracle=4000.0)
        estimate = skeleton.process_stream(stream)
        assert abs(estimate - 4000) / 4000 < 0.4

    def test_skeleton_with_internal_rough_estimator(self):
        stream = distinct_items_stream(UNIVERSE, 4000, seed=71)
        skeleton = BitMatrixSkeleton(UNIVERSE, eps=0.1, seed=22)
        estimate = skeleton.process_stream(stream)
        assert abs(estimate - 4000) / 4000 < 0.6

    def test_skeleton_uses_more_space_than_compressed_sketch(self):
        skeleton = BitMatrixSkeleton(UNIVERSE, eps=0.05, seed=23)
        compressed = KNWFigure3Sketch(UNIVERSE, eps=0.05, seed=23)
        assert skeleton.matrix.space_bits() > 4 * compressed.bins


# ---------------------------------------------------------------------------
# The array merge and rebase against the per-counter loops they replaced.
# ---------------------------------------------------------------------------


def _loop_shift(counters, shift):
    return [max(-1, value + shift) if value >= 0 else -1 for value in counters]


def _set_counters(sketch, values):
    """Store a list of counters in the sketch's own array dtype."""
    sketch._counters = np.array(values, dtype=sketch._counters.dtype)


def _loop_recount(sketch):
    values = sketch._counters.tolist()
    sketch._occupied = sum(1 for value in values if value >= 0)
    sketch._bit_budget = sum(ceil_log2(value + 2) for value in values)


def _loop_rebase(sketch, rough_estimate):
    """``KNWFigure3Sketch._rebase`` as a loop over the counters."""
    sketch._est_exponent = max(int(math.ceil(math.log2(rough_estimate))), 0)
    new_base = max(
        0, sketch._est_exponent - int(math.log2(sketch.bins // sketch.offset_divisor))
    )
    if new_base != sketch._base_level:
        shift = sketch._base_level - new_base
        _set_counters(sketch, _loop_shift(sketch._counters.tolist(), shift))
        sketch._base_level = new_base
    _loop_recount(sketch)


def _loop_merge(sketch, other):
    """``KNWFigure3Sketch.merge`` (and ``RoughEstimator.merge_max``) as loops."""
    target = max(sketch._base_level, other._base_level)
    mine = _loop_shift(sketch._counters.tolist(), sketch._base_level - target)
    theirs = _loop_shift(other._counters.tolist(), other._base_level - target)
    _set_counters(sketch, [max(a, b) for a, b in zip(mine, theirs)])
    sketch._base_level = target
    _loop_recount(sketch)
    sketch._est_exponent = max(sketch._est_exponent, other._est_exponent)
    sketch._failed = sketch._failed or other._failed
    if sketch._owns_rough and other._owns_rough:
        rough, other_rough = sketch.rough, other.rough
        counters, other_counters = rough._counters, other_rough._counters
        for row in range(counters.shape[0]):
            for index in range(counters.shape[1]):
                if other_counters[row, index] > counters[row, index]:
                    counters[row, index] = other_counters[row, index]
        rough._monotone_floor = max(rough._monotone_floor, other_rough._monotone_floor)
        rough_estimate = rough.estimate()
        if rough_estimate > float(1 << sketch._est_exponent):
            _loop_rebase(sketch, rough_estimate)
    if sketch._bit_budget > sketch.FAIL_FACTOR * sketch.bins:
        sketch._failed = True


def _random_sketch(data, label):
    """A Figure 3 sketch fed a random stream, then optionally overwritten
    with arbitrary counters and base level, or latched to FAIL."""
    sketch = KNWFigure3Sketch(UNIVERSE, bins=64, seed=41, offset_divisor=2)
    items = data.draw(
        st.lists(st.integers(0, UNIVERSE - 1), max_size=3000), label=label + " items"
    )
    if items:
        sketch.update_batch(items)
    if data.draw(st.booleans(), label=label + " arbitrary counters"):
        counters = data.draw(
            st.lists(st.integers(-1, 12), min_size=64, max_size=64),
            label=label + " counters",
        )
        _set_counters(sketch, counters)
        sketch._base_level = data.draw(st.integers(0, 9), label=label + " base")
    if data.draw(st.booleans(), label=label + " failed"):
        sketch._failed = True
    return sketch


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_array_merge_matches_the_counter_loops(data):
    sketch = _random_sketch(data, "left")
    other = _random_sketch(data, "right")
    oracle, other_before = copy.deepcopy(sketch), other.to_bytes()
    sketch.merge(other)
    _loop_merge(oracle, other)
    assert sketch.to_bytes() == oracle.to_bytes()
    assert other.to_bytes() == other_before
    assert sketch._counters.dtype == np.int8
    assert type(sketch._occupied) is int and type(sketch._bit_budget) is int


@settings(max_examples=60, deadline=None)
@given(
    counters=st.lists(st.integers(-1, 12), min_size=64, max_size=64),
    base=st.integers(0, 9),
    exponent=st.integers(1, 30),
)
def test_array_rebase_matches_the_counter_loop(counters, base, exponent):
    sketch = KNWFigure3Sketch(UNIVERSE, bins=64, seed=41, offset_divisor=2)
    _set_counters(sketch, counters)
    sketch._base_level = base
    oracle = copy.deepcopy(sketch)
    sketch._rebase(float(1 << exponent) + 0.5)
    _loop_rebase(oracle, float(1 << exponent) + 0.5)
    assert sketch.to_bytes() == oracle.to_bytes()
    assert sketch._counters.dtype == np.int8
    assert type(sketch._occupied) is int and type(sketch._bit_budget) is int
