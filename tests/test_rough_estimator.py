"""Tests for RoughEstimator (Figure 2 / Theorem 1) and its fast variant (Lemma 5)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstructs import PackedCounterArray
from repro.core import FastRoughEstimator, RoughEstimator, rough_counter_count
from repro.exceptions import ParameterError
from repro.streams import distinct_items_stream, growing_then_repeating_stream


def _level_walk(copy, threshold):
    """Figure 2's report, one ``T_r`` count per level from the top down.

    This is the rule as ``_RoughCopy.estimate`` first ran it; the
    one-read ``np.partition`` form must agree with it exactly.
    """
    for level in range(copy.level_limit, -1, -1):
        if copy.counts_at_least(level) >= threshold:
            return float((1 << level) * copy.counters.length)
    return -1.0


class TestParameters:
    def test_rough_counter_count_formula(self):
        # K_RE = max(8, log n / log log n): small universes hit the floor of 8.
        assert rough_counter_count(1 << 10) == 8
        assert rough_counter_count(1 << 20) >= 8
        with pytest.raises(ParameterError):
            rough_counter_count(1)

    def test_invalid_construction(self):
        with pytest.raises(ParameterError):
            RoughEstimator(1)
        with pytest.raises(ParameterError):
            RoughEstimator(1 << 16, counters_per_copy=1)

    def test_update_validates_universe(self):
        estimator = RoughEstimator(1 << 10, seed=1)
        with pytest.raises(ParameterError):
            estimator.update(1 << 10)


class TestGuarantees:
    def test_returns_minus_one_before_committing(self):
        estimator = RoughEstimator(1 << 16, seed=2)
        assert estimator.estimate() == -1.0

    def test_constant_factor_at_all_checkpoints(self, large_universe):
        # Theorem 1: F0(t) <= estimate(t) <= 8 F0(t) for all t once
        # F0(t) >= K_RE.  We check a relaxed constant-factor band (the
        # guarantee is asymptotic; the band below is what the construction
        # achieves at this finite size with margin).
        stream = distinct_items_stream(large_universe, 20_000, repetitions=1, seed=21)
        estimator = RoughEstimator(large_universe, counters_per_copy=16, seed=3)
        threshold = 4 * estimator.counters_per_copy
        seen = set()
        for index, update in enumerate(stream):
            estimator.update(update.item)
            seen.add(update.item)
            if index % 500 == 0 and len(seen) >= threshold:
                estimate = estimator.estimate()
                ratio = estimate / len(seen)
                assert 0.5 <= ratio <= 16.0, (index, len(seen), estimate)

    def test_estimate_is_monotone(self, large_universe):
        stream = growing_then_repeating_stream(large_universe, 5_000, 5_000, seed=4)
        estimator = RoughEstimator(large_universe, counters_per_copy=16, seed=5)
        previous = -1.0
        for index, update in enumerate(stream):
            estimator.update(update.item)
            if index % 250 == 0:
                current = estimator.estimate()
                assert current >= previous
                previous = current

    def test_estimate_stable_when_f0_stops_growing(self, large_universe):
        stream = growing_then_repeating_stream(large_universe, 4_000, 8_000, seed=6)
        estimator = RoughEstimator(large_universe, counters_per_copy=16, seed=7)
        mid_estimate = None
        for index, update in enumerate(stream):
            estimator.update(update.item)
            if index == 3_999:
                mid_estimate = estimator.estimate()
        final_estimate = estimator.estimate()
        assert mid_estimate is not None
        # During the repeat phase F0 does not change, so the estimate must
        # not grow by more than the committed-power-of-two granularity.
        assert final_estimate <= 2 * mid_estimate

    def test_space_is_logarithmic_not_eps_dependent(self):
        small = RoughEstimator(1 << 12, seed=8).space_bits()
        large = RoughEstimator(1 << 24, seed=8).space_bits()
        assert small < large < 40 * small
        breakdown = RoughEstimator(1 << 16, seed=8).space_breakdown()
        assert breakdown.total() > 0

    def test_merge_max(self, large_universe):
        left = distinct_items_stream(large_universe, 3_000, seed=30)
        right = distinct_items_stream(large_universe, 3_000, seed=31)
        merged = RoughEstimator(large_universe, counters_per_copy=16, seed=9)
        solo = RoughEstimator(large_universe, counters_per_copy=16, seed=9)
        other = RoughEstimator(large_universe, counters_per_copy=16, seed=9)
        for update in left:
            merged.update(update.item)
            solo.update(update.item)
        for update in right:
            other.update(update.item)
            solo.update(update.item)
        merged.merge_max(other)
        assert merged.estimate() == solo.estimate()

    @pytest.mark.parametrize("uniform", [False, True])
    def test_merge_max_equals_the_maximize_many_form(self, uniform):
        """One ``np.maximum`` and one repack per copy, against the scatter form."""
        rng = np.random.default_rng(17)
        for trial in range(20):
            left = RoughEstimator(1 << 20, seed=trial, use_uniform_family=uniform)
            right = RoughEstimator(1 << 20, seed=trial, use_uniform_family=uniform)
            oracle = RoughEstimator(1 << 20, seed=trial, use_uniform_family=uniform)
            for sketch in (left, right):
                for copy in sketch._copies:
                    peak = copy.counters._mask + 1
                    values = rng.integers(0, peak, size=copy.counters.length)
                    copy.counters = PackedCounterArray.from_numpy(values, copy.counters.width)
                sketch._monotone_floor = float(rng.integers(-1, 64))
            oracle.load_state_dict(left.state_dict())
            for mine, theirs in zip(oracle._copies, right._copies):
                mine.counters.maximize_many(
                    np.arange(mine.counters.length), theirs.counters.to_numpy()
                )
            oracle._monotone_floor = max(oracle._monotone_floor, right._monotone_floor)
            left.merge_max(right)
            assert left.state_dict() == oracle.state_dict()

    def test_merge_max_rejects_mismatched(self):
        a = RoughEstimator(1 << 12, counters_per_copy=8, seed=1)
        b = RoughEstimator(1 << 12, counters_per_copy=16, seed=1)
        with pytest.raises(ParameterError):
            a.merge_max(b)


class TestFastVariant:
    def test_fast_variant_constant_factor(self, large_universe):
        stream = distinct_items_stream(large_universe, 15_000, repetitions=1, seed=41)
        estimator = FastRoughEstimator(large_universe, counters_per_copy=16, seed=10)
        seen = set()
        threshold = 8 * estimator.counters_per_copy
        for index, update in enumerate(stream):
            estimator.update(update.item)
            seen.add(update.item)
            if index % 1000 == 999 and len(seen) >= threshold:
                estimate = estimator.estimate()
                ratio = estimate / len(seen)
                # Lemma 5 degrades the guarantee to a 16-approximation; the
                # committed level may additionally lag by one doubling.
                assert 0.25 <= ratio <= 32.0, (index, len(seen), estimate)

    def test_fast_variant_estimate_is_o1_cached(self, large_universe):
        estimator = FastRoughEstimator(large_universe, seed=11)
        assert estimator.estimate() == -1.0
        estimator.update(5)
        # The cached estimate is returned without recomputation.
        assert estimator.estimate() == estimator.estimate()


class TestOneReadEstimate:
    @settings(max_examples=150, deadline=None)
    @given(
        universe_bits=st.sampled_from([4, 10, 20, 32]),
        counters=st.integers(2, 40),
        data=st.data(),
    )
    def test_matches_level_walk(self, universe_bits, counters, data):
        estimator = RoughEstimator(1 << universe_bits, counters_per_copy=counters, seed=1)
        copy = estimator._copies[0]
        stored = data.draw(
            st.lists(
                st.integers(0, copy.level_limit + 1), min_size=counters, max_size=counters
            ),
            label="stored",
        )
        threshold = data.draw(
            st.one_of(
                st.just(estimator._threshold),
                st.floats(0.01, counters + 3.0),
                st.integers(1, counters + 3).map(float),
            ),
            label="threshold",
        )
        copy.counters = PackedCounterArray.from_values(stored, copy._store_width)
        got = copy.estimate(threshold)
        assert type(got) is float
        assert got == _level_walk(copy, threshold)

    def test_empty_counters_and_rank_above_k_re(self):
        estimator = RoughEstimator(1 << 16, counters_per_copy=8, seed=2)
        copy = estimator._copies[0]
        assert copy.estimate(estimator._threshold) == -1.0
        copy.counters = PackedCounterArray.from_values([17] * 8, copy._store_width)
        # Every counter at the top level: rank K_RE still qualifies, K_RE + 1 never.
        assert copy.estimate(8.0) == float((1 << 16) * 8) == _level_walk(copy, 8.0)
        assert copy.estimate(8.5) == -1.0 == _level_walk(copy, 8.5)
        assert copy.estimate(9.0) == -1.0 == _level_walk(copy, 9.0)

    def test_estimate_reads_the_counters_once(self, monkeypatch):
        estimator = RoughEstimator(1 << 20, counters_per_copy=20, seed=3)
        estimator.update_batch(list(range(0, 1 << 20, 97)))
        reads = []
        original = PackedCounterArray.to_numpy
        monkeypatch.setattr(
            PackedCounterArray,
            "to_numpy",
            lambda self: reads.append(1) or original(self),
        )
        estimator.estimate()
        assert len(reads) == len(estimator._copies)
