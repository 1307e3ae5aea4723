"""Tests for the L0 stack: fingerprints, small-L0, RoughL0, KNW L0, Ganguly."""

from __future__ import annotations

import pytest

from repro.exceptions import ParameterError
from repro.l0 import (
    FingerprintMatrix,
    GangulyStyleL0Estimator,
    KNWHammingNormEstimator,
    RoughL0Estimator,
    SmallL0Recovery,
    choose_fingerprint_prime,
    choose_small_prime,
)
from repro.streams import (
    fluctuating_stream,
    insert_delete_stream,
    mixed_sign_stream,
    paired_columns,
)

UNIVERSE = 1 << 14


class TestFingerprintMatrix:
    def test_prime_selection_bounds(self):
        prime = choose_fingerprint_prime(128, 1 << 20)
        assert prime >= 100 * 128 * 20

    def test_update_and_occupancy(self):
        matrix = FingerprintMatrix(4, 16, magnitude_bound=100, seed=1)
        matrix.update(0, 3, spread_key=7, delta=5)
        assert matrix.is_occupied(0, 3)
        assert matrix.row_occupancy(0) == 1
        assert matrix.row_occupancy(1) == 0

    def test_cancellation_clears_cell(self):
        matrix = FingerprintMatrix(2, 8, magnitude_bound=100, seed=2)
        matrix.update(1, 2, spread_key=9, delta=4)
        matrix.update(1, 2, spread_key=9, delta=-4)
        assert not matrix.is_occupied(1, 2)
        assert matrix.row_occupancy(1) == 0

    def test_opposite_signs_do_not_cancel_across_items(self):
        # Two different items (different spread keys -> different weights
        # w.h.p.) with opposite frequencies must keep the cell non-zero.
        matrix = FingerprintMatrix(1, 4, magnitude_bound=100, seed=3)
        matrix.update(0, 1, spread_key=11, delta=3)
        matrix.update(0, 1, spread_key=12, delta=-3)
        assert matrix.is_occupied(0, 1)

    def test_occupancies_and_space(self):
        matrix = FingerprintMatrix(3, 8, magnitude_bound=1000, seed=4)
        assert matrix.occupancies() == [0, 0, 0]
        assert matrix.space_bits() > 3 * 8  # more than one bit per cell

    def test_validation(self):
        with pytest.raises(ParameterError):
            FingerprintMatrix(0, 4, 10)
        matrix = FingerprintMatrix(2, 4, 10, seed=5)
        with pytest.raises(ParameterError):
            matrix.update(2, 0, 0, 1)
        with pytest.raises(ParameterError):
            matrix.row_occupancy(5)


class TestSmallL0Recovery:
    def test_exact_under_promise(self):
        recovery = SmallL0Recovery(UNIVERSE, capacity=50, magnitude_bound=100, seed=6)
        for item in range(40):
            recovery.update(item, 2)
        for item in range(10):
            recovery.update(item, -2)
        assert recovery.estimate() == 30.0

    def test_exceeds_threshold(self):
        recovery = SmallL0Recovery(UNIVERSE, capacity=20, magnitude_bound=100, seed=7)
        for item in range(15):
            recovery.update(item, 1)
        assert recovery.exceeds(8)
        assert not recovery.exceeds(20)

    def test_prime_choice(self):
        assert choose_small_prime(1 << 20) >= 5

    def test_shared_hashes_must_match_buckets(self):
        from repro.l0.small_l0 import make_trial_hashes

        hashes = make_trial_hashes(UNIVERSE, buckets=64, trials=3)
        with pytest.raises(ParameterError):
            SmallL0Recovery(
                UNIVERSE, capacity=10, magnitude_bound=10, trial_hashes=hashes
            )

    def test_space_accounting(self):
        recovery = SmallL0Recovery(UNIVERSE, capacity=10, magnitude_bound=100, seed=8)
        assert recovery.space_bits() > 0


class TestRoughL0:
    def test_constant_factor_band(self):
        # Theorem 11: L0/110 <= estimate <= L0 (with the paper's constants;
        # concentration keeps it far from the lower edge in practice).
        stream = insert_delete_stream(UNIVERSE, 2000, delete_fraction=0.5, seed=9)
        truth = stream.ground_truth()
        rough = RoughL0Estimator(UNIVERSE, magnitude_bound=10, seed=10, capacity=16)
        estimate = rough.process_stream(stream)
        assert truth / 110 <= estimate <= 2 * truth

    def test_small_stream_returns_floor(self):
        rough = RoughL0Estimator(UNIVERSE, magnitude_bound=10, seed=11, capacity=16)
        rough.update(1, 1)
        assert rough.estimate() >= 1.0

    def test_deepest_live_level_moves_with_l0(self):
        rough = RoughL0Estimator(UNIVERSE, magnitude_bound=10, seed=12, capacity=16)
        assert rough.deepest_live_level() == -1
        for item in range(3000):
            rough.update(item, 1)
        assert rough.deepest_live_level() >= 3

    def test_validation(self):
        with pytest.raises(ParameterError):
            RoughL0Estimator(1, 10)


class TestKNWL0:
    def test_exact_for_tiny_support(self):
        estimator = KNWHammingNormEstimator(UNIVERSE, eps=0.1, magnitude_bound=10, seed=13)
        estimator.update(4, 2)
        estimator.update(4, -2)
        estimator.update(9, 1)
        estimator.update(11, 3)
        assert estimator.estimate() == 2.0

    def test_insert_delete_accuracy(self):
        stream = insert_delete_stream(UNIVERSE, 3000, delete_fraction=0.5, copies=2, seed=14)
        truth = stream.ground_truth()
        estimator = KNWHammingNormEstimator(UNIVERSE, eps=0.05, magnitude_bound=10, seed=15)
        estimate = estimator.process_stream(stream)
        assert abs(estimate - truth) / truth < 0.25

    def test_mixed_sign_frequencies_supported(self):
        stream = mixed_sign_stream(UNIVERSE, 800, 800, seed=16)
        truth = stream.ground_truth()
        estimator = KNWHammingNormEstimator(UNIVERSE, eps=0.1, magnitude_bound=10, seed=17)
        estimate = estimator.process_stream(stream)
        assert abs(estimate - truth) / truth < 0.3
        assert estimator.requires_nonnegative_frequencies is False

    def test_paper_row_selection_is_constant_factor(self):
        # The literal Figure 4 reporting rule reads a deeply subsampled row
        # (expected occupancy K/64 or below), so at practical K it is only
        # a constant-factor estimator; check that band.
        stream = insert_delete_stream(UNIVERSE, 2500, delete_fraction=0.2, seed=18)
        truth = stream.ground_truth()
        estimator = KNWHammingNormEstimator(
            UNIVERSE, eps=0.05, magnitude_bound=10, seed=19, row_selection="paper"
        )
        estimate = estimator.process_stream(stream)
        assert 0.1 * truth <= estimate <= 8.0 * truth

    def test_fluctuating_support_tracks(self):
        stream = fluctuating_stream(UNIVERSE, 4000, target_support=500, seed=20)
        truth = stream.ground_truth()
        estimator = KNWHammingNormEstimator(UNIVERSE, eps=0.1, magnitude_bound=10_000, seed=21)
        estimate = estimator.process_stream(stream)
        if truth > 100:
            assert abs(estimate - truth) / truth < 0.35

    def test_column_difference_use_case(self):
        _, _, difference = paired_columns(UNIVERSE, 1500, 300, seed=22)
        truth = difference.ground_truth()
        estimator = KNWHammingNormEstimator(UNIVERSE, eps=0.1, magnitude_bound=10, seed=23)
        estimate = estimator.process_stream(difference)
        assert abs(estimate - truth) <= max(0.35 * truth, 15)

    def test_zero_delta_ignored(self):
        estimator = KNWHammingNormEstimator(UNIVERSE, eps=0.1, magnitude_bound=10, seed=24)
        estimator.update(5, 0)
        assert estimator.estimate() == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            KNWHammingNormEstimator(UNIVERSE, eps=0.1, row_selection="bogus")
        with pytest.raises(ParameterError):
            KNWHammingNormEstimator(UNIVERSE, eps=2.0)
        estimator = KNWHammingNormEstimator(UNIVERSE, eps=0.1, magnitude_bound=10, seed=25)
        with pytest.raises(ParameterError):
            estimator.update(UNIVERSE, 1)

    def test_space_breakdown(self):
        estimator = KNWHammingNormEstimator(UNIVERSE, eps=0.1, magnitude_bound=10, seed=26)
        breakdown = estimator.space_breakdown().as_dict()
        assert "fingerprint-matrix" in breakdown and "rough-l0" in breakdown
        assert estimator.space_bits() == sum(breakdown.values())


class TestWidePrimeCells:
    """The unsampled row's prime reaches 2^63 at the default magnitude bound.

    At eps 0.05 and ``magnitude_bound`` 2^30 most seeds draw a small-row
    prime of at least 2^63, whose cells are exact Python ints in an object
    array.  Every ingest path must give the same bytes there.
    """

    SEED = 0

    def _sketch(self):
        return KNWHammingNormEstimator(1 << 20, eps=0.05, seed=self.SEED)

    def _stream(self):
        import numpy as np

        rng = np.random.default_rng(31)
        inserted = rng.integers(0, 1 << 20, 3000, dtype=np.uint64)
        items = np.concatenate([inserted, inserted[:1200]])
        deltas = np.concatenate(
            [rng.choice([1, 2, -3], size=len(inserted)), -np.ones(1200, dtype=np.int64)]
        )
        return items, deltas

    def test_the_pinned_seed_is_wide(self):
        sketch = self._sketch()
        assert sketch._small_row.prime >= 1 << 63
        assert sketch._small_row._cells.dtype == object

    def test_every_ingest_path_gives_the_same_bytes(self, tmp_path):
        from repro.durability import Checkpointer, recover
        from repro.parallel import parallel_ingest_into

        items, deltas = self._stream()
        scalar = self._sketch()
        for item, delta in zip(items.tolist(), deltas.tolist()):
            scalar.update(item, delta)
        expected = scalar.to_bytes()

        batched = self._sketch()
        for start in range(0, len(items), 700):
            batched.update_batch(items[start : start + 700], deltas[start : start + 700])
        assert batched.to_bytes() == expected

        sharded = self._sketch()
        parallel_ingest_into(sharded, items, deltas, workers=1, shards=2)
        assert sharded.to_bytes() == expected

        checkpointer = Checkpointer(self._sketch(), str(tmp_path), snapshot_every=2)
        for start in range(0, len(items), 1000):
            checkpointer.ingest(items[start : start + 1000], deltas[start : start + 1000])
        assert checkpointer.target.to_bytes() == expected
        checkpointer.close()
        recovered, _ = recover(str(tmp_path))
        assert recovered.to_bytes() == expected
        assert recovered.estimate() == scalar.estimate()


class TestGanguly:
    def test_insert_delete_accuracy(self):
        stream = insert_delete_stream(UNIVERSE, 2000, delete_fraction=0.5, seed=27)
        truth = stream.ground_truth()
        estimator = GangulyStyleL0Estimator(UNIVERSE, eps=0.1, magnitude_bound=10, seed=28)
        estimate = estimator.process_stream(stream)
        assert abs(estimate - truth) / truth < 0.3

    def test_requires_nonnegative_flag(self):
        estimator = GangulyStyleL0Estimator(UNIVERSE, eps=0.1, seed=29)
        assert estimator.requires_nonnegative_frequencies is True

    def test_space_has_log_mm_factor(self):
        small_mm = GangulyStyleL0Estimator(UNIVERSE, eps=0.1, magnitude_bound=1 << 4, seed=30)
        large_mm = GangulyStyleL0Estimator(UNIVERSE, eps=0.1, magnitude_bound=1 << 40, seed=30)
        assert large_mm.space_bits() > small_mm.space_bits()

    def test_knw_space_advantage_for_large_mm(self):
        # Theorem 10's point: KNW pays loglog(mM) per cell where Ganguly
        # pays log(mM); for a large magnitude bound KNW should be smaller
        # at the same eps.
        mm = 1 << 60
        knw = KNWHammingNormEstimator(UNIVERSE, eps=0.1, magnitude_bound=mm, seed=31)
        ganguly = GangulyStyleL0Estimator(UNIVERSE, eps=0.1, magnitude_bound=mm, seed=31)
        knw_matrix_bits = knw.space_breakdown().as_dict()["fingerprint-matrix"]
        ganguly_cell_bits = ganguly.space_breakdown().as_dict()["cells"]
        assert knw_matrix_bits < ganguly_cell_bits
