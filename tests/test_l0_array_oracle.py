"""The array-backed L0 counters against a frozen list-based oracle.

``knw-l0`` once kept every counter in Python lists and updated them one
touched cell at a time.  This module keeps that code, cut down to the
counter arithmetic, as an oracle: the ``List*`` classes below are the
list-based ``update``, ``update_many``, ``_apply_residues``, rough
``update_batch``, ``merge`` and ``clear``, as they stood before the
counters moved into one NumPy array per structure (the fingerprint
weight products are formed in exact Python ints).  They borrow only the
hash functions and primes of the sketch under test; the rough
estimator's primes are redrawn here the way the list code drew them.

Hypothesis drives random turnstile streams — deletions, mixed and huge
deltas, scalar and batch calls, merges, clears and byte round trips —
through both, in both prime regimes, and every counter, nonzero count
and live-level word must match.  The narrow regime keeps every
structure in ``uint64`` lanes, so under the compiled backend it runs the
in-place C scatter; the wide regime's fingerprint primes are at least
``2^63`` and take the object-dtype path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimators.base import TurnstileEstimator
from repro.hashing.bitops import lsb, lsb_batch
from repro.hashing.universal import PairwiseHash
from repro.l0.knw_l0 import KNWHammingNormEstimator
from repro.l0.rough_l0 import ROUGH_L0_THRESHOLD
from repro.l0.small_l0 import (
    SmallL0Recovery,
    make_trial_hashes,
    trials_for_failure_probability,
)
from repro.vectorize import as_delta_array, as_key_array, mod_range, residues_mod

UNIVERSE = 1 << 12

#: ``magnitude_bound`` per prime regime.  At 2^20 every prime is below
#: 2^63; at 2^4000 both fingerprint primes of the pinned seeds are above.
REGIMES = {"narrow": 1 << 20, "wide": 1 << 4000}


def _grouped_sums(group_index, group_count, residues):
    """Per-group residue sums as Python ints (the old scatter's contract)."""
    sums = [0] * group_count
    for group, residue in zip(group_index.tolist(), residues.tolist()):
        sums[group] += int(residue)
    return sums


class ListFingerprintMatrix:
    """The list-based Lemma 6 matrix, sharing one matrix's randomness."""

    def __init__(self, matrix):
        self.levels, self.bins, self.prime = matrix.levels, matrix.bins, matrix.prime
        self.weights, self.h4 = list(matrix._weights), matrix._h4
        self.cells = [[0] * self.bins for _ in range(self.levels)]
        self.nonzero = [0] * self.levels

    def update(self, level, column, spread_key, delta):
        weight = self.weights[self.h4(spread_key % self.h4.universe_size)]
        row = self.cells[level]
        old = row[column]
        new = (old + delta * weight) % self.prime
        if old == 0 and new != 0:
            self.nonzero[level] += 1
        elif old != 0 and new == 0:
            self.nonzero[level] -= 1
        row[column] = new

    def update_many(self, levels, columns, spread_keys, deltas):
        prime = self.prime
        weight_keys = mod_range(spread_keys, self.h4.universe_size)
        weight_index = self.h4.hash_batch_validated(weight_keys).astype(np.int64)
        residues = residues_mod(deltas, prime)
        weights = np.empty(len(self.weights), dtype=object)
        weights[:] = self.weights
        contributions = (weights[weight_index] * residues.astype(object)) % prime
        cells = np.asarray(levels, dtype=np.int64) * np.int64(self.bins) + np.asarray(
            columns
        ).astype(np.int64)
        touched, inverse = np.unique(cells, return_inverse=True)
        totals = _grouped_sums(inverse, len(touched), contributions)
        for cell, total in zip(touched.tolist(), totals):
            level, column = divmod(int(cell), self.bins)
            row = self.cells[level]
            old = row[column]
            new = (old + total) % prime
            if old == 0 and new != 0:
                self.nonzero[level] += 1
            elif old != 0 and new == 0:
                self.nonzero[level] -= 1
            row[column] = new

    def merge(self, other):
        for level in range(self.levels):
            merged = [(a + b) % self.prime for a, b in zip(self.cells[level], other.cells[level])]
            self.cells[level] = merged
            self.nonzero[level] = sum(1 for value in merged if value)

    def clear(self):
        self.cells = [[0] * self.bins for _ in range(self.levels)]
        self.nonzero = [0] * self.levels


class ListSmallL0:
    """The list-based Lemma 8 structure for one prime and trial-hash list."""

    def __init__(self, prime, hashes, buckets):
        self.prime, self.hashes, self.buckets = prime, hashes, buckets
        self.trials = len(hashes)
        self.counters = [[0] * buckets for _ in range(self.trials)]
        self.nonzero = [0] * self.trials

    def update(self, item, delta):
        for trial, hash_function in enumerate(self.hashes):
            bucket = hash_function(item)
            row = self.counters[trial]
            old = row[bucket]
            new = (old + delta) % self.prime
            if old == 0 and new != 0:
                self.nonzero[trial] += 1
            elif old != 0 and new == 0:
                self.nonzero[trial] -= 1
            row[bucket] = new

    def update_batch(self, keys, deltas):
        self.apply_residues(keys, residues_mod(deltas, self.prime))

    def apply_residues(self, keys, residues):
        prime = self.prime
        dense = (
            residues.dtype != object
            and prime < (1 << 31)
            and len(keys) < (1 << 31)
            and 2 * len(keys) >= self.buckets
        )
        for trial, hash_function in enumerate(self.hashes):
            buckets = hash_function.hash_batch_validated(keys).astype(np.int64)
            if dense:
                sums = np.zeros(self.buckets, dtype=np.uint64)
                np.add.at(sums, buckets, residues)
                row = np.asarray(self.counters[trial], dtype=np.uint64)
                merged = (row + sums) % np.uint64(prime)
                self.counters[trial] = [int(value) for value in merged.tolist()]
                self.nonzero[trial] = int(np.count_nonzero(merged))
                continue
            touched, inverse = np.unique(buckets, return_inverse=True)
            totals = _grouped_sums(inverse, len(touched), residues)
            row = self.counters[trial]
            nonzero = self.nonzero[trial]
            for bucket, total in zip(touched.tolist(), totals):
                old = row[bucket]
                new = (old + total) % prime
                if old == 0 and new != 0:
                    nonzero += 1
                elif old != 0 and new == 0:
                    nonzero -= 1
                row[bucket] = new
            self.nonzero[trial] = nonzero

    def merge(self, other):
        for trial in range(self.trials):
            merged = [(a + b) % self.prime for a, b in zip(self.counters[trial], other.counters[trial])]
            self.counters[trial] = merged
            self.nonzero[trial] = sum(1 for value in merged if value)

    def clear(self):
        self.counters = [[0] * self.buckets for _ in range(self.trials)]
        self.nonzero = [0] * self.trials

    def exceeds(self, threshold):
        return max(self.nonzero) > threshold


class ListRoughL0:
    """The list-based rough estimator: one ``ListSmallL0`` per level.

    The splitter, trial hashes and per-level primes are redrawn from the
    seed exactly as the list code drew them, one seeded
    ``SmallL0Recovery`` per level.
    """

    def __init__(self, universe_size, magnitude_bound, seed, capacity):
        rng = random.Random(seed)
        self.splitter = PairwiseHash(universe_size, universe_size, rng=rng)
        self.level_limit = max((universe_size - 1).bit_length(), 1)
        self.levels = self.level_limit + 1
        buckets = capacity * capacity
        trials = trials_for_failure_probability(1.0 / 16.0)
        hashes = make_trial_hashes(universe_size, buckets, trials, rng=rng)
        self.recoveries = [
            SmallL0Recovery(
                universe_size,
                capacity=capacity,
                magnitude_bound=magnitude_bound,
                seed=rng.randrange(1 << 62),
                trial_hashes=hashes,
            )
            for _ in range(self.levels)
        ]
        self.per_level = [ListSmallL0(r.prime, hashes, buckets) for r in self.recoveries]
        self.hashes = hashes
        self.live_word = 0

    def _set_live(self, level):
        if self.per_level[level].exceeds(ROUGH_L0_THRESHOLD):
            self.live_word |= 1 << level
        else:
            self.live_word &= ~(1 << level)

    def update(self, item, delta):
        level = min(lsb(self.splitter(item), zero_value=self.level_limit), self.levels - 1)
        self.per_level[level].update(item, delta)
        self._set_live(level)

    def update_batch(self, keys, deltas):
        levels = lsb_batch(self.splitter.hash_batch_validated(keys), zero_value=self.level_limit)
        levels = np.minimum(levels, np.int64(self.levels - 1))
        for level in np.unique(levels).tolist():
            group = levels == level
            recovery = self.per_level[level]
            recovery.apply_residues(keys[group], residues_mod(deltas[group], recovery.prime))
            self._set_live(level)

    def merge(self, other):
        self.live_word = 0
        for level, (mine, theirs) in enumerate(zip(self.per_level, other.per_level)):
            mine.merge(theirs)
            self._set_live(level)

    def clear(self):
        for recovery in self.per_level:
            recovery.clear()
        self.live_word = 0


class ListKNWL0:
    """The list-based ``knw-l0`` counters, driven like the estimator."""

    def __init__(self, estimator, rough_capacity):
        self.estimator = estimator
        self.matrix = ListFingerprintMatrix(estimator._matrix)
        self.small_row = ListFingerprintMatrix(estimator._small_row)
        exact = estimator._small_exact
        self.small_exact = ListSmallL0(exact.prime, exact._hashes, exact.buckets)
        rough = estimator.rough
        self.rough = ListRoughL0(
            rough.universe_size, rough.magnitude_bound, rough.seed, rough_capacity
        )

    def update(self, item, delta):
        if delta == 0:
            return
        est = self.estimator
        spread = est._h2(item)
        extended_column = est._h3(spread)
        level = min(lsb(est._h1(item), zero_value=est._level_limit), self.matrix.levels - 1)
        self.matrix.update(level, extended_column % est.bins, spread, delta)
        self.small_row.update(0, extended_column, spread, delta)
        self.small_exact.update(item, delta)
        self.rough.update(item, delta)

    def update_batch(self, items, deltas):
        est = self.estimator
        keys = as_key_array(items, est.universe_size)
        deltas = as_delta_array(deltas, expected_length=len(keys))
        live = np.asarray(deltas != 0, dtype=bool)
        keys, deltas = keys[live], deltas[live]
        if keys.size == 0:
            return
        spread = est._h2.hash_batch_validated(keys)
        extended_columns = est._h3.hash_batch_validated(spread)
        levels = lsb_batch(est._h1.hash_batch_validated(keys), zero_value=est._level_limit)
        levels = np.minimum(levels, np.int64(self.matrix.levels - 1))
        self.matrix.update_many(levels, mod_range(extended_columns, est.bins), spread, deltas)
        self.small_row.update_many(
            np.zeros(len(levels), dtype=np.int64), extended_columns, spread, deltas
        )
        self.small_exact.update_batch(keys, deltas)
        self.rough.update_batch(keys, deltas)

    def merge(self, other):
        self.matrix.merge(other.matrix)
        self.small_row.merge(other.small_row)
        self.small_exact.merge(other.small_exact)
        self.rough.merge(other.rough)

    def clear(self):
        self.matrix.clear()
        self.small_row.clear()
        self.small_exact.clear()
        self.rough.clear()


def _ints(array):
    """An array's entries as nested lists, checking object entries are ints."""
    values = array.tolist()
    if array.dtype == object:
        assert all(type(value) is int for value in array.reshape(-1).tolist())
    return values


def assert_matches_oracle(estimator, oracle):
    for mine, theirs in (
        (estimator._matrix, oracle.matrix),
        (estimator._small_row, oracle.small_row),
    ):
        assert _ints(mine._cells) == theirs.cells
        assert mine._nonzero_per_row == theirs.nonzero
    assert _ints(estimator._small_exact._counters) == oracle.small_exact.counters
    assert estimator._small_exact._nonzero == oracle.small_exact.nonzero
    rough = estimator.rough
    assert _ints(rough._counters) == [level.counters for level in oracle.rough.per_level]
    assert rough._nonzero == [n for level in oracle.rough.per_level for n in level.nonzero]
    assert rough._live_word == oracle.rough.live_word


#: Pinned sketch seeds; ``test_regimes_are_as_pinned`` asserts their dtypes.
SEEDS = {"narrow": 61, "wide": 7}
ROUGH_CAPACITY = 4


def _pair(regime, seed=None):
    estimator = KNWHammingNormEstimator(
        UNIVERSE,
        eps=0.3,
        magnitude_bound=REGIMES[regime],
        seed=SEEDS[regime] if seed is None else seed,
        rough_capacity=ROUGH_CAPACITY,
    )
    return estimator, ListKNWL0(estimator, ROUGH_CAPACITY)


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_regimes_are_as_pinned(regime):
    estimator, _ = _pair(regime)
    wide = regime == "wide"
    for matrix in (estimator._matrix, estimator._small_row):
        assert (matrix.prime >= 1 << 63) is wide
        assert matrix._cells.dtype == (object if wide else np.uint64)
    assert estimator._small_exact._counters.dtype == np.uint64
    assert estimator.rough._counters.dtype == np.uint64


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("seed", [3, 61])
def test_rough_primes_hashes_and_space_follow_the_seed(regime, seed):
    """The rough estimator draws what the per-level list structures drew."""
    estimator, oracle = _pair(regime, seed)
    rough, reference = estimator.rough, oracle.rough
    assert rough._primes == [recovery.prime for recovery in reference.recoveries]
    assert (rough._splitter._a, rough._splitter._b) == (
        reference.splitter._a,
        reference.splitter._b,
    )
    assert [(h._a, h._b) for h in rough._shared_hashes] == [
        (h._a, h._b) for h in reference.hashes
    ]
    items = np.arange(0, UNIVERSE, 3, dtype=np.uint64)
    rough.update_batch(items, np.ones(len(items), dtype=np.int64))
    breakdown = rough.space_breakdown().as_dict()
    for level, recovery in enumerate(reference.recoveries):
        assert breakdown["level-%d" % level] == recovery.space_bits()


def _deltas(wide):
    small = st.sampled_from([1, 1, 1, -1, 2, -2, 5, -7])
    if not wide:
        return st.one_of(small, st.integers(-(1 << 40), 1 << 40))
    return st.one_of(small, st.integers(-(1 << 70), 1 << 70))


@st.composite
def turnstile_ops(draw, wide):
    """A stream of scalar/batch/merge/clear/round-trip operations."""
    seen = []
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["scalar", "batch", "batch", "merge", "clear", "bytes"]))
        if kind in ("clear", "bytes"):
            ops.append((kind, None))
            continue
        updates = []
        for _ in range(draw(st.integers(0, 60 if kind == "scalar" else 400))):
            if seen and draw(st.integers(0, 3)) == 0:
                updates.append((draw(st.sampled_from(seen)), -1))
            else:
                item = draw(st.integers(0, UNIVERSE - 1))
                seen.append(item)
                updates.append((item, draw(_deltas(wide))))
        ops.append((kind, updates))
    return ops


def _split(updates):
    return [item for item, _ in updates], [delta for _, delta in updates]


def _run(regime, ops):
    estimator, oracle = _pair(regime)
    for kind, updates in ops:
        if kind == "scalar":
            for item, delta in updates:
                estimator.update(item, delta)
                oracle.update(item, delta)
        elif kind == "batch":
            items, deltas = _split(updates)
            estimator.update_batch(np.asarray(items, dtype=np.uint64), deltas)
            oracle.update_batch(np.asarray(items, dtype=np.uint64), deltas)
        elif kind == "merge":
            other, other_oracle = _pair(regime)
            items, deltas = _split(updates)
            other.update_batch(np.asarray(items, dtype=np.uint64), deltas)
            other_oracle.update_batch(np.asarray(items, dtype=np.uint64), deltas)
            estimator.merge(other)
            oracle.merge(other_oracle)
        elif kind == "clear":
            estimator.clear()
            oracle.clear()
        else:
            revived = TurnstileEstimator.from_bytes(estimator.to_bytes())
            assert revived.to_bytes() == estimator.to_bytes()
            estimator = revived
            oracle.estimator = revived
        assert_matches_oracle(estimator, oracle)
    return estimator


@pytest.mark.parametrize("regime", sorted(REGIMES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_counters_match_the_list_oracle(regime, data):
    ops = data.draw(turnstile_ops(regime == "wide"))
    estimator = _run(regime, ops)
    rebuilt = TurnstileEstimator.from_bytes(estimator.to_bytes())
    assert rebuilt.estimate() == estimator.estimate()


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_a_dense_stream_matches_the_list_oracle(regime):
    """Batches that blanket every bucket array, with deletions back to zero."""
    rng = np.random.default_rng(5)
    items = rng.integers(0, UNIVERSE, 3000, dtype=np.uint64)
    deltas = rng.choice([1, 1, 2, -1], size=len(items))
    ops = [
        ("batch", list(zip(items.tolist(), deltas.tolist()))),
        ("batch", list(zip(items.tolist(), (-deltas).tolist()))),
    ]
    estimator = _run(regime, ops)
    assert estimator.rough._live_word == 0
    assert not estimator._matrix._cells.any() and not estimator.rough._counters.any()
