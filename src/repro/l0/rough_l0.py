"""RoughL0Estimator: a constant-factor L0 approximation (Appendix A.3).

The L0 analogue of RoughEstimator (Theorem 11): using
``O(log n log log(mM))`` bits and O(1) update/report time it outputs, with
probability at least 9/16, a value within a constant factor (110) of the
true Hamming norm.

Construction: a pairwise hash ``h : [n] -> [n]`` splits the universe into
substreams ``S_j = {x : lsb(h(x)) = j}``.  Each substream gets a Lemma 8
structure with capacity 141 and failure probability 1/16 (all levels share
the same ``O(log(1/delta))`` pairwise trial hashes).  The estimate is
``2^j`` for the deepest level ``j`` whose structure reports more than 8
live items (1 when no level does).  A machine word whose ``j``-th bit
records "level j reports > 8" gives O(1) reporting via an msb computation.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..bitstructs.space import SpaceBreakdown
from ..estimators.base import ItemBatch, TurnstileEstimator
from ..exceptions import MergeError, ParameterError
from ..hashing.bitops import lsb, msb
from ..hashing.universal import PairwiseHash
from ..vectorize import as_delta_array, as_key_array, hashed_residue_scatter, np
from .fingerprint import residue_counters
from .small_l0 import choose_small_prime, make_trial_hashes, trials_for_failure_probability

__all__ = ["RoughL0Estimator", "ROUGH_L0_CAPACITY", "ROUGH_L0_THRESHOLD", "ROUGH_L0_FACTOR"]

#: Per-level Lemma 8 capacity used by the paper (c = 141).
ROUGH_L0_CAPACITY = 141

#: A level is considered "live" when its recovery reports more than 8 items.
ROUGH_L0_THRESHOLD = 8

#: The constant-factor guarantee of Theorem 11 (approximation factor 110).
ROUGH_L0_FACTOR = 110


class RoughL0Estimator(TurnstileEstimator):
    """Constant-factor Hamming-norm approximation valid under deletions.

    The per-level Lemma 8 structures share their trial hashes, so their
    bucket counters live in one ``(levels, trials, buckets)`` array, with
    one prime per level; ``_nonzero`` holds each (level, trial) row's
    nonzero-bucket count, and bit ``j`` of ``_live_word`` is set when
    level ``j``'s largest count exceeds the threshold.

    Attributes:
        universe_size: the universe size ``n``.
        levels: number of subsampling levels (``log2(n) + 1``).
    """

    name = "knw-rough-l0"
    requires_nonnegative_frequencies = False

    def __init__(
        self,
        universe_size: int,
        magnitude_bound: int,
        seed: Optional[int] = None,
        capacity: int = ROUGH_L0_CAPACITY,
        delta: float = 1.0 / 16.0,
    ) -> None:
        """Create the estimator.

        Args:
            universe_size: the universe size ``n`` (at least 2).
            magnitude_bound: upper bound on ``mM``.
            seed: RNG seed.
            capacity: per-level Lemma 8 capacity (paper value 141; tests
                shrink it to keep the bucket arrays small).
            delta: per-level failure probability (paper value 1/16).
        """
        if universe_size < 2:
            raise ParameterError("universe_size must be at least 2")
        rng = random.Random(seed)
        self.universe_size = universe_size
        self.magnitude_bound = magnitude_bound
        self.capacity = capacity
        self.seed = seed
        self._level_limit = max((universe_size - 1).bit_length(), 1)
        self.levels = self._level_limit + 1
        self._splitter = PairwiseHash(universe_size, universe_size, rng=rng)
        self.buckets = capacity * capacity
        self.trials = trials_for_failure_probability(delta)
        self._shared_hashes = make_trial_hashes(
            universe_size, self.buckets, self.trials, rng=rng
        )
        # Each level draws its prime from a generator seeded by the parent,
        # as a standalone SmallL0Recovery(seed=...) would.
        self._primes: List[int] = [
            choose_small_prime(magnitude_bound, rng=random.Random(rng.randrange(1 << 62)))
            for _ in range(self.levels)
        ]
        self._counters = residue_counters(
            (self.levels, self.trials, self.buckets), max(self._primes)
        )
        self._nonzero: List[int] = [0] * (self.levels * self.trials)
        # The "live levels" bit-vector kept in a machine word for O(1) reporting.
        self._live_word = 0

    def update(self, item: int, delta: int) -> None:
        """Route the update to its substream's bucket arrays."""
        if not 0 <= item < self.universe_size:
            raise ParameterError(
                "item %d outside universe [0, %d)" % (item, self.universe_size)
            )
        level = lsb(self._splitter(item), zero_value=self._level_limit)
        level = min(level, self.levels - 1)
        prime = self._primes[level]
        counters = self._counters[level]
        first = level * self.trials
        for trial, hash_function in enumerate(self._shared_hashes):
            bucket = hash_function(item)
            old = counters.item(trial, bucket)
            new = (old + delta) % prime
            if old == 0 and new != 0:
                self._nonzero[first + trial] += 1
            elif old != 0 and new == 0:
                self._nonzero[first + trial] -= 1
            counters[trial, bucket] = new
        if max(self._nonzero[first : first + self.trials]) > ROUGH_L0_THRESHOLD:
            self._live_word |= 1 << level
        else:
            self._live_word &= ~(1 << level)

    def update_batch(self, items: ItemBatch, deltas: ItemBatch) -> None:
        """Route a whole chunk of updates through one kernel call.

        The whole batch is validated before any level is mutated; then
        :meth:`update_batch_validated` adds it.
        """
        keys = as_key_array(items, self.universe_size)
        self.update_batch_validated(keys, as_delta_array(deltas, expected_length=len(keys)))

    def update_batch_validated(self, keys, deltas) -> None:
        """:meth:`update_batch` for keys and deltas the caller validated.

        One :func:`repro.vectorize.hashed_residue_scatter` call routes
        every update to its level ``lsb(splitter(x))`` and adds its delta
        modulo that level's prime into each trial's bucket, keeping the
        per-(level, trial) nonzero counts; the live-level word is rebuilt
        from them, which equals the scalar loop's last write per level.
        """
        counts = np.array(self._nonzero, dtype=np.int64)
        hashed_residue_scatter(
            self._counters, counts, keys, deltas, self._splitter,
            self._shared_hashes, self._primes, self._level_limit,
        )
        self._set_counts(counts)

    def _set_counts(self, counts) -> None:
        """Store the per-row nonzero counts and rebuild the live-level word."""
        self._nonzero = counts.tolist()
        live = counts.reshape(self.levels, self.trials).max(axis=1) > ROUGH_L0_THRESHOLD
        self._live_word = int.from_bytes(np.packbits(live, bitorder="little").tobytes(), "little")

    def merge(self, other: "TurnstileEstimator") -> None:
        """Merge another same-seed rough estimator into this one.

        The Lemma 8 bucket counters are linear, so they merge counter-wise
        modulo each level's prime; the counts and the live-level word are
        then recounted.  Requires identical parameters, primes and trial
        hashes, and an explicit shared seed.
        """
        if not isinstance(other, RoughL0Estimator):
            raise MergeError("can only merge RoughL0Estimator with its own kind")
        if (
            other.universe_size != self.universe_size
            or other.capacity != self.capacity
            or other.levels != self.levels
            or self.seed is None
            or other.seed != self.seed
            or other._primes != self._primes
            or any(
                (a._a, a._b, a._prime) != (b._a, b._b, b._prime)
                for a, b in zip(self._shared_hashes, other._shared_hashes)
            )
        ):
            raise MergeError(
                "RoughL0Estimator merge requires identical parameters and an "
                "explicit shared seed"
            )
        primes = np.asarray(self._primes, dtype=np.uint64)[:, None, None]
        self._counters = (self._counters + other._counters) % primes
        self._set_counts(np.count_nonzero(self._counters, axis=2).reshape(-1))

    def clear(self) -> None:
        """Zero every level's counters, keeping all hash randomness."""
        self._counters.fill(0)
        self._nonzero = [0] * (self.levels * self.trials)
        self._live_word = 0

    def deepest_live_level(self) -> int:
        """Return the deepest level reporting more than 8 items, or -1."""
        if self._live_word == 0:
            return -1
        return msb(self._live_word)

    def estimate(self) -> float:
        """Return the constant-factor estimate ``2^j`` of L0 (Theorem 11).

        With probability at least 9/16 the returned value satisfies
        ``L0 / 110 <= estimate <= L0`` (the paper's constant-factor
        guarantee with its stated factor 110; with the default reduced
        capacity the factor only improves).  Streams with no live level
        return 1, which covers every ``L0 < 55`` within the same factor —
        exactly the paper's convention.  Callers that need an *upper*
        bound on L0 (the Figure 4 oracle) multiply by a margin; see
        :class:`repro.l0.knw_l0.KNWHammingNormEstimator`.
        """
        deepest = self.deepest_live_level()
        return 1.0 if deepest < 0 else float(1 << deepest)

    def space_breakdown(self) -> SpaceBreakdown:
        """Return the itemised space cost.

        Each level is charged as its own Lemma 8 structure: the bucket
        counters and the prime, ``ceil(log2 p)`` bits each.
        """
        breakdown = SpaceBreakdown(self.name)
        breakdown.add_component("splitter-hash", self._splitter)
        for index, hash_function in enumerate(self._shared_hashes):
            breakdown.add("trial-hash-%d" % index, hash_function.space_bits())
        for level, prime in enumerate(self._primes):
            counter_bits = max(prime.bit_length(), 1)
            breakdown.add(
                "level-%d" % level, (self.trials * self.buckets + 1) * counter_bits
            )
        breakdown.add("live-level-word", self.levels)
        return breakdown

    def space_bits(self) -> int:
        """Return the estimator's total space in bits."""
        return self.space_breakdown().total()
