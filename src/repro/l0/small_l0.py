"""Exact recovery of small L0 values (Lemma 8).

When the Hamming norm is promised to be at most a constant ``c``, it can be
computed *exactly* with probability ``1 - delta`` in
``O(c^2 log log(mM))`` bits: hash the universe pairwise-independently into
``Theta(c^2)`` buckets, keep each bucket's frequency sum modulo a random
prime ``p = Theta(log(mM) log log(mM))``, and report the number of
non-zero buckets; repeat ``O(log(1/delta))`` times and take the maximum.

Two failure sources exist and both are handled as in the paper:

* a collision of two live items in one bucket (probability ``O(1/c)`` per
  pair, driven down by the ``c^2`` buckets and the max-over-trials);
* a live item's frequency being divisible by ``p`` (probability
  ``O(1/ log(mM))`` per item by the prime's size, also absorbed by the
  trials).

RoughL0Estimator (Appendix A.3) keeps one such bucket array per
subsampling level, all in one ``(levels, trials, buckets)`` array, and
shares the trial hash functions across levels exactly as the paper
prescribes.
"""

from __future__ import annotations

import math
import random

from ..hashing.entropy import fresh_rng
from typing import List, Optional, Sequence

from ..bitstructs.space import SpaceBreakdown
from ..estimators.base import ItemBatch, TurnstileEstimator
from ..exceptions import MergeError, ParameterError
from ..hashing.primes import random_prime
from ..hashing.universal import PairwiseHash
from ..vectorize import as_delta_array, as_key_array, hashed_residue_scatter, np
from .fingerprint import residue_counters

__all__ = ["SmallL0Recovery", "make_trial_hashes", "choose_small_prime"]


def choose_small_prime(magnitude_bound: int, rng: Optional[random.Random] = None) -> int:
    """Pick the Lemma 8 prime ``p = Theta(log(mM) log log(mM))``."""
    if magnitude_bound < 1:
        raise ParameterError("magnitude_bound must be at least 1")
    log_mm = max(math.log2(max(magnitude_bound, 4)), 2.0)
    loglog_mm = max(math.log2(log_mm), 1.0)
    lower = max(int(log_mm * loglog_mm), 5)
    return random_prime(lower, max(lower * 8, lower + 16), rng=rng)


def make_trial_hashes(
    universe_size: int,
    buckets: int,
    trials: int,
    rng: Optional[random.Random] = None,
) -> List[PairwiseHash]:
    """Draw the ``O(log(1/delta))`` shared pairwise hash functions.

    RoughL0Estimator shares one list of these across all of its per-level
    instances, so they are created by this standalone factory rather than
    inside :class:`SmallL0Recovery`.
    """
    if trials <= 0:
        raise ParameterError("trials must be positive")
    rng = fresh_rng(rng)
    return [PairwiseHash(universe_size, buckets, rng=rng) for _ in range(trials)]


def trials_for_failure_probability(delta: float) -> int:
    """Return ``O(log(1/delta))`` trials (at least 2)."""
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    return max(2, int(math.ceil(math.log2(1.0 / delta))) + 1)


class SmallL0Recovery(TurnstileEstimator):
    """Exact L0 under the promise ``L0 <= capacity`` (Lemma 8).

    Attributes:
        capacity: the promised upper bound ``c`` on L0.
        buckets: number of counters per trial (``capacity^2`` by default).
        trials: number of independent repetitions (max is reported).
    """

    name = "knw-small-l0"
    requires_nonnegative_frequencies = False

    def __init__(
        self,
        universe_size: int,
        capacity: int,
        magnitude_bound: int,
        delta: float = 1.0 / 16.0,
        seed: Optional[int] = None,
        trial_hashes: Optional[Sequence[PairwiseHash]] = None,
        prime: Optional[int] = None,
        buckets: Optional[int] = None,
    ) -> None:
        """Create the structure.

        Args:
            universe_size: the universe size ``n``.
            capacity: the promise ``c`` (the paper's RoughL0Estimator uses 141).
            magnitude_bound: upper bound on ``mM`` used to size the prime.
            delta: per-instance failure probability (sets the trial count
                when ``trial_hashes`` is not supplied).
            seed: RNG seed.
            trial_hashes: externally shared pairwise hash functions (one per
                trial); when given their space is charged to the sharer.
            prime: explicit modulus override (tests).
            buckets: explicit bucket-count override (defaults to
                ``capacity^2``).
        """
        if universe_size < 2:
            raise ParameterError("universe_size must be at least 2")
        if capacity <= 0:
            raise ParameterError("capacity must be positive")
        rng = random.Random(seed)
        self.universe_size = universe_size
        self.capacity = capacity
        self.magnitude_bound = magnitude_bound
        self.seed = seed
        self.buckets = buckets if buckets is not None else capacity * capacity
        self.prime = prime if prime is not None else choose_small_prime(
            magnitude_bound, rng=rng
        )
        self._owns_hashes = trial_hashes is None
        if trial_hashes is None:
            trial_count = trials_for_failure_probability(delta)
            trial_hashes = make_trial_hashes(
                universe_size, self.buckets, trial_count, rng=rng
            )
        else:
            for hash_function in trial_hashes:
                if hash_function.range_size != self.buckets:
                    raise ParameterError(
                        "shared trial hashes must map into the bucket range"
                    )
        self._hashes: Sequence[PairwiseHash] = trial_hashes
        self.trials = len(self._hashes)
        self._counters = residue_counters((self.trials, self.buckets), self.prime)
        self._nonzero: List[int] = [0] * self.trials

    def update(self, item: int, delta: int) -> None:
        """Apply ``x_item += delta`` to every trial's bucket array."""
        if not 0 <= item < self.universe_size:
            raise ParameterError(
                "item %d outside universe [0, %d)" % (item, self.universe_size)
            )
        for trial, hash_function in enumerate(self._hashes):
            bucket = hash_function(item)
            old = self._counters.item(trial, bucket)
            new = (old + delta) % self.prime
            if old == 0 and new != 0:
                self._nonzero[trial] += 1
            elif old != 0 and new == 0:
                self._nonzero[trial] -= 1
            self._counters[trial, bucket] = new

    def update_batch(self, items: ItemBatch, deltas: ItemBatch) -> None:
        """Apply a chunk of signed updates through one kernel call.

        The whole batch is validated before any trial is mutated; then
        :meth:`update_batch_validated` adds it.
        """
        keys = as_key_array(items, self.universe_size)
        self.update_batch_validated(keys, as_delta_array(deltas, expected_length=len(keys)))

    def update_batch_validated(self, keys, deltas) -> None:
        """:meth:`update_batch` for keys and deltas the caller validated.

        One :func:`repro.vectorize.hashed_residue_scatter` call hashes
        every key once per trial, adds its delta modulo the prime into
        each trial's bucket and keeps the per-trial nonzero counts.
        Bucket counters are additive modulo the prime, so the state is
        bit-identical to the scalar loop.
        """
        counts = np.array(self._nonzero, dtype=np.int64)
        hashed_residue_scatter(
            self._counters[None], counts, keys, deltas, None, self._hashes, [self.prime], 0
        )
        self._nonzero = counts.tolist()

    def merge(self, other: "TurnstileEstimator") -> None:
        """Add another same-randomness recovery structure into this one.

        The bucket counters are linear (sums of deltas modulo the trial
        prime), so counter-wise modular addition of two structures built
        with the same prime and trial hashes — and fed disjoint streams —
        reproduces exactly the structure one instance would hold after
        the concatenated stream.
        """
        if not isinstance(other, SmallL0Recovery):
            raise MergeError("can only merge SmallL0Recovery with its own kind")
        if (
            other.universe_size != self.universe_size
            or other.capacity != self.capacity
            or other.buckets != self.buckets
            or other.prime != self.prime
            or other.trials != self.trials
            or any(
                (a._a, a._b, a._prime) != (b._a, b._b, b._prime)
                for a, b in zip(self._hashes, other._hashes)
            )
        ):
            raise MergeError(
                "SmallL0Recovery merge requires identical parameters and hashes"
            )
        self._counters = (self._counters + other._counters) % self.prime
        self._nonzero = np.count_nonzero(self._counters, axis=1).tolist()

    def clear(self) -> None:
        """Zero every bucket counter, keeping the prime and trial hashes."""
        self._counters.fill(0)
        self._nonzero = [0] * self.trials

    def estimate(self) -> float:
        """Return the maximum non-zero-bucket count across trials.

        Under the promise ``L0 <= capacity`` this equals L0 exactly with
        probability at least ``1 - delta``; without the promise it is a
        lower bound on L0 (collisions and wrap-around can only reduce the
        count), which is exactly the property RoughL0Estimator relies on
        when it thresholds the value at a constant.
        """
        return float(max(self._nonzero))

    def exceeds(self, threshold: int) -> bool:
        """Return True when the recovered count exceeds ``threshold``."""
        return max(self._nonzero) > threshold

    def space_breakdown(self) -> SpaceBreakdown:
        """Return the itemised space cost."""
        breakdown = SpaceBreakdown(self.name)
        counter_bits = max(self.prime.bit_length(), 1)
        breakdown.add("bucket-counters", self.trials * self.buckets * counter_bits)
        breakdown.add("prime", counter_bits)
        if self._owns_hashes:
            for index, hash_function in enumerate(self._hashes):
                breakdown.add("trial-hash-%d" % index, hash_function.space_bits())
        return breakdown

    def space_bits(self) -> int:
        """Return the structure's total space in bits."""
        return self.space_breakdown().total()
