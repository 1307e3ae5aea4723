"""RoughEstimator: a constant-factor F0 approximation valid at all times.

This is Figure 2 / Theorem 1 of the paper.  The subroutine uses
``O(log n)`` bits and guarantees (with probability ``1 - o(1)``) that its
output is in ``[F0(t), 8 F0(t)]`` *simultaneously for every* point ``t`` of
the stream with ``F0(t) >= K_RE`` — the "for all t" quantifier is what
distinguishes it from earlier constant-factor estimators, which needed an
extra ``log m`` factor to union-bound over stream positions.

Structure (three independent copies ``j = 1, 2, 3``, median combined):

* ``K_RE = max(8, log(n)/log log(n))`` counters per copy, each storing the
  deepest lsb-level of any item hashed to it (``-1`` when empty), packed at
  ``O(log log n)`` bits per counter;
* ``h1^j`` pairwise hashing items to levels via ``lsb``;
* ``h2^j`` pairwise hashing items into a cubically larger domain
  ``[K_RE^3]`` so the surviving items are perfectly hashed w.h.p.;
* ``h3^j`` a ``2 K_RE``-wise independent hash into the counters
  (the fast variant of Lemma 5 replaces this with Theorem 6's Pagh--Pagh
  family and a 16-approximation guarantee).

Estimator: with ``T_r = |{i : C_i >= r}|``, output ``2^r* K_RE`` for the
largest ``r*`` with ``T_{r*} >= rho K_RE`` where
``rho = 0.99 (1 - e^{-1/3})``.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from ..bitstructs.packed import PackedCounterArray
from ..bitstructs.space import SpaceBreakdown
from ..estimators.base import SerializableState
from ..exceptions import ParameterError
from ..hashing.bitops import lsb, lsb_batch
from ..hashing.kwise import KWiseHash
from ..hashing.uniform import PaghPaghHash
from ..hashing.universal import PairwiseHash
from ..vectorize import as_key_array, np

__all__ = [
    "RoughEstimator",
    "FastRoughEstimator",
    "OCCUPANCY_THRESHOLD_RHO",
    "rough_counter_count",
    "threshold_estimates",
]

#: The occupancy threshold ``rho = 0.99 (1 - e^{-1/3})`` from Figure 2.
OCCUPANCY_THRESHOLD_RHO = 0.99 * (1.0 - math.exp(-1.0 / 3.0))

#: Number of independent copies combined by the median (Figure 2 uses 3).
_COPIES = 3


def rough_counter_count(universe_size: int) -> int:
    """Return the paper's ``K_RE = max(8, log(n)/log log(n))`` (rounded up).

    Args:
        universe_size: the universe size ``n`` (must be at least 2).
    """
    if universe_size < 2:
        raise ParameterError("universe_size must be at least 2")
    log_n = max(math.log2(universe_size), 2.0)
    log_log_n = max(math.log2(log_n), 1.0)
    return max(8, int(math.ceil(log_n / log_log_n)))


def threshold_estimates(stored, rank: int):
    """Figure 2's per-copy report for counters along the last axis of ``stored``.

    ``stored`` holds counters shifted by +1 (0 = empty), as the packed
    arrays keep them.  ``T_r >= rank`` holds exactly when the ``rank``-th
    largest stored value is at least ``r + 1``, so the largest such level
    is that value minus one and the report is ``2^(value - 1) K_RE``; a
    value of 0 (or a ``rank`` above ``K_RE``) means no level qualifies and
    the report is -1.  One ``np.partition`` replaces the level-by-level
    count of the scalar rule.

    Args:
        stored: integer ndarray, ``K_RE`` counters along the last axis.
        rank: ``ceil(rho K_RE)``; must be at least 1.

    Returns:
        A float ndarray of ``stored.shape[:-1]`` (0-d for one copy).
    """
    count = stored.shape[-1]
    if rank > count:
        return np.full(stored.shape[:-1], -1.0)
    kth = np.partition(stored, count - rank, axis=-1)[..., count - rank]
    exponents = (np.maximum(kth, 1) - 1).astype(np.int32)
    return np.where(kth >= 1, np.ldexp(float(count), exponents), -1.0)


class _RoughCopy:
    """One of the three independent sub-estimators of Figure 2."""

    __slots__ = ("counters", "h1", "h2", "h3", "level_limit", "_store_width")

    def __init__(
        self,
        universe_size: int,
        counters: int,
        rng: random.Random,
        use_uniform_family: bool,
    ) -> None:
        self.level_limit = max((universe_size - 1).bit_length(), 1)
        # Counters take values in {-1} u [0, level_limit]; they are stored
        # shifted by +1 so the packed array holds non-negative values.
        self._store_width = max((self.level_limit + 1).bit_length(), 1)
        self.counters = PackedCounterArray(counters, self._store_width, initial_value=0)
        domain_cubed = max(counters ** 3, counters)
        self.h1 = PairwiseHash(universe_size, universe_size, rng=rng)
        self.h2 = PairwiseHash(universe_size, domain_cubed, rng=rng)
        if use_uniform_family:
            # Lemma 5: Theorem 6's family, uniform on the <= 2 K_RE items
            # that matter with probability 1 - O(1/K_RE).
            self.h3 = PaghPaghHash(domain_cubed, counters, 2 * counters, rng)
        else:
            self.h3 = KWiseHash(domain_cubed, counters, independence=2 * counters, rng=rng)

    def update(self, item: int) -> None:
        level = lsb(self.h1(item), zero_value=self.level_limit)
        index = self.h3(self.h2(item))
        stored = self.counters.get(index)
        if level + 1 > stored:
            self.counters.set(index, level + 1)

    def update_batch(self, keys) -> None:
        """Vectorized copy update: two hash passes plus one grouped max.

        Counters hold the deepest level hashed to them — a pure per-counter
        maximum — so one ``maximize_many`` over the whole chunk is
        bit-identical to the scalar loop.  The keys must already be a
        validated ``uint64`` array (the owning estimator converts once for
        all three copies).
        """
        levels = lsb_batch(self.h1.hash_batch_validated(keys), zero_value=self.level_limit)
        indices = self.h3.hash_batch_validated(self.h2.hash_batch_validated(keys))
        self.counters.maximize_many(indices, levels + np.int64(1))

    def counts_at_least(self, level: int) -> int:
        """Return ``T_r = |{i : C_i >= level}|`` (stored values are C + 1)."""
        return self.counters.count_at_least(level + 1)

    def estimate(self, threshold: float) -> float:
        """Return ``2^{r*} K_RE`` for the largest level meeting the threshold, or -1.

        ``T_r`` is an integer, so ``T_r >= threshold`` is ``T_r >=
        ceil(threshold)``; one counter read answers every level at once
        (:func:`threshold_estimates`).  ``threshold`` must be positive.
        """
        return float(
            threshold_estimates(self.counters.to_numpy(), int(math.ceil(threshold)))
        )

    def space(self) -> SpaceBreakdown:
        breakdown = SpaceBreakdown("rough-copy")
        breakdown.add_component("counters", self.counters)
        breakdown.add_component("h1", self.h1)
        breakdown.add_component("h2", self.h2)
        breakdown.add_component("h3", self.h3)
        return breakdown


class RoughEstimator(SerializableState):
    """The Figure 2 subroutine: an 8-approximation to F0 valid at all times.

    The estimate is monotonically non-decreasing in the stream position,
    a property the Figure 3 analysis relies on (``est`` only grows).

    Attributes:
        universe_size: the universe size ``n``.
        counters_per_copy: ``K_RE``.
    """

    name = "knw-rough-estimator"

    def __init__(
        self,
        universe_size: int,
        counters_per_copy: Optional[int] = None,
        seed: Optional[int] = None,
        use_uniform_family: bool = False,
    ) -> None:
        """Create the estimator.

        Args:
            universe_size: the universe size ``n`` (at least 2).
            counters_per_copy: override for ``K_RE``; defaults to the
                paper's ``max(8, log(n)/log log(n))``.  Larger values trade
                a constant factor of space for a smaller failure
                probability (the guarantee is asymptotic, so finite-n
                callers such as :class:`repro.core.knw.KNWDistinctCounter`
                pass a slightly larger count).
            seed: RNG seed for the hash functions.
            use_uniform_family: draw ``h3`` from Theorem 6's Pagh--Pagh
                family (the Lemma 5 fast configuration) instead of the
                ``2 K_RE``-wise polynomial family.
        """
        if universe_size < 2:
            raise ParameterError("universe_size must be at least 2")
        self.universe_size = universe_size
        self.counters_per_copy = (
            counters_per_copy if counters_per_copy is not None else rough_counter_count(universe_size)
        )
        if self.counters_per_copy < 2:
            raise ParameterError("counters_per_copy must be at least 2")
        rng = random.Random(seed)
        self._copies: List[_RoughCopy] = [
            _RoughCopy(universe_size, self.counters_per_copy, rng, use_uniform_family)
            for _ in range(_COPIES)
        ]
        self._threshold = OCCUPANCY_THRESHOLD_RHO * self.counters_per_copy
        self._monotone_floor = -1.0

    def update(self, item: int) -> None:
        """Process one stream item."""
        if not 0 <= item < self.universe_size:
            raise ParameterError(
                "item %d outside universe [0, %d)" % (item, self.universe_size)
            )
        for copy in self._copies:
            copy.update(item)

    def update_batch(self, items) -> None:
        """Process a chunk of items through all three copies, vectorized.

        Equivalent to the :meth:`update` loop: each copy reduces the whole
        chunk independently (both ``h3`` families are fixed by the seed).
        """
        keys = as_key_array(items, self.universe_size)
        if keys.size == 0:
            return
        for copy in self._copies:
            copy.update_batch(keys)

    def estimate(self) -> float:
        """Return the current rough estimate (median of the three copies).

        Returns ``-1.0`` while no copy has enough occupancy to commit to an
        estimate (the regime ``F0 < K_RE`` where Theorem 1 makes no claim).
        The returned value never decreases over the lifetime of the sketch.
        """
        values = sorted(copy.estimate(self._threshold) for copy in self._copies)
        median = values[len(values) // 2]
        if median > self._monotone_floor:
            self._monotone_floor = median
        return self._monotone_floor

    def merge_max(self, other: "RoughEstimator") -> None:
        """Merge another RoughEstimator built with the same seed/parameters.

        The per-counter state is the maximum lsb-level seen among the items
        hashed to that counter, so two sketches over different streams (with
        identical hash functions) combine by element-wise maximum — the
        state a single sketch would have reached on the concatenation.
        """
        if not isinstance(other, RoughEstimator):
            raise ParameterError("merge_max expects a RoughEstimator")
        if (
            other.universe_size != self.universe_size
            or other.counters_per_copy != self.counters_per_copy
            or len(other._copies) != len(self._copies)
        ):
            raise ParameterError("cannot merge RoughEstimators with different parameters")
        for mine, theirs in zip(self._copies, other._copies):
            mine.counters.maximize_many(
                np.arange(mine.counters.length), theirs.counters.to_numpy()
            )
        if other._monotone_floor > self._monotone_floor:
            self._monotone_floor = other._monotone_floor

    def space_bits(self) -> int:
        """Return the total space (three copies)."""
        return sum(copy.space().total() for copy in self._copies)

    def space_breakdown(self) -> SpaceBreakdown:
        """Return an itemised space budget."""
        breakdown = SpaceBreakdown(self.name)
        for index, copy in enumerate(self._copies):
            breakdown.add("copy-%d" % index, copy.space().total())
        return breakdown

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            "RoughEstimator(universe_size=%d, counters_per_copy=%d)"
            % (self.universe_size, self.counters_per_copy)
        )


class FastRoughEstimator(RoughEstimator):
    """The Lemma 5 variant: O(1)-time updates and reporting.

    Differences from :class:`RoughEstimator`:

    * ``h3`` is drawn from the Pagh--Pagh family (Theorem 6), which
      evaluates in constant time;
    * the report is maintained *incrementally*: instead of scanning all
      levels at query time, the estimator tracks the current committed
      level ``r`` and only advances it when new occupancy appears at or
      above ``r + 1`` (the paper maintains the window ``A^j_0..A^j_4`` of
      occupancy counts and amortises recomputation over subsequent updates;
      the same constant-amortised-work discipline is achieved here by
      advancing the committed level at most once per update);
    * in exchange the guarantee weakens from an 8-approximation to a
      16-approximation, exactly as Lemma 5 states.

    The estimate remains monotonically non-decreasing.
    """

    name = "knw-rough-estimator-fast"

    def __init__(
        self,
        universe_size: int,
        counters_per_copy: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(
            universe_size,
            counters_per_copy=counters_per_copy,
            seed=seed,
            use_uniform_family=True,
        )
        self._committed_level = -1
        self._cached_estimate = -1.0

    def update(self, item: int) -> None:
        """Process one item and advance the committed level by at most one."""
        super().update(item)
        next_level = self._committed_level + 1
        if next_level > self._copies[0].level_limit:
            return
        hits = 0
        for copy in self._copies:
            if copy.counts_at_least(next_level) >= self._threshold:
                hits += 1
        if hits >= 2:
            self._committed_level = next_level
            self._cached_estimate = float(
                (1 << next_level) * self.counters_per_copy
            )

    def update_batch(self, items) -> None:
        """Process a chunk item by item.

        The Lemma 5 deamortisation advances the committed level *at most
        once per update*, so the committed level after a chunk depends on
        the per-item interleaving of counter updates and commit checks;
        a vectorized reduction could legally advance further than the
        scalar path.  To keep batch ingestion bit-identical, this variant
        deliberately keeps the per-item loop.
        """
        keys = as_key_array(items, self.universe_size)
        for key in keys.tolist():
            self.update(key)

    def estimate(self) -> float:
        """Return the committed estimate (O(1): no scan at query time)."""
        return self._cached_estimate
