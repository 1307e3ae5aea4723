"""RoughEstimator: a constant-factor F0 approximation valid at all times.

This is Figure 2 / Theorem 1 of the paper.  The subroutine uses
``O(log n)`` bits and guarantees (with probability ``1 - o(1)``) that its
output is in ``[F0(t), 8 F0(t)]`` *simultaneously for every* point ``t`` of
the stream with ``F0(t) >= K_RE`` — the "for all t" quantifier is what
distinguishes it from earlier constant-factor estimators, which needed an
extra ``log m`` factor to union-bound over stream positions.

Structure (three independent copies ``j = 1, 2, 3``, median combined):

* ``K_RE = max(8, log(n)/log log(n))`` counters per copy, each storing the
  deepest lsb-level of any item hashed to it (``-1`` when empty), charged
  at ``O(log log n)`` bits per counter;
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

from ..bitstructs.space import SpaceBreakdown, bits_for_counter
from ..estimators.base import SerializableState
from ..exceptions import ParameterError
from ..hashing.bitops import lsb, lsb_batch
from ..hashing.kwise import KWiseHash
from ..hashing.uniform import PaghPaghHash
from ..hashing.universal import PairwiseHash
from ..vectorize import as_key_array, counter_dtype, hashed_max_scatter, np

__all__ = [
    "RoughEstimator",
    "FastRoughEstimator",
    "OCCUPANCY_THRESHOLD_RHO",
    "rough_counter_count",
    "rough_draws",
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

    ``stored`` holds counters shifted by +1 (0 = empty), as the counter
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


def rough_medians(stored, rank: int):
    """Figure 2's report: the median of the copies' threshold estimates.

    ``stored`` is ``(..., copies, K_RE)``: one estimator's counter matrix,
    or a keyed store's stack of them.  Before the monotone floor.
    """
    per_copy = threshold_estimates(stored, rank)
    return np.sort(per_copy, axis=-1)[..., per_copy.shape[-1] // 2]


class _RoughCopy:
    """The hash functions of one of the three sub-estimators of Figure 2."""

    __slots__ = ("h1", "h2", "h3", "level_limit")

    def __init__(
        self,
        universe_size: int,
        counters: int,
        rng: random.Random,
        use_uniform_family: bool,
    ) -> None:
        self.level_limit = max((universe_size - 1).bit_length(), 1)
        domain_cubed = max(counters ** 3, counters)
        self.h1 = PairwiseHash(universe_size, universe_size, rng=rng)
        self.h2 = PairwiseHash(universe_size, domain_cubed, rng=rng)
        if use_uniform_family:
            # Lemma 5: Theorem 6's family, uniform on the <= 2 K_RE items
            # that matter with probability 1 - O(1/K_RE).
            self.h3 = PaghPaghHash(domain_cubed, counters, 2 * counters, rng)
        else:
            self.h3 = KWiseHash(domain_cubed, counters, independence=2 * counters, rng=rng)

    def slot(self, item: int):
        """Return the item's counter and its stored value ``lsb(h1) + 1``.

        Counters take values in ``{-1} u [0, level_limit]`` and are stored
        shifted by +1, so an empty counter holds 0.
        """
        return self.h3(self.h2(item)), lsb(self.h1(item), zero_value=self.level_limit) + 1

    def slots(self, keys):
        """:meth:`slot` for a validated key array: ``int64`` indices and values."""
        values = lsb_batch(self.h1.hash_batch_validated(keys), zero_value=self.level_limit)
        indices = self.h3.hash_batch_validated(self.h2.hash_batch_validated(keys))
        return indices.astype(np.int64), values + np.int64(1)

    def draws(self) -> tuple:
        """What the seed drew for the copy's three hash functions."""
        h3 = self.h3
        drawn = h3.draws() if isinstance(h3, PaghPaghHash) else tuple(h3._coefficients)
        return self.h1.word_form(), self.h2.word_form(), drawn

    def space_bits(self) -> int:
        """The copy's three hash functions."""
        return self.h1.space_bits() + self.h2.space_bits() + self.h3.space_bits()


def rough_draws(estimator: "RoughEstimator") -> List[tuple]:
    """Every copy's :meth:`_RoughCopy.draws`.

    A :class:`RoughEstimator` keeps no seed, so this is how a merge or a
    keyed store's row import tells another seed's estimator apart.
    """
    return [copy.draws() for copy in estimator._copies]


class RoughEstimator(SerializableState):
    """The Figure 2 subroutine: an 8-approximation to F0 valid at all times.

    The estimate is monotonically non-decreasing in the stream position,
    a property the Figure 3 analysis relies on (``est`` only grows).

    The three copies' counters are one ``(3, K_RE)`` array, a byte per
    counter (two past ``n = 2^254``); :meth:`space_bits` charges the
    paper's ``O(log log n)`` bits per counter.

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
        self._counters = np.zeros(
            (_COPIES, self.counters_per_copy),
            dtype=counter_dtype(self._copies[0].level_limit + 1),
        )
        self._threshold = OCCUPANCY_THRESHOLD_RHO * self.counters_per_copy
        self._monotone_floor = -1.0

    def update(self, item: int) -> None:
        """Process one stream item."""
        if not 0 <= item < self.universe_size:
            raise ParameterError(
                "item %d outside universe [0, %d)" % (item, self.universe_size)
            )
        counters = self._counters
        for row, copy in enumerate(self._copies):
            index, value = copy.slot(item)
            if value > counters.item(row, index):
                counters[row, index] = value

    def update_batch(self, items) -> None:
        """Process a chunk of items through all three copies, vectorized.

        Counters hold the deepest level hashed to them — a pure
        per-counter maximum — so one :func:`~repro.vectorize.hashed_max_scatter`
        per copy is bit-identical to the :meth:`update` loop (both ``h3``
        families are fixed by the seed).
        """
        self.update_batch_validated(as_key_array(items, self.universe_size))

    def update_batch_validated(self, keys) -> None:
        """:meth:`update_batch` for a key array the caller already validated."""
        for counters, copy in zip(self._counters, self._copies):
            hashed_max_scatter(counters, keys, copy.h1, copy.h2, copy.h3, 1, 0, copy.level_limit)

    def estimate(self) -> float:
        """Return the current rough estimate (median of the three copies).

        Returns ``-1.0`` while no copy has enough occupancy to commit to an
        estimate (the regime ``F0 < K_RE`` where Theorem 1 makes no claim).
        The returned value never decreases over the lifetime of the sketch.
        ``T_r`` is an integer, so ``T_r >= rho K_RE`` is ``T_r >=
        ceil(rho K_RE)``.
        """
        median = float(rough_medians(self._counters, int(math.ceil(self._threshold))))
        if median > self._monotone_floor:
            self._monotone_floor = median
        return self._monotone_floor

    def merge_max(self, other: "RoughEstimator") -> None:
        """Merge another RoughEstimator built with the same seed/parameters.

        The per-counter state is the maximum lsb-level seen among the items
        hashed to that counter, so two sketches over different streams (with
        identical hash functions) combine by element-wise maximum — the
        state a single sketch would have reached on the concatenation.

        Raises:
            ParameterError: when ``other`` has other parameters or hash
                functions (another seed's estimator).
        """
        if not isinstance(other, RoughEstimator):
            raise ParameterError("merge_max expects a RoughEstimator")
        if (
            other.universe_size != self.universe_size
            or other.counters_per_copy != self.counters_per_copy
            or rough_draws(other) != rough_draws(self)
        ):
            raise ParameterError(
                "cannot merge RoughEstimators with different parameters or seeds"
            )
        np.maximum(self._counters, other._counters, out=self._counters)
        if other._monotone_floor > self._monotone_floor:
            self._monotone_floor = other._monotone_floor

    def _copy_bits(self, copy: _RoughCopy) -> int:
        """One copy's ``K_RE`` counters at the paper's width, plus its hashes."""
        width = bits_for_counter(copy.level_limit + 1)
        return self.counters_per_copy * width + copy.space_bits()

    def space_bits(self) -> int:
        """Return the total space (three copies)."""
        return sum(self._copy_bits(copy) for copy in self._copies)

    def space_breakdown(self) -> SpaceBreakdown:
        """Return an itemised space budget."""
        breakdown = SpaceBreakdown(self.name)
        for index, copy in enumerate(self._copies):
            breakdown.add("copy-%d" % index, self._copy_bits(copy))
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
        # T_r per copy: stored values are C + 1, so C >= r is stored > r.
        occupancy = np.count_nonzero(self._counters > next_level, axis=1)
        if np.count_nonzero(occupancy >= self._threshold) >= 2:
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
