"""The KNW L0 (Hamming norm) estimation algorithm (Section 4, Theorem 10).

The algorithm is the Figure 4 skeleton with every bit replaced by a Lemma 6
fingerprint counter, so that deletions and mixed-sign frequencies are
handled correctly:

* ``h1`` subsamples items into ``log n`` levels by ``lsb``;
* ``h2``/``h3`` place an item into one of ``K = 1/eps^2`` columns;
* the cell accumulates ``x_i * u[h4(h2(i))]`` modulo a random prime, so a
  cell is non-zero exactly when the items hashed to it have not all
  cancelled (up to the small failure probability Lemma 6 bounds);
* :class:`repro.l0.rough_l0.RoughL0Estimator` supplies the constant-factor
  approximation ``R`` the reporting step needs;
* the small-L0 regimes are handled as in Section 3.3: exact recovery below
  ~100 (Lemma 8) and a single unsampled fingerprint row of ``2K`` cells up
  to ``Theta(K)``.

Space is ``O(eps^-2 log n (log(1/eps) + log log(mM)))`` bits; update and
reporting are O(1) (one cell, one rough-estimator update, one row read).
"""

from __future__ import annotations

import math
import random
from typing import Optional

from ..bitstructs.space import SpaceBreakdown
from ..core.balls_bins import invert_occupancy
from ..core.knw import bins_for_eps
from ..estimators.base import ItemBatch, TurnstileEstimator
from ..exceptions import MergeError, ParameterError
from ..hashing.bitops import lsb
from ..hashing.kwise import KWiseHash, required_independence
from ..hashing.universal import PairwiseHash
from ..vectorize import as_delta_array, as_key_array
from .fingerprint import FingerprintMatrix, update_fingerprints
from .rough_l0 import RoughL0Estimator
from .small_l0 import SmallL0Recovery

__all__ = ["KNWHammingNormEstimator"]

#: Exact tracking threshold of the small-L0 path (the paper uses 100).
_EXACT_LIMIT = 100

#: Occupancy fraction above which a row is considered saturated when the
#: adaptive row-selection rule looks for the most informative row.
_ADAPTIVE_SATURATION = 0.7

#: Margin converting the RoughL0Estimator output (which satisfies
#: ``L0/110 <= ~L0 <= L0``, i.e. it may *under*-estimate) into the
#: upper-bound oracle ``R >= L0`` that the Figure 4 row formula assumes.
#: 32 = 4x the liveness threshold covers the concentration range of the
#: deepest live level for the default capacity.
_ORACLE_MARGIN = 32.0


class KNWHammingNormEstimator(TurnstileEstimator):
    """(1 +/- eps)-approximation of ``L0 = |{i : x_i != 0}|`` under turnstile updates.

    Attributes:
        universe_size: the universe size ``n``.
        eps: the relative-error target.
        bins: the number of columns ``K``.
    """

    name = "knw-l0"
    requires_nonnegative_frequencies = False

    def __init__(
        self,
        universe_size: int,
        eps: float = 0.05,
        magnitude_bound: int = 1 << 30,
        seed: Optional[int] = None,
        bins: Optional[int] = None,
        row_selection: str = "adaptive",
        rough_capacity: int = 16,
    ) -> None:
        """Create the estimator.

        Args:
            universe_size: the universe size ``n`` (at least 2).
            eps: relative-error target in (0, 1).
            magnitude_bound: upper bound on ``mM`` — the largest absolute
                frequency any item can reach; sizes the fingerprint primes.
            seed: RNG seed.
            bins: explicit ``K`` override.
            row_selection: ``"paper"`` reads the row ``log(16R/K)`` dictated
                by the rough estimate, exactly as Figure 4 prescribes;
                ``"adaptive"`` (default) reads the deepest non-saturated row
                of the same matrix, which uses the identical state but
                avoids the large constants the conservative oracle bound
                forces (see "Paper constructions and stand-ins" in
                ``docs/architecture.md``).
            rough_capacity: per-level Lemma 8 capacity inside the rough
                estimator.  The paper's constant is 141; the default of 16
                keeps the per-level bucket arrays (capacity^2 counters per
                trial) small while preserving the constant-factor guarantee
                (only the constant changes).  Pass 141 to run the literal
                Appendix A.3 configuration.
        """
        if universe_size < 2:
            raise ParameterError("universe_size must be at least 2")
        if not 0.0 < eps < 1.0:
            raise ParameterError("eps must lie in (0, 1)")
        if row_selection not in ("paper", "adaptive"):
            raise ParameterError("row_selection must be 'paper' or 'adaptive'")
        if magnitude_bound < 1:
            raise ParameterError("magnitude_bound must be at least 1")
        self.universe_size = universe_size
        self.eps = eps
        self.magnitude_bound = magnitude_bound
        self.bins = bins if bins is not None else bins_for_eps(eps)
        self.row_selection = row_selection
        self.seed = seed
        rng = random.Random(seed)

        self._level_limit = max((universe_size - 1).bit_length(), 1)
        levels = self._level_limit + 1
        extended = 2 * self.bins
        domain_cubed = extended ** 3
        self._h1 = PairwiseHash(universe_size, universe_size, rng=rng)
        self._h2 = PairwiseHash(universe_size, domain_cubed, rng=rng)
        independence = required_independence(extended, eps)
        self._h3 = KWiseHash(domain_cubed, extended, independence=independence, rng=rng)

        self._matrix = FingerprintMatrix(
            levels, self.bins, magnitude_bound, seed=rng.randrange(1 << 62)
        )
        self._small_row = FingerprintMatrix(
            1, extended, magnitude_bound, seed=rng.randrange(1 << 62)
        )
        self._small_exact = SmallL0Recovery(
            universe_size,
            capacity=_EXACT_LIMIT,
            magnitude_bound=magnitude_bound,
            seed=rng.randrange(1 << 62),
        )
        self.rough = RoughL0Estimator(
            universe_size,
            magnitude_bound,
            seed=rng.randrange(1 << 62),
            capacity=rough_capacity,
        )

    # -- update ---------------------------------------------------------------------

    def update(self, item: int, delta: int) -> None:
        """Apply the turnstile update ``x_item += delta``."""
        if not 0 <= item < self.universe_size:
            raise ParameterError(
                "item %d outside universe [0, %d)" % (item, self.universe_size)
            )
        if delta == 0:
            return
        spread = self._h2(item)
        extended_column = self._h3(spread)
        level = min(lsb(self._h1(item), zero_value=self._level_limit), self._matrix.levels - 1)
        self._matrix.update(level, extended_column % self.bins, spread, delta)
        self._small_row.update(0, extended_column, spread, delta)
        self._small_exact.update(item, delta)
        self.rough.update(item, delta)

    def update_batch(self, items: ItemBatch, deltas: ItemBatch) -> None:
        """Apply a chunk of turnstile updates through three kernel calls.

        The batch counterpart of :meth:`update`, bit-identical in every
        state word (all four components are additive modulo their primes,
        so batching is pure throughput).  The chunk is validated once,
        before any component is mutated, so a rejected batch leaves the
        sketch untouched; then seam kernel calls hash every key and add
        its delta:

        * the subsampled matrix and the unsampled ``2K`` row share one
          call (:func:`~repro.l0.fingerprint.update_fingerprints`), which
          evaluates ``h1``/``h2``/``h3`` once per key for both;
        * the Lemma 8 exact structure and the rough estimator take one
          each, through their ``update_batch_validated``.

        Zero deltas add nothing anywhere, as the scalar update's early
        return skips them.
        """
        keys = as_key_array(items, self.universe_size)
        deltas = as_delta_array(deltas, expected_length=len(keys))
        if keys.size == 0:
            return
        update_fingerprints(
            (self._matrix, self._small_row), keys, deltas,
            self._h1, self._h2, self._h3, self._level_limit,
        )
        self._small_exact.update_batch_validated(keys, deltas)
        self.rough.update_batch_validated(keys, deltas)

    def merge(self, other: "TurnstileEstimator") -> None:
        """Merge another same-seed estimator into this one (stream union).

        Every component is a linear sketch — fingerprint cells and Lemma 8
        buckets are sums of deltas modulo their primes — so component-wise
        merging of two same-seed sketches fed disjoint streams is
        bit-identical to one sketch fed the concatenation.  This is what
        makes the KNW L0 sketch shardable (:mod:`repro.parallel`).
        """
        if not isinstance(other, KNWHammingNormEstimator):
            raise MergeError(
                "can only merge KNWHammingNormEstimator with its own kind"
            )
        if (
            other.universe_size != self.universe_size
            or other.bins != self.bins
            or other.magnitude_bound != self.magnitude_bound
            or other.row_selection != self.row_selection
            or self.seed is None
            or other.seed != self.seed
        ):
            raise MergeError(
                "KNW L0 sketches must share parameters and an explicit seed"
            )
        self._matrix.merge(other._matrix)
        self._small_row.merge(other._small_row)
        self._small_exact.merge(other._small_exact)
        self.rough.merge(other.rough)

    def clear(self) -> None:
        """Zero every component's counters, keeping all hash randomness."""
        self._matrix.clear()
        self._small_row.clear()
        self._small_exact.clear()
        self.rough.clear()

    # -- reporting -------------------------------------------------------------------

    def _small_row_estimate(self) -> float:
        occupancy = self._small_row.row_occupancy(0)
        return invert_occupancy(occupancy, 2 * self.bins)

    def _paper_row(self) -> int:
        if self.rough.deepest_live_level() < 0:
            return 0
        oracle = _ORACLE_MARGIN * self.rough.estimate()
        row = int(round(math.log2(max(16.0 * oracle / self.bins, 1.0))))
        return min(max(row, 0), self._matrix.levels - 1)

    def _adaptive_row(self) -> int:
        saturation = _ADAPTIVE_SATURATION * self.bins
        for row in range(self._matrix.levels):
            if self._matrix.row_occupancy(row) <= saturation:
                return row
        return self._matrix.levels - 1

    def _matrix_estimate(self) -> float:
        row = self._paper_row() if self.row_selection == "paper" else self._adaptive_row()
        occupancy = self._matrix.row_occupancy(row)
        return float(1 << (row + 1)) * invert_occupancy(occupancy, self.bins)

    def estimate(self) -> float:
        """Return the current estimate of the Hamming norm.

        Regime selection mirrors Theorem 4's handover: the unsampled
        ``2K``-cell row decides whether L0 is still small; while it reports
        fewer than ~100 live items the Lemma 8 structure's exact answer is
        returned, up to ``K/16`` the row's own inversion is returned, and
        beyond that the subsampled matrix estimator takes over.
        """
        row_estimate = self._small_row_estimate()
        if row_estimate < _EXACT_LIMIT:
            return self._small_exact.estimate()
        if row_estimate < self.bins / 16.0:
            return row_estimate
        return self._matrix_estimate()

    # -- space accounting --------------------------------------------------------------

    def space_breakdown(self) -> SpaceBreakdown:
        """Return the itemised space budget."""
        breakdown = SpaceBreakdown(self.name)
        breakdown.add_component("h1", self._h1)
        breakdown.add_component("h2", self._h2)
        breakdown.add_component("h3", self._h3)
        breakdown.add("fingerprint-matrix", self._matrix.space_bits())
        breakdown.add("small-row", self._small_row.space_bits())
        breakdown.add("small-exact", self._small_exact.space_bits())
        breakdown.add("rough-l0", self.rough.space_bits())
        return breakdown

    def space_bits(self) -> int:
        """Return the estimator's total space in bits."""
        return self.space_breakdown().total()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            "KNWHammingNormEstimator(universe_size=%d, eps=%g, bins=%d, row_selection=%r)"
            % (self.universe_size, self.eps, self.bins, self.row_selection)
        )
