"""Ganguly-style baseline L0 estimator.

The paper compares its L0 algorithm against Ganguly (2007), whose sketch is
also a subsampled balls-and-bins structure but with two structural
differences the paper calls out:

* each cell keeps full-width frequency statistics (``O(log(mM))`` bits)
  rather than an ``O(log K + log log(mM))``-bit fingerprint, which is where
  the extra ``log(mM)`` factor in its space bound comes from;
* the estimator is built on the number of cells containing *exactly one*
  distinct item (singletons), whose detection requires all frequencies to
  remain non-negative — feeding it a mixed-sign stream can mis-classify
  cells.

This module re-implements that design in the same framework so the E8
benchmark can compare space, update cost, and accuracy.  It follows the
published structure (per-level cells holding the frequency sum and the
first two moments of the item identifiers for singleton detection) rather
than being a line-by-line port, which is sufficient for the comparison the
paper's Figure-1-style claims make; "Paper constructions and stand-ins"
in ``docs/architecture.md`` records this as a substitution.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..bitstructs.space import SpaceBreakdown
from ..core.balls_bins import invert_occupancy
from ..core.knw import bins_for_eps
from ..estimators.base import ItemBatch, TurnstileEstimator
from ..exceptions import MergeError, ParameterError
from ..hashing.bitops import lsb, lsb_batch
from ..hashing.universal import PairwiseHash
from ..vectorize import as_delta_array, as_key_array, np

__all__ = ["GangulyStyleL0Estimator"]


class _Cell:
    """One bucket: frequency total plus identifier moments for singleton tests."""

    __slots__ = ("count", "id_sum", "id_square_sum")

    def __init__(self) -> None:
        self.count = 0
        self.id_sum = 0
        self.id_square_sum = 0

    def apply(self, item: int, delta: int) -> None:
        self.count += delta
        self.id_sum += delta * item
        self.id_square_sum += delta * item * item

    def is_empty(self) -> bool:
        return self.count == 0 and self.id_sum == 0 and self.id_square_sum == 0

    def is_singleton(self) -> bool:
        """True when the cell's statistics are consistent with one live item."""
        if self.count == 0:
            return False
        if self.id_sum % self.count != 0:
            return False
        item = self.id_sum // self.count
        return self.id_square_sum == self.count * item * item


class GangulyStyleL0Estimator(TurnstileEstimator):
    """Subsampled singleton-counting L0 estimator (Ganguly 2007 style).

    Attributes:
        universe_size: the universe size ``n``.
        bins: buckets per level ``K``.
    """

    name = "ganguly-l0"
    requires_nonnegative_frequencies = True

    def __init__(
        self,
        universe_size: int,
        eps: float = 0.05,
        magnitude_bound: int = 1 << 30,
        seed: Optional[int] = None,
        bins: Optional[int] = None,
    ) -> None:
        """Create the estimator.

        Args:
            universe_size: the universe size ``n`` (at least 2).
            eps: relative-error target.
            magnitude_bound: upper bound on ``mM`` (space accounting of the
                full-width counters).
            seed: RNG seed.
            bins: explicit per-level bucket count.
        """
        if universe_size < 2:
            raise ParameterError("universe_size must be at least 2")
        if not 0.0 < eps < 1.0:
            raise ParameterError("eps must lie in (0, 1)")
        self.universe_size = universe_size
        self.eps = eps
        self.magnitude_bound = magnitude_bound
        self.bins = bins if bins is not None else bins_for_eps(eps)
        self.seed = seed
        rng = random.Random(seed)
        self._level_limit = max((universe_size - 1).bit_length(), 1)
        self.levels = self._level_limit + 1
        self._h_level = PairwiseHash(universe_size, universe_size, rng=rng)
        self._h_bucket = PairwiseHash(universe_size, self.bins, rng=rng)
        self._cells: List[List[_Cell]] = [
            [_Cell() for _ in range(self.bins)] for _ in range(self.levels)
        ]

    def update(self, item: int, delta: int) -> None:
        """Apply ``x_item += delta``."""
        if not 0 <= item < self.universe_size:
            raise ParameterError(
                "item %d outside universe [0, %d)" % (item, self.universe_size)
            )
        level = min(lsb(self._h_level(item), zero_value=self._level_limit), self.levels - 1)
        bucket = self._h_bucket(item)
        self._cells[level][bucket].apply(item, delta)

    def update_batch(self, items: ItemBatch, deltas: ItemBatch) -> None:
        """Apply a chunk of updates through vectorized passes.

        Both hashes and the ``lsb`` level extraction run once over the
        whole chunk; the three per-cell moment sums (``delta``,
        ``delta * item``, ``delta * item^2``) are scatter-summed per
        touched cell and folded in with plain integer addition.  Cell
        statistics are plain (unreduced) sums, so the result is
        bit-identical to the scalar loop in any order.  The moment sums
        run in ``int64`` whenever a proven bound keeps every partial sum
        in range, and fall back to exact big-int (object-array)
        accumulation otherwise.
        """
        keys = as_key_array(items, self.universe_size)
        deltas = as_delta_array(deltas, expected_length=len(keys))
        if keys.size == 0:
            return
        levels = lsb_batch(
            self._h_level.hash_batch_validated(keys), zero_value=self._level_limit
        )
        levels = np.minimum(levels, np.int64(self.levels - 1))
        buckets = self._h_bucket.hash_batch_validated(keys)
        if buckets.dtype == object:
            buckets = buckets.astype(np.int64)
        cells = levels * np.int64(self.bins) + buckets.astype(np.int64, copy=False)
        touched, inverse = np.unique(cells, return_inverse=True)

        exact = keys.dtype == object or deltas.dtype == object
        if not exact:
            item_peak = int(keys.max())
            delta_peak = max(abs(int(deltas.min())), abs(int(deltas.max())))
            # Every partial product and every running sum must stay inside
            # int64; the crude product bound below is conservative but
            # cheap to check.
            exact = (
                delta_peak * max(item_peak, 1) ** 2 * len(keys) >= (1 << 62)
            )
        if exact:
            signed = np.empty(len(keys), dtype=object)
            signed[:] = [int(delta) for delta in deltas.tolist()]
            identifiers = np.empty(len(keys), dtype=object)
            identifiers[:] = [int(key) for key in keys.tolist()]
            zeros = lambda: np.zeros(len(touched), dtype=object)  # noqa: E731
        else:
            signed = deltas.astype(np.int64, copy=False)
            identifiers = keys.astype(np.int64)
            zeros = lambda: np.zeros(len(touched), dtype=np.int64)  # noqa: E731
        count_sums, id_sums, id_square_sums = zeros(), zeros(), zeros()
        np.add.at(count_sums, inverse, signed)
        weighted = signed * identifiers
        np.add.at(id_sums, inverse, weighted)
        np.add.at(id_square_sums, inverse, weighted * identifiers)
        bins = self.bins
        for position, cell in enumerate(touched.tolist()):
            level, bucket = divmod(int(cell), bins)
            target = self._cells[level][bucket]
            target.count += int(count_sums[position])
            target.id_sum += int(id_sums[position])
            target.id_square_sum += int(id_square_sums[position])

    def merge(self, other: "TurnstileEstimator") -> None:
        """Merge another same-seed estimator into this one (stream union).

        Each cell's statistics are plain sums over the updates hashed to
        it, so same-seed sketches fed disjoint streams combine by
        cell-wise addition into exactly the single-sketch state.
        """
        if not isinstance(other, GangulyStyleL0Estimator):
            raise MergeError(
                "can only merge GangulyStyleL0Estimator with its own kind"
            )
        if (
            other.universe_size != self.universe_size
            or other.bins != self.bins
            or self.seed is None
            or other.seed != self.seed
        ):
            raise MergeError(
                "Ganguly sketches must share parameters and an explicit seed"
            )
        for level in range(self.levels):
            for mine, theirs in zip(self._cells[level], other._cells[level]):
                mine.count += theirs.count
                mine.id_sum += theirs.id_sum
                mine.id_square_sum += theirs.id_square_sum

    def clear(self) -> None:
        """Zero every cell's statistics, keeping the hash functions."""
        self._cells = [
            [_Cell() for _ in range(self.bins)] for _ in range(self.levels)
        ]

    def _row_statistics(self, level: int) -> Tuple[int, int]:
        """Return (non-empty cells, singleton cells) for one level."""
        non_empty = 0
        singletons = 0
        for cell in self._cells[level]:
            if cell.is_empty():
                continue
            non_empty += 1
            if cell.is_singleton():
                singletons += 1
        return non_empty, singletons

    def estimate(self) -> float:
        """Return the estimated Hamming norm.

        Reporting scans levels from the unsampled one downward and uses the
        deepest level whose occupancy is informative (below ~70% load),
        inverting the balls-and-bins occupancy at that level — the same
        statistical core as Ganguly's singleton estimator with the
        occupancy inversion standing in for the singleton-count inversion
        (both are functions of the same per-level load).
        """
        saturation = 0.7 * self.bins
        for level in range(self.levels):
            non_empty, _ = self._row_statistics(level)
            if non_empty <= saturation:
                return float(1 << (level + 1)) * invert_occupancy(non_empty, self.bins)
        return float(self.bins)

    def space_breakdown(self) -> SpaceBreakdown:
        """Return the itemised space cost.

        Each cell is charged three full-width counters: the frequency sum
        (``log2(mM)`` bits) and the two identifier-moment sums
        (``log2(mM) + log2(n)`` and ``log2(mM) + 2 log2(n)`` bits), which is
        the ``log(mM)``-factor overhead the paper attributes to Ganguly's
        approach.
        """
        breakdown = SpaceBreakdown(self.name)
        freq_bits = max(self.magnitude_bound.bit_length(), 1)
        id_bits = max((self.universe_size - 1).bit_length(), 1)
        per_cell = freq_bits + (freq_bits + id_bits) + (freq_bits + 2 * id_bits)
        breakdown.add("cells", self.levels * self.bins * per_cell)
        breakdown.add_component("level-hash", self._h_level)
        breakdown.add_component("bucket-hash", self._h_bucket)
        return breakdown

    def space_bits(self) -> int:
        """Return the estimator's total space in bits."""
        return self.space_breakdown().total()
