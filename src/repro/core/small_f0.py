"""The small-F0 subroutine of Section 3.3 (Theorem 4).

The Figure 3 analysis assumes ``F0 >= K/32``; below that threshold the
paper runs a simpler estimator in parallel and switches over once it
declares the count LARGE:

* while fewer than 100 distinct identifiers have been seen, they are simply
  stored exactly (``O(log n)`` bits each);
* beyond that, ``K' = 2K`` bits ``B_1 ... B_{K'}`` record which of ``2K``
  bins has been hit (using the shared ``h3 o h2``), and the balls-and-bins
  inversion ``ln(1 - T_B/K') / ln(1 - 1/K')`` estimates F0;
* once that estimate reaches ``K'/32 = K/16`` the subroutine reports
  LARGE and the caller switches to the Figure 3 estimator, with the
  guarantee that the true F0 is already at least ``1/(16 eps^2)``
  (up to the usual constants), i.e. inside Figure 3's analysed regime.

The bitvector estimate is monotone in ``t``, which is what makes the
one-way handover sound.
"""

from __future__ import annotations

from typing import Set

from ..bitstructs.bitvector import BitVector
from ..bitstructs.space import SpaceBreakdown
from ..exceptions import ParameterError
from ..vectorize import np
from .balls_bins import invert_occupancy
from .hashes import F0HashBundle

__all__ = ["SmallF0Estimator", "EXACT_TRACKING_LIMIT"]

#: The paper keeps the first 100 distinct indices exactly.
EXACT_TRACKING_LIMIT = 100


class SmallF0Estimator:
    """Exact-then-bitvector estimator for the small-F0 regime.

    Attributes:
        bins: the number of bits ``K' = 2K``.
        exact_limit: how many distinct identifiers are tracked exactly.
    """

    name = "knw-small-f0"

    def __init__(
        self,
        hashes: F0HashBundle,
        exact_limit: int = EXACT_TRACKING_LIMIT,
    ) -> None:
        """Create the subroutine.

        Args:
            hashes: the shared hash bundle (provides ``h3 o h2`` with range
                ``2K`` and the universe bound).
            exact_limit: number of distinct identifiers kept exactly before
                relying on the bitvector (the paper uses 100).
        """
        if exact_limit <= 0:
            raise ParameterError("exact_limit must be positive")
        self.hashes = hashes
        self.bins = hashes.extended_bins
        self.exact_limit = exact_limit
        self._exact: Set[int] = set()
        self._exact_overflowed = False
        self._bits = BitVector(self.bins)

    def update(self, item: int) -> None:
        """Process one stream item."""
        if not 0 <= item < self.hashes.universe_size:
            raise ParameterError(
                "item %d outside universe [0, %d)" % (item, self.hashes.universe_size)
            )
        if not self._exact_overflowed:
            if item in self._exact or len(self._exact) < self.exact_limit:
                self._exact.add(item)
            else:
                self._mark_overflowed()
        self._bits.set(self.hashes.extended_bin(item), 1)

    def admit(self, keys) -> None:
        """The exact buffer's part of a batch of validated keys.

        New identifiers enter in first-occurrence order until the capacity
        would be exceeded, at which point the buffer overflows for good,
        exactly like the :meth:`update` loop.  The batch's bits are set by
        the caller: :meth:`repro.core.knw.KNWDistinctCounter.update_batch`
        hands the bit vector to the kernel that updates the Figure 3
        counters, since both read the shared ``h3(h2(.))``.
        """
        if self._exact_overflowed or keys.size == 0:
            return
        # First occurrence of each identifier, in stream order.
        _, first_positions = np.unique(keys, return_index=True)
        ordered_new = [
            key for key in keys[np.sort(first_positions)].tolist() if key not in self._exact
        ]
        capacity = self.exact_limit - len(self._exact)
        self._exact.update(ordered_new[:capacity])
        if len(ordered_new) > capacity:
            self._mark_overflowed()

    def _mark_overflowed(self) -> None:
        """Switch permanently to the bitvector regime.

        The buffer is dropped as soon as it overflows: nothing reads it
        afterwards (``estimate``/``is_large`` branch on the flag), and the
        empty buffer is the canonical overflowed state — which is what
        makes sharded ingestion bit-identical to sequential (the shards'
        buffers fill with *different* identifiers, but every overflowed
        path converges to the same emptied state).
        """
        self._exact_overflowed = True
        self._exact.clear()

    def merge(self, other: "SmallF0Estimator") -> None:
        """Merge a same-bundle subroutine (union of the two streams).

        The exact buffers union (overflowing — and emptying — when the
        union exceeds the capacity, exactly as a single subroutine fed
        both streams would have), and the bitvectors OR.
        """
        if other.bins != self.bins or other.exact_limit != self.exact_limit:
            raise ParameterError("cannot merge small-F0 subroutines with different shapes")
        if self._exact_overflowed or other._exact_overflowed:
            self._mark_overflowed()
        else:
            self._exact |= other._exact
            if len(self._exact) > self.exact_limit:
                self._mark_overflowed()
        self._bits.union_update(other._bits)

    def bitvector_estimate(self) -> float:
        """Return the ``K'``-bit balls-and-bins estimate ``F~_B``."""
        occupied = self._bits.count_ones()
        return invert_occupancy(occupied, self.bins)

    def estimate(self) -> float:
        """Return the small-regime estimate of F0.

        Exact while the exact buffer has not overflowed, otherwise the
        bitvector estimate.
        """
        if not self._exact_overflowed:
            return float(len(self._exact))
        return self.bitvector_estimate()

    def is_large(self) -> bool:
        """Return True once the caller should switch to the Figure 3 estimator.

        The paper's threshold is ``F~_B >= K'/32`` (equal to ``K/16``).
        The exact-tracking phase never reports LARGE (its counts are far
        below the threshold whenever ``K >= 32 * exact_limit``; for smaller
        ``K`` the bitvector takes over as soon as the buffer overflows).
        """
        if not self._exact_overflowed:
            return False
        return self.bitvector_estimate() >= self.bins / 32.0

    def space_breakdown(self) -> SpaceBreakdown:
        """Return the itemised space cost (excluding the shared hash bundle)."""
        breakdown = SpaceBreakdown(self.name)
        id_bits = max((self.hashes.universe_size - 1).bit_length(), 1)
        breakdown.add("exact-buffer", self.exact_limit * id_bits)
        breakdown.add_component("bitvector", self._bits)
        return breakdown

    def space_bits(self) -> int:
        """Return the subroutine's space cost (excluding the shared hashes)."""
        return self.space_breakdown().total()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            "SmallF0Estimator(bins=%d, exact_tracked=%d, overflowed=%s)"
            % (self.bins, len(self._exact), self._exact_overflowed)
        )
