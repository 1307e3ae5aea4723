"""Exact reference estimators.

These keep the full state the streaming algorithms are designed to avoid —
a hash set of seen identifiers for F0, the full frequency dictionary for
L0 — and therefore use linear space.  They exist as ground truth for tests
and benchmarks (the paper's lower-bound discussion is exactly that exact
computation requires linear space, so the space benchmark includes them to
show what the sketches are saving).
"""

from __future__ import annotations

from typing import Dict, Set

from ..exceptions import ParameterError
from ..vectorize import as_delta_array, as_key_array, np
from .base import CardinalityEstimator, ItemBatch, TurnstileEstimator

__all__ = ["ExactDistinctCounter", "ExactHammingNorm"]


def _check_item(item: int, universe_size: int) -> None:
    if not 0 <= item < universe_size:
        raise ParameterError("item %d outside universe [0, %d)" % (item, universe_size))


class ExactDistinctCounter(CardinalityEstimator):
    """Exact F0 via a set of seen identifiers (linear space, zero error)."""

    name = "exact-f0"

    def __init__(self, universe_size: int) -> None:
        """Create the counter.

        Args:
            universe_size: size of the identifier universe ``[0, n)``; it
                also sets the space accounting (``log2(n)`` bits per
                stored identifier).
        """
        self.universe_size = max(universe_size, 2)
        self._seen: Set[int] = set()

    def update(self, item: int) -> None:
        """Record one identifier."""
        _check_item(item, self.universe_size)
        self._seen.add(item)

    def estimate(self) -> float:
        """Return the exact number of distinct identifiers seen."""
        return float(len(self._seen))

    def merge(self, other: "CardinalityEstimator") -> None:
        """Union the seen-sets of two exact counters."""
        if not isinstance(other, ExactDistinctCounter):
            from ..exceptions import MergeError

            raise MergeError("can only merge ExactDistinctCounter with its own kind")
        self._seen |= other._seen

    def space_bits(self) -> int:
        """Return ``|seen| * ceil(log2(n))`` bits — the linear-space cost."""
        id_bits = max((self.universe_size - 1).bit_length(), 1)
        return max(len(self._seen), 1) * id_bits

    def __contains__(self, item: int) -> bool:
        return item in self._seen


class ExactHammingNorm(TurnstileEstimator):
    """Exact L0 via the full frequency dictionary (linear space, zero error)."""

    name = "exact-l0"

    def __init__(self, universe_size: int) -> None:
        """Create the counter.

        Args:
            universe_size: size of the identifier universe ``[0, n)``
                (also the space accounting).
        """
        self.universe_size = max(universe_size, 2)
        self._frequencies: Dict[int, int] = {}

    def update(self, item: int, delta: int) -> None:
        """Apply ``x_item += delta`` exactly."""
        _check_item(item, self.universe_size)
        new_value = self._frequencies.get(item, 0) + delta
        if new_value == 0:
            self._frequencies.pop(item, None)
        else:
            self._frequencies[item] = new_value

    def update_batch(self, items: ItemBatch, deltas: ItemBatch) -> None:
        """Apply a chunk of updates, summing per distinct item first.

        The dictionary entry for an item is the plain sum of its deltas
        (entries at zero are dropped), so folding one per-item chunk
        total into the dictionary is bit-identical to the scalar loop.
        """
        keys = as_key_array(items, self.universe_size)
        deltas = as_delta_array(deltas, expected_length=len(keys))
        if keys.size == 0:
            return
        touched, inverse = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(touched), dtype=object)
        np.add.at(sums, inverse, deltas.astype(object))
        frequencies = self._frequencies
        for item, delta_sum in zip(touched.tolist(), sums.tolist()):
            item = int(item)
            new_value = frequencies.get(item, 0) + int(delta_sum)
            if new_value == 0:
                frequencies.pop(item, None)
            else:
                frequencies[item] = new_value

    def merge(self, other: "TurnstileEstimator") -> None:
        """Add another exact counter's frequency vector into this one."""
        if not isinstance(other, ExactHammingNorm):
            from ..exceptions import MergeError

            raise MergeError("can only merge ExactHammingNorm with its own kind")
        for item, value in other._frequencies.items():
            new_value = self._frequencies.get(item, 0) + value
            if new_value == 0:
                self._frequencies.pop(item, None)
            else:
                self._frequencies[item] = new_value

    def clear(self) -> None:
        """Drop the whole frequency dictionary."""
        self._frequencies = {}

    def estimate(self) -> float:
        """Return the exact number of non-zero frequencies."""
        return float(len(self._frequencies))

    def frequency(self, item: int) -> int:
        """Return the exact current frequency of ``item``."""
        return self._frequencies.get(item, 0)

    def space_bits(self) -> int:
        """Return the linear-space cost of the dictionary.

        Each entry stores an identifier (``log2(n)`` bits) and a counter
        (one machine word).
        """
        from ..hashing.bitops import WORD_SIZE

        id_bits = max((self.universe_size - 1).bit_length(), 1)
        return max(len(self._frequencies), 1) * (id_bits + WORD_SIZE)
