"""Fingerprint counters over ``F_p`` for the L0 bit-matrix (Lemma 6).

For L0 estimation the Figure 4 bitmatrix cannot store plain bits: an item
inserted and later deleted must stop counting, and two items of opposite
sign hashed to the same cell must not cancel to a false "empty".  Lemma 6
replaces each bit ``A[i][j]`` by a counter

    ``B[i][j] = sum over items hashed to the cell of  x_item * u[h4(h2(item))]  (mod p)``

where ``u`` is a random vector over ``F_p``, ``h4`` is pairwise
independent, and ``p`` is a random prime in ``[D, D^3]`` with
``D = 100 K log(mM)``.  The cell is interpreted as "occupied" iff the
counter is non-zero; the paper shows this interpretation recovers the row
the estimator needs with probability 2/3 (amplifiable).

Each counter occupies ``O(log K + log log(mM))`` bits, which is where
Theorem 10's space bound comes from.
"""

from __future__ import annotations

import math
import random
import weakref
from typing import List, Optional

from ..bitstructs.space import SpaceBreakdown
from ..exceptions import MergeError, ParameterError
from ..hashing.primes import random_prime
from ..hashing.universal import PairwiseHash
from ..vectorize import hashed_fingerprint_scatter, np

__all__ = ["FingerprintMatrix", "choose_fingerprint_prime"]


def residue_counters(shape, prime: int) -> "np.ndarray":
    """Zeroed counters over ``F_prime``, one array for a whole structure.

    ``uint64`` when ``prime < 2^63``, so the sum of two residues cannot
    wrap; an object array of exact Python ints otherwise.
    """
    return np.zeros(shape, dtype=np.uint64 if prime < (1 << 63) else object)


#: Per-matrix memo of the weight vector ``u`` as one counter array, keyed
#: weakly by the matrix so it never enters the serialized state.  The
#: entry records the weight list it was built from; ``load_state_dict``
#: replaces that list, which invalidates the memo.
_WEIGHT_VECTORS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def choose_fingerprint_prime(
    bins: int, magnitude_bound: int, rng: Optional[random.Random] = None
) -> int:
    """Pick the random prime ``p`` of Lemma 6.

    Args:
        bins: the number of columns ``K``.
        magnitude_bound: an upper bound on ``mM`` (the largest possible
            absolute frequency of any item at any time).
        rng: source of randomness.

    Returns:
        A prime in ``[D, D^3]`` for ``D = 100 K log2(mM)``.
    """
    if bins <= 0:
        raise ParameterError("bins must be positive")
    if magnitude_bound < 1:
        raise ParameterError("magnitude_bound must be at least 1")
    log_mm = max(math.log2(max(magnitude_bound, 2)), 1.0)
    lower = max(int(100 * bins * log_mm), 7)
    upper = lower ** 3
    return random_prime(lower, upper, rng=rng)


def update_fingerprints(matrices, keys, deltas, h1, h2, h3, level_limit: int) -> None:
    """Apply a whole batch to fingerprint matrices that share ``h1``/``h2``/``h3``.

    The bulk form of :meth:`FingerprintMatrix.update` for every matrix at
    once, and the inner loop of ``knw-l0``'s ``update_batch``: each key's
    row is ``min(lsb(h1(key)), levels - 1)`` (row 0 of a one-row matrix),
    its column ``h3(h2(key)) mod bins`` and its spread key ``h2(key)``.
    One :func:`repro.vectorize.hashed_fingerprint_scatter` call hashes
    every key once for all the matrices, adds its weighted delta into each
    one's cell and keeps their per-row occupancies.  Cell arithmetic is
    additive modulo ``p``, so the result is bit-identical to the scalar
    loop in any order.

    Args:
        matrices: the :class:`FingerprintMatrix` instances.
        keys: validated keys.
        deltas: validated signed deltas, one per key.
        h1, h2, h3: the level, spreading and column hashes.
        level_limit: ``lsb(0)``, the paper's ``log n``.
    """
    counts = [np.array(matrix._nonzero_per_row, dtype=np.int64) for matrix in matrices]
    hashed_fingerprint_scatter(
        keys, deltas, h1, h2, h3, level_limit,
        [
            (matrix._cells, row_counts, matrix._h4, matrix._weight_vector(), matrix.prime)
            for matrix, row_counts in zip(matrices, counts)
        ],
    )
    for matrix, row_counts in zip(matrices, counts):
        matrix._nonzero_per_row = row_counts.tolist()


class FingerprintMatrix:
    """A ``levels x bins`` matrix of F_p fingerprint counters.

    Attributes:
        levels: number of subsampling levels (rows), typically ``log2(n)+1``.
        bins: number of columns ``K``.
        prime: the modulus ``p``.
    """

    def __init__(
        self,
        levels: int,
        bins: int,
        magnitude_bound: int,
        seed: Optional[int] = None,
        prime: Optional[int] = None,
    ) -> None:
        """Create the matrix.

        Args:
            levels: number of rows; must be positive.
            bins: number of columns ``K``; must be positive.
            magnitude_bound: upper bound on ``mM`` used to size the prime.
            seed: RNG seed for the prime, the random vector ``u`` and ``h4``.
            prime: explicit modulus override (tests use small primes to
                exercise the false-negative path deliberately).
        """
        if levels <= 0:
            raise ParameterError("levels must be positive")
        if bins <= 0:
            raise ParameterError("bins must be positive")
        rng = random.Random(seed)
        self.levels = levels
        self.bins = bins
        self.magnitude_bound = magnitude_bound
        self.prime = prime if prime is not None else choose_fingerprint_prime(
            bins, magnitude_bound, rng=rng
        )
        if self.prime < 2:
            raise ParameterError("prime must be at least 2")
        # The random weight vector u in F_p^K and the collision-breaking h4.
        self._weights: List[int] = [rng.randrange(1, self.prime) for _ in range(bins)]
        self._h4 = PairwiseHash(max(bins ** 3, bins), bins, rng=rng)
        self._cells = residue_counters((levels, bins), self.prime)
        self._nonzero_per_row: List[int] = [0] * levels

    def update(self, level: int, column: int, spread_key: int, delta: int) -> None:
        """Apply ``B[level][column] += delta * u[h4(spread_key)] (mod p)``.

        Args:
            level: the row (``lsb(h1(item))``, clamped by the caller).
            column: the column (``h3(h2(item))``).
            spread_key: the value ``h2(item)`` fed to ``h4`` to select the
                weight; using ``h2``'s output (not the raw item) matches the
                paper's ``u_{h4(h2(i))}``.
            delta: the signed frequency change.
        """
        if not 0 <= level < self.levels:
            raise ParameterError("level %d outside [0, %d)" % (level, self.levels))
        if not 0 <= column < self.bins:
            raise ParameterError("column %d outside [0, %d)" % (column, self.bins))
        weight = self._weights[self._h4(spread_key % self._h4.universe_size)]
        old = self._cells.item(level, column)
        new = (old + delta * weight) % self.prime
        if old == 0 and new != 0:
            self._nonzero_per_row[level] += 1
        elif old != 0 and new == 0:
            self._nonzero_per_row[level] -= 1
        self._cells[level, column] = new

    def _weight_vector(self) -> "np.ndarray":
        """The weights ``u`` as one array over ``F_p`` (memoized per matrix)."""
        memo = _WEIGHT_VECTORS.get(self)
        if memo is None or memo[0] is not self._weights:
            vector = residue_counters(self.bins, self.prime)
            vector[:] = self._weights
            memo = _WEIGHT_VECTORS[self] = (self._weights, vector)
        return memo[1]

    def merge(self, other: "FingerprintMatrix") -> None:
        """Add another same-construction matrix into this one, cell-wise.

        Fingerprint counters are *linear*: each cell is a sum over the
        updates hashed to it modulo ``p``, so two matrices built with the
        same randomness (prime, weight vector, ``h4``) and fed disjoint
        streams combine by cell-wise modular addition into exactly the
        matrix one instance would hold after the concatenated stream.
        """
        if not isinstance(other, FingerprintMatrix):
            raise MergeError("can only merge FingerprintMatrix with its own kind")
        if (
            other.levels != self.levels
            or other.bins != self.bins
            or other.prime != self.prime
            or other._weights != self._weights
        ):
            raise MergeError(
                "FingerprintMatrix merge requires identical shape, prime, and weights"
            )
        self._cells = (self._cells + other._cells) % self.prime
        self._nonzero_per_row = np.count_nonzero(self._cells, axis=1).tolist()

    def clear(self) -> None:
        """Zero every cell, keeping the prime, weights, and ``h4``."""
        self._cells.fill(0)
        self._nonzero_per_row = [0] * self.levels

    def is_occupied(self, level: int, column: int) -> bool:
        """Return True when the cell's fingerprint is non-zero."""
        return bool(self._cells[level, column])

    def row_occupancy(self, level: int) -> int:
        """Return the number of non-zero cells in ``level`` (O(1), maintained)."""
        if not 0 <= level < self.levels:
            raise ParameterError("level %d outside [0, %d)" % (level, self.levels))
        return self._nonzero_per_row[level]

    def occupancies(self) -> List[int]:
        """Return the per-row non-zero cell counts."""
        return list(self._nonzero_per_row)

    def space_breakdown(self) -> SpaceBreakdown:
        """Return the itemised space cost.

        Each cell and each weight is an element of ``F_p``
        (``ceil(log2 p)`` bits); ``h4`` adds its two field elements.
        """
        breakdown = SpaceBreakdown("fingerprint-matrix")
        cell_bits = max(self.prime.bit_length(), 1)
        breakdown.add("cells", self.levels * self.bins * cell_bits)
        breakdown.add("weight-vector-u", self.bins * cell_bits)
        breakdown.add_component("h4", self._h4)
        breakdown.add("prime-p", cell_bits)
        return breakdown

    def space_bits(self) -> int:
        """Return the matrix's total space in bits."""
        return self.space_breakdown().total()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            "FingerprintMatrix(levels=%d, bins=%d, prime=%d)"
            % (self.levels, self.bins, self.prime)
        )
