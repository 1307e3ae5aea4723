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
from ..vectorize import (
    grouped_residue_sums,
    mod_range,
    mulmod_arrays,
    np,
    residues_mod,
)

__all__ = ["FingerprintMatrix", "choose_fingerprint_prime"]


def residue_counters(shape, prime: int) -> "np.ndarray":
    """Zeroed counters over ``F_prime``, one array for a whole structure.

    ``uint64`` when ``prime < 2^63``, so the sum of two residues cannot
    wrap; an object array of exact Python ints otherwise.
    """
    return np.zeros(shape, dtype=np.uint64 if prime < (1 << 63) else object)


#: Largest number of distinct delta residues for which the batched update
#: precomputes the full ``bins x deltas`` weight-product table instead of
#: multiplying per update (see :meth:`FingerprintMatrix.update_many`).
_DELTA_TABLE_LIMIT = 16

#: Per-matrix memo of the last weight-product table, keyed weakly by the
#: matrix so it never enters the serialized state.  Streams re-use the
#: same distinct delta residues chunk after chunk (typically just
#: ``{1, p-1}``), so the ``bins x deltas`` Python-int multiply pass runs
#: once per matrix instead of once per batch.  The entry records the
#: weight list and prime it was built from; ``load_state_dict`` replaces
#: both objects, which invalidates the memo automatically.
_WEIGHT_TABLE_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


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

    def update_many(self, levels, columns, spread_keys, deltas) -> None:
        """Apply a whole batch of fingerprint updates in vectorized passes.

        The bulk form of :meth:`update`, and the inner loop of every
        turnstile ``update_batch``: one batched ``h4`` evaluation selects
        the weights, the contributions ``delta * u[h4(h2(i))] mod p`` are
        gathered from a weight-product table (or multiplied exactly by
        :func:`repro.vectorize.mulmod_arrays` when the batch carries many
        distinct deltas), and one in-place modular scatter
        (:func:`repro.vectorize.grouped_residue_sums`) adds them into the
        flat cells ``level * bins + column``.  Cell arithmetic is additive
        modulo ``p``, so the result is bit-identical to the scalar loop in
        any order; the per-row occupancies are recounted once.

        Args:
            levels: ``int64`` array of rows (already clamped by the caller,
                as in the scalar path).
            columns: array of columns in ``[0, bins)``.
            spread_keys: the ``h2(item)`` values feeding ``h4``.
            deltas: signed frequency changes (``int64`` or object array).
        """
        if len(levels) == 0:
            return
        prime = self.prime
        weight_keys = mod_range(spread_keys, self._h4.universe_size)
        weight_index = self._h4.hash_batch_validated(weight_keys).astype(np.int64, copy=False)
        residues = residues_mod(deltas, prime)
        delta_values, delta_rank = np.unique(residues, return_inverse=True)
        if len(delta_values) <= _DELTA_TABLE_LIMIT:
            # Real turnstile streams carry a handful of distinct deltas
            # (usually just +1/-1), so the ``delta * u[j] mod p`` products
            # collapse to a ``bins x distinct-deltas`` table of exact
            # Python-int multiplies, gathered back over the batch.
            span = len(delta_values)
            key = tuple(int(value) for value in delta_values.tolist())
            memo = _WEIGHT_TABLE_MEMO.get(self)
            if memo is not None and memo[0] is self._weights and memo[1:3] == (
                prime,
                key,
            ):
                table = memo[3]
            else:
                table = residue_counters(self.bins * span, prime)
                table[:] = [
                    (weight * value) % prime
                    for weight in self._weights
                    for value in key
                ]
                _WEIGHT_TABLE_MEMO[self] = (self._weights, prime, key, table)
            contributions = table[weight_index * span + delta_rank]
        else:
            weights = residue_counters(self.bins, prime)
            weights[:] = self._weights
            contributions = mulmod_arrays(
                weights[weight_index], residues, prime, prime
            )
        cells = np.asarray(levels, dtype=np.int64) * np.int64(self.bins)
        cells += np.asarray(columns).astype(np.int64)
        grouped_residue_sums(self._cells.reshape(-1), cells, contributions, prime)
        self._nonzero_per_row = np.count_nonzero(self._cells, axis=1).tolist()

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
