"""Pairwise (2-wise) independent hash families.

The KNW algorithms use pairwise independence in three places (Figure 2 and
Figure 3 of the paper):

* ``h1 : [n] -> [0, n-1]`` — the subsampling hash whose least significant
  bit determines the level of an item.
* ``h2 : [n] -> [K^3]`` — the "spreading" hash whose range is a polynomial
  blow-up of the bucket count so that the surviving items are perfectly
  hashed with probability ``1 - O(1/K)``.
* ``h4 : [K^3] -> [K]`` — the L0 algorithm's collision-breaking hash
  (Lemma 6).

All of these are classic Carter--Wegman constructions: a random degree-1
polynomial over a prime field, reduced to the desired power-of-two range.
Pairwise independence of the construction holds exactly when the range
divides the field size; with a power-of-two range and a much larger prime
field the family is pairwise independent up to an ``O(range/p)`` bias,
which is far below every failure probability the paper budgets for.  The
space to store a function is two field elements, i.e. ``O(log n)`` bits,
exactly as the paper accounts.
"""

from __future__ import annotations

import random

from .entropy import fresh_rng
from typing import Optional

from ..exceptions import ParameterError
from ..vectorize import affine_mod_range, as_key_array, np
from .bitops import is_power_of_two
from .primes import field_prime_for_universe

__all__ = ["PairwiseHash", "MultiplyShiftHash"]


class PairwiseHash:
    """A function drawn from a 2-wise independent family ``[u] -> [v]``.

    The function is ``h(x) = ((a*x + b) mod p) mod v`` for a random
    ``a, b`` in ``F_p`` with ``a != 0`` and a prime ``p >= u``.

    Attributes:
        universe_size: size ``u`` of the key domain ``[0, u)``.
        range_size: size ``v`` of the output range ``[0, v)``.
    """

    __slots__ = ("universe_size", "range_size", "_prime", "_a", "_b")

    def __init__(
        self,
        universe_size: int,
        range_size: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Draw a random member of the family.

        Args:
            universe_size: size of the key domain; must be positive.
            range_size: size of the output range; must be positive.
            rng: source of randomness used to pick the function.
        """
        if universe_size <= 0:
            raise ParameterError("universe_size must be positive")
        if range_size <= 0:
            raise ParameterError("range_size must be positive")
        rng = fresh_rng(rng)
        self.universe_size = universe_size
        self.range_size = range_size
        self._prime = field_prime_for_universe(max(universe_size, range_size))
        self._a = rng.randrange(1, self._prime)
        self._b = rng.randrange(0, self._prime)

    def __call__(self, key: int) -> int:
        """Evaluate the hash function on ``key``.

        Args:
            key: an integer in ``[0, universe_size)``.

        Returns:
            An integer in ``[0, range_size)``.
        """
        if not 0 <= key < self.universe_size:
            raise ParameterError(
                "key %d outside universe [0, %d)" % (key, self.universe_size)
            )
        return ((self._a * key + self._b) % self._prime) % self.range_size

    def hash_batch(self, keys):
        """Evaluate the hash on a whole array of keys at once.

        Exactly equivalent to calling the function per key — the batched
        modular arithmetic (:func:`repro.vectorize.affine_mod`) is exact —
        but without per-item interpreter overhead.  The common field primes
        (the Mersenne primes ``2^31 - 1`` and ``2^61 - 1``) stay entirely in
        ``uint64`` arithmetic; enormous moduli (cubed universes beyond
        ``2^61``) degrade to object arrays of Python ints.

        Args:
            keys: integer sequence or ndarray with values in
                ``[0, universe_size)`` (validated up front).

        Returns:
            ndarray of hash values in ``[0, range_size)`` (``uint64`` when
            the range fits a word, object dtype otherwise).
        """
        keys = as_key_array(keys, self.universe_size)
        return self.hash_batch_validated(keys)

    def hash_batch_validated(self, keys):
        """:meth:`hash_batch` for a key array the caller already validated.

        The estimators validate a batch once at their entry point; their
        inner hash passes use this form to avoid re-scanning the same
        array (an O(n) max-check per hash, several times per chunk on the
        bundle-sharing KNW path).
        """
        return affine_mod_range(
            self._a, self._b, keys, self._prime, self.universe_size, self.range_size
        )

    def word_form(self):
        """The function as a compiled kernel evaluates it: ``((b, a), p, v, None)``.

        The shape :meth:`repro.hashing.kwise.KWiseHash.word_form` gives:
        the coefficients of ``b + a x`` low degree first, the prime, the
        range, and no value table.
        """
        return (self._b, self._a), self._prime, self.range_size, None

    def space_bits(self) -> int:
        """Return the number of bits needed to store this function.

        Two field elements of ``ceil(log2(p))`` bits each, matching the
        paper's ``O(log n)`` accounting for ``h1`` and ``h2``.
        """
        return 2 * self._prime.bit_length()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            "PairwiseHash(universe_size=%d, range_size=%d)"
            % (self.universe_size, self.range_size)
        )


class MultiplyShiftHash:
    """Dietzfelbinger-style multiply-shift hashing onto a power-of-two range.

    A cheaper 2-universal alternative used by some baselines (LogLog,
    HyperLogLog, linear counting) where the full pairwise-independence
    guarantee of :class:`PairwiseHash` is not needed but evaluation speed
    matters for the update-time benchmarks.  The function is
    ``h(x) = ((a*x + b) mod 2^(2w)) >> (2w - r)`` with odd ``a``.
    """

    __slots__ = ("universe_size", "range_size", "_a", "_b", "_word_bits", "_shift")

    def __init__(
        self,
        universe_size: int,
        range_size: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Draw a random member of the family.

        Args:
            universe_size: size of the key domain; must be positive.
            range_size: size of the output range; must be a power of two.
            rng: source of randomness used to pick the function.
        """
        if universe_size <= 0:
            raise ParameterError("universe_size must be positive")
        if not is_power_of_two(range_size):
            raise ParameterError("MultiplyShiftHash requires a power-of-two range")
        rng = fresh_rng(rng)
        self.universe_size = universe_size
        self.range_size = range_size
        key_bits = max(universe_size - 1, 1).bit_length()
        self._word_bits = 2 * max(key_bits, range_size.bit_length())
        self._shift = self._word_bits - (range_size.bit_length() - 1)
        mask = (1 << self._word_bits) - 1
        self._a = rng.randrange(1, 1 << self._word_bits) | 1
        self._b = rng.randrange(0, 1 << self._word_bits)
        self._a &= mask
        self._b &= mask

    def __call__(self, key: int) -> int:
        """Evaluate the hash function on ``key``."""
        if not 0 <= key < self.universe_size:
            raise ParameterError(
                "key %d outside universe [0, %d)" % (key, self.universe_size)
            )
        if self.range_size == 1:
            return 0
        word = (self._a * key + self._b) & ((1 << self._word_bits) - 1)
        return word >> self._shift

    def hash_batch(self, keys):
        """Evaluate the hash on a whole array of keys at once.

        When the word width fits 64 bits the evaluation is pure ``uint64``
        (the mask is the natural wraparound); wider configurations fall
        back to object arrays so results stay bit-identical to the scalar
        path.
        """
        keys = as_key_array(keys, self.universe_size)
        if self.range_size == 1:
            return np.zeros(keys.shape, dtype=np.uint64)
        if self._word_bits <= 64:
            word = np.uint64(self._a) * keys + np.uint64(self._b)
            if self._word_bits < 64:
                word = word & np.uint64((1 << self._word_bits) - 1)
            return word >> np.uint64(self._shift)
        mask = (1 << self._word_bits) - 1
        out = np.empty(keys.shape, dtype=object)
        out[:] = [
            ((self._a * key + self._b) & mask) >> self._shift
            for key in keys.tolist()
        ]
        return out

    def space_bits(self) -> int:
        """Return the number of bits needed to store this function."""
        return 2 * self._word_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            "MultiplyShiftHash(universe_size=%d, range_size=%d)"
            % (self.universe_size, self.range_size)
        )
