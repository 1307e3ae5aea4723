"""k-wise independent hash families (Carter--Wegman polynomials).

The main KNW algorithm (Figure 3) hashes surviving items into ``K = 1/eps^2``
counters with a hash function ``h3`` drawn from a k-wise independent family
for ``k = Theta(log(1/eps) / log log(1/eps))``.  The balls-and-bins analysis
of Section 2 (Lemmas 2 and 3) shows that this limited independence already
preserves the expectation and variance of the number of occupied bins well
enough for the ``(1 +/- eps)`` guarantee.

The textbook construction used here is a random polynomial of degree
``k - 1`` over a prime field evaluated at the key, reduced to the output
range.  Storage is ``k`` field elements (``O(k log(universe))`` bits) and
evaluation is ``O(k)`` field operations via Horner's rule; the
*time-optimal* variant of the paper replaces this with the Siegel /
Pagh--Pagh families provided in :mod:`repro.hashing.siegel` and
:mod:`repro.hashing.uniform`.
"""

from __future__ import annotations

import functools
import random

from .entropy import fresh_rng
from typing import List, Optional, Sequence

from ..exceptions import ParameterError
from ..vectorize import as_key_array, kwise_mod_range, np
from .primes import field_prime_for_universe

__all__ = ["KWiseHash", "required_independence"]

#: Largest key domain whose batch evaluations are answered from a value
#: table (Figure 2's ``h3`` has domain ``K_RE^3``: 32768 at ``n = 2^32``).
TABLE_DOMAIN_LIMIT = 1 << 16

#: Tables kept by the process-wide LRU; the worst case is
#: ``TABLE_CAPACITY * TABLE_DOMAIN_LIMIT * 8`` bytes = 32 MiB.
TABLE_CAPACITY = 64

#: Marks a table entry not evaluated yet; every hash value is below the
#: field prime (< 2^63), so it never collides with one.
_UNFILLED = np.uint64(2**64 - 1)


@functools.lru_cache(maxsize=TABLE_CAPACITY)
def _value_table(coefficients, prime, universe_size, range_size):
    """The shared, lazily filled value table of one polynomial.

    A process-local cache of a pure function, keyed by everything the
    values depend on: it is never part of a sketch's state, so equal
    functions (same-seed sketches, decoded copies, forked workers) share
    one table and serialized bytes never see it.
    """
    return np.full(universe_size, _UNFILLED, dtype=np.uint64)


def required_independence(bins: int, eps: float) -> int:
    """Return the independence the paper's Lemma 2 asks of ``h3``.

    Lemma 2 requires a ``2(k+1)``-wise independent family with
    ``k = c * log(K/eps) / log log(K/eps)``.  The constant ``c`` is not made
    explicit in the paper; ``c = 1`` with a floor of 4 reproduces the
    asymptotic behaviour while keeping evaluation affordable, and the
    benchmarks in ``benchmarks/bench_balls_bins.py`` verify empirically that
    this independence already matches the fully random behaviour.

    Args:
        bins: the number of bins ``K``.
        eps: the target relative error.

    Returns:
        The number of independent evaluations the family must support
        (i.e. the ``2(k+1)`` of Lemma 2).
    """
    import math

    if bins <= 0:
        raise ParameterError("bins must be positive")
    if not 0 < eps < 1:
        raise ParameterError("eps must lie in (0, 1)")
    ratio = max(bins / eps, 4.0)
    k = max(4, int(math.ceil(math.log2(ratio) / max(math.log2(math.log2(ratio)), 1.0))))
    return 2 * (k + 1)


class KWiseHash:
    """A function drawn from a k-wise independent family ``[u] -> [v]``.

    The function is ``h(x) = (sum_j a_j x^j mod p) mod v`` for ``k`` random
    coefficients over a prime field with ``p >= u``.

    Attributes:
        universe_size: size ``u`` of the key domain.
        range_size: size ``v`` of the output range.
        independence: the ``k`` of the family.
    """

    __slots__ = ("universe_size", "range_size", "independence", "_prime", "_coefficients")

    def __init__(
        self,
        universe_size: int,
        range_size: int,
        independence: int,
        rng: Optional[random.Random] = None,
        coefficients: Optional[Sequence[int]] = None,
    ) -> None:
        """Draw a random member of the family.

        Args:
            universe_size: size of the key domain; must be positive.
            range_size: size of the output range; must be positive.
            independence: the ``k`` of the family; must be at least 1.
            rng: source of randomness used to pick the polynomial.
            coefficients: explicit polynomial coefficients (low degree
                first); intended for tests that need a reproducible
                function.  When supplied, ``rng`` is ignored.
        """
        if universe_size <= 0:
            raise ParameterError("universe_size must be positive")
        if range_size <= 0:
            raise ParameterError("range_size must be positive")
        if independence < 1:
            raise ParameterError("independence must be at least 1")
        self.universe_size = universe_size
        self.range_size = range_size
        self.independence = independence
        self._prime = field_prime_for_universe(max(universe_size, range_size))
        if coefficients is not None:
            coeffs = [c % self._prime for c in coefficients]
            if len(coeffs) != independence:
                raise ParameterError(
                    "expected %d coefficients, got %d" % (independence, len(coeffs))
                )
            self._coefficients: List[int] = coeffs
        else:
            rng = fresh_rng(rng)
            self._coefficients = [
                rng.randrange(0, self._prime) for _ in range(independence)
            ]
            # Guarantee the polynomial is non-constant for independence > 1 so
            # that degenerate all-zero draws (probability p^-(k-1), but fatal
            # for tests with tiny fields) cannot collapse the family.
            if independence > 1 and all(c == 0 for c in self._coefficients[1:]):
                self._coefficients[1] = rng.randrange(1, self._prime)

    def __call__(self, key: int) -> int:
        """Evaluate the hash function on ``key`` via Horner's rule."""
        if not 0 <= key < self.universe_size:
            raise ParameterError(
                "key %d outside universe [0, %d)" % (key, self.universe_size)
            )
        acc = 0
        p = self._prime
        for coefficient in reversed(self._coefficients):
            acc = (acc * key + coefficient) % p
        return acc % self.range_size

    def hash_batch(self, keys):
        """Evaluate the polynomial on a whole array of keys via Horner's rule.

        One fused seam kernel (:func:`repro.vectorize.kwise_mod_range`)
        replaces ``k`` Python field operations *per item*; the result is
        bit-identical to the scalar :meth:`__call__`.

        Args:
            keys: integer sequence or ndarray with values in
                ``[0, universe_size)``.

        Returns:
            ndarray of hash values in ``[0, range_size)``.
        """
        keys = as_key_array(keys, self.universe_size)
        return self.hash_batch_validated(keys)

    def hash_batch_validated(self, keys):
        """:meth:`hash_batch` for a key array the caller already validated.

        The whole Horner chain is one seam kernel
        (:func:`repro.vectorize.kwise_mod_range`), so compiled backends
        fuse all ``k`` field operations into a single pass per key.

        For a small domain (``universe_size <= TABLE_DOMAIN_LIMIT``, such
        as Figure 2's ``h3`` over ``[K_RE^3]``) the values come from a
        process-wide table instead: keys whose entry is still unfilled go
        through the same kernel once, and every later batch is a gather.
        The output (``uint64``) and its values are the kernel's.
        """
        table = self._table() if keys.dtype == np.uint64 else None
        if table is None:
            return kwise_mod_range(
                self._coefficients, keys, self._prime, self.universe_size, self.range_size
            )
        # Concurrent fills write identical values, so racing threads can
        # only repeat an evaluation, never lose or corrupt one.
        values = table[keys]
        missing = values == _UNFILLED
        if missing.any():
            fresh = keys[missing]
            computed = kwise_mod_range(
                self._coefficients, fresh, self._prime, self.universe_size, self.range_size
            )
            table[fresh] = computed
            values[missing] = computed
        return values

    def _table(self):
        """The function's value table, or ``None`` past the table domain."""
        if self.universe_size > TABLE_DOMAIN_LIMIT or self._prime >= (1 << 63):
            return None
        return _value_table(
            tuple(self._coefficients), self._prime, self.universe_size, self.range_size
        )

    def word_form(self):
        """The function as a compiled kernel evaluates it: ``(coefficients, p, v, table)``.

        ``table`` is the value table batches read, or ``None`` past the
        table domain; a kernel that meets an unfilled entry fills it from
        the coefficients, as :meth:`hash_batch_validated` does.
        """
        return self._coefficients, self._prime, self.range_size, self._table()

    def space_bits(self) -> int:
        """Return the number of bits needed to store this function.

        ``k`` field elements, matching the paper's
        ``O(k log(|U| + |V|))`` accounting for Carter--Wegman families.
        """
        return self.independence * self._prime.bit_length()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            "KWiseHash(universe_size=%d, range_size=%d, independence=%d)"
            % (self.universe_size, self.range_size, self.independence)
        )
