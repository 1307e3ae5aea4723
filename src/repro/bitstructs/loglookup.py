"""Compact lookup table for the natural logarithm (Appendix A.2, Lemma 7).

The reporting step of the F0 algorithm outputs
``2^b * ln(1 - T/K) / ln(1 - 1/K)``.  To make reporting O(1) the paper
precomputes a table from which ``ln(1 - c/K)`` can be read with relative
accuracy ``nu = 1/sqrt(K)`` for every integer ``c`` in ``[0, 4K/5]``, using
only ``O(nu^-1 log(1/nu))`` bits.

The construction follows Lemma 7:

* the interval ``[1, 4K/5]`` is discretised geometrically by powers of
  ``1 + nu'`` with ``nu' = nu/15``, and ``ln(1 - rho/K)`` is stored for
  every discretisation point ``rho`` (table ``A``);
* a query for ``c`` locates the nearest discretisation point via
  ``round(log_{1+nu'}(c))``; the index computation uses the most
  significant bit of ``c`` plus a second, evenly spaced table (``B``) that
  approximates ``log2(d)`` for ``d = c / 2^{msb(c)} in [1, 2)`` — both
  constant-time operations in the word-RAM model.

The class also exposes :meth:`exact` so benchmarks can measure the relative
error of the table against ``math.log`` (experiment E10; see "Paper
constructions and stand-ins" in ``docs/architecture.md``).
"""

from __future__ import annotations

import math
from typing import List

from ..exceptions import ParameterError
from ..hashing.bitops import msb

__all__ = ["LogLookupTable"]


class LogLookupTable:
    """O(1)-time approximate evaluation of ``ln(1 - c/K)`` for integer ``c``.

    Attributes:
        bins: the ``K`` of the estimator (number of balls-and-bins bins).
        relative_accuracy: the guaranteed relative accuracy ``nu = 1/sqrt(K)``.
        max_argument: the largest supported ``c`` (``floor(4K/5)``).
    """

    __slots__ = (
        "bins",
        "relative_accuracy",
        "max_argument",
        "_nu_prime",
        "_log_base",
        "_table_a",
        "_table_b",
        "_b_buckets",
    )

    def __init__(self, bins: int) -> None:
        """Build the lookup table for ``K = bins``.

        Args:
            bins: the number of bins ``K``; must exceed 4 (Lemma 7's
                requirement ``K > 4``).
        """
        if bins <= 4:
            raise ParameterError("LogLookupTable requires K > 4")
        self.bins = bins
        self.relative_accuracy = 1.0 / math.sqrt(bins)
        self.max_argument = (4 * bins) // 5
        self._nu_prime = self.relative_accuracy / 15.0
        self._log_base = math.log2(1.0 + self._nu_prime)

        # Table A: ln(1 - rho/K) at geometric discretisation points
        # rho = (1 + nu')^j for j = 0 .. ceil(log_{1+nu'}(4K/5)).
        points = int(math.ceil(math.log(max(self.max_argument, 2)) /
                               math.log(1.0 + self._nu_prime))) + 2
        self._table_a: List[float] = []
        for j in range(points):
            rho = min((1.0 + self._nu_prime) ** j, float(self.max_argument))
            self._table_a.append(math.log(1.0 - rho / bins))

        # Table B: log2(d) for d in [1, 2) discretised evenly into
        # O(1/nu') buckets; used to turn msb + mantissa into a
        # log_{1+nu'} index without calling math.log at query time.
        self._b_buckets = max(int(math.ceil(8.0 / self._nu_prime)), 16)
        self._table_b: List[float] = [
            math.log2(1.0 + (j + 0.5) / self._b_buckets)
            for j in range(self._b_buckets)
        ]

    def lookup(self, c: int) -> float:
        """Return an approximation of ``ln(1 - c/K)``.

        Args:
            c: an integer with ``0 <= c <= 4K/5``.

        Returns:
            A value within relative error ``1/sqrt(K)`` of the true
            logarithm.  ``c = 0`` returns exactly ``0.0``.
        """
        if not 0 <= c <= self.max_argument:
            raise ParameterError(
                "lookup argument %d outside [0, %d]" % (c, self.max_argument)
            )
        if c == 0:
            return 0.0
        if c == 1:
            return self._table_a[0]
        # log2(c) = k + log2(d) with d = c / 2^k in [1, 2).  The bucket index
        # floor((d - 1) * B) is computed with integer arithmetic only.
        k = msb(c)
        bucket = ((c - (1 << k)) * self._b_buckets) >> k
        bucket = min(max(bucket, 0), self._b_buckets - 1)
        log2_c = k + self._table_b[bucket]
        index = int(round(log2_c / self._log_base))
        index = min(max(index, 0), len(self._table_a) - 1)
        return self._table_a[index]

    def exact(self, c: int) -> float:
        """Return the exact ``ln(1 - c/K)`` (for error measurement)."""
        if not 0 <= c <= self.max_argument:
            raise ParameterError(
                "argument %d outside [0, %d]" % (c, self.max_argument)
            )
        return math.log(1.0 - c / self.bins)

    def relative_error(self, c: int) -> float:
        """Return the relative error of :meth:`lookup` at ``c`` (0 for c=0)."""
        true = self.exact(c)
        if true == 0.0:
            return 0.0
        return abs(self.lookup(c) - true) / abs(true)

    def space_bits(self) -> int:
        """Return the table's space cost.

        Lemma 7 charges ``O(nu^-1 log(1/nu))`` bits; concretely we charge
        one word-precision entry (treated as ``ceil(log2(1/nu)) + 16``
        bits of fixed-point mantissa, which suffices for the stated
        relative accuracy) per entry of tables A and B.
        """
        entry_bits = max(int(math.ceil(math.log2(1.0 / self.relative_accuracy))), 1) + 16
        return (len(self._table_a) + len(self._table_b)) * entry_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "LogLookupTable(bins=%d, entries=%d)" % (self.bins, len(self._table_a))
