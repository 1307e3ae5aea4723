"""HyperLogLog (Flajolet, Fusy, Gandouet, Meunier 2007).

The Figure 1 row ``[19]``: ``O(eps^-2 log log n + log n)`` bits in the
random-oracle model, standard error ``~1.04/sqrt(m)``.  It shares its
register state with LogLog but replaces the geometric-mean estimator with
the harmonic mean, plus the standard small- and large-range corrections.

This is the algorithm "everywhere" in practice; the benchmarks use it as
the main practical yardstick for the KNW estimator.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..exceptions import ParameterError
from ..hashing.bitops import is_power_of_two
from ..vectorize import np
from .loglog import _RegisterCounter

__all__ = ["HyperLogLogCounter", "hll_registers_for_eps"]


def hll_registers_for_eps(eps: float) -> int:
    """Return the register count whose standard error is about ``eps`` (1.04/sqrt m)."""
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie in (0, 1)")
    raw = (1.04 / eps) ** 2
    return 1 << max(int(math.ceil(math.log2(raw))), 4)


def _alpha(m: int) -> float:
    """Return the HyperLogLog bias-correction constant alpha_m."""
    if m <= 16:
        return 0.673
    if m <= 32:
        return 0.697
    if m <= 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLogCounter(_RegisterCounter):
    """The HyperLogLog cardinality estimator (random-oracle model).

    Attributes:
        universe_size: the universe size ``n``.
        registers: number of registers ``m`` (a power of two).
    """

    name = "hyperloglog"

    def __init__(
        self,
        universe_size: int,
        eps: float = 0.05,
        registers: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        """Create the counter.

        Args:
            universe_size: the universe size ``n`` (at least 2).
            eps: target standard error (sets the register count).
            registers: explicit register count (power of two); overrides ``eps``.
            seed: RNG seed.
        """
        registers = registers if registers is not None else hll_registers_for_eps(eps)
        if not is_power_of_two(registers) or registers < 16:
            raise ParameterError("registers must be a power of two, at least 16")
        super().__init__(universe_size, registers, seed)

    def _estimates(self, registers) -> List[float]:
        """The bias-corrected harmonic-mean estimate per row.

        Zero counts and harmonic sums are vector reductions; the final
        assembly runs per row with ``math.log``, because ``np.log`` can
        differ from libm by an ulp.
        """
        m = self.registers
        alpha = _alpha(m)
        # int32 exponents: np.ldexp has no int64-exponent loop on
        # platforms where C long is 32 bits.
        values = registers.astype(np.int32)
        zeros = (values == 0).sum(axis=1).tolist()
        inverse_sums = np.ldexp(1.0, -values).sum(axis=1).tolist()
        estimates = []
        for zero_registers, inverse_sum in zip(zeros, inverse_sums):
            raw = alpha * m * m / inverse_sum
            if raw <= 2.5 * m and zero_registers > 0:
                # Small-range correction: fall back to linear counting.
                estimates.append(m * math.log(m / zero_registers))
            else:
                estimates.append(raw)
        return estimates
