"""Durand--Flajolet LogLog counting (ESA 2003).

The Figure 1 row ``[16]``: ``O(eps^-2 log log n)`` bits (plus the random
oracle), additive/relative error ``~1.3/sqrt(m)`` with ``m`` registers.
Each register stores the maximum ``rho`` (1 + position of the lowest set
bit) of the items routed to it — i.e. exactly the quantity the KNW
counters store, which is why the paper describes its own counter state as
"identical as in the LogLog and HyperLogLog algorithms" up to the choice of
estimator and hash model.

The estimate is ``alpha_m * m * 2^{mean register}``.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from ..bitstructs.space import SpaceBreakdown
from ..estimators.base import CardinalityEstimator
from ..exceptions import MergeError, ParameterError
from ..hashing.bitops import is_power_of_two, lsb, rho_batch
from ..hashing.random_oracle import RandomOracle
from ..vectorize import as_key_array, counter_dtype, grouped_max_scatter, np

__all__ = ["LogLogCounter", "registers_for_eps"]


def registers_for_eps(eps: float, constant: float = 1.30) -> int:
    """Return the register count whose standard error is about ``eps``.

    LogLog's standard error is ``~1.30/sqrt(m)``; the result is rounded up
    to a power of two so register routing is a bit-slice of the hash.
    """
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie in (0, 1)")
    raw = (constant / eps) ** 2
    return 1 << max(int(math.ceil(math.log2(raw))), 2)


class _RegisterCounter(CardinalityEstimator):
    """``m`` registers, each the maximum ``rho`` of the items routed to it.

    The state LogLog and HyperLogLog share; they differ only in their
    estimator (:meth:`_estimates`) and register count.  The registers are
    one array, a byte each while ``rho`` fits one; :meth:`space_bits`
    charges the paper's ``log log n`` bits per register.  A keyed store
    row of either family is this array, hashed by :meth:`_slots` and
    reported by :meth:`_estimates`.

    Attributes:
        universe_size: the universe size ``n``.
        registers: number of registers ``m`` (a power of two).
    """

    requires_random_oracle = True

    def __init__(self, universe_size: int, registers: int, seed: Optional[int]) -> None:
        if universe_size < 2:
            raise ParameterError("universe_size must be at least 2")
        self.universe_size = universe_size
        self.registers = registers
        self.seed = seed
        rng = random.Random(seed)
        self._register_bits = registers.bit_length() - 1
        hash_bits = max((universe_size - 1).bit_length(), 1) + 8
        self._value_bits = hash_bits
        oracle_seed = rng.randrange(1 << 62) if seed is not None else None
        self._oracle = RandomOracle(
            universe_size, 1 << (self._register_bits + hash_bits), seed=oracle_seed
        )
        self._register_width = max(math.ceil(math.log2(hash_bits + 2)), 1)
        self._registers = np.zeros(
            registers, dtype=counter_dtype((1 << self._register_width) - 1)
        )

    def _slot(self, item: int):
        """Return the item's register and its ``rho``, capped at the width."""
        value = self._oracle(item)
        rho = lsb(value >> self._register_bits, zero_value=self._value_bits - 1) + 1
        return value & (self.registers - 1), min(rho, (1 << self._register_width) - 1)

    def _slots(self, keys):
        """:meth:`_slot` for a validated key array, as ``int64`` arrays."""
        values = self._oracle.hash_batch_validated(keys)
        registers = (values & np.uint64(self.registers - 1)).astype(np.int64)
        rho = rho_batch(values >> np.uint64(self._register_bits), zero_value=self._value_bits - 1)
        return registers, np.minimum(rho, np.int64((1 << self._register_width) - 1))

    def update(self, item: int) -> None:
        """Route the item to a register and record max(rho)."""
        if not 0 <= item < self.universe_size:
            raise ParameterError(
                "item %d outside universe [0, %d)" % (item, self.universe_size)
            )
        register, rho = self._slot(item)
        if rho > self._registers.item(register):
            self._registers[register] = rho

    def update_batch(self, items) -> None:
        """Vectorized ingestion of a chunk of items.

        One oracle pass, one register slice, and one de Bruijn ``rho``
        extraction over the whole array, then one grouped register
        maximum — bit-identical to the scalar loop because the
        per-register reduction is a plain maximum.
        """
        keys = as_key_array(items, self.universe_size)
        if keys.size == 0:
            return
        grouped_max_scatter(self._registers, *self._slots(keys))

    def estimate(self) -> float:
        """Return the estimate of the registers."""
        return self._estimates(self._registers.reshape(1, -1))[0]

    def _estimates(self, registers) -> List[float]:
        """The estimate of every row of a ``(rows, m)`` register matrix."""
        raise NotImplementedError

    def merge(self, other: "CardinalityEstimator") -> None:
        """Take the register-wise maximum of two same-seed counters."""
        kind = type(self).__name__
        if not isinstance(other, type(self)):
            raise MergeError("can only merge %s with its own kind" % kind)
        if (
            other.universe_size != self.universe_size
            or other.registers != self.registers
            or self.seed is None
            or other.seed != self.seed
        ):
            raise MergeError("%s merges need equal parameters and an explicit seed" % kind)
        np.maximum(self._registers, other._registers, out=self._registers)

    def space_breakdown(self) -> SpaceBreakdown:
        """Return the itemised space cost (``m`` registers of log log n bits)."""
        breakdown = SpaceBreakdown(self.name)
        breakdown.add("registers", self.registers * self._register_width)
        breakdown.add_component("random-oracle", self._oracle)
        return breakdown

    def space_bits(self) -> int:
        """Return the counter's space in bits (random oracle not charged)."""
        return self.space_breakdown().total()


class LogLogCounter(_RegisterCounter):
    """The LogLog cardinality estimator (random-oracle model).

    Attributes:
        universe_size: the universe size ``n``.
        registers: number of registers ``m`` (a power of two).
    """

    name = "loglog"

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
        registers = registers if registers is not None else registers_for_eps(eps)
        if not is_power_of_two(registers):
            raise ParameterError("registers must be a power of two")
        super().__init__(universe_size, registers, seed)
        # alpha_m for the LogLog estimator (the m -> infinity constant).
        self._alpha = 0.39701

    def _estimates(self, registers) -> List[float]:
        """``alpha * m * 2^{mean register}`` per row.

        Register totals are exact integer sums; the exponentiation uses
        Python's ``**`` because NumPy's vectorized pow can differ from
        libm by an ulp.
        """
        m = self.registers
        totals = registers.sum(axis=1, dtype=np.int64)
        return [self._alpha * m * (2.0 ** (total / m)) for total in totals.tolist()]
