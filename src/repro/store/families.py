"""Concrete :class:`~repro.store.sketch_array.SketchArray` families.

Four families store their rows as true struct-of-arrays NumPy state and
ingest keyed batches in one shared hash pass plus a grouped scatter:

* :class:`HyperLogLogSketchArray` / :class:`LogLogSketchArray` — the
  register sketches: an ``(N, m)`` register matrix, one splitmix64 pass
  and one de Bruijn ``rho`` extraction per batch, grouped per-register
  maxima (:func:`repro.vectorize.grouped_max_scatter`).
* :class:`LinearCountingSketchArray` — Estan-style bitmaps as ``(N,
  ceil(b/8))`` bit-planes, grouped OR scatter into the byte planes.
* :class:`RoughSketchArray` — the KNW Figure 2 rough estimator
  (:class:`repro.core.rough_estimator.RoughEstimator`, polynomial
  ``h3``): an ``(N, 3, K_RE)`` counter tensor, three Carter--Wegman
  passes per batch, grouped per-counter maxima, and a fully vectorized
  ``T_r``-threshold report (the ``t``-th largest counter per copy).

Every family is **bit-identical per row** to independent sketches of the
underlying class sharing the array's seed: :meth:`export_row` builds
that independent sketch (equal ``state_dict()``), which the test suite
verifies after arbitrary interleavings of scalar and grouped updates.

:class:`ObjectSketchArray` is the generic fallback: it keeps one sketch
object per row (cloned from a serialized template, so all rows share the
seed-derived hash functions) and implements grouped ingestion as one
sort plus one vectorized ``update_batch`` per *touched row* — no
per-item Python work, and any registry estimator (including the full KNW
F0/L0 sketches and turnstile families) gains keyed batching through it.
"""

from __future__ import annotations

import math
from typing import List, Optional

from .. import serialize
from ..baselines.hyperloglog import HyperLogLogCounter, _alpha
from ..baselines.linear_counting import LinearCounter
from ..baselines.loglog import LogLogCounter
from ..bitstructs.bitvector import BitVector
from ..bitstructs.packed import PackedCounterArray
from ..core.rough_estimator import RoughEstimator, threshold_estimates
from ..estimators.base import TurnstileEstimator
from ..exceptions import ParameterError
from ..hashing.bitops import lsb, lsb_batch, rho_batch
from ..hashing.kwise import KWiseHash
from ..vectorize import (
    group_slices,
    grouped_max_scatter,
    grouped_or_scatter,
    np,
)
from .sketch_array import SketchArray

__all__ = [
    "HyperLogLogSketchArray",
    "LogLogSketchArray",
    "LinearCountingSketchArray",
    "RoughSketchArray",
    "ObjectSketchArray",
    "make_sketch_array",
    "sketch_array_family_names",
]


def _counter_dtype(peak: int):
    """Smallest unsigned dtype holding values up to ``peak``."""
    if peak <= 0xFF:
        return np.uint8
    if peak <= 0xFFFF:
        return np.uint16
    return np.uint32


_POPCOUNT_TABLE = None


def _popcount_table():
    """Per-byte popcount lookup (built once per process)."""
    global _POPCOUNT_TABLE
    if _POPCOUNT_TABLE is None:
        _POPCOUNT_TABLE = np.array(
            [bin(value).count("1") for value in range(256)], dtype=np.uint8
        )
    return _POPCOUNT_TABLE


class _RegisterSketchArray(SketchArray):
    """Shared struct-of-arrays core of the LogLog-style register sketches.

    Rows are ``m``-register sketches whose per-register reduction is a
    maximum of ``rho`` values; the state is one ``(N, m)`` matrix and a
    grouped batch reduces with one :func:`grouped_max_scatter` over the
    flattened ``row * m + register`` index.
    """

    def __init__(
        self,
        universe_size: int,
        rows: int = 0,
        eps: float = 0.05,
        registers: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        """Create the array.

        Args:
            universe_size: the shared universe ``n``.
            rows: initial sketch count.
            eps: target standard error (sets the register count).
            registers: explicit register count (power of two).
            seed: the shared seed (required; all rows derive their hash
                function from it).
        """
        super().__init__(universe_size, rows, seed)
        self.eps = eps
        self._template = self._make_template(
            universe_size, eps, registers, seed
        )
        self.registers = self._template.registers
        self._register_bits = self._template._register_bits
        self._value_bits = self._template._value_bits
        self._width = self._template._registers.width
        self._value_cap = (1 << self._width) - 1
        self._state = np.zeros(
            (self._capacity_for(rows), self.registers),
            dtype=_counter_dtype(self._value_cap),
        )

    def _make_template(self, universe_size, eps, registers, seed):
        raise NotImplementedError

    # -- geometry --------------------------------------------------------------------

    def _reserve(self, rows: int) -> None:
        self._state = self._grow_matrix(self._state, rows)

    # -- ingestion -------------------------------------------------------------------

    def _update_scalar(self, row: int, item: int, delta: Optional[int]) -> None:
        value = self._template._oracle(item)
        register = value & (self.registers - 1)
        remainder = value >> self._register_bits
        rho = min(
            lsb(remainder, zero_value=self._value_bits - 1) + 1, self._value_cap
        )
        if rho > int(self._state[row, register]):
            self._state[row, register] = rho

    def _update_grouped(self, rows, keys, deltas) -> None:
        values = self._template._oracle.hash_batch_validated(keys)
        registers = (values & np.uint64(self.registers - 1)).astype(np.int64)
        remainders = values >> np.uint64(self._register_bits)
        rho = rho_batch(remainders, zero_value=self._value_bits - 1)
        rho = np.minimum(rho, np.int64(self._value_cap))
        flat = rows * np.int64(self.registers) + registers
        target = self._state[: self._rows].reshape(-1)
        grouped_max_scatter(target, flat, rho)

    # -- row materialisation ---------------------------------------------------------

    def make_sketch(self):
        return serialize.loads(serialize.dumps(self._template))

    def export_row(self, row: int):
        self._check_row(row)
        sketch = self.make_sketch()
        sketch._registers = PackedCounterArray.from_numpy(
            self._state[row], self._width
        )
        return sketch

    def import_row(self, row: int, sketch) -> None:
        self._check_row(row)
        if (
            type(sketch) is not type(self._template)
            or sketch.universe_size != self.universe_size
            or sketch.registers != self.registers
            or sketch.seed != self.seed
        ):
            raise ParameterError(
                "import_row needs a same-parameter, same-seed %s"
                % type(self._template).__name__
            )
        self._state[row] = sketch._registers.to_numpy().astype(self._state.dtype)

    # -- merging ---------------------------------------------------------------------

    def _merge_rows(self, other, my_rows, other_rows) -> None:
        mine = self._state[my_rows]
        np.maximum(mine, other._state[other_rows], out=mine)
        self._state[my_rows] = mine

    def _same_parameters(self, other) -> bool:
        return self.registers == other.registers

    def spawn_empty(self):
        return type(self)(
            self.universe_size,
            rows=0,
            eps=self.eps,
            registers=self.registers,
            seed=self.seed,
        )

    # -- space -----------------------------------------------------------------------

    def space_bits(self) -> int:
        """Row registers at their packed width; the shared oracle charges 0."""
        return self._rows * self.registers * self._width


class HyperLogLogSketchArray(_RegisterSketchArray):
    """N HyperLogLog counters as an ``(N, m)`` register matrix."""

    family = "hyperloglog"

    def _make_template(self, universe_size, eps, registers, seed):
        return HyperLogLogCounter(
            universe_size, eps=eps, registers=registers, seed=seed
        )

    def estimate_all(self) -> List[float]:
        """Every row's bias-corrected harmonic-mean estimate in one sweep."""
        if self._rows == 0:
            return []
        return self._estimates(self._state[: self._rows])

    def _estimate_row(self, row: int) -> float:
        return self._estimates(self._state[row : row + 1])[0]

    def _estimates(self, state):
        # Zero counts and harmonic sums are bulk (vectorized) reductions;
        # the final assembly runs per row with ``math.log``, because
        # ``np.log`` can differ from libm by an ulp and row estimates
        # must equal the scalar sketches' exactly.
        m = self.registers
        alpha = _alpha(m)
        values = state.astype(np.int32)
        zeros = (values == 0).sum(axis=1).tolist()
        inverse_sums = np.ldexp(1.0, -values).sum(axis=1).tolist()
        estimates = []
        for zero_registers, inverse_sum in zip(zeros, inverse_sums):
            raw = alpha * m * m / inverse_sum
            if raw <= 2.5 * m and zero_registers > 0:
                estimates.append(m * math.log(m / zero_registers))
            else:
                estimates.append(raw)
        return estimates


class LogLogSketchArray(_RegisterSketchArray):
    """N LogLog counters as an ``(N, m)`` register matrix."""

    family = "loglog"

    def _make_template(self, universe_size, eps, registers, seed):
        return LogLogCounter(universe_size, eps=eps, registers=registers, seed=seed)

    def estimate_all(self) -> List[float]:
        """Every row's ``alpha * m * 2^{mean register}`` in one sweep."""
        if self._rows == 0:
            return []
        return self._estimates(self._state[: self._rows])

    def _estimate_row(self, row: int) -> float:
        return self._estimates(self._state[row : row + 1])[0]

    def _estimates(self, state):
        # Register totals are one bulk (vectorized) reduction; the final
        # exponentiation uses Python's ``**`` per row because NumPy's
        # vectorized pow can differ from libm by an ulp, and estimates
        # must equal the scalar sketches' exactly.
        m = self.registers
        alpha = self._template._alpha
        totals = state.sum(axis=1, dtype=np.int64)
        return [alpha * m * (2.0 ** (total / m)) for total in totals.tolist()]


class LinearCountingSketchArray(SketchArray):
    """N linear-counting bitmaps as ``(N, ceil(bits/8))`` bit-planes.

    The per-row state uses exactly the :class:`BitVector` byte layout
    (bit ``i`` is bit ``i & 7`` of byte ``i >> 3``), so a row exports to
    an independent :class:`LinearCounter` by adopting its bytes.
    """

    family = "linear-counting"

    def __init__(
        self,
        universe_size: int,
        rows: int = 0,
        eps: float = 0.05,
        bits: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        """Create the array.

        Args:
            universe_size: the shared universe ``n``.
            rows: initial bitmap count.
            eps: accuracy target; sets ``bits`` to the registry's
                ``max(64, 4 / eps^2)`` when ``bits`` is omitted.
            bits: explicit bitmap size.
            seed: the shared seed (required).
        """
        super().__init__(universe_size, rows, seed)
        self.eps = eps
        if bits is None:
            bits = max(64, int(round(4.0 / (eps * eps))))
        self._template = LinearCounter(universe_size, bits=bits, seed=seed)
        self.bits = bits
        self._stride = (bits + 7) // 8
        self._state = np.zeros(
            (self._capacity_for(rows), self._stride), dtype=np.uint8
        )

    def _reserve(self, rows: int) -> None:
        self._state = self._grow_matrix(self._state, rows)

    # -- ingestion -------------------------------------------------------------------

    def _update_scalar(self, row: int, item: int, delta: Optional[int]) -> None:
        position = self._template._oracle(item)
        self._state[row, position >> 3] |= np.uint8(1 << (position & 7))

    def _update_grouped(self, rows, keys, deltas) -> None:
        positions = self._template._oracle.hash_batch_validated(keys).astype(
            np.int64
        )
        flat = rows * np.int64(self._stride) + (positions >> np.int64(3))
        masks = (
            np.left_shift(np.int64(1), positions & np.int64(7))
        ).astype(np.uint8)
        target = self._state[: self._rows].reshape(-1)
        grouped_or_scatter(target, flat, masks)

    # -- reporting -------------------------------------------------------------------

    def estimate_all(self) -> List[float]:
        """Every row's ``b ln(b / zeros)`` from one bulk popcount sweep."""
        if self._rows == 0:
            return []
        return self._estimates(self._state[: self._rows])

    def _estimate_row(self, row: int) -> float:
        return self._estimates(self._state[row : row + 1])[0]

    def _estimates(self, state):
        # Occupancy is one bulk popcount; the final logarithm runs per
        # row with ``math.log`` (``np.log`` can differ by an ulp, and row
        # estimates must equal the scalar LinearCounter's exactly).
        bits = self.bits
        ones = _popcount_table()[state].sum(axis=1, dtype=np.int64).tolist()
        return [
            bits * math.log(bits / ((bits - occupied) or 1)) for occupied in ones
        ]

    # -- row materialisation ---------------------------------------------------------

    def make_sketch(self):
        return serialize.loads(serialize.dumps(self._template))

    def export_row(self, row: int):
        self._check_row(row)
        sketch = self.make_sketch()
        sketch._bitmap = BitVector.from_buffer(
            self._state[row].tobytes(), self.bits
        )
        return sketch

    def import_row(self, row: int, sketch) -> None:
        self._check_row(row)
        if (
            type(sketch) is not LinearCounter
            or sketch.universe_size != self.universe_size
            or sketch.bits != self.bits
            or sketch.seed != self.seed
        ):
            raise ParameterError(
                "import_row needs a same-parameter, same-seed LinearCounter"
            )
        self._state[row] = np.frombuffer(
            bytes(sketch._bitmap._bytes), dtype=np.uint8
        )

    # -- merging ---------------------------------------------------------------------

    def _merge_rows(self, other, my_rows, other_rows) -> None:
        self._state[my_rows] |= other._state[other_rows]

    def _same_parameters(self, other) -> bool:
        return self.bits == other.bits

    def spawn_empty(self):
        return type(self)(
            self.universe_size, rows=0, eps=self.eps, bits=self.bits, seed=self.seed
        )

    def space_bits(self) -> int:
        """One bit per bitmap position per row; the shared oracle charges 0."""
        return self._rows * self.bits


def _rough_hashes(estimator) -> List[tuple]:
    """What the seed drew for each copy: ``h1``/``h2`` parameters, ``h3`` coefficients.

    A :class:`RoughEstimator` keeps no seed, so this is how a row import
    tells another seed's estimator apart.
    """
    return [
        (copy.h1._a, copy.h1._b, copy.h2._a, copy.h2._b, copy.h3._coefficients)
        for copy in estimator._copies
    ]


class RoughSketchArray(SketchArray):
    """N KNW Figure 2 rough estimators as an ``(N, 3, K_RE)`` counter tensor.

    The KNW-family member of the store: each row is a
    :class:`~repro.core.rough_estimator.RoughEstimator` (three
    independent copies, ``K_RE`` counters each, counters holding the
    deepest ``lsb`` level, report = median of the per-copy threshold
    levels).  The polynomial ``h3`` family keeps every hash
    seed-determined, so all rows share one eagerly drawn hash bundle and
    grouped ingestion is three Carter--Wegman passes plus three grouped
    maxima per batch.

    Reporting vectorizes the Figure 2 threshold rule exactly: the largest
    level ``r`` with ``T_r >= rho K_RE`` is the ``ceil(rho K_RE)``-th
    largest counter value of the copy, computed for every row with one
    ``np.partition`` per report.
    """

    family = "knw-rough"

    def __init__(
        self,
        universe_size: int,
        rows: int = 0,
        counters_per_copy: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> None:
        """Create the array.

        Args:
            universe_size: the shared universe ``n``.
            rows: initial sketch count.
            counters_per_copy: ``K_RE`` override (defaults to the paper's
                ``max(8, log n / log log n)``).
            seed: the shared seed (required).
        """
        super().__init__(universe_size, rows, seed)
        self._template = RoughEstimator(
            universe_size,
            counters_per_copy=counters_per_copy,
            seed=seed,
            use_uniform_family=False,
        )
        self.counters_per_copy = self._template.counters_per_copy
        self.copies = len(self._template._copies)
        self._store_width = self._template._copies[0]._store_width
        self._threshold_rank = int(math.ceil(self._template._threshold))
        capacity = self._capacity_for(rows)
        self._state = np.zeros(
            (capacity, self.copies, self.counters_per_copy), dtype=np.int64
        )
        self._floors = np.full(capacity, -1.0, dtype=np.float64)

    def _reserve(self, rows: int) -> None:
        self._state = self._grow_matrix(self._state, rows)
        if rows > self._floors.shape[0]:
            grown = np.full(self._state.shape[0], -1.0, dtype=np.float64)
            grown[: self._floors.shape[0]] = self._floors
            self._floors = grown

    # -- ingestion -------------------------------------------------------------------

    def _update_scalar(self, row: int, item: int, delta: Optional[int]) -> None:
        for j, copy in enumerate(self._template._copies):
            level = lsb(copy.h1(item), zero_value=copy.level_limit)
            index = copy.h3(copy.h2(item))
            if level + 1 > int(self._state[row, j, index]):
                self._state[row, j, index] = level + 1

    def _update_grouped(self, rows, keys, deltas) -> None:
        stride = self.copies * self.counters_per_copy
        target = self._state[: self._rows].reshape(-1)
        base = rows * np.int64(stride)
        for j, copy in enumerate(self._template._copies):
            levels = lsb_batch(
                copy.h1.hash_batch_validated(keys), zero_value=copy.level_limit
            ) + np.int64(1)
            indices = copy.h3.hash_batch_validated(
                copy.h2.hash_batch_validated(keys)
            )
            if indices.dtype == object:
                indices = indices.astype(np.int64)
            else:
                indices = indices.astype(np.int64, copy=False)
            flat = base + np.int64(j * self.counters_per_copy) + indices
            grouped_max_scatter(target, flat, levels)

    # -- reporting -------------------------------------------------------------------

    def estimate_all(self) -> List[float]:
        """Every row's monotone rough estimate (median of three copies)."""
        if self._rows == 0:
            return []
        medians = self._medians(self._state[: self._rows])
        floors = self._floors[: self._rows]
        np.maximum(floors, medians, out=floors)
        return floors.tolist()

    def _estimate_row(self, row: int) -> float:
        median = float(self._medians(self._state[row : row + 1])[0])
        if median > self._floors[row]:
            self._floors[row] = median
        return float(self._floors[row])

    def _medians(self, state):
        per_copy = threshold_estimates(state, self._threshold_rank)
        return np.sort(per_copy, axis=1)[:, self.copies // 2]

    # -- row materialisation ---------------------------------------------------------

    def make_sketch(self):
        return serialize.loads(serialize.dumps(self._template))

    def export_row(self, row: int):
        self._check_row(row)
        sketch = self.make_sketch()
        for j, copy in enumerate(sketch._copies):
            copy.counters = PackedCounterArray.from_numpy(
                self._state[row, j], self._store_width
            )
        sketch._monotone_floor = float(self._floors[row])
        return sketch

    def import_row(self, row: int, sketch) -> None:
        self._check_row(row)
        if (
            type(sketch) is not RoughEstimator
            or sketch.universe_size != self.universe_size
            or sketch.counters_per_copy != self.counters_per_copy
            or not isinstance(sketch._copies[0].h3, KWiseHash)
            or _rough_hashes(sketch) != _rough_hashes(self._template)
        ):
            raise ParameterError(
                "import_row needs a same-parameter, same-seed "
                "polynomial-family RoughEstimator"
            )
        for j, copy in enumerate(sketch._copies):
            self._state[row, j] = copy.counters.to_numpy().astype(np.int64)
        self._floors[row] = float(sketch._monotone_floor)

    # -- merging ---------------------------------------------------------------------

    def _merge_rows(self, other, my_rows, other_rows) -> None:
        mine = self._state[my_rows]
        np.maximum(mine, other._state[other_rows], out=mine)
        self._state[my_rows] = mine
        floors = self._floors[my_rows]
        np.maximum(floors, other._floors[other_rows], out=floors)
        self._floors[my_rows] = floors

    def _same_parameters(self, other) -> bool:
        return self.counters_per_copy == other.counters_per_copy

    def spawn_empty(self):
        return type(self)(
            self.universe_size,
            rows=0,
            counters_per_copy=self.counters_per_copy,
            seed=self.seed,
        )

    def space_bits(self) -> int:
        """Row counters at their packed width, plus the shared hash bundle."""
        hashes = sum(
            copy.h1.space_bits() + copy.h2.space_bits() + copy.h3.space_bits()
            for copy in self._template._copies
        )
        per_row = self.copies * self.counters_per_copy * self._store_width
        return hashes + self._rows * per_row


class ObjectSketchArray(SketchArray):
    """Generic fallback: one sketch object per row, cloned from a template.

    Rows are full estimator objects revived from one serialized template
    (so they share parameters and the seed-derived hash functions, like
    every struct-of-arrays family).  Grouped ingestion is one stable sort
    by row plus one vectorized ``update_batch`` per *touched* row — the
    per-item Python loop of the dict-of-sketches pattern disappears,
    while any registry estimator (KNW F0, the turnstile L0 sketches,
    median wrappers, ...) becomes store-backed without a bespoke layout.
    """

    family = "object"

    def __init__(self, template, rows: int = 0) -> None:
        """Create the array.

        Args:
            template: a freshly constructed (empty) estimator with an
                explicit seed; every row is a serialized clone of it.
            rows: initial sketch count.
        """
        universe_size = getattr(template, "universe_size", None)
        if universe_size is None:
            raise ParameterError(
                "ObjectSketchArray templates must expose universe_size"
            )
        seed = getattr(template, "seed", None)
        super().__init__(universe_size, 0, seed)
        self.turnstile = isinstance(template, TurnstileEstimator)
        self.family = "object:%s" % getattr(
            template, "name", type(template).__name__
        )
        self._template_blob = serialize.dumps(template)
        self._sketches: List = []
        if rows:
            self.grow(rows)

    def _reserve(self, rows: int) -> None:
        while len(self._sketches) < rows:
            self._sketches.append(serialize.loads(self._template_blob))

    # -- ingestion -------------------------------------------------------------------

    def _update_scalar(self, row: int, item: int, delta: Optional[int]) -> None:
        if self.turnstile:
            self._sketches[row].update(item, delta)
        else:
            self._sketches[row].update(item)

    def _update_grouped(self, rows, keys, deltas) -> None:
        # ``deltas`` arrives validated (base-class validate_batch).
        order, starts, touched = group_slices(rows)
        ends = np.append(starts[1:], np.int64(len(rows)))
        sorted_keys = keys[order]
        sorted_deltas = deltas[order] if self.turnstile else None
        for position, row in enumerate(touched.tolist()):
            lo = int(starts[position])
            hi = int(ends[position])
            sketch = self._sketches[row]
            if self.turnstile:
                sketch.update_batch(sorted_keys[lo:hi], sorted_deltas[lo:hi])
            else:
                sketch.update_batch(sorted_keys[lo:hi])

    # -- reporting -------------------------------------------------------------------

    def estimate_all(self) -> List[float]:
        return [sketch.estimate() for sketch in self._sketches[: self._rows]]

    def _estimate_row(self, row: int) -> float:
        return self._sketches[row].estimate()

    # -- row materialisation ---------------------------------------------------------

    def make_sketch(self):
        return serialize.loads(self._template_blob)

    def export_row(self, row: int):
        """Return the live row sketch (object-backed rows *are* sketches)."""
        self._check_row(row)
        return self._sketches[row]

    def import_row(self, row: int, sketch) -> None:
        self._check_row(row)
        if type(sketch) is not type(self._sketches[row]):
            raise ParameterError(
                "import_row needs a %s" % type(self._sketches[row]).__name__
            )
        self._sketches[row] = sketch

    # -- merging ---------------------------------------------------------------------

    def _merge_rows(self, other, my_rows, other_rows) -> None:
        for mine, theirs in zip(my_rows.tolist(), other_rows.tolist()):
            self._sketches[mine].merge(other._sketches[theirs])

    def _same_parameters(self, other) -> bool:
        return self._template_blob == other._template_blob

    def spawn_empty(self):
        return type(self)(serialize.loads(self._template_blob), rows=0)

    def space_bits(self) -> int:
        return sum(
            sketch.space_bits() for sketch in self._sketches[: self._rows]
        )


#: The true struct-of-arrays families, by registry name.
_SOA_FAMILIES = {
    "hyperloglog": HyperLogLogSketchArray,
    "loglog": LogLogSketchArray,
    "linear-counting": LinearCountingSketchArray,
    "knw-rough": RoughSketchArray,
}


def sketch_array_family_names() -> List[str]:
    """Return the families with a struct-of-arrays grouped-ingest layout."""
    return sorted(_SOA_FAMILIES)


def make_sketch_array(
    family: str,
    universe_size: int,
    rows: int = 0,
    eps: float = 0.05,
    seed: Optional[int] = None,
    **params,
) -> SketchArray:
    """Build a sketch array for ``family``.

    Struct-of-arrays families (:func:`sketch_array_family_names`) get
    their native layout; any other registered estimator name falls back
    to an :class:`ObjectSketchArray` over the registry template, so every
    algorithm in the library can be keyed by entity.

    Args:
        family: a struct-of-arrays family name, or any
            :mod:`repro.estimators.registry` F0/L0 name.
        universe_size: the shared universe ``n``.
        rows: initial sketch count.
        eps: accuracy target handed to the family/registry factory.
        seed: the shared seed (required).
        **params: family-specific overrides (``registers``, ``bits``,
            ``counters_per_copy``, ``magnitude_bound`` for L0 names).
    """
    if family == "knw-rough":
        return RoughSketchArray(universe_size, rows=rows, seed=seed, **params)
    if family in _SOA_FAMILIES:
        return _SOA_FAMILIES[family](
            universe_size, rows=rows, eps=eps, seed=seed, **params
        )
    from ..estimators.registry import (
        f0_algorithm_names,
        l0_algorithm_names,
        make_f0_estimator,
        make_l0_estimator,
    )

    if family in f0_algorithm_names():
        if params:
            raise ParameterError(
                "registry-backed families take no extra parameters: %r"
                % sorted(params)
            )
        return ObjectSketchArray(
            make_f0_estimator(family, universe_size, eps, seed), rows=rows
        )
    if family in l0_algorithm_names():
        magnitude_bound = params.pop("magnitude_bound", 1 << 30)
        if params:
            raise ParameterError(
                "registry-backed families take no extra parameters: %r"
                % sorted(params)
            )
        return ObjectSketchArray(
            make_l0_estimator(family, universe_size, eps, magnitude_bound, seed),
            rows=rows,
        )
    raise ParameterError(
        "unknown sketch family %r (struct-of-arrays: %s; plus any registry "
        "estimator name)" % (family, ", ".join(sketch_array_family_names()))
    )
