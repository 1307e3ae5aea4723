"""The array-backed F0 counters against frozen list and bit-packed oracles.

Figure 3's offset counters were once a Python list, updated one changed
counter at a time; Figure 2's three rough copies and the HyperLogLog and
LogLog registers were fixed-width counters bit-packed into a Python int.
This module keeps that code, cut down to the counter arithmetic, as
oracles: :class:`ListFigure3` is the list-based ``update``,
``_ingest_chunk``, ``_rebase``, ``merge`` and FAIL latch;
:class:`PackedCounters` is the packed array with its scalar ``maximize``
and its bulk unpack-scatter-repack ``maximize_many``; and
:class:`PackedRough` and :class:`PackedRegisters` are the rough copy and
register updates over it.  They borrow only the hash functions of the
sketch under test.

Hypothesis drives streams of scalar calls, batches of any size, merges,
rebases and byte round trips through both, at universe ``2^32`` (byte
counters) and ``2^300`` (two-byte counters), and every counter, base,
exponent, ``A``, ``T``, FAIL latch, rough counter, monotone floor and
register must match.  Under the compiled backend the narrow lanes run
the ``u8``/``u16``/``i8``/``i16`` max-scatter kernels.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialize
from repro.baselines.hyperloglog import HyperLogLogCounter, _alpha
from repro.baselines.loglog import LogLogCounter
from repro.core.knw import BATCH_CHUNK, KNWFigure3Sketch
from repro.estimators.base import CardinalityEstimator
from repro.exceptions import SerializationError
from repro.hashing.bitops import ceil_log2, lsb, lsb_batch, rho_batch
from repro.store.families import make_sketch_array
from repro.vectorize import as_key_array, grouped_max_scatter

#: Universe per counter regime: one-byte and two-byte lanes.
UNIVERSES = {"narrow": 1 << 32, "wide": 1 << 300}
SEED = 11


class PackedCounters:
    """``length`` counters of ``width`` bits packed into one Python int."""

    def __init__(self, length, width):
        self.length, self.width, self.mask = length, width, (1 << width) - 1
        self.buffer = 0

    def get(self, index):
        return (self.buffer >> (index * self.width)) & self.mask

    def set(self, index, value):
        assert 0 <= value <= self.mask
        shift = index * self.width
        self.buffer = (self.buffer & ~(self.mask << shift)) | (value << shift)

    def maximize(self, index, value):
        if value > self.get(index):
            self.set(index, value)

    def to_list(self):
        return [self.get(index) for index in range(self.length)]

    def maximize_many(self, indices, values):
        """Unpack the buffer, scatter the pairs into an ``int64`` copy, repack."""
        if len(indices) == 0:
            return
        grown = np.array(self.to_list(), dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        grouped_max_scatter(grown, indices, np.asarray(values, dtype=np.int64))
        assert int(grown.max()) <= self.mask
        self.buffer = sum(
            value << (index * self.width) for index, value in enumerate(grown.tolist())
        )


class PackedRough:
    """Figure 2 over three packed copies, hashed by an estimator's copies."""

    def __init__(self, estimator):
        self.copies = estimator._copies
        self.level_limit = self.copies[0].level_limit
        width = max((self.level_limit + 1).bit_length(), 1)
        self.counters = [PackedCounters(estimator.counters_per_copy, width) for _ in self.copies]
        self.threshold = estimator._threshold
        self.floor = -1.0

    def update(self, item):
        for copy, counters in zip(self.copies, self.counters):
            level = lsb(copy.h1(item), zero_value=copy.level_limit)
            counters.maximize(copy.h3(copy.h2(item)), level + 1)

    def update_batch(self, keys):
        for copy, counters in zip(self.copies, self.counters):
            levels = lsb_batch(copy.h1.hash_batch_validated(keys), zero_value=copy.level_limit)
            indices = copy.h3.hash_batch_validated(copy.h2.hash_batch_validated(keys))
            counters.maximize_many(indices, levels + 1)

    def _copy_estimate(self, counters):
        """The level walk: the largest ``r`` with ``T_r >= rho K_RE``."""
        stored = counters.to_list()
        for level in range(self.level_limit, -1, -1):
            if sum(1 for value in stored if value >= level + 1) >= self.threshold:
                return float((1 << level) * len(stored))
        return -1.0

    def estimate(self):
        median = sorted(self._copy_estimate(counters) for counters in self.counters)[1]
        self.floor = max(self.floor, median)
        return self.floor

    def merge_max(self, other):
        for mine, theirs in zip(self.counters, other.counters):
            for index in range(mine.length):
                mine.maximize(index, theirs.get(index))
        self.floor = max(self.floor, other.floor)


def _shift_and_clamp(counters, shift):
    return [max(-1, value + shift) if value >= 0 else -1 for value in counters]


class ListFigure3:
    """Figure 3's list-based state, hashed by a sketch's own bundle."""

    def __init__(self, sketch):
        self.hashes, self.bins = sketch.hashes, sketch.bins
        self.offset_divisor = sketch.offset_divisor
        self.fail_bits = sketch.FAIL_FACTOR * sketch.bins
        self.counters = [-1] * self.bins
        self.bit_budget = 0
        self.base = self.exponent = self.occupied = 0
        self.failed = False
        self.rough = PackedRough(sketch.rough)

    def update(self, item):
        index = self.hashes.main_bin(item)
        current = self.counters[index]
        candidate = max(current, self.hashes.level(item) - self.base)
        if candidate != current:
            self.bit_budget += ceil_log2(candidate + 2) - ceil_log2(current + 2)
            if current < 0 <= candidate:
                self.occupied += 1
            self.counters[index] = candidate
        if self.bit_budget > self.fail_bits:
            self.failed = True
        self.rough.update(item)
        self._settle()

    def update_batch(self, items):
        keys = as_key_array(items)
        for start in range(0, len(keys), BATCH_CHUNK):
            self._ingest_chunk(keys[start : start + BATCH_CHUNK])

    def _ingest_chunk(self, keys):
        if len(keys) == 0:
            return
        indices = [self.hashes.main_bin(key) for key in keys.tolist()]
        levels = [self.hashes.level(key) for key in keys.tolist()]
        after = list(self.counters)
        for index, level in zip(indices, levels):
            after[index] = max(after[index], level - self.base)
        for old, new in zip(self.counters, after):
            if new != old:
                self.bit_budget += ceil_log2(new + 2) - ceil_log2(old + 2)
                if old < 0 <= new:
                    self.occupied += 1
        self.counters = after
        self.rough.update_batch(keys)
        self._settle()
        if self.bit_budget > self.fail_bits:
            self.failed = True

    def _settle(self):
        rough_estimate = self.rough.estimate()
        if rough_estimate > float(1 << self.exponent):
            self.rebase(rough_estimate)

    def rebase(self, rough_estimate):
        self.exponent = max(int(math.ceil(math.log2(rough_estimate))), 0)
        new_base = max(0, self.exponent - int(math.log2(self.bins // self.offset_divisor)))
        if new_base != self.base:
            self.counters = _shift_and_clamp(self.counters, self.base - new_base)
            self.occupied = sum(1 for value in self.counters if value >= 0)
            self.base = new_base
        self.bit_budget = sum(ceil_log2(value + 2) for value in self.counters)

    def merge(self, other):
        target = max(self.base, other.base)
        mine = _shift_and_clamp(self.counters, self.base - target)
        theirs = _shift_and_clamp(other.counters, other.base - target)
        self.counters = [max(a, b) for a, b in zip(mine, theirs)]
        self.base = target
        self.occupied = sum(1 for value in self.counters if value >= 0)
        self.bit_budget = sum(ceil_log2(value + 2) for value in self.counters)
        self.exponent = max(self.exponent, other.exponent)
        self.failed = self.failed or other.failed
        self.rough.merge_max(other.rough)
        self._settle()
        if self.bit_budget > self.fail_bits:
            self.failed = True


class PackedRegisters:
    """LogLog/HyperLogLog registers packed at their width, one sketch's oracle."""

    def __init__(self, sketch):
        self.sketch = sketch
        self.registers = PackedCounters(sketch.registers, sketch._register_width)

    def _route(self, values):
        sketch = self.sketch
        return values & (sketch.registers - 1), values >> sketch._register_bits

    def update(self, item):
        register, remainder = self._route(self.sketch._oracle(item))
        rho = lsb(remainder, zero_value=self.sketch._value_bits - 1) + 1
        self.registers.maximize(register, min(rho, self.registers.mask))

    def update_batch(self, items):
        keys = as_key_array(items)
        if keys.size == 0:
            return
        values = self.sketch._oracle.hash_batch_validated(keys)
        registers = values & np.uint64(self.sketch.registers - 1)
        remainders = values >> np.uint64(self.sketch._register_bits)
        rho = rho_batch(remainders, self.sketch._value_bits - 1)
        self.registers.maximize_many(registers, np.minimum(rho, self.registers.mask))

    def merge(self, other):
        for index in range(self.registers.length):
            self.registers.maximize(index, other.registers.get(index))

    def estimate(self):
        """The estimate as the packed sketches computed it, from a 1-D read."""
        values = np.array(self.registers.to_list(), dtype=np.uint64)
        m = self.registers.length
        if isinstance(self.sketch, LogLogCounter):
            return self.sketch._alpha * m * (2.0 ** (int(values.sum()) / m))
        exponents = values.astype(np.int32)
        zero_registers = int(np.count_nonzero(exponents == 0))
        raw = _alpha(m) * m * m / float(np.ldexp(1.0, -exponents).sum())
        if raw <= 2.5 * m and zero_registers > 0:
            return m * math.log(m / zero_registers)
        return raw


def _figure3(universe, offset_divisor):
    sketch = KNWFigure3Sketch(universe, bins=32, seed=SEED, offset_divisor=offset_divisor)
    return sketch, ListFigure3(sketch)


def assert_figure3_matches(sketch, oracle):
    narrow = sketch.hashes.level_limit <= 127
    assert sketch._counters.dtype == (np.int8 if narrow else np.int16)
    assert sketch.rough._counters.dtype == (np.uint8 if narrow else np.uint16)
    assert sketch._counters.tolist() == oracle.counters
    assert (sketch._base_level, sketch._est_exponent) == (oracle.base, oracle.exponent)
    assert (sketch._bit_budget, sketch._occupied) == (oracle.bit_budget, oracle.occupied)
    assert type(sketch._bit_budget) is int and type(sketch._occupied) is int
    assert sketch._failed is oracle.failed
    assert sketch.rough._counters.tolist() == [c.to_list() for c in oracle.rough.counters]
    assert sketch.rough._monotone_floor == oracle.rough.floor


@functools.lru_cache(maxsize=None)
def _deep_items(universe):
    """150 ids the Figure 3 sketches hash to level 8 or deeper.

    A stream of them fills the counters with offsets of 8 and more while
    the rough estimate stays low, so ``A`` passes ``3K`` and FAIL latches.
    """
    sketch, _ = _figure3(universe, offset_divisor=1)
    deep = (key for key in range(200_000) if sketch.hashes.level(key) >= 8)
    return tuple(itertools.islice(deep, 150))


def _items(universe):
    """Ids from the whole universe, clustered so streams repeat some."""
    return st.one_of(
        st.integers(0, 255),
        st.integers(0, universe - 1),
        st.sampled_from(_deep_items(universe)),
        st.sampled_from([0, universe - 1, 1 << 63, (1 << 64) - 1]).map(lambda v: v % universe),
    )


@st.composite
def f0_ops(draw, universe, kinds):
    ops = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("bytes", "rebase"):
            ops.append((kind, draw(st.integers(0, 3))))
            continue
        largest = 40 if kind == "scalar" else 600
        ops.append((kind, draw(st.lists(_items(universe), max_size=largest))))
    return ops


def _drive(sketch, oracle, kind, payload, make_pair):
    if kind == "scalar":
        for item in payload:
            sketch.update(item)
            oracle.update(item)
    elif kind == "batch":
        sketch.update_batch(payload)
        oracle.update_batch(payload)
    elif kind == "merge":
        other, other_oracle = make_pair()
        other.update_batch(payload)
        other_oracle.update_batch(payload)
        sketch.merge(other)
        oracle.merge(other_oracle)
    elif kind == "rebase":
        # A rebase a larger rough estimate would cause: est grows by 1..4.
        estimate = float(1 << (sketch._est_exponent + payload + 1)) + 0.5
        sketch._rebase(estimate)
        oracle.rebase(estimate)
    else:
        revived = CardinalityEstimator.from_bytes(sketch.to_bytes())
        assert revived.to_bytes() == sketch.to_bytes()
        return revived
    return sketch


@pytest.mark.parametrize("regime", sorted(UNIVERSES))
@pytest.mark.parametrize("offset_divisor", [1, 32])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_figure3_matches_the_list_oracle(regime, offset_divisor, data):
    universe = UNIVERSES[regime]
    sketch, oracle = _figure3(universe, offset_divisor)
    ops = data.draw(f0_ops(universe, ["scalar", "batch", "batch", "merge", "rebase", "bytes"]))
    for kind, payload in ops:
        sketch = _drive(sketch, oracle, kind, payload, lambda: _figure3(universe, offset_divisor))
        assert_figure3_matches(sketch, oracle)


@pytest.mark.parametrize("regime", sorted(UNIVERSES))
def test_deep_items_latch_fail_like_the_oracle(regime):
    universe = UNIVERSES[regime]
    items = list(_deep_items(universe))
    for feed in ("scalar", "batch"):
        sketch, oracle = _figure3(universe, offset_divisor=1)
        for start in range(0, len(items), 40):
            _drive(sketch, oracle, feed, items[start : start + 40], None)
            assert_figure3_matches(sketch, oracle)
        assert sketch.has_failed()


def _registers(name, universe):
    sketch_class = HyperLogLogCounter if name == "hyperloglog" else LogLogCounter
    sketch = sketch_class(universe, eps=0.3, seed=SEED)
    return sketch, PackedRegisters(sketch)


def assert_registers_match(sketch, oracle, regime):
    assert sketch._registers.dtype == (np.uint8 if regime == "narrow" else np.uint16)
    assert sketch._registers.tolist() == oracle.registers.to_list()
    assert sketch.estimate() == oracle.estimate()


@pytest.mark.parametrize("name", ["hyperloglog", "loglog"])
@pytest.mark.parametrize("regime", sorted(UNIVERSES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_registers_match_the_packed_oracle(name, regime, data):
    universe = UNIVERSES[regime]
    sketch, oracle = _registers(name, universe)
    ops = data.draw(f0_ops(universe, ["scalar", "batch", "batch", "merge", "bytes"]))
    for kind, payload in ops:
        if kind == "bytes":
            revived = CardinalityEstimator.from_bytes(sketch.to_bytes())
            assert revived.to_bytes() == sketch.to_bytes()
            sketch = oracle.sketch = revived
        else:
            _drive(sketch, oracle, kind, payload, lambda: _registers(name, universe))
        assert_registers_match(sketch, oracle, regime)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 12), data=st.data())
def test_packed_maximize_many_matches_the_array_scatter(width, data):
    """The bulk packed form equals the per-pair loop and a narrow-array scatter."""
    length = data.draw(st.integers(1, 40), label="length")
    value = st.integers(0, (1 << width) - 1)
    start = data.draw(st.lists(value, min_size=length, max_size=length), label="start")
    pairs = data.draw(st.lists(st.tuples(st.integers(0, length - 1), value), max_size=200))
    bulk, loop = PackedCounters(length, width), PackedCounters(length, width)
    for index, v in enumerate(start):
        bulk.set(index, v)
        loop.set(index, v)
    indices = np.array([index for index, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.int64)
    bulk.maximize_many(indices, values)
    for index, v in pairs:
        loop.maximize(index, v)
    array = np.array(start, dtype=np.uint8 if width <= 8 else np.uint16)
    grouped_max_scatter(array, indices, values)
    assert bulk.buffer == loop.buffer
    assert array.tolist() == loop.to_list()


def test_packed_maximize_many_matches_the_loop_on_repeated_indices():
    """A seeded stream of 500 pairs into 32 counters: every counter is hit often."""
    rng = random.Random(8)
    pairs = [(rng.randrange(32), rng.randrange(60)) for _ in range(500)]
    bulk, loop = PackedCounters(32, 6), PackedCounters(32, 6)
    indices = np.array([index for index, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.int64)
    bulk.maximize_many(indices, values)
    for index, v in pairs:
        loop.maximize(index, v)
    array = np.zeros(32, dtype=np.uint8)
    grouped_max_scatter(array, indices, values)
    assert bulk.to_list() == loop.to_list()
    assert array.tolist() == loop.to_list()


@pytest.mark.parametrize("family", ["hyperloglog", "loglog", "knw-rough"])
def test_a_store_row_is_its_sketch_array(family):
    """Each exported row's counters are the row itself, dtype and all."""
    store = make_sketch_array(family, UNIVERSES["narrow"], rows=3, eps=0.3, seed=SEED)
    rows = np.array([0, 2, 2, 1, 0], dtype=np.int64)
    items = np.array([5, 9, 1 << 31, 77, 3], dtype=np.uint64)
    store.update_grouped(rows, items)
    for row in range(3):
        sketch = store.make_sketch()
        sketch.update_batch(items[rows == row])
        field = "_counters" if family == "knw-rough" else "_registers"
        exported = getattr(store.export_row(row), field)
        assert exported.dtype == getattr(sketch, field).dtype == store._state.dtype
        assert np.array_equal(exported, getattr(sketch, field))
        assert np.array_equal(exported, store._state[row])


def test_packed_counter_payloads_do_not_decode():
    """A payload naming the deleted bit-packed counter class is refused."""
    tree = {
        "__object__": "repro.bitstructs.packed:PackedCounterArray",
        "__id__": 0,
        "__state__": {"length": 8, "width": 5, "_mask": 31, "_buffer": 0},
    }
    with pytest.raises(SerializationError):
        serialize.loads(serialize.dumps(None, state=tree))
