"""Whole sketches through the fused KNW ingest kernel.

``knw``, ``knw-paper``, a standalone :class:`KNWFigure3Sketch` and a
:class:`RoughEstimator` with each ``h3`` family ingest streams through
:func:`repro.vectorize.hashed_max_scatter`.  Their bytes must equal a
scalar ``update`` loop's and those of a frozen copy of the composition
the kernel replaced: the hashes' batch forms, ``lsb_batch``, the mod and
the grouped scatters, one structure at a time.

Every test starts from cold tables (no ``KWiseHash`` value table and no
``PaghPaghHash`` value list in the process), under both kernel
backends, at universes from ``2^20`` to ``2^62``, at ``2^64`` (primes
past ``2^63``: the compiled backend hands the call to the reference) and
at ``2^80`` (object keys: the same).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.kernels as kernels
from repro.core.knw import BATCH_CHUNK, KNWFigure3Sketch
from repro.core.rough_estimator import RoughEstimator
from repro.estimators.base import CardinalityEstimator
from repro.estimators.registry import make_f0_estimator
from repro.exceptions import KernelBackendError
from repro.hashing import kwise, uniform
from repro.hashing.bitops import lsb_batch
from repro.vectorize import as_key_array, grouped_max_scatter

UNIVERSES = [1 << 20, 1 << 31, 1 << 32, 1 << 62, 1 << 64, 1 << 80]
SEED = 21


def _power(universe):
    return "2^%d" % (universe.bit_length() - 1)


def _loadable():
    names = []
    for name in kernels.available_backends():
        try:
            kernels.load_backend(name)
        except KernelBackendError:
            continue
        names.append(name)
    return names


@pytest.fixture(params=_loadable())
def backend(request):
    saved = kernels._active, kernels._chosen_by
    kernels.set_backend(request.param)
    yield request.param
    kernels._active, kernels._chosen_by = saved


@pytest.fixture(autouse=True)
def cold_tables():
    """No value table or value list survives from earlier tests."""
    kwise._value_table.cache_clear()
    uniform._VALUES_BY_ID.clear()
    uniform._VALUES_BY_FUNCTION.clear()
    yield


# -- the frozen composition ------------------------------------------------------


def frozen_rough(rough, keys):
    """Figure 2's copies, one hash pass and one grouped maximum each."""
    for counters, copy in zip(rough._counters, rough._copies):
        levels = lsb_batch(copy.h1.hash_batch_validated(keys), zero_value=copy.level_limit)
        indices = copy.h3.hash_batch_validated(copy.h2.hash_batch_validated(keys))
        grouped_max_scatter(counters, indices.astype(np.int64), levels + np.int64(1))


def frozen_figure3_chunk(core, keys, extended):
    """Figure 3's chunk step: scatter, rough update, estimate, rebase, FAIL."""
    hashes = core.hashes
    indices = np.asarray(extended % core.bins).astype(np.int64)
    levels = lsb_batch(hashes.h1.hash_batch_validated(keys), zero_value=hashes.level_limit)
    relative = np.maximum(levels - np.int64(core._base_level), np.int64(-1))
    grouped_max_scatter(core._counters, indices, relative)
    core._count_counters()
    frozen_rough(core.rough, keys)
    rough_estimate = core.rough.estimate()
    if rough_estimate > float(1 << core._est_exponent):
        core._rebase(rough_estimate)
    if core._bit_budget > core.FAIL_FACTOR * core.bins:
        core._failed = True


def frozen_extended(hashes, keys):
    return hashes.h3.hash_batch_validated(hashes.h2.hash_batch_validated(keys))


def frozen_figure3(core, items):
    keys = as_key_array(items, core.universe_size)
    for start in range(0, len(keys), BATCH_CHUNK):
        chunk = keys[start : start + BATCH_CHUNK]
        frozen_figure3_chunk(core, chunk, frozen_extended(core.hashes, chunk))


def frozen_knw(counter, items):
    """The combined estimator: small-F0 admission and bits, then Figure 3."""
    keys = as_key_array(items, counter.universe_size)
    small = counter.small
    for start in range(0, len(keys), BATCH_CHUNK):
        chunk = keys[start : start + BATCH_CHUNK]
        extended = frozen_extended(counter.hashes, chunk)
        if not small._exact_overflowed:
            _, first = np.unique(chunk, return_index=True)
            new = [key for key in chunk[np.sort(first)].tolist() if key not in small._exact]
            capacity = small.exact_limit - len(small._exact)
            small._exact.update(new[:capacity])
            if len(new) > capacity:
                small._mark_overflowed()
        small._bits.set_many(np.asarray(extended).astype(np.int64))
        frozen_figure3_chunk(counter.core, chunk, extended)


# -- streams ---------------------------------------------------------------------


def _stream(universe, length, seed):
    """Ids from a support half the stream's length, some near the top."""
    rng = np.random.default_rng(seed)
    support = [int(v) for v in rng.integers(0, min(universe, 1 << 62), length // 2)]
    support += [0, 1, universe - 1, universe // 3]
    picks = rng.integers(0, len(support), length)
    return [support[int(i)] for i in picks]


def _partition(items, seed):
    """Random call sizes, some past BATCH_CHUNK."""
    rng = np.random.default_rng(seed)
    start, calls = 0, []
    while start < len(items):
        size = int(rng.choice([1, 7, 300, 5000, BATCH_CHUNK + 11, 20000]))
        calls.append(items[start : start + size])
        start += size
    return calls


def _keys(call, universe):
    return np.asarray(call, dtype=np.uint64) if universe <= 1 << 64 else call


def _feed(sketch, calls, universe, ingest=None):
    for call in calls:
        if ingest is None:
            sketch.update_batch(_keys(call, universe))
        else:
            ingest(sketch, _keys(call, universe))


def _scalar(sketch, items):
    for item in items:
        sketch.update(item)


def _assert_copies_differ(rough):
    """The three copies draw their own functions, so a table filled with
    another copy's coefficients would show."""
    assert len({repr(copy.draws()) for copy in rough._copies}) == len(rough._copies)


# -- the tests -------------------------------------------------------------------


@pytest.mark.parametrize("family", ["knw", "knw-paper"])
@pytest.mark.parametrize("universe", UNIVERSES, ids=_power)
def test_knw_families_match_the_scalar_loop_and_the_frozen_composition(
    backend, family, universe
):
    eps = 0.1
    length = 3000 if universe > 1 << 62 else 6000
    items = _stream(universe, length, seed=universe.bit_length())
    calls = _partition(items, seed=length)
    fused = make_f0_estimator(family, universe, eps, seed=SEED)
    _assert_copies_differ(fused.core.rough)
    _feed(fused, calls, universe)
    frozen = make_f0_estimator(family, universe, eps, seed=SEED)
    _feed(frozen, calls, universe, frozen_knw)
    scalar = make_f0_estimator(family, universe, eps, seed=SEED)
    _scalar(scalar, items)
    assert fused.to_bytes() == frozen.to_bytes() == scalar.to_bytes()
    assert fused.estimate() == scalar.estimate()


@pytest.mark.parametrize("universe", [1 << 32, 1 << 80], ids=_power)
def test_knw_long_calls_match_the_frozen_composition(backend, universe):
    """Calls of many chunks, rebasing as the rough estimate grows."""
    items = _stream(universe, 60_000 if universe <= 1 << 64 else 12_000, seed=5)
    for family in ("knw", "knw-paper"):
        fused = make_f0_estimator(family, universe, 0.05, seed=SEED)
        frozen = make_f0_estimator(family, universe, 0.05, seed=SEED)
        _feed(fused, _partition(items, seed=9), universe)
        _feed(frozen, _partition(items, seed=9), universe, frozen_knw)
        assert fused.core._base_level > 0
        assert fused.to_bytes() == frozen.to_bytes()


@pytest.mark.parametrize("universe", UNIVERSES, ids=_power)
def test_figure3_sketch_matches_the_scalar_loop_and_the_frozen_composition(
    backend, universe
):
    items = _stream(universe, 4000, seed=3)
    calls = _partition(items, seed=4)
    build = lambda: KNWFigure3Sketch(universe, bins=32, seed=SEED, offset_divisor=1)  # noqa: E731
    fused, frozen, scalar = build(), build(), build()
    _assert_copies_differ(fused.rough)
    _feed(fused, calls, universe)
    _feed(frozen, calls, universe, frozen_figure3)
    _scalar(scalar, items)
    assert fused.to_bytes() == frozen.to_bytes()
    assert fused._counters.tolist() == scalar._counters.tolist()
    assert fused.rough._counters.tolist() == scalar.rough._counters.tolist()
    assert (fused._base_level, fused._est_exponent) == (scalar._base_level, scalar._est_exponent)


@pytest.mark.parametrize("uniform_family", [False, True], ids=["kwise", "pagh-pagh"])
@pytest.mark.parametrize("universe", UNIVERSES, ids=_power)
def test_rough_estimator_matches_the_scalar_loop_and_the_frozen_composition(
    backend, universe, uniform_family
):
    counters = max(8, math.ceil(math.log2(universe)))
    build = lambda: RoughEstimator(  # noqa: E731
        universe, counters_per_copy=counters, seed=SEED, use_uniform_family=uniform_family
    )
    items = _stream(universe, 5000, seed=7)
    calls = _partition(items, seed=8)
    fused, frozen, scalar = build(), build(), build()
    _assert_copies_differ(fused)
    _feed(fused, calls, universe)
    _feed(frozen, calls, universe, lambda rough, keys: frozen_rough(rough, as_key_array(keys)))
    _scalar(scalar, items)
    assert fused._counters.tolist() == frozen._counters.tolist() == scalar._counters.tolist()
    assert fused.estimate() == scalar.estimate()


def test_a_fresh_process_ingests_like_a_warm_one(backend):
    """Bytes after a byte round trip, with the tables filled by another
    same-seed sketch, equal those of a cold start."""
    items = np.asarray(_stream(1 << 32, 30_000, seed=11), dtype=np.uint64)
    cold = make_f0_estimator("knw", 1 << 32, 0.05, seed=SEED)
    cold.update_batch(items)
    warm_source = make_f0_estimator("knw", 1 << 32, 0.05, seed=SEED)
    revived = CardinalityEstimator.from_bytes(warm_source.to_bytes())
    warm_source.update_batch(items[::-1].copy())
    revived.update_batch(items)
    assert revived.to_bytes() == cold.to_bytes()
