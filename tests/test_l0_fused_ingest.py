"""Whole ``knw-l0`` sketches through the fused turnstile kernels.

``knw-l0``'s four structures each ingest a call in one seam kernel call:
the subsampled fingerprint matrix and the unsampled ``2K`` row through
:func:`repro.vectorize.hashed_fingerprint_scatter`, the Lemma 8 exact
structure and the rough estimator through
:func:`repro.vectorize.hashed_residue_scatter`.  Their bytes must equal a
scalar ``update`` loop's, under both kernel backends, for universes from
``2^20`` to ``2^64``, magnitude bounds that put a fingerprint prime past
``2^63`` (object counters: the compiled backend hands that structure to
the reference and keeps the others), deltas of every size (zeros,
``+-1``, small, ``+-2^40`` and past ``int64``), and calls of any length,
split any way.
"""

from __future__ import annotations

import gc
import random

import numpy as np
import pytest

import repro.kernels as kernels
from repro.estimators.registry import make_l0_estimator
from repro.exceptions import KernelBackendError
from repro.hashing.universal import PairwiseHash
from repro.l0.rough_l0 import RoughL0Estimator
from repro.l0.small_l0 import SmallL0Recovery

SEED = 23


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


def _deltas(kind, rng, size):
    if kind == "ones":
        return [rng.choice((1, 1, 1, -1)) for _ in range(size)]
    if kind == "small":
        return [rng.choice((0, 1, -1, 2, -3, 5, 0)) for _ in range(size)]
    if kind == "wide":
        return [rng.choice((1, -1)) * rng.randrange(1 << 40) for _ in range(size)]
    # Past int64: the deltas stay an object array, which every structure
    # hands to the reference.
    return [rng.choice((1, -1)) * rng.randrange(1 << 70) for _ in range(size)]


def _stream(universe, kind, size, seed):
    rng = random.Random(seed)
    items = [rng.randrange(universe) for _ in range(size // 2)]
    items += [rng.choice(items) for _ in range(size - len(items))]
    return items, _deltas(kind, rng, size)


def _calls(items, deltas, rng):
    """Split a stream into calls of random lengths (empty ones included)."""
    start = 0
    while start < len(items):
        stop = start + rng.choice((0, 1, 7, 64, 65, 300))
        yield items[start:stop], deltas[start:stop]
        start = stop


def _scalar(sketch, items, deltas):
    for item, delta in zip(items, deltas):
        sketch.update(item, delta)
    return sketch


def _batched(sketch, items, deltas, seed, as_arrays=True):
    rng = random.Random(seed)
    for chunk, chunk_deltas in _calls(items, deltas, rng):
        if as_arrays and all(-(1 << 63) <= d < 1 << 63 for d in chunk_deltas):
            sketch.update_batch(
                np.asarray(chunk, dtype=np.uint64), np.asarray(chunk_deltas, dtype=np.int64)
            )
        else:
            sketch.update_batch(chunk, chunk_deltas)
    return sketch


@pytest.mark.parametrize("universe", [1 << 20, 1 << 32, 1 << 62, 1 << 64])
@pytest.mark.parametrize("kind", ["ones", "small", "wide", "huge"])
def test_knw_l0_batches_equal_the_scalar_loop(backend, universe, kind):
    def sketch():
        return make_l0_estimator("knw-l0", universe, 0.2, 1 << 20, seed=SEED)

    items, deltas = _stream(universe, kind, 700, seed=universe.bit_length())
    expected = _scalar(sketch(), items, deltas).to_bytes()
    assert _batched(sketch(), items, deltas, seed=1).to_bytes() == expected
    assert _batched(sketch(), items, deltas, seed=2, as_arrays=False).to_bytes() == expected


@pytest.mark.parametrize(
    "eps, magnitude_bound", [(0.3, 1 << 10), (0.1, 1 << 20), (0.05, 1 << 30), (0.2, 1 << 4000)]
)
def test_every_prime_regime_equals_the_scalar_loop(backend, eps, magnitude_bound):
    """At eps 0.05 and mM 2^30 the unsampled row's prime is past 2^63 for
    this seed (object counters), and at mM 2^4000 both fingerprint primes
    are: those structures run on the reference, the rest compiled."""
    def sketch():
        return make_l0_estimator("knw-l0", 1 << 32, eps, magnitude_bound, seed=SEED)

    probe = sketch()
    wide = [m._cells.dtype == object for m in (probe._matrix, probe._small_row)]
    assert wide == {1 << 10: [False, False], 1 << 20: [False, False],
                    1 << 30: [False, True], 1 << 4000: [True, True]}[magnitude_bound]
    items, deltas = _stream(1 << 32, "small", 600, seed=int(eps * 100))
    expected = _scalar(sketch(), items, deltas).to_bytes()
    assert _batched(sketch(), items, deltas, seed=3).to_bytes() == expected


def test_lemma8_structures_alone_equal_the_scalar_loop(backend):
    """``SmallL0Recovery`` (10,000 buckets: the multiply-based bucket
    reduction) and ``RoughL0Estimator`` through their own ``update_batch``."""
    items, deltas = _stream(1 << 32, "small", 800, seed=5)
    for make in (
        lambda: SmallL0Recovery(1 << 32, capacity=100, magnitude_bound=1 << 20, seed=SEED),
        lambda: RoughL0Estimator(1 << 32, 1 << 20, seed=SEED, capacity=16),
    ):
        expected = _scalar(make(), items, deltas).to_bytes()
        assert _batched(make(), items, deltas, seed=4).to_bytes() == expected


def test_merged_batches_equal_one_sketch(backend):
    """Linear sketches: two halves ingested apart and merged equal one."""
    items, deltas = _stream(1 << 32, "ones", 900, seed=6)

    def sketch():
        return make_l0_estimator("knw-l0", 1 << 32, 0.1, 1 << 20, seed=SEED)

    whole = _batched(sketch(), items, deltas, seed=7)
    left = _batched(sketch(), items[:450], deltas[:450], seed=8)
    right = _batched(sketch(), items[450:], deltas[450:], seed=9)
    left.merge(right)
    assert left.to_bytes() == whole.to_bytes()


def test_backends_agree_on_a_large_call():
    """One 140K-update call: every structure's counters and counts agree
    across the backends, byte for byte."""
    backends = _loadable()
    rng = np.random.default_rng(11)
    items = rng.integers(0, 1 << 32, 140_000, dtype=np.uint64)
    deltas = rng.choice(np.asarray([1, 1, -1, 2, 0], dtype=np.int64), 140_000)
    states = set()
    saved = kernels._active, kernels._chosen_by
    try:
        for name in backends:
            kernels.set_backend(name)
            sketch = make_l0_estimator("knw-l0", 1 << 32, 0.05, 1 << 20, seed=SEED)
            sketch.update_batch(items, deltas)
            states.add(sketch.to_bytes())
    finally:
        kernels._active, kernels._chosen_by = saved
    assert len(states) == 1


def test_packed_words_follow_new_hashes_and_arrays(backend):
    """The compiled backend memoizes each call's packed words and array
    addresses per structure.  A structure that ``load_state_dict`` or
    ``from_bytes`` gives new arrays, or that is handed new hash functions
    over the same arrays, must be packed again: every step's bytes equal
    the scalar loop's, each step repacks all three kernel calls, and no
    entry outlives its structure."""
    from repro.kernels.compiled_backend import _PACKED

    def sketch(seed):
        return make_l0_estimator("knw-l0", 1 << 32, 0.1, 1 << 20, seed=seed)

    def entries():
        return list(_PACKED.values())

    def repacked(before):
        return [entry for entry in _PACKED.values() if not any(entry is old for old in before)]

    items, deltas = _stream(1 << 32, "small", 1200, seed=12)
    parts = [(items[i : i + 300], deltas[i : i + 300]) for i in range(0, 1200, 300)]
    gc.collect()
    baseline = len(_PACKED)
    live, other, reference = sketch(SEED), sketch(SEED + 1), sketch(SEED + 1)
    _batched(live, *parts[0], seed=13)
    _batched(other, *parts[0], seed=14)
    _scalar(reference, *parts[0])
    compiled = backend == "compiled"
    assert len(_PACKED) == baseline + (6 if compiled else 0)

    # New arrays and hashes through load_state_dict.
    before = entries()
    live.load_state_dict(other.state_dict())
    _batched(live, *parts[1], seed=15)
    _scalar(reference, *parts[1])
    assert live.to_bytes() == reference.to_bytes()
    assert len(repacked(before)) == (3 if compiled else 0)
    assert len(_PACKED) == baseline + (6 if compiled else 0)

    # New arrays and hashes through from_bytes.
    before = entries()
    revived = type(live).from_bytes(live.to_bytes())
    _batched(revived, *parts[2], seed=16)
    _scalar(reference, *parts[2])
    assert revived.to_bytes() == reference.to_bytes()
    assert len(repacked(before)) == (3 if compiled else 0)

    # New hash functions over the same arrays: a fresh h1 and h4 for the
    # fingerprints, the trial hashes reordered for both Lemma 8 structures.
    before = entries()
    for target in (revived, reference):
        rng = random.Random(17)
        target._h1 = PairwiseHash(target.universe_size, target.universe_size, rng=rng)
        target._matrix._h4 = PairwiseHash(target._matrix._h4.universe_size, target.bins, rng=rng)
        target._small_exact._hashes = target._small_exact._hashes[::-1]
        target.rough._shared_hashes = target.rough._shared_hashes[::-1]
    _batched(revived, *parts[3], seed=18)
    _scalar(reference, *parts[3])
    assert revived.to_bytes() == reference.to_bytes()
    assert len(repacked(before)) == (3 if compiled else 0)

    del live, other, revived, before
    gc.collect()
    assert len(_PACKED) == baseline
