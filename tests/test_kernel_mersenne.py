"""The Mersenne fast paths of the compiled kernels, against big-int truth.

``_kernels.c`` evaluates the k-wise Horner over ``2^31 - 1`` in blocks of
eight ``u64`` lanes whenever a block's keys and the coefficients are all
below ``p``, and reduces every ``2^61 - 1`` product with one branch-free
fold.  These tests pin both to plain Python integer arithmetic:

* **2^31 - 1 Horner fuzz** — 1 to 20 coefficients, 0 to 70 keys (several
  full blocks and every tail length), keys at ``0, 1, p - 2, p - 1``, and
  with ``key_bound`` 2^32 or 2^33 blocks that mix keys below and above
  ``p``.
* **2^61 - 1 fuzz** — every kernel that reduces through the fold, with
  operands at the edges of its C envelope (field elements up to ``p - 1``,
  keys up to ``2^33 - 1``).
* **The raw C entry points** — the fold on every ``u64 x u64`` product,
  and the lane guard on coefficients outside the field.
* **A whole sketch** — ``knw-paper`` at ``(2^32, 0.05)``, whose bundle
  ``h3`` takes the lane path, ingests the same stream under every backend
  to identical ``to_bytes()``.

Every test runs on every backend that loads here.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.estimators.registry import make_f0_estimator
from repro.exceptions import KernelBackendError
from repro.kernels.compiled_backend import CompiledKernels

P31 = (1 << 31) - 1
P61 = (1 << 61) - 1
U64_MAX = (1 << 64) - 1
#: The widest keys the compiled wrappers keep on the C path for 2^61 - 1.
KEY_BOUND_61 = 1 << 33


def _loadable_backends():
    names = []
    for name in kernels.available_backends():
        try:
            kernels.load_backend(name)
        except KernelBackendError:
            continue
        names.append(name)
    return names


BACKENDS = _loadable_backends()

backend_param = pytest.mark.parametrize("backend_name", BACKENDS)

needs_compiled = pytest.mark.skipif(
    "compiled" not in BACKENDS, reason="compiled backend unavailable here"
)


@pytest.fixture
def restore_backend():
    """Snapshot and restore the process-wide backend selection."""
    saved_active = kernels._active
    saved_chosen = kernels._chosen_by
    yield
    kernels._active = saved_active
    kernels._chosen_by = saved_chosen


def _horner(coefficients, key, prime):
    acc = 0
    for coefficient in reversed(coefficients):
        acc = (acc * key + coefficient) % prime
    return acc


def _words(values):
    return np.asarray(values, dtype=np.uint64)


def _ptr(array):
    return ctypes.c_void_p(array.ctypes.data)


field31 = st.one_of(st.sampled_from([0, 1, P31 - 2, P31 - 1]), st.integers(0, P31 - 1))
#: Keys at and above p, up to 33 bits: past 32 bits a lane would truncate.
keys_above_p31 = st.one_of(
    st.sampled_from([P31, P31 + 1, (1 << 32) - 1, 1 << 32, (1 << 33) - 1]),
    st.integers(P31, (1 << 33) - 1),
)
field61 = st.one_of(st.sampled_from([0, 1, P61 - 2, P61 - 1]), st.integers(0, P61 - 1))
keys61 = st.one_of(
    st.sampled_from([0, 1, 2, (1 << 32) - 1, 1 << 32, KEY_BOUND_61 - 1]),
    st.integers(0, KEY_BOUND_61 - 1),
)
ranges = st.sampled_from([1, 2, 997, 1000, 1 << 10, (1 << 32) - 5, 1 << 64])
any_u64 = st.one_of(
    st.sampled_from([0, 1, P61 - 1, P61, P61 + 1, P61 + 2, 1 << 63, U64_MAX - 1, U64_MAX]),
    st.integers(0, U64_MAX),
)

#: Products whose limb sum reaches 2p or more, so that one conditional
#: subtract without the 64-bit fold would leave a value >= p.
FOLD_EDGES = [
    (P61, P61 + 2),
    ((1 << 62) - 1, (1 << 62) + 1),
    (U64_MAX, U64_MAX),
    (P61 - 1, P61 + 2),
    (1 << 63, 1 << 63),
]


# ---------------------------------------------------------------------------
# The lanes and the fold stay inside the wrappers' C envelope.
# ---------------------------------------------------------------------------


def test_fuzzed_bounds_are_the_c_envelope_edges():
    """The bounds below keep the compiled wrappers on their C path, and
    one more key bit would not (so the fuzz cannot silently go vacuous)."""
    assert CompiledKernels._mulmod_arrays_stays_word(P31, 1 << 32)
    assert CompiledKernels._mulmod_stays_word(P61 - 1, P61, KEY_BOUND_61)
    assert not CompiledKernels._mulmod_stays_word(P61 - 1, P61, 2 * KEY_BOUND_61)
    assert CompiledKernels._mulmod_arrays_stays_word(P61, KEY_BOUND_61)
    assert not CompiledKernels._mulmod_arrays_stays_word(P61, 2 * KEY_BOUND_61)


# ---------------------------------------------------------------------------
# 2^31 - 1: the lane-blocked Horner.
# ---------------------------------------------------------------------------


@backend_param
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_m31_horner_matches_bigint(backend_name, data):
    backend = kernels.load_backend(backend_name)
    k = data.draw(st.integers(1, 20), label="k")
    coefficients = data.draw(st.lists(field31, min_size=k, max_size=k))
    key_bound = data.draw(st.sampled_from([P31, 1 << 32, 1 << 33]), label="key_bound")
    keys = field31
    if key_bound > P31:
        keys = st.one_of(field31, keys_above_p31.filter(lambda key: key < key_bound))
    values = data.draw(st.lists(keys, max_size=70))
    range_size = data.draw(ranges)
    result = backend.kwise_mod_range(
        coefficients, _words(values), P31, key_bound, range_size
    )
    assert result.dtype == np.uint64
    assert result.tolist() == [
        _horner(coefficients, key, P31) % range_size for key in values
    ]


@backend_param
@pytest.mark.parametrize("length", [7, 8, 9, 16, 61])
def test_m31_lanes_end_on_the_unreduced_residue(backend_name, length):
    """Keys 1 and p - 1 (that is, -1) evaluate to 0 here, and the
    partly-reduced lanes hold p at the end: the final subtract must map
    it to 0 in every block position and in the tail."""
    backend = kernels.load_backend(backend_name)
    tail = [P31 - 1 - 7919 * j for j in range(1, 10)]
    sums_to_zero = [-sum(tail) % P31] + tail
    alternating = [-sum(c * (-1) ** j for j, c in enumerate(tail, 1)) % P31] + tail
    pattern = [1, P31 - 1, 0, P31 - 2, 2, 1, P31 - 1, 3]
    values = (pattern * 8)[:length]
    for coefficients, key in ((sums_to_zero, 1), (alternating, P31 - 1)):
        assert _horner(coefficients, key, P31) == 0
        result = backend.kwise_mod_range(
            coefficients, _words(values), P31, P31, 1000
        )
        assert result.tolist() == [
            _horner(coefficients, v, P31) % 1000 for v in values
        ]


# ---------------------------------------------------------------------------
# 2^61 - 1: every kernel that reduces through the fold.
# ---------------------------------------------------------------------------


@backend_param
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_m61_kernels_match_bigint(backend_name, data):
    backend = kernels.load_backend(backend_name)
    values = data.draw(st.lists(keys61, max_size=40))
    keys = _words(values)
    left = data.draw(st.lists(field61, min_size=len(values), max_size=len(values)))
    a = data.draw(field61, label="a")
    b = data.draw(field61, label="b")
    range_size = data.draw(ranges)
    k = data.draw(st.integers(1, 20), label="k")
    coefficients = data.draw(st.lists(field61, min_size=k, max_size=k))

    outputs = {
        "mulmod": backend.mulmod(a, keys, P61, KEY_BOUND_61),
        "affine_mod": backend.affine_mod(a, b, keys, P61, KEY_BOUND_61),
        "affine_mod_range": backend.affine_mod_range(
            a, b, keys, P61, KEY_BOUND_61, range_size
        ),
        "mulmod_arrays": backend.mulmod_arrays(
            _words(left), keys, P61, KEY_BOUND_61
        ),
        "kwise_mod_range": backend.kwise_mod_range(
            coefficients, keys, P61, KEY_BOUND_61, range_size
        ),
    }
    expected = {
        "mulmod": [(a * v) % P61 for v in values],
        "affine_mod": [(a * v + b) % P61 for v in values],
        "affine_mod_range": [(a * v + b) % P61 % range_size for v in values],
        "mulmod_arrays": [(x * v) % P61 for x, v in zip(left, values)],
        "kwise_mod_range": [
            _horner(coefficients, v, P61) % range_size for v in values
        ],
    }
    for kernel, result in outputs.items():
        assert result.dtype == np.uint64, kernel
        assert result.tolist() == expected[kernel], kernel


@backend_param
def test_m61_horner_step_summing_to_p(backend_name):
    """A last Horner step ``acc * key + c`` equal to p must give 0, not p."""
    backend = kernels.load_backend(backend_name)
    values = [KEY_BOUND_61 - 1, 1, 2, 5]
    for coefficients in (
        [P61 - (KEY_BOUND_61 - 1), 1],
        [P61 - 1, 1],
        [P61 - 2, 1],
        [P61 - 10, 2],
    ):
        result = backend.kwise_mod_range(
            coefficients, _words(values), P61, KEY_BOUND_61, 1 << 64
        )
        assert result.tolist() == [_horner(coefficients, v, P61) for v in values]


# ---------------------------------------------------------------------------
# The raw C entry points, past the wrappers' envelope.
# ---------------------------------------------------------------------------


def _raw_mulmod_m61(pairs):
    lib = kernels.load_backend("compiled")._lib
    left = _words([x for x, _ in pairs])
    right = _words([y for _, y in pairs])
    out = np.empty(len(pairs), dtype=np.uint64)
    lib.repro_mulmod_arrays(
        _ptr(left), _ptr(right), ctypes.c_int64(len(pairs)),
        ctypes.c_uint64(P61), ctypes.c_int(61), _ptr(out),
    )
    return out.tolist()


@needs_compiled
@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(any_u64, any_u64), max_size=40))
def test_m61_fold_is_exact_on_every_u64_product(pairs):
    """The fold is exact for any product below 2^128, including those
    whose top limb (bits 122 and up) is set."""
    assert _raw_mulmod_m61(pairs) == [(x * y) % P61 for x, y in pairs]


@needs_compiled
def test_m61_fold_limb_sums_past_2p():
    assert _raw_mulmod_m61(FOLD_EDGES) == [(x * y) % P61 for x, y in FOLD_EDGES]


@needs_compiled
@settings(max_examples=100, deadline=None)
@given(
    coefficients=st.lists(any_u64, min_size=1, max_size=12),
    values=st.lists(field31, min_size=8, max_size=40),
)
def test_m31_lanes_refuse_coefficients_outside_the_field(coefficients, values):
    """A coefficient >= p sends every block to the exact __int128 loop,
    which (with no range reduction) returns what big ints do."""
    lib = kernels.load_backend("compiled")._lib
    coeffs = _words(coefficients)
    keys = _words(values)
    out = np.empty(len(values), dtype=np.uint64)
    lib.repro_kwise_mod_range(
        _ptr(coeffs), ctypes.c_int64(len(coefficients)), _ptr(keys),
        ctypes.c_int64(len(values)), ctypes.c_uint64(P31), ctypes.c_int(31),
        ctypes.c_uint64(0), ctypes.c_int(0), _ptr(out),
    )
    expected = []
    for key in values:
        acc = coefficients[-1]
        for coefficient in reversed(coefficients[:-1]):
            acc = (acc * key + coefficient) % P31
        expected.append(acc)
    assert out.tolist() == expected


# ---------------------------------------------------------------------------
# A whole sketch whose bundle h3 takes the lane path.
# ---------------------------------------------------------------------------


@pytest.mark.skipif(len(BACKENDS) < 2, reason="only one backend available here")
def test_knw_paper_bytes_identical_across_backends(restore_backend):
    items = np.random.default_rng(17).integers(0, 1 << 32, size=200_000, dtype=np.uint64)
    blobs = {}
    for backend_name in BACKENDS:
        kernels.set_backend(backend_name)
        sketch = make_f0_estimator("knw-paper", 1 << 32, 0.05, seed=23)
        h3 = sketch.hashes.h3
        assert (h3._prime, h3.universe_size, h3.independence) == (P31, 1 << 30, 10)
        for chunk in np.array_split(items, 7):
            sketch.update_batch(chunk)
        blobs[backend_name] = sketch.to_bytes()
    assert len(set(blobs.values())) == 1, sorted(blobs)
