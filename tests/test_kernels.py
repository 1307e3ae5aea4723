"""Tests for the kernel backend seam (:mod:`repro.kernels`).

Three layers of coverage:

* **Fuzz against big-int ground truth** — every kernel primitive is pitted
  against a plain-Python reference built on exact ``int`` arithmetic, at
  u64 edge values (near ``2^64`` keys, Lemma-6-sized primes beyond
  ``2^52``, empty and single-element arrays), parametrized over every
  backend that can load in this environment.
* **Cross-backend bit-identity** — each backend must match the NumPy
  reference backend on values *and* dtypes, which is the hard contract
  the compiled backend's delegation rules implement.
* **Seam mechanics** — selection, fallback, forcing, and the
  ``require_backend`` / ``kernel_backend_info`` diagnostics.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels as kernels
from repro.exceptions import KernelBackendError
from repro.hashing.kwise import KWiseHash
from repro.hashing.primes import next_prime
from repro.hashing.uniform import PaghPaghHash
from repro.hashing.universal import PairwiseHash
from repro.kernels import numpy_backend

# ---------------------------------------------------------------------------
# Backend parametrization: every registered backend that loads here.
# ---------------------------------------------------------------------------


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


@pytest.fixture
def restore_backend():
    """Snapshot and restore the process-wide backend selection."""
    saved_active = kernels._active
    saved_chosen = kernels._chosen_by
    yield
    kernels._active = saved_active
    kernels._chosen_by = saved_chosen


def _backend(name):
    return kernels.load_backend(name)


# ---------------------------------------------------------------------------
# Strategies: u64 edge values and the primes the library actually draws.
# ---------------------------------------------------------------------------

U64_MAX = (1 << 64) - 1

#: Field moduli covering every reference code path: both Mersenne primes,
#: a small non-Mersenne prime, a Lemma-6-scale prime beyond 2^52, and a
#: large non-Mersenne prime beyond 2^62 (object-fallback territory).
PRIMES = [
    (1 << 31) - 1,
    (1 << 61) - 1,
    1_000_003,
    next_prime(1 << 52),
    next_prime(1 << 62),
]

edge_words = st.one_of(
    st.sampled_from(
        [0, 1, 2, (1 << 32) - 1, 1 << 32, (1 << 52) + 1, (1 << 63) - 1,
         1 << 63, U64_MAX - 1, U64_MAX]
    ),
    st.integers(min_value=0, max_value=U64_MAX),
)

word_lists = st.lists(edge_words, min_size=0, max_size=40)


def _keys_array(values):
    return np.asarray(values, dtype=np.uint64)


def _as_int_list(array):
    return [int(v) for v in (array.tolist() if hasattr(array, "tolist") else array)]


def _assert_matches_reference(backend_name, result, expected_ints):
    """Backend output must equal big-int ground truth, and match the NumPy
    backend bit-for-bit (values and dtype)."""
    assert _as_int_list(result) == expected_ints


# ---------------------------------------------------------------------------
# Fuzz: batched modular arithmetic vs. Python big-int ground truth.
# ---------------------------------------------------------------------------


@backend_param
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mulmod_matches_bigint(backend_name, data):
    backend = _backend(backend_name)
    prime = data.draw(st.sampled_from(PRIMES))
    values = data.draw(word_lists)
    multiplier = data.draw(st.integers(min_value=0, max_value=prime - 1))
    keys = _keys_array(values)
    key_bound = max(values, default=0) + 1
    result = backend.mulmod(multiplier, keys, prime, key_bound)
    _assert_matches_reference(
        backend_name, result, [(multiplier * k) % prime for k in values]
    )


@backend_param
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_affine_mod_range_matches_bigint(backend_name, data):
    backend = _backend(backend_name)
    prime = data.draw(st.sampled_from(PRIMES))
    values = data.draw(word_lists)
    a = data.draw(st.integers(min_value=0, max_value=prime - 1))
    b = data.draw(st.integers(min_value=0, max_value=prime - 1))
    range_size = data.draw(
        st.sampled_from([1, 2, 1 << 10, 1000, (1 << 32) - 5, 1 << 63])
    )
    keys = _keys_array(values)
    key_bound = max(values, default=0) + 1
    plain = backend.affine_mod(a, b, keys, prime, key_bound)
    fused = backend.affine_mod_range(a, b, keys, prime, key_bound, range_size)
    expected = [(a * k + b) % prime for k in values]
    _assert_matches_reference(backend_name, plain, expected)
    _assert_matches_reference(
        backend_name, fused, [v % range_size for v in expected]
    )


@backend_param
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kwise_mod_range_matches_bigint(backend_name, data):
    backend = _backend(backend_name)
    prime = data.draw(st.sampled_from(PRIMES))
    values = data.draw(word_lists)
    k = data.draw(st.integers(min_value=1, max_value=8))
    coefficients = [
        data.draw(st.integers(min_value=0, max_value=prime - 1)) for _ in range(k)
    ]
    range_size = data.draw(st.sampled_from([1, 2, 1 << 16, 997]))
    # Keys stay inside the field: the hash families always pair a universe
    # with a prime at least as large (field_prime_for_universe), and that
    # is the envelope in which every reference path is exact.
    values = [v % prime for v in values]
    keys = _keys_array(values)
    key_bound = prime
    result = backend.kwise_mod_range(coefficients, keys, prime, key_bound, range_size)
    expected = []
    for key in values:
        acc = 0
        for coefficient in reversed(coefficients):
            acc = (acc * key + coefficient) % prime
        expected.append(acc % range_size)
    _assert_matches_reference(backend_name, result, expected)


@backend_param
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mulmod_arrays_matches_bigint(backend_name, data):
    backend = _backend(backend_name)
    prime = data.draw(st.sampled_from(PRIMES))
    values = data.draw(word_lists)
    left = [data.draw(st.integers(min_value=0, max_value=prime - 1)) for _ in values]
    # Keep both factors inside the field: that is the domain every call
    # site uses (Horner accumulators and fingerprint weights), and the
    # envelope in which the reference's Barrett float path is exact.
    right = [v % prime for v in values]
    right_bound = prime
    left_arr = (
        np.asarray(left, dtype=np.uint64)
        if prime < (1 << 64)
        else np.asarray(left, dtype=object)
    )
    result = backend.mulmod_arrays(
        left_arr, _keys_array(right), prime, right_bound
    )
    _assert_matches_reference(
        backend_name, result, [(l * r) % prime for l, r in zip(left, right)]
    )


@backend_param
@settings(max_examples=60, deadline=None)
@given(values=word_lists, data=st.data())
def test_mod_range_matches_bigint(backend_name, values, data):
    backend = _backend(backend_name)
    range_size = data.draw(
        st.sampled_from([1, 2, 3, 1 << 10, (1 << 32) + 1, 1 << 63, 1 << 64, 1 << 70])
    )
    result = backend.mod_range(_keys_array(values), range_size)
    _assert_matches_reference(
        backend_name, result, [v % range_size for v in values]
    )


@backend_param
@settings(max_examples=60, deadline=None)
@given(values=word_lists, zero_value=st.integers(min_value=0, max_value=128))
def test_lsb64_batch_matches_bigint(backend_name, values, zero_value):
    backend = _backend(backend_name)
    result = backend.lsb64_batch(_keys_array(values), zero_value)
    expected = [
        (v & -v).bit_length() - 1 if v else zero_value for v in values
    ]
    _assert_matches_reference(backend_name, result, expected)


# ---------------------------------------------------------------------------
# Fuzz: grouped scatter reductions vs. scalar ground truth.
# ---------------------------------------------------------------------------


#: Moduli of the in-place residue scatter: a Lemma 8 prime, 2^31 - 1, the
#: first prime past 2^32 (past the reference's one-pass sum), 2^61 - 1,
#: the largest prime below 2^63 (the top of the word domain), and a prime
#: past 2^64 (object counters).
SCATTER_PRIMES = [
    653,
    (1 << 31) - 1,
    (1 << 32) + 15,
    (1 << 61) - 1,
    (1 << 63) - 25,
    next_prime(1 << 64),
]


# The residue scatter is the turnstile references' shared step (the
# compiled turnstile chains add in place), so it is checked on the
# reference alone.


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reference_grouped_residue_sums_matches_bigint(data):
    """In place: ``target[i] = (target[i] + r) % p`` per update, any order."""
    backend = numpy_backend
    prime = data.draw(st.sampled_from(SCATTER_PRIMES))
    residue = st.one_of(
        st.integers(0, prime - 1), st.integers(max(prime - 8, 0), prime - 1)
    )
    size = data.draw(st.integers(1, 8))
    start = data.draw(st.lists(residue, min_size=size, max_size=size))
    residues = data.draw(st.lists(residue, max_size=40))
    indices = data.draw(
        st.lists(st.integers(0, size - 1), min_size=len(residues), max_size=len(residues))
    )
    dtype = object if prime >= (1 << 63) else np.uint64
    # Word counters also take object residues (deltas beyond int64).
    residue_dtype = data.draw(st.sampled_from([dtype, object]))
    target = np.empty(size, dtype=dtype)
    target[:] = start
    addends = np.empty(len(residues), dtype=residue_dtype)
    addends[:] = residues
    assert backend.grouped_residue_sums(
        target, np.asarray(indices, dtype=np.int64), addends, prime
    ) is None
    expected = list(start)
    for index, value in zip(indices, residues):
        expected[index] = (expected[index] + value) % prime
    assert target.dtype == dtype
    assert [int(value) for value in target.tolist()] == expected
    if dtype == object:
        assert all(type(value) is int for value in target.tolist())


def test_reference_grouped_residue_sums_reduces_a_sum_equal_to_the_prime():
    """A counter's last sum landing exactly on ``p`` must read 0, not ``p``."""
    backend = numpy_backend
    for prime in SCATTER_PRIMES:
        dtype = object if prime >= (1 << 63) else np.uint64
        target = np.empty(3, dtype=dtype)
        target[:] = [prime - 1, 1, 5]
        addends = np.empty(3, dtype=dtype)
        addends[:] = [1, prime - 1, prime - 5]
        backend.grouped_residue_sums(
            target, np.asarray([0, 1, 2], dtype=np.int64), addends, prime
        )
        assert target.tolist() == [0, 0, 0], prime


@backend_param
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grouped_max_scatter_matches_scalar(backend_name, data):
    backend = _backend(backend_name)
    dtype = data.draw(
        st.sampled_from([np.uint8, np.uint16, np.uint32, np.uint64, np.int64])
    )
    cap = int(np.iinfo(dtype).max)
    low = -100 if dtype == np.int64 else 0
    size = data.draw(st.integers(min_value=1, max_value=16))
    n = data.draw(st.integers(min_value=0, max_value=40))
    index = [data.draw(st.integers(min_value=0, max_value=size - 1)) for _ in range(n)]
    values = [
        data.draw(st.integers(min_value=low, max_value=min(cap, 1 << 62)))
        for _ in range(n)
    ]
    target = np.zeros(size, dtype=dtype)
    backend.grouped_max_scatter(
        target,
        np.asarray(index, dtype=np.int64),
        np.asarray(values, dtype=np.int64),
    )
    expected = [0] * size
    for g, v in zip(index, values):
        expected[g] = max(expected[g], v)
    assert target.tolist() == expected


@backend_param
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grouped_or_scatter_matches_scalar(backend_name, data):
    backend = _backend(backend_name)
    size = data.draw(st.integers(min_value=1, max_value=16))
    n = data.draw(st.integers(min_value=0, max_value=40))
    index = [data.draw(st.integers(min_value=0, max_value=size - 1)) for _ in range(n)]
    masks = [data.draw(st.integers(min_value=0, max_value=255)) for _ in range(n)]
    target = np.zeros(size, dtype=np.uint8)
    backend.grouped_or_scatter(
        target,
        np.asarray(index, dtype=np.int64),
        np.asarray(masks, dtype=np.uint8),
    )
    expected = [0] * size
    for g, m in zip(index, masks):
        expected[g] |= m
    assert target.tolist() == expected


# ---------------------------------------------------------------------------
# The fused KNW chain against its reference composition.
# ---------------------------------------------------------------------------

#: Universes whose pairwise hashes cover every prime reduction of the chain:
#: small primes (universe <= 2^20), 2^31 - 1, 2^61 - 1 and a 62-bit prime
#: (the __int128 division).
CHAIN_UNIVERSES = [1 << 12, 1 << 20, (1 << 31) - 1, 1 << 32, 1 << 62]


def _chain_h3(kind, domain, range_size, rng):
    """``h3`` in each form the kernel reads: a polynomial, a filled-on-demand
    table, a complete table, or a polynomial over ``2^31 - 1`` whose domain
    reaches past ``p`` (so a lane block holds keys at or above ``p``)."""
    if kind == "pagh-pagh":
        return PaghPaghHash(domain, range_size, 2 * range_size, rng)
    if kind == "past-p":
        h3 = KWiseHash((1 << 31) - 1, range_size, 10, rng=rng)
        # No constructor draws a domain past its prime; the reference's
        # Horner is exact up to the declared bound, so both sides agree.
        h3.universe_size = domain
        return h3
    return KWiseHash(domain, range_size, 2 * range_size if kind == "table" else 10, rng=rng)


@backend_param
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_hashed_max_scatter_matches_reference(backend_name, data):
    """Target and bit buffer equal the reference's, byte for byte."""
    backend = _backend(backend_name)
    universe = data.draw(st.sampled_from(CHAIN_UNIVERSES), label="universe")
    kind = data.draw(st.sampled_from(["polynomial", "table", "pagh-pagh", "past-p"]))
    rng = random.Random(data.draw(st.integers(0, 1 << 30), label="seed"))
    range_size = data.draw(st.sampled_from([8, 20, 32, 1024]), label="h3 range")
    domain = {
        "polynomial": data.draw(st.sampled_from([1 << 18, 1 << 24, 1 << 30, 1 << 33])),
        "table": range_size**3 if range_size <= 40 else 1 << 16,
        "pagh-pagh": range_size**3 if range_size <= 40 else 1 << 16,
        "past-p": 1 << 33,
    }[kind]
    h3 = _chain_h3(kind, domain, range_size, rng)
    h2 = PairwiseHash(universe, domain, rng=rng)
    # h1 is affine with a root x0 inside the universe: h1(x0) = 0, lsb(0).
    probe = PairwiseHash(universe, universe, rng=rng)
    a, p1 = probe._a, probe._prime
    root = rng.randrange(universe)
    h1 = KWiseHash(universe, universe, 2, coefficients=[(-a * root) % p1, a])
    level_limit = max((universe - 1).bit_length(), 1)
    size = data.draw(st.integers(0, 40), label="keys")
    keys = data.draw(
        st.lists(
            st.one_of(
                st.integers(0, universe - 1),
                st.sampled_from([0, 1, root, universe - 1]),
            ),
            min_size=size,
            max_size=size,
        )
    )
    keys = np.asarray(keys, dtype=np.uint64)
    if kind == "table":
        # Warm part of the table, so the batch both hits and misses.
        h3.hash_batch_validated(h2.hash_batch_validated(keys[: len(keys) // 2]))
    if data.draw(st.booleans(), label="signed"):
        # Figure 3: offsets C - b, floored at -1; a deep base floors most.
        dtype, floor = np.int8, -1
        offset = -data.draw(st.integers(0, level_limit + 2), label="base")
        start = data.draw(st.lists(st.integers(-1, 20), min_size=32, max_size=32))
    else:
        # A Figure 2 copy: stored values lsb + 1.
        dtype, offset, floor = np.uint8, 1, 0
        start = data.draw(st.lists(st.integers(0, 20), min_size=32, max_size=32))
    m = min(32, range_size)
    target = np.asarray(start[:m], dtype=dtype)
    expected = target.copy()
    bits = expected_bits = None
    if data.draw(st.booleans(), label="bits"):
        length = (range_size + 7) // 8
        initial = data.draw(st.binary(min_size=length, max_size=length))
        bits = np.frombuffer(bytearray(initial), dtype=np.uint8)
        expected_bits = bits.copy()
    backend.hashed_max_scatter(target, keys, h1, h2, h3, offset, floor, level_limit, bits)
    numpy_backend.hashed_max_scatter(
        expected, keys, h1, h2, h3, offset, floor, level_limit, expected_bits
    )
    assert target.tobytes() == expected.tobytes()
    if bits is not None:
        assert bits.tobytes() == expected_bits.tobytes()
    if kind == "table":
        table = h3.word_form()[3]
        filled = np.flatnonzero(table != np.uint64((1 << 64) - 1))
        assert table[filled].tolist() == [h3(int(x)) for x in filled]


# ---------------------------------------------------------------------------
# The turnstile chains of knw-l0 against big-int scalar loops.
# ---------------------------------------------------------------------------

I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1

#: Counter moduli: tiny primes, a Lemma 8 prime, both Mersenne primes, the
#: largest prime below 2^63 (the top of the word domain) and the first one
#: past it (object counters, the reference's exact path).
COUNTER_PRIMES = [2, 3, 653, (1 << 31) - 1, (1 << 61) - 1, (1 << 63) - 25, next_prime(1 << 63)]

#: Ranges at the reduction's edges: powers of two and not, 1, and the
#: 10,000 buckets of a capacity-100 Lemma 8 structure.
COUNTER_RANGES = [1, 3, 7, 8, 12, 100, 10_000]


def _level_hash(universe, rng):
    """An affine ``h1`` with a root inside the universe (``lsb(0)``)."""
    probe = PairwiseHash(universe, universe, rng=rng)
    a, prime = probe._a, probe._prime
    root = rng.randrange(universe)
    return KWiseHash(universe, universe, 2, coefficients=[(-a * root) % prime, a]), root


def _row(h1, key, level_limit, rows):
    if h1 is None:
        return 0
    word = h1(key)
    return min((word & -word).bit_length() - 1 if word else level_limit, rows - 1)


def _turnstile_deltas(data, size, primes):
    """Deltas 0, +-1, +-(p - 1) for a counter prime, the int64 extremes and
    arbitrary words; or, sometimes, an object array past int64."""
    if data.draw(st.booleans(), label="object deltas"):
        values = data.draw(
            st.lists(st.integers(-(1 << 70), 1 << 70), min_size=size, max_size=size)
        )
        deltas = np.empty(size, dtype=object)
        deltas[:] = values
        return deltas
    edges = [0, 1, -1, I64_MIN, I64_MAX] + [
        sign * (p - 1) for p in primes if p - 1 <= I64_MAX for sign in (1, -1)
    ]
    values = data.draw(
        st.lists(
            st.one_of(st.sampled_from(edges), st.integers(I64_MIN, I64_MAX)),
            min_size=size,
            max_size=size,
        )
    )
    return np.asarray(values, dtype=np.int64)


def _counters(rng, primes, shape):
    """Residue counters below each row's prime, some zero, in the dtype the
    structures use: ``uint64`` below ``2^63``, object above."""
    dtype = np.uint64 if max(primes) < (1 << 63) else object
    counters = np.empty(shape, dtype=dtype)
    for row, prime in enumerate(primes):
        values = [rng.randrange(prime) if rng.random() < 0.7 else 0 for _ in counters[row].flat]
        counters[row] = np.asarray(values, dtype=object).reshape(counters[row].shape)
    return counters


def _keys_with_edges(data, universe, root, range_size):
    """Keys in the universe, with ``h1``'s root and the multiples of a
    range, one below and one above, when the identity hash is in play."""
    edges = [0, 1, root, universe - 1]
    for multiple in (range_size, range_size * 1000, (universe - 1) // range_size * range_size):
        edges += [v for v in (multiple - 1, multiple, multiple + 1) if 0 <= v < universe]
    size = data.draw(st.integers(0, 80), label="keys")
    keys = data.draw(
        st.lists(
            st.one_of(st.integers(0, universe - 1), st.sampled_from(edges)),
            min_size=size,
            max_size=size,
        )
    )
    return np.asarray(keys, dtype=np.uint64)


@backend_param
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_hashed_residue_scatter_matches_scalar_loop(backend_name, data):
    """Lemma 8 bucket arrays: counters and counts equal the big-int loop's
    and the reference's, with one prime per row."""
    backend = _backend(backend_name)
    universe = data.draw(st.sampled_from(CHAIN_UNIVERSES), label="universe")
    rng = random.Random(data.draw(st.integers(0, 1 << 30), label="seed"))
    level_limit = max((universe - 1).bit_length(), 1)
    rows = data.draw(st.integers(1, 5), label="rows")
    splitter, root = _level_hash(universe, rng) if rows > 1 else (None, 0)
    buckets = data.draw(st.sampled_from(COUNTER_RANGES), label="buckets")
    trials = data.draw(st.integers(1, 4), label="trials")
    # One trial is the identity ``x mod buckets`` (through its field), so
    # the keys below hit the range reduction at its edges.
    hashes = [KWiseHash(universe, buckets, 2, coefficients=[0, 1])] + [
        PairwiseHash(universe, buckets, rng=rng) for _ in range(trials - 1)
    ]
    primes = data.draw(
        st.lists(st.sampled_from(COUNTER_PRIMES), min_size=rows, max_size=rows), label="primes"
    )
    counters = _counters(rng, primes, (rows, trials, buckets))
    counts = np.count_nonzero(counters, axis=2).reshape(-1).astype(np.int64)
    keys = _keys_with_edges(data, universe, root, buckets)
    deltas = _turnstile_deltas(data, len(keys), primes)
    expected = [[[int(v) for v in trial] for trial in row] for row in counters.tolist()]
    for key, delta in zip(keys.tolist(), deltas.tolist()):
        row = _row(splitter, key, level_limit, rows)
        for trial, hash_function in enumerate(hashes):
            bucket = hash_function(key)
            expected[row][trial][bucket] = (expected[row][trial][bucket] + delta) % primes[row]
    reference, reference_counts = counters.copy(), counts.copy()
    backend.hashed_residue_scatter(
        counters, counts, keys, deltas, splitter, hashes, primes, level_limit
    )
    numpy_backend.hashed_residue_scatter(
        reference, reference_counts, keys, deltas, splitter, hashes, primes, level_limit
    )
    assert counters.tolist() == expected
    assert reference.tolist() == expected
    assert counters.dtype == reference.dtype
    assert counts.tolist() == reference_counts.tolist() == [
        sum(1 for value in trial if value) for row in expected for trial in row
    ]


@backend_param
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_hashed_fingerprint_scatter_matches_scalar_loop(backend_name, data):
    """Lemma 6 fingerprints sharing ``h1``/``h2``/``h3``: every structure's
    cells and counts equal the big-int loop's and the reference's, for
    every ``h3`` form the chain reads, a one-row structure beside a split
    one, and a structure with object cells beside word ones."""
    backend = _backend(backend_name)
    universe = data.draw(st.sampled_from(CHAIN_UNIVERSES), label="universe")
    rng = random.Random(data.draw(st.integers(0, 1 << 30), label="seed"))
    level_limit = max((universe - 1).bit_length(), 1)
    h1, root = _level_hash(universe, rng)
    kind = data.draw(st.sampled_from(["polynomial", "table", "pagh-pagh", "past-p"]))
    range_size = data.draw(st.sampled_from([8, 20, 32, 1024]), label="h3 range")
    domain = {
        "polynomial": data.draw(st.sampled_from([1 << 18, 1 << 30, (1 << 30) + 3, 1 << 33])),
        "table": range_size**3 if range_size <= 40 else 1 << 16,
        "pagh-pagh": range_size**3 if range_size <= 40 else 1 << 16,
        "past-p": 1 << 33,
    }[kind]
    h3 = _chain_h3(kind, domain, range_size, rng)
    h2 = PairwiseHash(universe, domain, rng=rng)
    structures = []
    for _ in range(data.draw(st.integers(1, 2), label="structures")):
        rows = data.draw(st.integers(1, 5), label="rows")
        columns = data.draw(st.sampled_from([1, 3, 6, 8, 12, 32]), label="columns")
        weight_domain = data.draw(st.sampled_from([7, 1000, columns**3, domain]), label="U4")
        h4 = PairwiseHash(weight_domain, columns, rng=rng)
        prime = data.draw(st.sampled_from(COUNTER_PRIMES), label="prime")
        cells = _counters(rng, [prime] * rows, (rows, columns))
        weights = _counters(rng, [prime], (1, columns))[0]
        counts = np.count_nonzero(cells, axis=1).astype(np.int64)
        structures.append((cells, counts, h4, weights, prime))
    keys = _keys_with_edges(data, universe, root, structures[0][0].shape[1])
    if kind == "table":
        # Warm part of the table, so the batch both hits and misses.
        h3.hash_batch_validated(h2.hash_batch_validated(keys[: len(keys) // 2]))
    deltas = _turnstile_deltas(data, len(keys), [s[4] for s in structures])
    expected = [[[int(v) for v in row] for row in s[0].tolist()] for s in structures]
    for key, delta in zip(keys.tolist(), deltas.tolist()):
        spread = h2(key)
        for grid, (cells, _, h4, weights, prime) in zip(expected, structures):
            rows, columns = cells.shape
            row, column = _row(h1, key, level_limit, rows), h3(spread) % columns
            weight = int(weights[h4(spread % h4.universe_size)])
            grid[row][column] = (grid[row][column] + delta * weight) % prime
    reference = [(cells.copy(), counts.copy(), *rest) for cells, counts, *rest in structures]
    backend.hashed_fingerprint_scatter(keys, deltas, h1, h2, h3, level_limit, structures)
    numpy_backend.hashed_fingerprint_scatter(keys, deltas, h1, h2, h3, level_limit, reference)
    for grid, (cells, counts, *_), (ref_cells, ref_counts, *_) in zip(
        expected, structures, reference
    ):
        assert cells.tolist() == ref_cells.tolist() == grid
        assert cells.dtype == ref_cells.dtype
        assert counts.tolist() == ref_counts.tolist() == [
            sum(1 for value in row if value) for row in grid
        ]


# ---------------------------------------------------------------------------
# Cross-backend bit-identity: values AND dtypes must match the reference.
# ---------------------------------------------------------------------------


@backend_param
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_backend_bit_identical_to_numpy_reference(backend_name, data):
    backend = _backend(backend_name)
    prime = data.draw(st.sampled_from(PRIMES))
    values = data.draw(word_lists)
    a = data.draw(st.integers(min_value=0, max_value=prime - 1))
    b = data.draw(st.integers(min_value=0, max_value=prime - 1))
    keys = _keys_array(values)
    key_bound = 1 << 64
    for kernel, args in [
        ("mulmod", (a, keys, prime, key_bound)),
        ("affine_mod", (a, b, keys, prime, key_bound)),
        ("affine_mod_range", (a, b, keys, prime, key_bound, 1 << 20)),
        ("kwise_mod_range", ([a, b, 1], keys, prime, key_bound, 997)),
        ("mod_range", (keys, 1000)),
        ("lsb64_batch", (keys, 64)),
    ]:
        mine = getattr(backend, kernel)(*args)
        reference = getattr(numpy_backend, kernel)(*args)
        assert mine.dtype == reference.dtype, kernel
        assert mine.tolist() == reference.tolist(), kernel


def test_empty_and_single_element_arrays():
    prime = (1 << 61) - 1
    for backend_name in BACKENDS:
        backend = _backend(backend_name)
        empty = np.empty(0, dtype=np.uint64)
        single = np.asarray([U64_MAX], dtype=np.uint64)
        assert backend.mulmod(7, empty, prime, 1 << 64).tolist() == []
        assert backend.affine_mod_range(3, 5, empty, prime, 1 << 64, 8).tolist() == []
        assert backend.lsb64_batch(empty, 9).tolist() == []
        counters = np.asarray([[5, 0, prime - 1]], dtype=np.uint64)
        counts = np.asarray([2], dtype=np.int64)
        backend.hashed_residue_scatter(
            counters[None], counts, empty, np.empty(0, dtype=np.int64), None,
            [PairwiseHash(1 << 10, 3, rng=random.Random(1))], [prime], 10,
        )
        assert counters.tolist() == [[5, 0, prime - 1]] and counts.tolist() == [2]
        assert backend.mulmod(7, single, prime, 1 << 64).tolist() == [
            (7 * U64_MAX) % prime
        ]
        target = np.zeros(2, dtype=np.uint8)
        backend.grouped_max_scatter(
            target, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert target.tolist() == [0, 0]


# ---------------------------------------------------------------------------
# End-to-end: estimator state words are bit-identical across backends.
# ---------------------------------------------------------------------------


@pytest.mark.skipif(len(BACKENDS) < 2, reason="only one backend available here")
def test_estimator_state_bit_identical_across_backends(restore_backend):
    from repro.l0.knw_l0 import KNWHammingNormEstimator
    from repro.serialize import snapshot

    states = {}
    for backend_name in BACKENDS:
        kernels.set_backend(backend_name)
        estimator = KNWHammingNormEstimator(universe_size=1 << 16, eps=0.5, seed=7)
        items = [(i * 2654435761) % (1 << 16) for i in range(4000)]
        deltas = [1 if i % 3 else -1 for i in range(4000)]
        estimator.update_batch(items, deltas)
        states[backend_name] = snapshot(estimator)
    reference = states["numpy"]
    for backend_name, state in states.items():
        assert state == reference, backend_name


# ---------------------------------------------------------------------------
# Seam mechanics: selection, forcing, fallback, diagnostics.
# ---------------------------------------------------------------------------


def test_available_backends_lists_registry():
    assert kernels.available_backends() == ["compiled", "numpy"]


def test_load_backend_unknown_name_raises():
    with pytest.raises(KernelBackendError, match="unknown kernel backend"):
        kernels.load_backend("cuda")


def test_set_backend_and_info(restore_backend):
    backend = kernels.set_backend("numpy")
    assert backend.name == "numpy"
    assert kernels.get_backend() == "numpy"
    info = kernels.kernel_backend_info()
    assert info["name"] == "numpy"
    assert info["chosen_by"] == "set_backend"
    assert info["available"]["numpy"] is True
    assert set(info["available"]) == {"compiled", "numpy"}


def test_set_backend_unknown_preserves_active(restore_backend):
    kernels.set_backend("numpy")
    with pytest.raises(KernelBackendError):
        kernels.set_backend("nope")
    assert kernels.get_backend() == "numpy"


def test_require_backend_messages():
    kernels.require_backend("numpy", "this test")  # loads fine: no raise
    with pytest.raises(KernelBackendError, match="this test requires"):
        kernels.require_backend("missing-backend", "this test")


def _run_with_env(code, **env):
    merged = dict(os.environ)
    merged.update(env)
    merged["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=merged,
    )


def test_env_var_selects_backend():
    result = _run_with_env(
        "import repro.kernels as k; print(k.get_backend())",
        REPRO_KERNEL_BACKEND="numpy",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "numpy"


def test_forced_compiled_unavailable_raises_not_falls_back(tmp_path):
    # Simulate a machine with no C toolchain: empty PATH and no CC.  The
    # explicit REPRO_KERNEL_BACKEND=compiled must raise, never fall back.
    result = _run_with_env(
        "import repro.kernels as k\n"
        "try:\n"
        "    k.active()\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__)\n",
        REPRO_KERNEL_BACKEND="compiled",
        REPRO_KERNEL_BUILD_DIR=str(tmp_path),
        PATH="",
        CC="",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "KernelBackendError"


def test_auto_falls_back_with_single_warning_when_compiled_unavailable(tmp_path):
    result = _run_with_env(
        "import warnings\n"
        "import repro.kernels as k\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    k.active(); k.active()\n"
        "print(k.get_backend())\n"
        "print(sum('compiled backend unavailable' in str(w.message)"
        " for w in caught))\n",
        REPRO_KERNEL_BACKEND="auto",
        REPRO_KERNEL_BUILD_DIR=str(tmp_path),
        PATH="",
        CC="",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["numpy", "1"]

