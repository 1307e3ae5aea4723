"""Batch hash evaluation and batch plumbing: exactness tests.

The vectorized estimators stand on two foundations checked here:

* every hash family's ``hash_batch`` agrees with its scalar ``__call__``
  on every key, across the modulus regimes the batched field arithmetic
  distinguishes (word-sized primes, the two Mersenne fast paths, the
  float-Barrett window, and the object-array fallback for cubed universes
  beyond ``2^61``);
* the batch plumbing (streams chunking, the experiment runner's
  ``batch_size`` mode, the bulk bit-structure operations) is faithful to
  its scalar counterpart.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.bitstructs.bitvector import BitVector
from repro.analysis.runner import run_f0, run_f0_by_name
from repro.core.hashes import F0HashBundle
from repro.estimators.registry import make_f0_estimator
from repro.exceptions import ParameterError
from repro.hashing.bitops import lsb, lsb_batch, rho_batch
from repro.hashing.kwise import KWiseHash
from repro.hashing.random_oracle import RandomOracle
from repro.hashing.siegel import SiegelHash
from repro.hashing.uniform import PaghPaghHash
from repro.hashing.universal import MultiplyShiftHash, PairwiseHash
from repro.streams.generators import iter_item_chunks, uniform_random_stream
from repro.vectorize import as_delta_array, as_key_array, hashed_max_scatter


def _sample_keys(universe_size: int, count: int, seed: int):
    rng = random.Random(seed)
    keys = [rng.randrange(universe_size) for _ in range(count)]
    keys.extend([0, universe_size - 1])
    return keys


HASH_CASES = [
    # (label, factory, universe)
    ("pairwise-tiny-prime", lambda r: PairwiseHash(1000, 37, rng=r), 1000),
    ("pairwise-mersenne31", lambda r: PairwiseHash(1 << 24, 1 << 20, rng=r), 1 << 24),
    ("pairwise-mersenne61", lambda r: PairwiseHash(1 << 20, (1 << 20) ** 3, rng=r), 1 << 20),
    ("pairwise-giant-prime", lambda r: PairwiseHash(1 << 22, (1 << 22) ** 3, rng=r), 1 << 22),
    ("mshift", lambda r: MultiplyShiftHash(1 << 20, 1 << 10, rng=r), 1 << 20),
    ("mshift-64bit-word", lambda r: MultiplyShiftHash(1 << 32, 1 << 12, rng=r), 1 << 32),
    ("kwise-mersenne31", lambda r: KWiseHash(1 << 30, 1024, 12, rng=r), 1 << 30),
    ("kwise-mersenne61", lambda r: KWiseHash(1 << 33, 4096, 14, rng=r), 1 << 33),
    ("kwise-small-prime", lambda r: KWiseHash(65000, 64, 8, rng=r), 65000),
    ("pagh-pagh-table", lambda r: PaghPaghHash(32768, 32, 64, r), 32768),
    ("pagh-pagh-beyond-table", lambda r: PaghPaghHash(1 << 20, 300, 64, r), 1 << 20),
    ("oracle-pow2", lambda r: RandomOracle(1 << 20, 1 << 44, seed=99), 1 << 20),
    ("oracle-non-pow2", lambda r: RandomOracle(1 << 20, 999, seed=98), 1 << 20),
    ("oracle-beyond-word", lambda r: RandomOracle(1 << 60, 1 << 70, seed=97), 1 << 60),
]


@pytest.mark.parametrize(
    "label,factory,universe", HASH_CASES, ids=[case[0] for case in HASH_CASES]
)
def test_hash_batch_matches_scalar(label, factory, universe):
    hasher = factory(random.Random(12345))
    keys = _sample_keys(universe, 400, seed=7)
    scalar = [hasher(key) for key in keys]
    batch = hasher.hash_batch(np.asarray(keys, dtype=np.uint64))
    assert [int(value) for value in batch.tolist()] == scalar


@pytest.mark.parametrize("family", [SiegelHash])
def test_lazy_families_draw_in_first_occurrence_order(family):
    """Batch evaluation must consume the RNG exactly like the scalar walk."""
    scalar_hash = family(10_000, 256, rng=random.Random(55))
    batch_hash = family(10_000, 256, rng=random.Random(55))
    keys = _sample_keys(300, 500, seed=3)
    scalar = [scalar_hash(key) for key in keys]
    batch = batch_hash.hash_batch(np.asarray(keys, dtype=np.uint64)).tolist()
    assert batch == scalar
    assert scalar_hash._memo == batch_hash._memo


def test_modular_arithmetic_branches_are_exact():
    """Directly exercise every strategy in repro.vectorize's exact batched
    field arithmetic — including the float-Barrett and generic-split
    branches that the library's own prime selection rarely reaches."""
    from repro.hashing.primes import MERSENNE_31, MERSENNE_61, next_prime
    from repro.vectorize import affine_mod, mulmod, mulmod_arrays

    rng = random.Random(77)
    cases = [
        # (prime, key_bound) chosen to hit: direct, Mersenne fold/limb,
        # float-Barrett (non-Mersenne prime < 2^52 with products >= 2^64),
        # generic high/low split, and the object fallback.
        (97, 97),                                  # direct tiny
        (next_prime(1 << 20), 1 << 20),            # direct word-sized
        (MERSENNE_31, 1 << 24),                    # Mersenne fold
        (MERSENNE_61, 1 << 20),                    # Mersenne limb split
        (MERSENNE_61, 1 << 33),                    # Mersenne, wide keys
        (next_prime(1 << 40), 1 << 25),            # float-Barrett (arrays)
        (next_prime(1 << 40), 1 << 32),            # generic split (scalar)
        (next_prime(1 << 51), 1 << 20),            # Barrett near its bound
        (next_prime(1 << 70), 1 << 34),            # object fallback
    ]
    for prime, key_bound in cases:
        keys_list = [rng.randrange(min(key_bound, prime)) for _ in range(257)]
        keys_list += [0, min(key_bound, prime) - 1]
        if prime < (1 << 63):
            keys = np.asarray(keys_list, dtype=np.uint64)
        else:
            keys = np.empty(len(keys_list), dtype=object)
            keys[:] = keys_list
        multiplier = rng.randrange(prime)
        offset = rng.randrange(prime)
        got_mul = mulmod(multiplier, keys, prime, key_bound)
        assert [int(v) for v in got_mul.tolist()] == [
            (multiplier * key) % prime for key in keys_list
        ], "mulmod wrong for prime=%d key_bound=%d" % (prime, key_bound)
        got_affine = affine_mod(multiplier, offset, keys, prime, key_bound)
        assert [int(v) for v in got_affine.tolist()] == [
            (multiplier * key + offset) % prime for key in keys_list
        ], "affine_mod wrong for prime=%d key_bound=%d" % (prime, key_bound)
        left_list = [rng.randrange(prime) for _ in keys_list]
        if prime < (1 << 63):
            left = np.asarray(left_list, dtype=np.uint64)
        else:
            left = np.empty(len(left_list), dtype=object)
            left[:] = left_list
        got_arrays = mulmod_arrays(left, keys, prime, key_bound)
        assert [int(v) for v in got_arrays.tolist()] == [
            (l * key) % prime for l, key in zip(left_list, keys_list)
        ], "mulmod_arrays wrong for prime=%d key_bound=%d" % (prime, key_bound)


def test_runner_scalar_skips_position_zero_checkpoints():
    """A checkpoint at position 0 must not stall the scalar checkpoint
    queue (regression: it previously blocked every later checkpoint), and
    batched runs must agree."""
    stream = uniform_random_stream(1 << 16, 1000, seed=8)
    scalar = run_f0_by_name(
        "hyperloglog", stream, eps=0.1, seed=2, checkpoint_positions=[0, 500]
    )
    batched = run_f0_by_name(
        "hyperloglog", stream, eps=0.1, seed=2,
        checkpoint_positions=[0, 500], batch_size=128,
    )
    assert [c.position for c in scalar.checkpoints] == [500]
    assert [c.position for c in batched.checkpoints] == [500]
    assert scalar.checkpoints[0].estimate == batched.checkpoints[0].estimate


def test_hash_batch_rejects_out_of_universe_keys():
    hasher = PairwiseHash(1 << 16, 1 << 10, rng=random.Random(1))
    with pytest.raises(ParameterError):
        hasher.hash_batch(np.asarray([1, 1 << 16], dtype=np.uint64))


def test_lsb_batch_matches_scalar():
    rng = random.Random(4)
    values = [0, 1, 2, 3, 8, (1 << 63), (1 << 64) - 2]
    values += [rng.randrange(1, 1 << 64) for _ in range(200)]
    got = lsb_batch(np.asarray(values, dtype=np.uint64), zero_value=77)
    expected = [lsb(value, zero_value=77) for value in values]
    assert got.tolist() == expected
    rho = rho_batch(np.asarray(values, dtype=np.uint64), zero_value=77)
    assert rho.tolist() == [value + 1 for value in expected]


def test_hash_bundle_batch_forms_match_scalar():
    """The bundle's batch form, the fused kernel, reads the scalar level and bins."""
    bundle = F0HashBundle(1 << 20, 256, eps_hint=0.0625, seed=13)
    keys = _sample_keys(1 << 20, 300, seed=5)
    counters = np.full(bundle.bins, -1, dtype=np.int8)
    bits = np.zeros(bundle.extended_bins // 8, dtype=np.uint8)
    hashed_max_scatter(
        counters,
        np.asarray(keys, dtype=np.uint64),
        bundle.h1,
        bundle.h2,
        bundle.h3,
        0,
        -1,
        bundle.level_limit,
        bits,
    )
    expected = [-1] * bundle.bins
    for key in keys:
        index = bundle.main_bin(key)
        expected[index] = max(expected[index], bundle.level(key))
    assert counters.tolist() == expected
    set_bits = np.flatnonzero(np.unpackbits(bits, bitorder="little")).tolist()
    assert set_bits == sorted({bundle.extended_bin(key) for key in keys})


def test_as_key_array_validation():
    assert as_key_array([1, 2, 3], 10).dtype == np.uint64
    with pytest.raises(ParameterError):
        as_key_array([1, -2], 10)
    with pytest.raises(ParameterError):
        as_key_array([1, 10], 10)
    with pytest.raises(ParameterError):
        as_key_array(["a"], 10)
    # zero-copy for uint64 input
    array = np.asarray([4, 5], dtype=np.uint64)
    assert as_key_array(array, 10) is array


def test_as_delta_array_keeps_every_int_exact():
    for deltas in ([-1, 2**63], [1, 2**63], [2**63, -(2**63)], [-1, 2**64]):
        assert as_delta_array(deltas).tolist() == deltas
    assert as_delta_array([1, -2]).dtype == np.int64
    with pytest.raises(ParameterError):
        as_delta_array([1, 2.5])
    with pytest.raises(ParameterError):
        as_delta_array([2**63, 0.5])


def test_as_key_array_keeps_every_word_exact():
    """Ids on both sides of 2^63 stay exact ``uint64`` keys, not floats."""
    for items in ([1, 2**63], [0, 2**64 - 1]):
        keys = as_key_array(items, 1 << 64)
        assert keys.dtype == np.uint64
        assert keys.tolist() == items
    with pytest.raises(ParameterError):
        as_key_array([1, 2.5], 1 << 64)
    with pytest.raises(ParameterError):
        as_key_array([-1, 2**63], 1 << 64)


@pytest.mark.parametrize("name", ["knw-paper", "hyperloglog"])
def test_word_ids_past_2_63_batch_like_the_scalar_loop(name):
    items = [1, 2**63, 2**64 - 1]
    scalar = make_f0_estimator(name, 1 << 64, 0.1, 5)
    batched = make_f0_estimator(name, 1 << 64, 0.1, 5)
    for item in items:
        scalar.update(item)
    batched.update_batch(items)
    assert batched.to_bytes() == scalar.to_bytes()


def test_bitvector_set_many_matches_loop():
    scalar = BitVector(128)
    batched = BitVector(128)
    rng = random.Random(9)
    positions = [rng.randrange(128) for _ in range(300)]
    for position in positions:
        scalar.set(position, 1)
    batched.set_many(positions)
    assert scalar.to_list() == batched.to_list()
    assert scalar.count_ones() == batched.count_ones()


def test_iter_item_chunks_covers_everything_in_order():
    items = list(range(10))
    chunks = list(iter_item_chunks(iter(items), 4))
    assert [chunk.tolist() for chunk in chunks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert all(chunk.dtype == np.uint64 for chunk in chunks)
    with pytest.raises(ParameterError):
        list(iter_item_chunks(items, 0))


def test_stream_item_batches_are_views():
    stream = uniform_random_stream(1 << 16, 1000, seed=21)
    batches = list(stream.iter_item_batches(256))
    assert sum(len(batch) for batch in batches) == 1000
    rebuilt = np.concatenate(batches)
    assert rebuilt.tolist() == [update.item for update in stream]
    assert batches[0].base is stream.item_array()


def test_runner_batched_equals_scalar_run():
    stream = uniform_random_stream(1 << 16, 5000, seed=33)
    positions = stream.checkpoints(4)
    scalar = run_f0_by_name("hyperloglog", stream, eps=0.05, seed=3,
                            checkpoint_positions=positions)
    batched = run_f0_by_name("hyperloglog", stream, eps=0.05, seed=3,
                             checkpoint_positions=positions, batch_size=640)
    assert scalar.estimate == batched.estimate
    assert [c.estimate for c in scalar.checkpoints] == [
        c.estimate for c in batched.checkpoints
    ]
    assert [c.position for c in scalar.checkpoints] == [
        c.position for c in batched.checkpoints
    ]


def test_runner_batched_rejects_turnstile_streams():
    from repro.streams.model import MaterializedStream, Update
    from repro.estimators.exact import ExactDistinctCounter
    from repro.exceptions import UpdateError

    stream = MaterializedStream([Update(1, 1), Update(1, -1)], 16)
    with pytest.raises((ParameterError, UpdateError)):
        run_f0(ExactDistinctCounter(16), stream, batch_size=2)
