"""Tests for the hash-family substrate (universal, k-wise, tabulation, etc.)."""

from __future__ import annotations

import functools
import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro import kernels, serialize
from repro.estimators.registry import make_f0_estimator
from repro.exceptions import KernelBackendError, ParameterError, SerializationError
from repro.hashing import kwise
from repro.vectorize import kwise_mod_range
from repro.hashing import (
    KWiseHash,
    MultiplyShiftHash,
    PaghPaghHash,
    PairwiseHash,
    RandomOracle,
    SiegelHash,
    TabulationHash,
    required_independence,
)


class TestPairwiseHash:
    def test_range_respected(self):
        h = PairwiseHash(10_000, 97, rng=random.Random(1))
        assert all(0 <= h(x) < 97 for x in range(0, 10_000, 37))

    def test_deterministic_for_fixed_draw(self):
        h = PairwiseHash(1000, 50, rng=random.Random(3))
        assert [h(x) for x in range(100)] == [h(x) for x in range(100)]

    def test_distinct_draws_differ(self):
        first = PairwiseHash(1000, 1000, rng=random.Random(1))
        second = PairwiseHash(1000, 1000, rng=random.Random(2))
        assert any(first(x) != second(x) for x in range(200))

    def test_roughly_uniform(self):
        h = PairwiseHash(100_000, 16, rng=random.Random(7))
        counts = Counter(h(x) for x in range(4096))
        expected = 4096 / 16
        assert all(0.5 * expected < counts[b] < 1.5 * expected for b in range(16))

    def test_out_of_range_key_rejected(self):
        h = PairwiseHash(100, 10, rng=random.Random(1))
        with pytest.raises(ParameterError):
            h(100)
        with pytest.raises(ParameterError):
            h(-1)

    def test_space_is_two_field_elements(self):
        h = PairwiseHash(1 << 20, 1 << 10, rng=random.Random(1))
        assert h.space_bits() == 2 * h._prime.bit_length()

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            PairwiseHash(0, 10)
        with pytest.raises(ParameterError):
            PairwiseHash(10, 0)


class TestMultiplyShiftHash:
    def test_requires_power_of_two_range(self):
        with pytest.raises(ParameterError):
            MultiplyShiftHash(100, 12)

    def test_range_respected(self):
        h = MultiplyShiftHash(1 << 16, 64, rng=random.Random(2))
        assert all(0 <= h(x) < 64 for x in range(0, 1 << 16, 257))

    def test_range_one_is_constant_zero(self):
        h = MultiplyShiftHash(128, 1, rng=random.Random(2))
        assert all(h(x) == 0 for x in range(128))

    def test_roughly_uniform(self):
        h = MultiplyShiftHash(1 << 20, 32, rng=random.Random(5))
        counts = Counter(h(x * 977 % (1 << 20)) for x in range(8192))
        expected = 8192 / 32
        assert all(0.4 * expected < counts[b] < 1.6 * expected for b in range(32))


class TestKWiseHash:
    def test_required_independence_grows_slowly(self):
        low = required_independence(64, 0.2)
        high = required_independence(1 << 14, 0.01)
        assert 4 <= low <= high <= 64

    def test_range_respected(self):
        h = KWiseHash(10_000, 128, independence=6, rng=random.Random(4))
        assert all(0 <= h(x) < 128 for x in range(0, 10_000, 17))

    def test_explicit_coefficients_reproducible(self):
        a = KWiseHash(1000, 64, independence=3, coefficients=[5, 7, 11])
        b = KWiseHash(1000, 64, independence=3, coefficients=[5, 7, 11])
        assert [a(x) for x in range(100)] == [b(x) for x in range(100)]

    def test_coefficient_count_validated(self):
        with pytest.raises(ParameterError):
            KWiseHash(1000, 64, independence=3, coefficients=[1, 2])

    def test_space_scales_with_independence(self):
        small = KWiseHash(1 << 16, 64, independence=2, rng=random.Random(1))
        large = KWiseHash(1 << 16, 64, independence=10, rng=random.Random(1))
        assert large.space_bits() == 5 * small.space_bits()

    def test_degree_one_behaves_like_constant(self):
        h = KWiseHash(100, 16, independence=1, coefficients=[9])
        assert all(h(x) == 9 % 16 for x in range(100))


def _loadable_backends():
    names = []
    for name in kernels.available_backends():
        try:
            kernels.load_backend(name)
        except KernelBackendError:
            continue
        names.append(name)
    return names


@pytest.fixture(params=_loadable_backends())
def backend(request):
    """Run under each loadable kernel backend, restoring the selection after."""
    saved = kernels._active, kernels._chosen_by
    kernels.set_backend(request.param)
    yield request.param
    kernels._active, kernels._chosen_by = saved


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the Horner kernel calls made by ``KWiseHash`` batches."""
    calls = []
    direct = kwise.kwise_mod_range

    def counted(coefficients, keys, *rest):
        calls.append(len(keys))
        return direct(coefficients, keys, *rest)

    monkeypatch.setattr(kwise, "kwise_mod_range", counted)
    return calls


def _figure2_h3(counters, seed):
    """Figure 2's ``h3: [K_RE^3] -> [K_RE]``, ``2 K_RE``-wise independent."""
    return KWiseHash(counters ** 3, counters, 2 * counters, rng=random.Random(seed))


@functools.lru_cache(maxsize=None)
def _horner_values(counters, seed):
    h = _figure2_h3(counters, seed)
    return np.array([h(x) for x in range(h.universe_size)], dtype=np.uint64)


def _table_of(h):
    return kwise._value_table(tuple(h._coefficients), h._prime, h.universe_size, h.range_size)


class TestKWiseValueTable:
    """Small-domain batches answer from a lazily filled, process-wide table."""

    @pytest.mark.parametrize("counters", [8, 20, 32])
    def test_table_equals_horner_cold_partial_warm(self, backend, kernel_calls, counters):
        kwise._value_table.cache_clear()
        h = _figure2_h3(counters, seed=counters)
        expected = _horner_values(counters, counters)
        domain = h.universe_size
        rng = np.random.default_rng(counters)
        # Cold table: a batch with repeated keys fills only what it touches.
        first = rng.integers(0, domain, domain // 3, dtype=np.uint64)
        first = np.concatenate([first, first[: len(first) // 2]])
        values = h.hash_batch_validated(first)
        assert values.dtype == np.uint64
        assert np.array_equal(values, expected[first])
        assert kernel_calls == [len(first)]
        table = _table_of(h)
        filled = table != kwise._UNFILLED
        assert np.array_equal(filled, np.isin(np.arange(domain), first))
        # Partially filled: every domain point, shuffled, with repeats; only
        # the keys still unfilled reach the kernel.
        every = rng.permutation(np.concatenate([np.arange(domain), first]).astype(np.uint64))
        assert np.array_equal(h.hash_batch_validated(every), expected[every])
        missing = int(np.count_nonzero(~np.isin(every, first)))
        assert kernel_calls == [len(first), missing]
        # Warm: a gather, no kernel call, same dtype and values as the kernel.
        assert np.array_equal(h.hash_batch_validated(every), expected[every])
        assert len(kernel_calls) == 2
        direct = kwise_mod_range(h._coefficients, every, h._prime, domain, h.range_size)
        assert direct.dtype == np.uint64
        assert np.array_equal(h.hash_batch(every), direct)
        assert np.array_equal(table, expected)

    def test_sketch_bytes_identical_with_direct_cold_and_warm_tables(self, backend, monkeypatch):
        items = np.random.default_rng(3).integers(0, 1 << 32, 60_000, dtype=np.uint64)

        def ingest():
            sketch = make_f0_estimator("knw-paper", 1 << 32, 0.05, seed=9)
            for start in range(0, len(items), 7_000):
                sketch.update_batch(items[start : start + 7_000])
            return sketch.to_bytes(), sketch.space_bits()

        with monkeypatch.context() as patch:
            patch.setattr(kwise, "TABLE_DOMAIN_LIMIT", 0)
            direct = ingest()
        kwise._value_table.cache_clear()
        cold = ingest()
        assert kwise._value_table.cache_info().currsize == 3  # Figure 2's three h3
        warm = ingest()
        assert direct == cold == warm

    def test_equal_coefficients_share_one_table(self, kernel_calls):
        kwise._value_table.cache_clear()
        keys = np.arange(8000, dtype=np.uint64)
        first, twin, other = _figure2_h3(20, 5), _figure2_h3(20, 5), _figure2_h3(20, 6)
        first.hash_batch_validated(keys)
        assert _table_of(first) is _table_of(twin)
        assert _table_of(first) is not _table_of(other)
        # The same-seed twin reuses the filled table: no kernel call.
        twin.hash_batch_validated(keys)
        assert kernel_calls == [len(keys)]
        other.hash_batch_validated(keys)
        assert kernel_calls == [len(keys), len(keys)]

    def test_threads_filling_one_table_agree_with_horner(self):
        kwise._value_table.cache_clear()
        expected = _horner_values(20, 7)
        hashes = [_figure2_h3(20, 7) for _ in range(8)]
        failures = []

        def work(index):
            rng = np.random.default_rng(index)
            for _ in range(40):
                keys = rng.integers(0, 8000, 300, dtype=np.uint64)
                if not np.array_equal(hashes[index].hash_batch_validated(keys), expected[keys]):
                    failures.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(hashes))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        table = _table_of(hashes[0])
        filled = table != kwise._UNFILLED
        assert np.array_equal(table[filled], expected[filled])

    def test_domain_above_limit_never_builds_a_table(self, kernel_calls):
        kwise._value_table.cache_clear()
        h = KWiseHash(kwise.TABLE_DOMAIN_LIMIT + 1, 64, 8, rng=random.Random(4))
        keys = np.arange(0, h.universe_size, 257, dtype=np.uint64)
        for _ in range(2):
            assert h.hash_batch(keys).tolist() == [h(int(x)) for x in keys]
        assert kernel_calls == [len(keys), len(keys)]
        assert kwise._value_table.cache_info().currsize == 0


class TestTabulationHash:
    def test_for_universe_requires_powers_of_two(self):
        with pytest.raises(ParameterError):
            TabulationHash.for_universe(100, 16)
        with pytest.raises(ParameterError):
            TabulationHash.for_universe(128, 12)

    def test_range_respected(self):
        h = TabulationHash.for_universe(1 << 16, 1 << 6, rng=random.Random(8))
        assert all(0 <= h(x) < (1 << 6) for x in range(0, 1 << 16, 101))

    def test_key_bounds_enforced(self):
        h = TabulationHash(key_bits=8, value_bits=4, rng=random.Random(1))
        with pytest.raises(ParameterError):
            h(256)

    def test_space_counts_table_entries(self):
        h = TabulationHash(key_bits=16, value_bits=8, character_bits=8, rng=random.Random(1))
        assert h.space_bits() == 2 * 256 * 8


def _uniformity_chi_squares(factory, keys, range_size, seeds=range(1000)):
    """Largest chi-square over the keys' single values and consecutive 3-key tuples.

    Each statistic compares, over the seeds, how often each value (or
    value triple) occurs with the uniform expectation.
    """
    values = np.array(
        [factory(seed).hash_batch(keys) for seed in seeds], dtype=np.int64
    )

    def chi_square(cells, count):
        expected = len(values) / count
        return float(((np.bincount(cells, minlength=count) - expected) ** 2).sum() / expected)

    single = max(chi_square(values[:, j], range_size) for j in range(len(keys)))
    triple = max(
        chi_square(
            (values[:, j] * range_size + values[:, j + 1]) * range_size + values[:, j + 2],
            range_size**3,
        )
        for j in range(len(keys) - 2)
    )
    return single, triple


class TestPaghPaghHash:
    UNIVERSE = 4096

    def _hash(self, seed=3, universe=UNIVERSE, range_size=32, capacity=64):
        return PaghPaghHash(universe, range_size, capacity, random.Random(seed))

    def test_same_seed_same_function_however_queried(self):
        domain = np.arange(self.UNIVERSE, dtype=np.uint64)
        expected = self._hash().hash_batch(domain).tolist()
        shuffled = list(range(self.UNIVERSE))
        random.Random(5).shuffle(shuffled)
        scalar = self._hash()
        assert {key: scalar(key) for key in shuffled} == dict(enumerate(expected))
        split = self._hash()
        pieces = [
            split.hash_batch(domain[start : start + 97]) for start in range(0, len(domain), 97)
        ]
        assert np.concatenate(pieces).tolist() == expected
        revived = serialize.loads(serialize.dumps(self._hash()))
        assert revived.hash_batch(domain).tolist() == expected
        assert [revived(key) for key in range(self.UNIVERSE)] == expected

    @pytest.mark.parametrize("range_size", [7, 300])
    def test_scalar_equals_batch_on_every_key(self, range_size):
        h = self._hash(seed=11, range_size=range_size, capacity=16)
        domain = np.arange(self.UNIVERSE, dtype=np.uint64)
        assert [h(key) for key in range(self.UNIVERSE)] == h.hash_batch(domain).tolist()

    def test_out_of_universe_keys_raise(self):
        h = self._hash()
        for key in (-1, self.UNIVERSE):
            with pytest.raises(ParameterError):
                h(key)
        with pytest.raises(ParameterError):
            h.hash_batch([0, self.UNIVERSE])

    def test_space_is_the_tables_plus_the_polynomials(self):
        h = self._hash(range_size=32, capacity=64)
        tables = 2 * (2 * 64) * 5
        polynomials = h._f.space_bits() + h._g1.space_bits() + h._g2.space_bits()
        assert h.space_bits() == tables + polynomials

    def test_uniform_on_a_fixed_set(self):
        """Over 1000 seeds the values on a fixed capacity-sized key set are
        uniform, singly and as consecutive triples; the bounds are the
        chi-square critical values at p = 1e-5 for 3 and 63 degrees of
        freedom.  A constant function fails the single-value check and a
        pairwise-independent family the triple check."""
        keys = np.arange(1000, 1016, dtype=np.uint64)
        bounds = (26.0, 123.0)

        def within(factory):
            single, triple = _uniformity_chi_squares(factory, keys, 4)
            return single <= bounds[0], triple <= bounds[1]

        def pagh_pagh(seed):
            return PaghPaghHash(self.UNIVERSE, 4, len(keys), random.Random(seed))

        def pairwise(seed):
            return PairwiseHash(self.UNIVERSE, 4, rng=random.Random(seed))

        constant = KWiseHash(self.UNIVERSE, 4, 1, coefficients=[0])
        assert within(pagh_pagh) == (True, True)
        assert within(pairwise) == (True, False)
        assert within(lambda seed: constant) == (False, False)

    def test_lazy_stand_in_payload_does_not_decode(self):
        """A payload naming the deleted lazily drawn stand-in is refused."""
        tree = {
            "__object__": "repro.hashing.uniform:LazyUniformHash",
            "__id__": 0,
            "__state__": {"universe_size": 100, "range_size": 8, "capacity": 4, "_memo": {}},
        }
        with pytest.raises(SerializationError):
            serialize.loads(serialize.dumps(None, state=tree))


class TestLazyUniformAndSiegel:
    def test_siegel_defaults(self):
        h = SiegelHash(1 << 18, 256, rng=random.Random(2))
        assert h.independence >= 4
        assert all(0 <= h(key) < 256 for key in range(100))
        assert h.space_bits() >= 256


class TestRandomOracle:
    def test_deterministic_given_seed(self):
        a = RandomOracle(1 << 20, 1 << 16, seed=99)
        b = RandomOracle(1 << 20, 1 << 16, seed=99)
        assert [a(x) for x in range(200)] == [b(x) for x in range(200)]

    def test_different_seeds_differ(self):
        a = RandomOracle(1 << 20, 1 << 16, seed=1)
        b = RandomOracle(1 << 20, 1 << 16, seed=2)
        assert any(a(x) != b(x) for x in range(200))

    def test_uniformity(self):
        oracle = RandomOracle(1 << 20, 4, seed=5)
        counts = Counter(oracle(x) for x in range(8000))
        assert all(1700 < counts[v] < 2300 for v in range(4))

    def test_space_is_zero_by_convention(self):
        assert RandomOracle(100, 10, seed=1).space_bits() == 0

    def test_key_validation(self):
        oracle = RandomOracle(100, 10, seed=1)
        with pytest.raises(ParameterError):
            oracle(100)
