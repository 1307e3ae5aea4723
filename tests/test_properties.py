"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitstructs import (
    BitVector,
    LogLookupTable,
    VariableBitLengthArray,
)
from repro.core.balls_bins import expected_occupied_bins, invert_occupancy
from repro.estimators.exact import ExactDistinctCounter, ExactHammingNorm
from repro.hashing import KWiseHash, PairwiseHash, lsb, msb
from repro.streams import (
    NEAR_COLLISION_MODES,
    MaterializedStream,
    Update,
    WorkloadScale,
    churn_stream,
    make_workload,
    near_collision_stream,
    workload_class_names,
    zipf_rank_probabilities,
)


# ---------------------------------------------------------------------------
# Bit operations
# ---------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=(1 << 80)))
def test_lsb_matches_arithmetic_definition(value):
    position = lsb(value)
    assert value % (1 << position) == 0
    assert (value >> position) & 1 == 1


@given(st.integers(min_value=1, max_value=(1 << 80)))
def test_msb_matches_bit_length(value):
    assert msb(value) == value.bit_length() - 1


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_lsb_of_product_of_powers(a, b):
    # lsb(x * 2^k) = lsb(x) + k for x > 0.
    if a == 0:
        return
    k = b % 16
    assert lsb(a << k) == lsb(a) + k


# ---------------------------------------------------------------------------
# Bit structures
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=300))
def test_bitvector_round_trip(bits):
    vector = BitVector.from_bits(bits)
    assert vector.to_list() == bits
    assert vector.count_ones() == sum(bits)
    assert vector.count_zeros() == len(bits) - sum(bits)


@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=200),
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=200),
)
def test_bitvector_union_is_elementwise_or(left, right):
    size = min(len(left), len(right))
    a = BitVector.from_bits(left[:size])
    b = BitVector.from_bits(right[:size])
    a.union_update(b)
    assert a.to_list() == [x | y for x, y in zip(left[:size], right[:size])]


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=120))
def test_vla_round_trip(values):
    array = VariableBitLengthArray.from_values(values)
    assert array.to_list() == values
    assert array.payload_bits() == sum(max(v.bit_length(), 1) for v in values)


@given(st.integers(min_value=8, max_value=2048))
def test_loglookup_error_bound_random_sizes(bins):
    table = LogLookupTable(bins)
    for c in range(0, table.max_argument + 1, max(table.max_argument // 17, 1)):
        assert table.relative_error(c) <= table.relative_accuracy


# ---------------------------------------------------------------------------
# Balls and bins
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2000), st.integers(min_value=2, max_value=4096))
def test_expected_occupancy_bounds(balls, bins):
    value = expected_occupied_bins(balls, bins)
    assert 0.0 <= value <= min(balls, bins)


@given(st.integers(min_value=2, max_value=4096), st.data())
def test_inversion_is_monotone(bins, data):
    first = data.draw(st.integers(min_value=0, max_value=bins))
    second = data.draw(st.integers(min_value=0, max_value=bins))
    lo, hi = sorted((first, second))
    assert invert_occupancy(lo, bins) <= invert_occupancy(hi, bins) + 1e-9


# ---------------------------------------------------------------------------
# Hash families
# ---------------------------------------------------------------------------


@given(
    st.integers(min_value=2, max_value=1 << 20),
    st.integers(min_value=1, max_value=1 << 12),
    st.integers(),
    st.data(),
)
def test_pairwise_hash_stays_in_range(universe, range_size, seed, data):
    import random as _random

    h = PairwiseHash(universe, range_size, rng=_random.Random(seed))
    key = data.draw(st.integers(min_value=0, max_value=universe - 1))
    assert 0 <= h(key) < range_size


@given(st.integers(min_value=1, max_value=8), st.integers(), st.data())
def test_kwise_hash_stays_in_range(independence, seed, data):
    import random as _random

    h = KWiseHash(1 << 16, 64, independence=independence, rng=_random.Random(seed))
    key = data.draw(st.integers(min_value=0, max_value=(1 << 16) - 1))
    assert 0 <= h(key) < 64


# ---------------------------------------------------------------------------
# Exact estimators as executable specifications
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=499), max_size=400))
def test_exact_f0_matches_set_semantics(items):
    counter = ExactDistinctCounter(500)
    counter.update_many(items)
    assert counter.estimate() == len(set(items))


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=199),
            st.integers(min_value=-5, max_value=5).filter(lambda d: d != 0),
        ),
        max_size=300,
    )
)
def test_exact_l0_matches_dictionary_semantics(updates):
    norm = ExactHammingNorm(200)
    frequencies = {}
    for item, delta in updates:
        norm.update(item, delta)
        frequencies[item] = frequencies.get(item, 0) + delta
        if frequencies[item] == 0:
            del frequencies[item]
    assert norm.estimate() == len(frequencies)


@settings(max_examples=25)
@given(
    st.lists(st.integers(min_value=0, max_value=1023), min_size=1, max_size=300),
    st.integers(min_value=0, max_value=100),
)
def test_stream_ground_truth_prefix_consistency(items, prefix_fraction):
    stream = MaterializedStream([Update(item, 1) for item in items], 1024)
    position = (prefix_fraction * len(items)) // 100
    prefix_truth = stream.ground_truth_at([position])[0]
    assert prefix_truth == len(set(items[:position]))


# ---------------------------------------------------------------------------
# KNW sketch invariants (kept light: a handful of examples, small streams)
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 14) - 1), min_size=1, max_size=400), st.integers(min_value=0, max_value=1 << 30))
def test_knw_counter_never_fails_and_is_exact_when_tiny(items, seed):
    from repro.core import KNWDistinctCounter

    counter = KNWDistinctCounter(1 << 14, eps=0.2, seed=seed)
    for item in items:
        counter.update(item)
    estimate = counter.estimate()
    truth = len(set(items))
    assert estimate >= 0.0
    if truth <= 100:
        assert estimate == truth


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 12) - 1),
            st.sampled_from([-2, -1, 1, 2]),
        ),
        min_size=1,
        max_size=200,
    ),
    st.integers(min_value=0, max_value=1 << 30),
)
def test_knw_l0_exact_for_tiny_support(updates, seed):
    from repro.l0 import KNWHammingNormEstimator

    estimator = KNWHammingNormEstimator(1 << 12, eps=0.2, magnitude_bound=512, seed=seed)
    frequencies = {}
    for item, delta in updates:
        estimator.update(item, delta)
        frequencies[item] = frequencies.get(item, 0) + delta
        if frequencies[item] == 0:
            del frequencies[item]
    truth = len(frequencies)
    if truth <= 90:
        assert estimator.estimate() == truth


# ---------------------------------------------------------------------------
# Workload zoo invariants (generators are pure functions of their seed)
# ---------------------------------------------------------------------------


def _brute_force_support(stream):
    """Exact L0/F0 by replaying the net frequency vector."""
    frequencies = {}
    for update in stream:
        frequencies[update.item] = frequencies.get(update.item, 0) + update.delta
    return sum(1 for value in frequencies.values() if value)


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(sorted(workload_class_names())),
    st.integers(min_value=0, max_value=1 << 30),
)
def test_zoo_stream_ground_truth_matches_brute_force(cls_name, seed):
    scale = WorkloadScale(
        universe_size=1 << 12, length=400, key_count=8, epochs=3, updates_per_epoch=60
    )
    stream = make_workload(cls_name, "stream", seed=seed, scale=scale)
    assert stream.ground_truth() == _brute_force_support(stream)
    assert all(0 <= update.item < stream.universe_size for update in stream)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=1 << 30),
)
def test_full_deletion_churn_collapses_l0_to_zero(distinct, waves, seed):
    stream = churn_stream(
        1 << 12, distinct, waves=waves, survivor_fraction=0.0, seed=seed
    )
    assert stream.ground_truth() == 0
    assert _brute_force_support(stream) == 0


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=1 << 30),
)
def test_churn_survivor_count_is_exact(distinct, waves, fraction, seed):
    stream = churn_stream(
        1 << 12, distinct, waves=waves, survivor_fraction=fraction, seed=seed
    )
    assert stream.ground_truth() == waves * round(distinct * fraction)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.floats(min_value=0.0, max_value=8.0),
)
def test_zipf_probabilities_are_a_sorted_distribution(support, skew):
    probabilities = zipf_rank_probabilities(support, skew)
    assert len(probabilities) == support
    assert abs(sum(probabilities) - 1.0) < 1e-9
    assert all(
        first >= second
        for first, second in zip(probabilities, probabilities[1:])
    )


@given(st.integers(min_value=1, max_value=400))
def test_zipf_zero_skew_is_exactly_uniform(support):
    probabilities = zipf_rank_probabilities(support, 0.0)
    assert all(p == probabilities[0] for p in probabilities)


@given(st.integers(min_value=2, max_value=400))
def test_zipf_extreme_skew_is_degenerate(support):
    probabilities = zipf_rank_probabilities(support, 2000.0)
    assert probabilities[0] == 1.0
    assert all(p == 0.0 for p in probabilities[1:])


@settings(max_examples=15, deadline=None)
@given(
    st.sampled_from(sorted(NEAR_COLLISION_MODES)),
    st.integers(min_value=1, max_value=128),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=1 << 30),
)
def test_near_collision_streams_hit_requested_distinct(mode, distinct, repetitions, seed):
    stream = near_collision_stream(
        1 << 14, distinct, mode=mode, cluster_bits=5, repetitions=repetitions, seed=seed
    )
    assert len(stream) == distinct * repetitions
    assert stream.ground_truth() == distinct
    assert all(0 <= update.item < stream.universe_size for update in stream)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=1 << 30))
def test_keyed_churn_ground_truth_matches_brute_force(seed):
    scale = WorkloadScale(
        universe_size=1 << 12, length=300, key_count=6, epochs=3, updates_per_epoch=50
    )
    workload = make_workload("churn", "keyed", seed=seed, scale=scale)
    recount = {}
    for key, item, delta in zip(
        workload.keys.tolist(), workload.items.tolist(), workload.deltas.tolist()
    ):
        net = recount.setdefault(key, {})
        net[item] = net.get(item, 0) + delta
    expected = {
        key: sum(1 for value in net.values() if value) for key, net in recount.items()
    }
    assert workload.ground_truth() == expected


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(sorted(workload_class_names())),
    st.integers(min_value=0, max_value=1 << 30),
)
def test_windowed_zoo_ground_truth_matches_window_recount(cls_name, seed):
    scale = WorkloadScale(
        universe_size=1 << 12, length=300, key_count=6, epochs=4, updates_per_epoch=40
    )
    workload = make_workload(cls_name, "windowed", seed=seed, scale=scale)
    for width in range(1, workload.epoch_count + 1):
        _, items, deltas = workload.window_slice(width)
        frequencies = {}
        if deltas is None:
            for item in items.tolist():
                frequencies[item] = 1
        else:
            for item, delta in zip(items.tolist(), deltas.tolist()):
                frequencies[item] = frequencies.get(item, 0) + delta
        expected = sum(1 for value in frequencies.values() if value)
        assert workload.ground_truth_window(width) == expected
