"""Tests for the keyed sketch-store subsystem (``repro.store``).

The binding contract under test: a :class:`SketchArray` row is
*bit-identical* — equal ``state_dict()`` — to an independent sketch of
the family constructed with the array's seed and fed the row's updates,
under any interleaving of scalar and grouped ingestion.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialize
from repro.baselines.hyperloglog import HyperLogLogCounter
from repro.baselines.linear_counting import LinearCounter
from repro.baselines.loglog import LogLogCounter
from repro.core.rough_estimator import RoughEstimator
from repro.estimators.registry import make_l0_estimator
from repro.exceptions import MergeError, ParameterError, UpdateError
from repro.parallel import parallel_ingest_into, shard_keyed_updates
from repro.store import (
    ObjectSketchArray,
    SketchStore,
    make_sketch_array,
    sketch_array_family_names,
)
from repro.streams import keyed_uniform_stream

UNIVERSE = 1 << 16
SEED = 7

#: (family, factory for the equivalent independent sketch, extra params).
FAMILIES = [
    ("hyperloglog", lambda: HyperLogLogCounter(UNIVERSE, eps=0.1, seed=SEED), {}),
    ("loglog", lambda: LogLogCounter(UNIVERSE, eps=0.1, seed=SEED), {}),
    (
        "linear-counting",
        lambda: LinearCounter(UNIVERSE, bits=512, seed=SEED),
        {"bits": 512},
    ),
    (
        "knw-rough",
        lambda: RoughEstimator(UNIVERSE, seed=SEED, use_uniform_family=False),
        {},
    ),
]

FAMILY_IDS = [family for family, _, _ in FAMILIES]


def _keyed_batch(count, key_count=12, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, key_count, size=count, dtype=np.int64)
    items = rng.integers(0, UNIVERSE, size=count, dtype=np.uint64)
    return keys, items


def _make_store(family, params):
    return SketchStore.for_family(family, UNIVERSE, eps=0.1, seed=SEED, **params)


def _reference_dict(factory, keys, items):
    """The dict-of-independent-sketches ground truth, scalar loop."""
    reference = {}
    for key, item in zip(keys.tolist(), items.tolist()):
        sketch = reference.get(key)
        if sketch is None:
            sketch = reference[key] = factory()
        sketch.update(item)
    return reference


class TestSketchArrayBitIdentity:
    @pytest.mark.parametrize("family,factory,params", FAMILIES, ids=FAMILY_IDS)
    def test_grouped_matches_independent_sketches(self, family, factory, params):
        keys, items = _keyed_batch(4000, key_count=25, seed=1)
        store = _make_store(family, params)
        store.update_grouped(keys, items)
        reference = _reference_dict(factory, keys, items)
        assert sorted(store.keys) == sorted(reference)
        for key, sketch in reference.items():
            assert store.sketch(key).state_dict() == sketch.state_dict()

    @pytest.mark.parametrize("family,factory,params", FAMILIES, ids=FAMILY_IDS)
    def test_estimates_match_independent_sketches(self, family, factory, params):
        keys, items = _keyed_batch(3000, key_count=10, seed=2)
        store = _make_store(family, params)
        store.update_grouped(keys, items)
        reference = _reference_dict(factory, keys, items)
        estimates = store.estimate_all()
        for key, sketch in reference.items():
            assert estimates[key] == sketch.estimate()
            assert store.estimate(key) == sketch.estimate()

    @pytest.mark.parametrize("family,factory,params", FAMILIES, ids=FAMILY_IDS)
    def test_interleaved_scalar_and_grouped(self, family, factory, params):
        keys, items = _keyed_batch(1200, key_count=8, seed=3)
        store = _make_store(family, params)
        reference = {}

        def feed_reference(key_slice, item_slice):
            for key, item in zip(key_slice.tolist(), item_slice.tolist()):
                sketch = reference.get(key)
                if sketch is None:
                    sketch = reference[key] = factory()
                sketch.update(item)

        # Alternate scalar updates and grouped sweeps over the stream.
        cursor = 0
        toggle = False
        while cursor < len(keys):
            width = 37 if toggle else 150
            key_slice = keys[cursor : cursor + width]
            item_slice = items[cursor : cursor + width]
            if toggle:
                for key, item in zip(key_slice.tolist(), item_slice.tolist()):
                    store.update(key, item)
            else:
                store.update_grouped(key_slice, item_slice)
            feed_reference(key_slice, item_slice)
            cursor += width
            toggle = not toggle
        for key, sketch in reference.items():
            assert store.sketch(key).state_dict() == sketch.state_dict()

    @settings(max_examples=25, deadline=None)
    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=UNIVERSE - 1),
            ),
            max_size=120,
        ),
        split=st.integers(min_value=1, max_value=40),
        family_index=st.integers(min_value=0, max_value=len(FAMILIES) - 1),
    )
    def test_property_interleaving_never_diverges(self, updates, split, family_index):
        """Any scalar/grouped interleaving equals N independent sketches."""
        family, factory, params = FAMILIES[family_index]
        store = _make_store(family, params)
        reference = {}
        for start in range(0, len(updates), split):
            window = updates[start : start + split]
            keys = np.array([key for key, _ in window], dtype=np.int64)
            items = np.array([item for _, item in window], dtype=np.uint64)
            if (start // split) % 2:
                for key, item in window:
                    store.update(key, item)
            else:
                store.update_grouped(keys, items)
            for key, item in window:
                sketch = reference.get(key)
                if sketch is None:
                    sketch = reference[key] = factory()
                sketch.update(item)
        for key, sketch in reference.items():
            assert store.sketch(key).state_dict() == sketch.state_dict()


class TestGroupedEdgeCases:
    @pytest.mark.parametrize("family,factory,params", FAMILIES, ids=FAMILY_IDS)
    def test_empty_batch_is_a_noop(self, family, factory, params):
        store = _make_store(family, params)
        store.update_grouped([], [])
        store.update_grouped(np.array([], dtype=np.int64), np.array([], dtype=np.uint64))
        assert len(store) == 0
        assert store.estimate_all() == {}

    @pytest.mark.parametrize("family,factory,params", FAMILIES, ids=FAMILY_IDS)
    def test_single_item_batch(self, family, factory, params):
        store = _make_store(family, params)
        store.update_grouped([3], [42])
        sketch = factory()
        sketch.update(42)
        assert store.keys == [3]
        assert store.sketch(3).state_dict() == sketch.state_dict()

    @pytest.mark.parametrize("family,factory,params", FAMILIES, ids=FAMILY_IDS)
    def test_duplicate_keys_within_one_batch(self, family, factory, params):
        store = _make_store(family, params)
        store.update_grouped([5, 5, 5, 9, 5, 9], [1, 2, 1, 3, 4, 3])
        ref5, ref9 = factory(), factory()
        for item in (1, 2, 1, 4):
            ref5.update(item)
        for item in (3, 3):
            ref9.update(item)
        assert store.sketch(5).state_dict() == ref5.state_dict()
        assert store.sketch(9).state_dict() == ref9.state_dict()
        assert len(store) == 2

    @pytest.mark.parametrize("family,factory,params", FAMILIES, ids=FAMILY_IDS)
    def test_grouped_and_scalar_stores_are_byte_identical(
        self, family, factory, params
    ):
        """Same updates, any slicing: identical key order, capacity, bytes."""
        keys, items = _keyed_batch(2500, key_count=60, seed=15)
        grouped = _make_store(family, params)
        grouped.update_grouped(keys, items)
        scalar = _make_store(family, params)
        for key, item in zip(keys.tolist(), items.tolist()):
            scalar.update(key, item)
        assert grouped.keys == scalar.keys
        assert grouped.to_bytes() == scalar.to_bytes()

    @pytest.mark.parametrize("family,factory,params", FAMILIES, ids=FAMILY_IDS)
    def test_empty_update_batch_registers_no_key(self, family, factory, params):
        """Regression: ``update_batch(key, [])`` used to register ``key``.

        The three ingestion paths must agree on key registration for an
        empty batch — none of them registers anything — so stores built
        through any mix of them serialize byte-identically.
        """
        via_batch = _make_store(family, params)
        via_batch.update_batch(7, [])
        via_batch.update_batch(
            8, np.array([], dtype=np.uint64)
        )
        via_grouped = _make_store(family, params)
        via_grouped.update_grouped([], [])
        via_scalar = _make_store(family, params)
        # the scalar loop over an empty batch is zero iterations
        assert via_batch.keys == via_grouped.keys == via_scalar.keys == []
        assert (
            via_batch.to_bytes()
            == via_grouped.to_bytes()
            == via_scalar.to_bytes()
        )
        # and a non-empty follow-up batch lands in an identical store
        via_batch.update_batch(7, [11, 12])
        via_scalar.update(7, 11)
        via_scalar.update(7, 12)
        assert via_batch.to_bytes() == via_scalar.to_bytes()

    def test_rejected_batch_registers_no_keys(self):
        store = _make_store("hyperloglog", {})
        store.update_grouped([1], [4])
        before = store.to_bytes()
        with pytest.raises(ParameterError):
            store.update_grouped([1, 777], [5, UNIVERSE])  # fresh key + bad item
        with pytest.raises(ParameterError):
            store.update(888, UNIVERSE + 1)
        with pytest.raises(ParameterError):
            store.update_batch(999, [1, UNIVERSE])
        assert store.keys == [1]
        assert store.to_bytes() == before

    def test_length_mismatch_rejected_before_mutation(self):
        store = _make_store("hyperloglog", {})
        with pytest.raises((UpdateError, ParameterError)):
            store.update_grouped([1, 2], [10])
        assert len(store) == 0

    def test_out_of_universe_item_rejected_before_mutation(self):
        store = _make_store("hyperloglog", {})
        store.update_grouped([1], [4])
        before = store.to_bytes()
        with pytest.raises(ParameterError):
            store.update_grouped([1, 1], [5, UNIVERSE])
        assert store.to_bytes() == before

    def test_deltas_rejected_for_insertion_only_family(self):
        store = _make_store("hyperloglog", {})
        with pytest.raises(UpdateError):
            store.update_grouped([1], [2], [1])
        with pytest.raises(UpdateError):
            store.update(1, 2, 1)

    def test_deltas_required_for_turnstile_family(self):
        store = SketchStore.for_family(
            "ganguly", UNIVERSE, eps=0.25, seed=SEED, magnitude_bound=1 << 20
        )
        with pytest.raises(UpdateError):
            store.update_grouped([1], [2])

    def test_seed_required(self):
        with pytest.raises(ParameterError):
            make_sketch_array("hyperloglog", UNIVERSE, seed=None)

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError):
            make_sketch_array("no-such-family", UNIVERSE, seed=1)

    def test_string_keys(self):
        store = _make_store("hyperloglog", {})
        store.update_grouped(["alpha", "beta", "alpha"], [1, 2, 3])
        reference = HyperLogLogCounter(UNIVERSE, eps=0.1, seed=SEED)
        reference.update(1)
        reference.update(3)
        assert store.sketch("alpha").state_dict() == reference.state_dict()
        assert sorted(store.keys) == ["alpha", "beta"]


class TestObjectBackedRows:
    def test_turnstile_grouped_matches_scalar(self):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 6, size=1500)
        items = rng.integers(0, UNIVERSE, size=1500, dtype=np.uint64)
        deltas = rng.choice(np.array([1, 1, 1, -1], dtype=np.int64), size=1500)
        store = SketchStore.for_family(
            "ganguly", UNIVERSE, eps=0.25, seed=SEED, magnitude_bound=1 << 20
        )
        store.update_grouped(keys, items, deltas)
        reference = {}
        for key, item, delta in zip(keys.tolist(), items.tolist(), deltas.tolist()):
            sketch = reference.get(key)
            if sketch is None:
                sketch = reference[key] = make_l0_estimator(
                    "ganguly", UNIVERSE, 0.25, 1 << 20, seed=SEED
                )
            sketch.update(item, delta)
        for key, sketch in reference.items():
            assert store.sketch(key).state_dict() == sketch.state_dict()

    def test_registry_f0_fallback(self):
        keys, items = _keyed_batch(800, key_count=4, seed=6)
        store = SketchStore.for_family("kmv", UNIVERSE, eps=0.1, seed=SEED)
        store.update_grouped(keys, items)
        assert store.family == "object:kmv"
        assert len(store) == 4
        for estimate in store.estimate_all().values():
            assert estimate > 0

    def test_object_rows_share_the_template_seed(self):
        template = HyperLogLogCounter(UNIVERSE, eps=0.1, seed=SEED)
        array = ObjectSketchArray(template, rows=2)
        array.update_row_batch(0, [1, 2, 3])
        array.update_row_batch(1, [1, 2, 3])
        assert (
            array.export_row(0).state_dict() == array.export_row(1).state_dict()
        )


class TestStoreLifecycle:
    @pytest.mark.parametrize("family,factory,params", FAMILIES, ids=FAMILY_IDS)
    def test_serialization_round_trip_with_continued_ingestion(
        self, family, factory, params
    ):
        keys, items = _keyed_batch(2000, key_count=15, seed=8)
        store = _make_store(family, params)
        store.update_grouped(keys[:1000], items[:1000])
        revived = serialize.loads(store.to_bytes())
        revived.update_grouped(keys[1000:], items[1000:])
        store.update_grouped(keys[1000:], items[1000:])
        assert revived.to_bytes() == store.to_bytes()
        assert revived.estimate_all() == store.estimate_all()

    @pytest.mark.parametrize("family,factory,params", FAMILIES, ids=FAMILY_IDS)
    def test_merge_from_overlapping_and_new_keys(self, family, factory, params):
        keys, items = _keyed_batch(3000, key_count=20, seed=9)
        serial = _make_store(family, params)
        serial.update_grouped(keys, items)
        left = _make_store(family, params)
        left.update_grouped(keys[:1700], items[:1700])
        right = _make_store(family, params)
        right.update_grouped(keys[1700:], items[1700:])
        left.merge_from(right)
        assert sorted(left.keys) == sorted(serial.keys)
        for key in serial.keys:
            assert left.sketch(key).state_dict() == serial.sketch(key).state_dict()

    def test_merge_from_rejects_mismatched_parameters(self):
        left = SketchStore.for_family("hyperloglog", UNIVERSE, eps=0.1, seed=SEED)
        right = SketchStore.for_family("hyperloglog", UNIVERSE, eps=0.1, seed=SEED + 1)
        right.update(1, 2)
        with pytest.raises(MergeError):
            left.merge_from(right)
        other_family = SketchStore.for_family(
            "loglog", UNIVERSE, eps=0.1, seed=SEED
        )
        with pytest.raises(MergeError):
            left.merge_from(other_family)

    def test_growth_preserves_existing_rows(self):
        store = _make_store("hyperloglog", {})
        reference = {}
        rng = np.random.default_rng(10)
        for round_index in range(6):
            keys = rng.integers(0, 40 * (round_index + 1), size=400)
            items = rng.integers(0, UNIVERSE, size=400, dtype=np.uint64)
            store.update_grouped(keys, items)
            for key, item in zip(keys.tolist(), items.tolist()):
                sketch = reference.get(key)
                if sketch is None:
                    sketch = reference[key] = HyperLogLogCounter(
                        UNIVERSE, eps=0.1, seed=SEED
                    )
                sketch.update(item)
        assert len(store) == len(reference)
        for key in list(reference)[::7]:
            assert store.sketch(key).state_dict() == reference[key].state_dict()

    def test_load_sketch_round_trip(self):
        store = _make_store("hyperloglog", {})
        store.update_batch(3, [1, 2, 3])
        exported = store.sketch(3)
        exported.update_batch([10, 11])
        store.load_sketch(3, exported)
        reference = HyperLogLogCounter(UNIVERSE, eps=0.1, seed=SEED)
        reference.update_batch([1, 2, 3, 10, 11])
        assert store.sketch(3).state_dict() == reference.state_dict()

    def test_rough_load_sketch_round_trip(self):
        store = _make_store("knw-rough", {})
        store.update_batch(3, [1, 2, 3])
        exported = store.sketch(3)
        exported.update_batch([10, 11])
        store.load_sketch(3, exported)
        reference = RoughEstimator(UNIVERSE, seed=SEED, use_uniform_family=False)
        reference.update_batch([1, 2, 3, 10, 11])
        assert store.sketch(3).state_dict() == reference.state_dict()

    def test_rough_load_sketch_rejects_another_seed(self):
        store = _make_store("knw-rough", {})
        store.update_batch(3, [1, 2, 3])
        before = store.sketch(3).state_dict()
        foreign = RoughEstimator(UNIVERSE, seed=SEED + 1, use_uniform_family=False)
        foreign.update_batch(np.random.default_rng(13).integers(0, UNIVERSE, 5000))
        with pytest.raises(ParameterError):
            store.load_sketch(3, foreign)
        assert store.sketch(3).state_dict() == before

    def test_wrapping_a_non_empty_array_names_its_rows(self):
        array = make_sketch_array("hyperloglog", UNIVERSE, rows=2, eps=0.1, seed=SEED)
        array.update_row_batch(0, [1, 2, 3])
        store = SketchStore(array, keys=["a", "b", "c"])
        assert store.keys == ["a", "b", "c"]
        assert len(array) == 3
        reference = HyperLogLogCounter(UNIVERSE, eps=0.1, seed=SEED)
        reference.update_batch([1, 2, 3])
        assert store.sketch("a").state_dict() == reference.state_dict()
        with pytest.raises(ParameterError):
            SketchStore(
                make_sketch_array("hyperloglog", UNIVERSE, rows=2, eps=0.1, seed=SEED),
                keys=["only-one"],
            )

    def test_estimates_match_exports_across_occupancies(self):
        """estimate_row must equal the exported sketch's estimate to the bit.

        Sweeps many occupancy levels so ulp-divergent log/pow arguments
        (np.log vs math.log) would be caught.
        """
        store = SketchStore.for_family(
            "linear-counting", UNIVERSE, eps=0.1, seed=SEED, bits=1024
        )
        rng = np.random.default_rng(16)
        for round_index in range(40):
            items = rng.integers(0, UNIVERSE, size=60, dtype=np.uint64)
            store.update_batch(round_index % 7, items)
            for key in store.keys:
                assert store.estimate(key) == store.sketch(key).estimate()

    def test_space_bits_grows_with_rows(self):
        store = _make_store("linear-counting", {"bits": 512})
        assert store.space_bits() == 0
        store.update(1, 2)
        assert store.space_bits() == 512
        store.update(2, 2)
        assert store.space_bits() == 1024

    def test_family_names_listed(self):
        names = sketch_array_family_names()
        assert names == sorted(names)
        for name in ("hyperloglog", "loglog", "linear-counting", "knw-rough"):
            assert name in names


class TestKeyedSharding:
    def test_shard_keyed_updates_partitions_keys_exactly_once(self):
        keys, items = _keyed_batch(2000, key_count=50, seed=11)
        shards = shard_keyed_updates(keys, items, shards=4)
        assert len(shards) == 4
        seen = {}
        total = 0
        for index, (shard_keys, shard_items, shard_deltas) in enumerate(shards):
            assert shard_deltas is None
            assert len(shard_keys) == len(shard_items)
            total += len(shard_keys)
            for key in np.unique(shard_keys).tolist():
                assert key not in seen, "key split across shards"
                seen[key] = index
        assert total == len(keys)
        assert sorted(seen) == sorted(np.unique(keys).tolist())

    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_inline_sharded_ingest_is_bit_identical(self, shards):
        keys, items = _keyed_batch(4000, key_count=30, seed=12)
        serial = _make_store("hyperloglog", {})
        serial.update_grouped(keys, items)
        sharded = _make_store("hyperloglog", {})
        parallel_ingest_into(sharded, items, keys=keys, workers=1, shards=shards)
        for key in serial.keys:
            assert sharded.sketch(key).state_dict() == serial.sketch(key).state_dict()

    def test_turnstile_sharded_ingest_is_bit_identical(self):
        rng = np.random.default_rng(13)
        keys = rng.integers(0, 10, size=2000)
        items = rng.integers(0, UNIVERSE, size=2000, dtype=np.uint64)
        deltas = rng.choice(np.array([1, 1, -1], dtype=np.int64), size=2000)
        serial = SketchStore.for_family(
            "ganguly", UNIVERSE, eps=0.25, seed=SEED, magnitude_bound=1 << 20
        )
        serial.update_grouped(keys, items, deltas)
        sharded = serial.spawn_empty()
        parallel_ingest_into(sharded, items, deltas, keys=keys, workers=1, shards=3)
        for key in serial.keys:
            assert sharded.sketch(key).state_dict() == serial.sketch(key).state_dict()

    @pytest.mark.skipif(
        (__import__("os").cpu_count() or 1) < 2, reason="needs >= 2 cores"
    )
    def test_process_pool_sharded_ingest(self):
        keys, items = _keyed_batch(3000, key_count=20, seed=14)
        serial = _make_store("hyperloglog", {})
        serial.update_grouped(keys, items)
        sharded = _make_store("hyperloglog", {})
        parallel_ingest_into(sharded, items, keys=keys, workers=2, shards=2)
        assert sharded.estimate_all() == serial.estimate_all()


class TestKeyedWorkloadHarness:
    def test_keyed_uniform_stream_ground_truth(self):
        workload = keyed_uniform_stream(
            UNIVERSE, key_count=10, length=500, distinct_per_key=20, seed=1
        )
        truth = workload.ground_truth()
        assert set(truth) <= set(range(10))
        assert all(1 <= count <= 20 for count in truth.values())
        rebuilt = {}
        for key, item in zip(workload.keys.tolist(), workload.items.tolist()):
            rebuilt.setdefault(key, set()).add(item)
        assert truth == {key: len(values) for key, values in rebuilt.items()}

    def test_run_keyed_f0_accuracy(self):
        from repro.analysis import run_keyed_f0

        workload = keyed_uniform_stream(
            UNIVERSE, key_count=30, length=20000, distinct_per_key=300, seed=2
        )
        result = run_keyed_f0("hyperloglog", workload, 0.1, seed=SEED)
        assert result.key_count == len(workload.ground_truth())
        assert result.mean_relative_error < 0.2
        assert result.space_bits > 0
        sharded = run_keyed_f0("hyperloglog", workload, 0.1, seed=SEED, workers=2)
        assert sharded.estimates == result.estimates

    def test_keyed_accuracy_sweep_shape(self):
        from repro.analysis import keyed_accuracy_sweep

        points = keyed_accuracy_sweep(
            ["hyperloglog", "linear-counting"],
            lambda seed: keyed_uniform_stream(
                UNIVERSE, key_count=8, length=2000, distinct_per_key=50, seed=seed
            ),
            [0.1],
            [1, 2],
        )
        assert len(points) == 2
        for point in points:
            assert point.key_count == 8
            assert point.mean_relative_error < 0.5
            assert point.mean_space_bits > 0


class TestStoreBackedApplications:
    def test_monitor_fanout_matches_dict_of_linear_counters(self):
        from repro.apps import FlowCardinalityMonitor
        from repro.streams import packet_trace

        _, records = packet_trace(UNIVERSE, packets=3000, distinct_flows=300, seed=20)
        monitor = FlowCardinalityMonitor(
            universe_size=UNIVERSE, eps=0.1, window_packets=10_000, seed=21
        )
        monitor.observe_batch(records)
        # The pre-refactor dict-of-LinearCounter path, reproduced by hand.
        reference = {}
        for record in records:
            counter = reference.get(record.source)
            if counter is None:
                counter = reference[record.source] = LinearCounter(
                    UNIVERSE, bits=monitor._fanout_bits, seed=21 + 3
                )
            counter.update(record.destination % UNIVERSE)
        estimates = monitor._fanout_store.estimate_current()
        assert sorted(estimates) == sorted(reference)
        for source, counter in reference.items():
            assert estimates[source] == counter.estimate()

    def test_collector_store_families_agree_on_ndv_scale(self):
        from repro.apps import ColumnStatisticsCollector

        values = [value % 400 for value in range(4000)]
        knw = ColumnStatisticsCollector(["c"], UNIVERSE, eps=0.1, seed=3)
        knw.ingest_column("c", values)
        hll = ColumnStatisticsCollector(
            ["c"], UNIVERSE, eps=0.1, seed=3, family="hyperloglog"
        )
        hll.ingest_column("c", values)
        assert abs(knw.ndv("c") - 400) / 400 < 0.3
        assert abs(hll.ndv("c") - 400) / 400 < 0.3
        assert knw.all_ndv().keys() == hll.all_ndv().keys()


class TestColdKeyGrowthEquivalence:
    """Geometric over-allocation is invisible: a store grown one cold key
    at a time is byte-identical to one allocated in bulk up front.

    The cold-key zoo workload introduces keys in increasing order, so a
    grouped replay forces the maximum number of grow steps the workload
    can produce — a scaled-down stand-in for the millions-of-keys regime
    where incremental growth and bulk allocation must not diverge.
    """

    def _workload(self, key_count):
        from repro.streams import WorkloadScale, cold_key_workload

        scale = WorkloadScale(
            universe_size=UNIVERSE,
            length=max(4 * key_count, 256),
            key_count=key_count,
            epochs=3,
            updates_per_epoch=64,
        )
        return cold_key_workload(scale, seed=20)

    # Default key counts are per-family (object-backed rows pay a
    # template-decode per grown row, so the KNW families run smaller);
    # STORE_GROWTH_KEYS overrides all three for a full-scale soak.
    @pytest.mark.parametrize(
        "family,default_keys",
        [("hyperloglog", 1500), ("knw", 400), ("knw-l0", 120)],
    )
    def test_incremental_growth_matches_bulk_allocation(self, family, default_keys):
        import os

        workload = self._workload(
            int(os.environ.get("STORE_GROWTH_KEYS", str(default_keys)))
        )
        kwargs = {"magnitude_bound": len(workload)} if family == "knw-l0" else {}
        chunk = max(len(workload) // 24, 1)

        incremental = SketchStore.for_family(
            family, UNIVERSE, eps=0.2, seed=SEED, **kwargs
        )
        # Small chunks: every chunk introduces fresh keys, so the backing
        # array regrows (and re-allocates) dozens of times.
        grow_events = 0
        previous_capacity = 0
        for start in range(0, len(workload), chunk):
            stop = start + chunk
            if family == "knw-l0":
                incremental.update_grouped(
                    workload.keys[start:stop],
                    workload.items[start:stop],
                    np.ones(len(workload.keys[start:stop]), dtype=np.int64),
                )
            else:
                incremental.update_grouped(
                    workload.keys[start:stop], workload.items[start:stop]
                )
            capacity = len(incremental)
            if capacity > previous_capacity:
                grow_events += 1
                previous_capacity = capacity

        bulk = SketchStore.for_family(
            family, UNIVERSE, keys=incremental.keys, eps=0.2, seed=SEED, **kwargs
        )
        if family == "knw-l0":
            bulk.update_grouped(
                workload.keys, workload.items, np.ones(len(workload), dtype=np.int64)
            )
        else:
            bulk.update_grouped(workload.keys, workload.items)

        assert grow_events > 10, "cold-key replay must actually regrow the store"
        assert incremental.keys == bulk.keys
        assert incremental.to_bytes() == bulk.to_bytes()
        assert incremental.estimate_all() == bulk.estimate_all()
