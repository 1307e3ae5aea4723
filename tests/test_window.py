"""Sliding-window subsystem: rollup exactness, sharding, and edge cases.

The binding contract of :mod:`repro.window`: a window estimate (and, for
shard-deterministic families, the materialised window sketch's every
state word) equals a fresh same-seed sketch fed exactly the window's
updates — for every mergeable registry family, under scalar, batched,
timestamped, and epoch-range-sharded ingestion alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators.registry import make_f0_estimator, make_l0_estimator
from repro.exceptions import MergeError, ParameterError, UpdateError
from repro.parallel import (
    mergeable_f0_names,
    mergeable_l0_names,
    parallel_ingest_into,
    shard_epoch_slices,
)
from repro.store import SketchStore
from repro.streams.generators import WindowedWorkload, windowed_uniform_stream
from repro.window import WindowedSketch, WindowedSketchStore, epoch_runs

UNIVERSE = 1 << 16
EPS = 0.1


@pytest.fixture(scope="module")
def workload():
    return windowed_uniform_stream(
        UNIVERSE, epochs=6, updates_per_epoch=400, distinct_per_epoch=150, seed=3
    )


def _f0_ring(name, retention=8, seed=9):
    return WindowedSketch(
        make_f0_estimator(name, UNIVERSE, EPS, seed), retention=retention
    )


def _l0_ring(name, retention=8, seed=9):
    return WindowedSketch(
        make_l0_estimator(name, UNIVERSE, 0.25, 1 << 12, seed), retention=retention
    )


class TestEpochRuns:
    def test_splits_runs(self):
        runs = epoch_runs(np.asarray([2, 2, 3, 5, 5, 5]))
        assert runs == [(2, 0, 2), (3, 2, 3), (5, 3, 6)]

    def test_empty(self):
        assert epoch_runs(np.asarray([], dtype=np.int64)) == []

    def test_rejects_decreasing(self):
        with pytest.raises(ParameterError):
            epoch_runs([3, 2])

    def test_rejects_misaligned(self):
        with pytest.raises(ParameterError):
            epoch_runs([1, 2], expected_length=3)

    def test_rejects_float_epochs(self):
        with pytest.raises(ParameterError):
            epoch_runs([1.5, 2.5])


class TestShardEpochSlices:
    def test_epochs_never_span_shards(self):
        epochs = np.repeat(np.arange(5, dtype=np.int64), 3)
        ranges = shard_epoch_slices(epochs, 3)
        assert len(ranges) == 3
        covered = [index for start, stop in ranges for index in range(start, stop)]
        assert covered == list(range(len(epochs)))
        for start, stop in ranges:
            if stop > start:
                # a shard's boundary epochs belong only to that shard
                inside = set(epochs[start:stop].tolist())
                outside = set(epochs[:start].tolist()) | set(epochs[stop:].tolist())
                assert not (inside & outside)

    def test_more_shards_than_epochs(self):
        epochs = np.asarray([7, 7, 8], dtype=np.int64)
        ranges = shard_epoch_slices(epochs, 5)
        assert len(ranges) == 5
        assert sum(stop - start for start, stop in ranges) == 3

    def test_validation(self):
        with pytest.raises(ParameterError):
            shard_epoch_slices([1, 2], 0)


class TestWindowedSketchRing:
    def test_advance_and_retention(self):
        ring = _f0_ring("hyperloglog", retention=3)
        assert ring.epoch_index == 0
        assert ring.retained_epochs == 1
        ring.advance_epoch(5)
        assert ring.epoch_index == 5
        assert ring.retained_epochs == 3  # capped by retention

    def test_zero_update_epochs(self):
        ring = _f0_ring("hyperloglog", retention=4)
        ring.update_batch(np.asarray([1, 2, 3], dtype=np.uint64))
        ring.advance_epoch(2)  # one populated epoch, one empty epoch closed
        fresh = make_f0_estimator("hyperloglog", UNIVERSE, EPS, 9)
        fresh.update_batch(np.asarray([1, 2, 3], dtype=np.uint64))
        assert ring.estimate_window(3) == fresh.estimate()
        assert ring.estimate_window(1) == 0.0

    def test_window_wider_than_retained_raises(self):
        ring = _f0_ring("hyperloglog", retention=4)
        with pytest.raises(ParameterError):
            ring.estimate_window(2)  # only the open epoch is retained
        ring.advance_epoch()
        assert ring.estimate_window(2) == 0.0
        with pytest.raises(ParameterError):
            ring.estimate_window(3)
        with pytest.raises(ParameterError):
            ring.estimate_window(0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            WindowedSketch(make_f0_estimator("hyperloglog", UNIVERSE, EPS, 1), 0)
        with pytest.raises(ParameterError):
            WindowedSketch(object(), 2)
        ring = _f0_ring("hyperloglog")
        with pytest.raises(UpdateError):
            ring.update(3, 1)  # F0 rings take no delta
        with pytest.raises(UpdateError):
            ring.update_batch([1, 2], [1, 1])
        l0 = _l0_ring("knw-l0")
        with pytest.raises(UpdateError):
            l0.update(3)
        with pytest.raises(UpdateError):
            l0.update_batch([1, 2])

    def test_non_mergeable_family_fails_only_on_wide_windows(self):
        ring = _f0_ring("knw-fast", retention=3)
        ring.update(5)
        ring.advance_epoch()
        ring.update(6)
        assert ring.estimate_window(1) >= 0.0
        with pytest.raises(MergeError):
            ring.estimate_window(2)

    def test_estimate_all_windows(self, workload):
        ring = _f0_ring("hyperloglog", retention=6)
        ring.ingest_timestamped(workload.epochs, workload.items)
        estimates = ring.estimate_all_windows()
        assert len(estimates) == ring.retained_epochs == 6
        assert estimates == [
            ring.estimate_window(k) for k in range(1, 7)
        ]
        # windows grow: each wider window covers a superset of updates
        assert all(b >= a * 0.8 for a, b in zip(estimates, estimates[1:]))


class TestRollupExactness:
    """Window rollup == fresh sketch fed exactly the window's updates."""

    @pytest.mark.parametrize("name", mergeable_f0_names())
    def test_f0_bit_identical(self, name, workload):
        ring = _f0_ring(name, retention=6)
        ring.ingest_timestamped(workload.epochs, workload.items, batch_size=128)
        for width in (1, 2, 4, 6):
            merged = ring.window_sketch(width)
            fresh = make_f0_estimator(name, UNIVERSE, EPS, 9)
            _, window_items, _ = workload.window_slice(width)
            fresh.update_batch(window_items)
            assert merged.state_dict() == fresh.state_dict()
            assert ring.estimate_window(width) == fresh.estimate()

    @pytest.mark.parametrize("name", mergeable_l0_names())
    def test_l0_bit_identical(self, name, workload):
        deltas = np.where(
            np.arange(len(workload)) % 3 == 0, -1, 1
        ).astype(np.int64)
        ring = _l0_ring(name, retention=6)
        ring.ingest_timestamped(
            workload.epochs, workload.items, deltas, batch_size=256
        )
        for width in (1, 3, 6):
            merged = ring.window_sketch(width)
            fresh = make_l0_estimator(name, UNIVERSE, 0.25, 1 << 12, 9)
            _, window_items, _ = workload.window_slice(width)
            fresh.update_batch(window_items, deltas[len(workload) - len(window_items):])
            assert merged.state_dict() == fresh.state_dict()
            assert ring.estimate_window(width) == fresh.estimate()

    def test_scalar_batch_timestamped_equivalence(self, workload):
        scalar = _f0_ring("linear-counting", retention=6)
        for epoch, item in zip(workload.epochs.tolist(), workload.items.tolist()):
            if epoch > scalar.epoch_index:
                scalar.advance_epoch(epoch - scalar.epoch_index)
            scalar.update(item)
        batched = _f0_ring("linear-counting", retention=6)
        batched.ingest_timestamped(workload.epochs, workload.items, batch_size=64)
        one_shot = _f0_ring("linear-counting", retention=6)
        one_shot.ingest_timestamped(workload.epochs, workload.items)
        assert scalar.state_dict() == batched.state_dict() == one_shot.state_dict()

    def test_repeated_queries_use_memoized_rollups(self, workload):
        ring = _f0_ring("hyperloglog", retention=6)
        ring.ingest_timestamped(workload.epochs, workload.items)
        first = [ring.estimate_window(k) for k in (6, 3, 6, 3)]
        assert first[0] == first[2] and first[1] == first[3]
        # advancing invalidates the memo; answers stay consistent
        ring.advance_epoch()
        assert ring.estimate_window(6) <= first[0]

    def test_ingest_rejects_past_epochs(self, workload):
        ring = _f0_ring("hyperloglog", retention=6)
        ring.advance_epoch(3)
        with pytest.raises(ParameterError):
            ring.ingest_timestamped(np.asarray([1, 2]), np.asarray([4, 5], dtype=np.uint64))


class TestSerializationMidWindow:
    def test_eviction_and_round_trip_mid_window(self, workload):
        """Serialize after eviction, keep ingesting: identical to uninterrupted."""
        retention = 4  # evicts the two oldest of the 6 epochs
        half = len(workload) // 2
        interrupted = _f0_ring("hyperloglog", retention=retention)
        interrupted.ingest_timestamped(
            workload.epochs[:half], workload.items[:half]
        )
        revived = WindowedSketch.from_bytes(interrupted.to_bytes())
        revived.ingest_timestamped(workload.epochs[half:], workload.items[half:])
        uninterrupted = _f0_ring("hyperloglog", retention=retention)
        uninterrupted.ingest_timestamped(workload.epochs, workload.items)
        assert revived.state_dict() == uninterrupted.state_dict()
        assert revived.to_bytes() == uninterrupted.to_bytes()
        assert revived.retained_epochs == retention
        assert revived.estimate_all_windows() == uninterrupted.estimate_all_windows()

    def test_queries_do_not_change_serialization(self, workload):
        ring = _f0_ring("hyperloglog", retention=6)
        ring.ingest_timestamped(workload.epochs, workload.items)
        before = ring.to_bytes()
        ring.estimate_all_windows()
        assert ring.to_bytes() == before


class TestShardedWindowedIngestion:
    @pytest.mark.parametrize("shards", [1, 2, 4, 9])
    def test_inline_shards_bit_identical(self, shards, workload):
        sequential = _f0_ring("hyperloglog", retention=8)
        sequential.ingest_timestamped(
            workload.epochs, workload.items, batch_size=128
        )
        sharded = _f0_ring("hyperloglog", retention=8)
        parallel_ingest_into(
            sharded,
            workload.items,
            epochs=workload.epochs,
            workers=1,
            shards=shards,
            batch_size=128,
        )
        assert sharded.state_dict() == sequential.state_dict()

    def test_process_pool_matches_inline(self, workload):
        sequential = _f0_ring("kmv", retention=8)
        sequential.ingest_timestamped(workload.epochs, workload.items)
        sharded = _f0_ring("kmv", retention=8)
        parallel_ingest_into(
            sharded,
            workload.items,
            epochs=workload.epochs,
            workers=2,
            shards=3,
        )
        assert sharded.state_dict() == sequential.state_dict()

    def test_turnstile_sharded(self, workload):
        deltas = np.where(np.arange(len(workload)) % 4 == 0, -2, 1).astype(np.int64)
        sequential = _l0_ring("ganguly", retention=8)
        sequential.ingest_timestamped(
            workload.epochs, workload.items, deltas, batch_size=200
        )
        sharded = _l0_ring("ganguly", retention=8)
        parallel_ingest_into(
            sharded,
            workload.items,
            deltas,
            epochs=workload.epochs,
            workers=1,
            shards=4,
            batch_size=200,
        )
        assert sharded.state_dict() == sequential.state_dict()

    def test_midstream_takeover(self, workload):
        """Sharding may start on a ring that already holds state."""
        half = len(workload) // 2
        sequential = _f0_ring("hyperloglog", retention=8)
        sequential.ingest_timestamped(workload.epochs, workload.items)
        staged = _f0_ring("hyperloglog", retention=8)
        staged.ingest_timestamped(workload.epochs[:half], workload.items[:half])
        parallel_ingest_into(
            staged,
            workload.items[half:],
            epochs=workload.epochs[half:],
            workers=1,
            shards=3,
        )
        assert staged.state_dict() == sequential.state_dict()

    def test_empty_stream_is_noop(self):
        ring = _f0_ring("hyperloglog")
        before = ring.to_bytes()
        parallel_ingest_into(
            ring,
            np.asarray([], dtype=np.uint64),
            epochs=np.asarray([], dtype=np.int64),
            shards=3,
        )
        assert ring.to_bytes() == before

    @pytest.mark.parametrize("shards", [1, 4])
    def test_model_validation_independent_of_shard_count(self, shards, workload):
        """Regression: the multi-shard path used to skip deltas validation."""
        deltas = np.ones(len(workload), dtype=np.int64)
        f0 = _f0_ring("hyperloglog")
        with pytest.raises(UpdateError):
            parallel_ingest_into(
                f0, workload.items, deltas, epochs=workload.epochs,
                workers=1, shards=shards,
            )
        l0 = _l0_ring("ganguly")
        with pytest.raises(UpdateError):
            parallel_ingest_into(
                l0, workload.items, epochs=workload.epochs,
                workers=1, shards=shards,
            )
        with pytest.raises(UpdateError):
            parallel_ingest_into(
                l0, workload.items, deltas[:-1], epochs=workload.epochs,
                workers=1, shards=shards,
            )
        # rejected calls mutate nothing
        assert f0.to_bytes() == _f0_ring("hyperloglog").to_bytes()
        assert l0.to_bytes() == _l0_ring("ganguly").to_bytes()

    def test_adoption_respects_out_of_band_current_mutation(self):
        """Regression: updates applied via ``.current`` must not be adopted over."""
        ring = _f0_ring("hyperloglog", retention=4)
        ring.current.update_batch(
            np.arange(100, dtype=np.uint64)
        )  # bypasses the dirty flag
        shipped = make_f0_estimator("hyperloglog", UNIVERSE, EPS, 9)
        shipped.update_batch(np.arange(200, 205, dtype=np.uint64))
        ring.load_epoch_sketches([(0, shipped)])
        reference = make_f0_estimator("hyperloglog", UNIVERSE, EPS, 9)
        reference.update_batch(np.arange(100, dtype=np.uint64))
        reference.update_batch(np.arange(200, 205, dtype=np.uint64))
        assert ring.estimate_current() == reference.estimate()


class TestWindowedSketchStore:
    @pytest.fixture(scope="class")
    def keyed(self, workload):
        keys = (np.arange(len(workload)) % 7).astype(np.int64)
        return keys

    def _store_ring(self, retention=8, seed=4, family="hyperloglog"):
        return WindowedSketchStore(
            SketchStore.for_family(family, UNIVERSE, eps=EPS, seed=seed),
            retention=retention,
        )

    def test_validation(self):
        with pytest.raises(ParameterError):
            WindowedSketchStore(object(), 2)

    def test_grouped_vs_scalar_bit_equivalence(self, workload, keyed):
        grouped = self._store_ring(retention=6)
        grouped.ingest_timestamped(
            workload.epochs, keyed, workload.items, batch_size=100
        )
        scalar = self._store_ring(retention=6)
        for epoch, key, item in zip(
            workload.epochs.tolist(), keyed.tolist(), workload.items.tolist()
        ):
            if epoch > scalar.epoch_index:
                scalar.advance_epoch(epoch - scalar.epoch_index)
            scalar.update(key, item)
        assert grouped.state_dict() == scalar.state_dict()
        assert grouped.to_bytes() == scalar.to_bytes()

    def test_window_matches_per_key_fresh_stores(self, workload, keyed):
        ring = self._store_ring(retention=6)
        ring.ingest_timestamped(workload.epochs, keyed, workload.items)
        for width in (1, 3, 6):
            window = ring.window_store(width)
            fresh = SketchStore.for_family("hyperloglog", UNIVERSE, eps=EPS, seed=4)
            window_epochs, window_items, _ = workload.window_slice(width)
            start = len(workload) - len(window_items)
            fresh.update_grouped(keyed[start:], window_items)
            # both stores hold the same keys with identical estimates
            assert sorted(window.keys) == sorted(fresh.keys)
            assert ring.estimate_window(width) == {
                key: fresh.estimate(key) for key in window.keys
            }
            for key in fresh.keys:
                assert ring.estimate_key_window(key, width) == fresh.estimate(key)

    def test_key_union_across_epochs(self):
        ring = self._store_ring(retention=4)
        ring.update(1, 100)
        ring.advance_epoch()
        ring.update(2, 200)
        window = ring.estimate_window(2)
        assert set(window) == {1, 2}
        assert set(ring.estimate_current()) == {2}
        with pytest.raises(ParameterError):
            ring.estimate_key_window(1, 1)  # key idle in the open epoch

    def test_sharded_keyed_bit_identical(self, workload, keyed):
        sequential = self._store_ring(retention=8)
        sequential.ingest_timestamped(
            workload.epochs, keyed, workload.items, batch_size=150
        )
        for shards in (2, 5):
            sharded = self._store_ring(retention=8)
            parallel_ingest_into(
                sharded,
                workload.items,
                keys=keyed,
                epochs=workload.epochs,
                workers=1,
                shards=shards,
                batch_size=150,
            )
            assert sharded.state_dict() == sequential.state_dict()

    def test_store_round_trip_mid_window(self, workload, keyed):
        half = len(workload) // 2
        ring = self._store_ring(retention=3)
        ring.ingest_timestamped(workload.epochs[:half], keyed[:half], workload.items[:half])
        revived = WindowedSketchStore.from_bytes(ring.to_bytes())
        revived.ingest_timestamped(
            workload.epochs[half:], keyed[half:], workload.items[half:]
        )
        uninterrupted = self._store_ring(retention=3)
        uninterrupted.ingest_timestamped(workload.epochs, keyed, workload.items)
        assert revived.to_bytes() == uninterrupted.to_bytes()


class TestWindowedWorkload:
    def test_ground_truth_window(self):
        workload = WindowedWorkload(
            universe_size=100,
            epochs=np.asarray([0, 0, 1, 1, 2], dtype=np.int64),
            items=np.asarray([1, 2, 2, 3, 4], dtype=np.uint64),
        )
        assert workload.epoch_count == 3
        assert workload.ground_truth_window(1) == 1  # {4}
        assert workload.ground_truth_window(2) == 3  # {2, 3, 4}
        assert workload.ground_truth_window(3) == 4
        assert workload.ground_truth_all_windows() == [1, 3, 4]

    def test_turnstile_ground_truth_cancels(self):
        workload = WindowedWorkload(
            universe_size=100,
            epochs=np.asarray([0, 0, 1], dtype=np.int64),
            items=np.asarray([5, 6, 5], dtype=np.uint64),
            deltas=np.asarray([1, 1, -1], dtype=np.int64),
        )
        assert workload.ground_truth_window(2) == 1  # 5 cancelled, {6} left
        assert workload.ground_truth_window(1) == 1  # {5: -1} is non-zero

    def test_generator_shapes(self):
        workload = windowed_uniform_stream(
            1 << 12, epochs=4, updates_per_epoch=50, distinct_per_epoch=10, seed=1
        )
        assert len(workload) == 200
        assert workload.epoch_count == 4
        truths = workload.ground_truth_all_windows()
        assert len(truths) == 4
        assert all(a <= b for a, b in zip(truths, truths[1:]))
        with pytest.raises(ParameterError):
            windowed_uniform_stream(1 << 12, epochs=0, updates_per_epoch=5)
        with pytest.raises(ParameterError):
            workload.window_slice(0)


class TestWindowedSweep:
    def test_windowed_accuracy_sweep(self):
        from repro.analysis.sweeps import windowed_accuracy_sweep

        points = windowed_accuracy_sweep(
            ["hyperloglog", "exact"],
            lambda seed: windowed_uniform_stream(
                UNIVERSE, epochs=4, updates_per_epoch=300,
                distinct_per_epoch=120, seed=seed,
            ),
            window_widths=[1, 4],
            eps=0.1,
            seeds=[1, 2],
        )
        assert len(points) == 4
        exact_points = [p for p in points if p.algorithm == "exact"]
        assert all(p.summary.maximum == 0.0 for p in exact_points)
        assert all(p.truth > 0 for p in points)


class TestMonitorRollingWindows:
    def test_rolling_queries_match_merged_truth(self):
        from repro.apps import FlowCardinalityMonitor
        from repro.streams import packet_trace

        _, records = packet_trace(UNIVERSE, packets=3000, distinct_flows=500, seed=6)
        monitor = FlowCardinalityMonitor(
            universe_size=UNIVERSE,
            eps=0.1,
            window_packets=1000,
            seed=7,
            mergeable=True,
            window_history=4,
        )
        monitor.observe_batch(records)
        assert monitor.retained_windows() == 4
        assert len(monitor.reports) == 3
        # the 3-closed-window rollup must equal one mergeable sketch fed
        # all three windows' flow ids (the rings are shard-deterministic)
        from repro.core.knw import KNWDistinctCounter

        reference = KNWDistinctCounter(
            UNIVERSE, eps=0.1, seed=7, rough_uniform_family=False
        )
        for record in records:
            reference.update(record.flow_id(UNIVERSE))
        assert monitor.distinct_flows_last(4) == reference.estimate()
        # fan-out over all retained windows covers every source
        fanout = monitor.fanout_last(4)
        assert set(fanout) == {record.source for record in records}

    def test_rolling_queries_need_mergeable_beyond_open_window(self):
        from repro.apps import FlowCardinalityMonitor
        from repro.streams import packet_trace

        _, records = packet_trace(UNIVERSE, packets=500, distinct_flows=80, seed=8)
        monitor = FlowCardinalityMonitor(
            universe_size=UNIVERSE, window_packets=200, seed=9, window_history=3
        )
        monitor.observe_batch(records)
        assert monitor.distinct_flows_last(1) >= 0.0
        with pytest.raises(MergeError):
            monitor.distinct_flows_last(2)
        with pytest.raises(ParameterError):
            monitor.distinct_flows_last(5)  # beyond window_history


class TestAllOrNothingTimestampedIngestion:
    """A rejected timestamped call leaves the ring as it was.

    Both ring types check the whole call (epoch runs, deltas, keys, the
    open epoch, every item) before they advance or feed anything, so an
    out-of-universe item in a *later* epoch run cannot leave the earlier
    runs fed — and a ``Checkpointer`` that skips the rejected record
    recovers exactly the live state.
    """

    KINDS = ["sketch-f0", "sketch-l0", "store-f0", "store-l0"]

    @staticmethod
    def _ring(kind):
        if kind == "sketch-f0":
            template = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=5)
            return WindowedSketch(template, retention=4)
        if kind == "sketch-l0":
            template = make_l0_estimator("knw-l0", UNIVERSE, 0.25, 1 << 10, seed=5)
            return WindowedSketch(template, retention=4)
        family, params = (
            ("hyperloglog", {}) if kind == "store-f0"
            else ("knw-l0", {"magnitude_bound": 1 << 10})
        )
        store = SketchStore.for_family(family, UNIVERSE, eps=0.25, seed=5, **params)
        return WindowedSketchStore(store, retention=4)

    @staticmethod
    def _ingest(ring, epochs, items, checkpointer=None):
        items = np.asarray(items, dtype=np.uint64)
        deltas = np.ones(len(items), dtype=np.int64) if ring.turnstile else None
        keys = None
        if isinstance(ring, WindowedSketchStore):
            keys = np.arange(len(items), dtype=np.int64) % 3
        if checkpointer is not None:
            checkpointer.ingest(items, deltas=deltas, keys=keys, ts=epochs)
        elif keys is not None:
            ring.ingest_timestamped(epochs, keys, items, deltas)
        else:
            ring.ingest_timestamped(epochs, items, deltas)

    @pytest.mark.parametrize("kind", KINDS)
    def test_bad_item_in_a_later_run_changes_nothing(self, kind):
        ring = self._ring(kind)
        self._ingest(ring, [0, 0, 1, 1], [10, 11, 12, 13])
        before, epoch = ring.to_bytes(), ring.epoch_index
        with pytest.raises(ParameterError):
            self._ingest(ring, [1, 1, 2, 2, 3, 3], [20, 21, 22, 23, 24, UNIVERSE])
        assert ring.to_bytes() == before
        assert ring.epoch_index == epoch

    @pytest.mark.parametrize("kind", KINDS)
    def test_checkpointed_rejection_recovers_the_live_state(self, kind, tmp_path):
        from repro.durability import Checkpointer, recover

        ring = self._ring(kind)
        with Checkpointer(ring, str(tmp_path)) as checkpointer:
            self._ingest(ring, [0, 0, 1, 1], [10, 11, 12, 13], checkpointer)
            with pytest.raises(ParameterError):
                self._ingest(
                    ring, [1, 1, 2, 2, 3, 3], [20, 21, 22, 23, 24, UNIVERSE], checkpointer
                )
            self._ingest(ring, [3, 3, 3, 3], [30, 31, 32, 33], checkpointer)
        recovered, report = recover(str(tmp_path))
        assert report.replayed_records == 2
        assert recovered.to_bytes() == ring.to_bytes()
        assert recovered.estimate_window(3) == ring.estimate_window(3)
