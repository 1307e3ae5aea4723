"""Sharded ingestion: shard + merge must equal sequential ingestion.

The binding contract of :mod:`repro.parallel`: for every mergeable F0
estimator whose hash functions are seed-determined, k-way sharded ingest
followed by merge-reduce is *bit-identical* (equal ``state_dict()``,
equal estimates) to one sketch fed the concatenated stream — across
shard counts {1, 3, 8}, scalar and batched shard ingest, inline and
real worker-process execution.  The engine's transport is the
serialization layer, so these tests also exercise ``to_bytes`` /
``from_bytes`` end to end across process boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators.median import MedianEstimator
from repro.estimators.registry import make_f0_estimator, make_l0_estimator
from repro.exceptions import MergeError, ParameterError
from repro.parallel import (
    mergeable_f0_names,
    parallel_ingest_into,
    shard_items,
)
from repro.streams.generators import uniform_random_stream
from repro.window import WindowedSketch, WindowedSketchStore

UNIVERSE = 1 << 20
SHARD_COUNTS = [1, 3, 8]


@pytest.fixture(scope="module")
def items():
    return np.random.RandomState(61).randint(0, UNIVERSE, size=12000).astype(np.uint64)


@pytest.fixture(scope="module")
def sequential_states(items):
    """Reference single-sketch runs, one per mergeable name."""
    states = {}
    for name in mergeable_f0_names():
        estimator = make_f0_estimator(name, UNIVERSE, 0.1, seed=71)
        estimator.update_batch(items)
        states[name] = (estimator.state_dict(), estimator.estimate())
    return states


def test_shard_items_partitions_without_copying(items):
    shards = shard_items(items, 7)
    assert len(shards) == 7
    assert sum(len(shard) for shard in shards) == len(items)
    assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1
    assert np.array_equal(np.concatenate(shards), items)
    assert all(shard.base is not None for shard in shards)  # views, not copies


def test_shard_items_more_shards_than_items():
    shards = shard_items(np.arange(3, dtype=np.uint64), 8)
    assert [len(s) for s in shards] == [1, 1, 1, 0, 0, 0, 0, 0]


def test_shard_items_rejects_bad_count(items):
    with pytest.raises(ParameterError):
        shard_items(items, 0)


@pytest.mark.parametrize("name", mergeable_f0_names())
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_merge_equals_sequential_batched(
    name, shards, items, sequential_states
):
    merged = parallel_ingest_into(
        make_f0_estimator(name, UNIVERSE, 0.1, 71), items, workers=1, shards=shards
    )
    state, estimate = sequential_states[name]
    assert merged.state_dict() == state
    assert merged.estimate() == estimate


@pytest.mark.parametrize("name", mergeable_f0_names())
def test_sharded_merge_equals_sequential_scalar(name, items, sequential_states):
    """Scalar (per-item loop) shard ingest must land in the same state."""
    merged = parallel_ingest_into(
        make_f0_estimator(name, UNIVERSE, 0.1, 71),
        items,
        workers=1,
        shards=3,
        batch_size=None,  # forces update() loops inside the shard workers
    )
    state, estimate = sequential_states[name]
    assert merged.state_dict() == state
    assert merged.estimate() == estimate


@pytest.mark.parametrize("name", mergeable_f0_names())
def test_four_worker_processes_bit_identical(name, items, sequential_states):
    """The acceptance shape: real process pool, 4 workers, bit-identical."""
    merged = parallel_ingest_into(
        make_f0_estimator(name, UNIVERSE, 0.1, 71), items, workers=4, shards=4
    )
    state, estimate = sequential_states[name]
    assert merged.state_dict() == state
    assert merged.estimate() == estimate


def test_engine_accepts_materialized_streams():
    stream = uniform_random_stream(UNIVERSE, 5000, seed=73)
    merged = parallel_ingest_into(
        make_f0_estimator("hyperloglog", UNIVERSE, 0.1, 75), stream, workers=1, shards=3
    )
    single = make_f0_estimator("hyperloglog", UNIVERSE, 0.1, seed=75)
    single.update_batch(stream.item_array())
    assert merged.state_dict() == single.state_dict()


def test_mid_stream_template_state_is_preserved(items):
    """The engine clones the estimator's *current* state into workers, so
    it can take over an already-started sketch."""
    reference = make_f0_estimator("kmv", UNIVERSE, 0.1, seed=77)
    reference.update_batch(items)
    resumed = make_f0_estimator("kmv", UNIVERSE, 0.1, seed=77)
    resumed.update_batch(items[:4000])  # serial prefix ...
    parallel_ingest_into(
        resumed, items[4000:], workers=1, shards=3
    )  # ... sharded remainder
    assert resumed.state_dict() == reference.state_dict()


def test_median_wrapper_shards_and_merges(items):
    """The amplification wrapper merges pairwise, so it shards like any
    other mergeable sketch."""

    def build():
        return MedianEstimator(
            lambda index: make_f0_estimator(
                "hyperloglog", UNIVERSE, 0.15, seed=80 + index
            ),
            repetitions=3,
        )

    single = build()
    single.update_batch(items)
    sharded = build()
    parallel_ingest_into(sharded, items, workers=1, shards=3)
    assert sharded.state_dict() == single.state_dict()
    assert sharded.estimate() == single.estimate()


def test_median_wrapper_merge_validates():
    def build(repetitions):
        return MedianEstimator(
            lambda index: make_f0_estimator(
                "hyperloglog", UNIVERSE, 0.15, seed=90 + index
            ),
            repetitions=repetitions,
        )

    with pytest.raises(MergeError):
        build(3).merge(build(5))
    with pytest.raises(MergeError):
        build(3).merge(make_f0_estimator("hyperloglog", UNIVERSE, 0.15, seed=90))
    mismatched = MedianEstimator(
        lambda index: make_f0_estimator("kmv", UNIVERSE, 0.15, seed=90 + index),
        repetitions=3,
    )
    with pytest.raises(MergeError):
        build(3).merge(mismatched)  # same repetitions, different copy kinds


def test_unmergeable_estimator_raises(items):
    estimator = make_f0_estimator("knw-fast", UNIVERSE, 0.1, seed=1)
    with pytest.raises(ParameterError):
        parallel_ingest_into(estimator, items, workers=1, shards=4)


def test_seedless_estimator_raises(items):
    estimator = make_f0_estimator("hyperloglog", UNIVERSE, 0.1, seed=None)
    with pytest.raises(ParameterError):
        parallel_ingest_into(estimator, items, workers=1, shards=4)


def test_seedless_median_wrapper_raises_up_front(items):
    """The wrapper has no ``seed`` attribute of its own; the engine must
    look through to the copies instead of ingesting the whole stream and
    failing only at merge time."""
    wrapper = MedianEstimator(
        lambda index: make_f0_estimator("hyperloglog", UNIVERSE, 0.1, seed=None),
        repetitions=3,
    )
    with pytest.raises(ParameterError):
        parallel_ingest_into(wrapper, items, workers=1, shards=4)


def test_single_shard_needs_no_merge_support(items):
    """One shard degenerates to a plain feed, so even unmergeable sketches
    work with workers=1."""
    estimator = make_f0_estimator("knw-fast", UNIVERSE, 0.1, seed=1)
    parallel_ingest_into(estimator, items[:2000], workers=1)
    single = make_f0_estimator("knw-fast", UNIVERSE, 0.1, seed=1)
    single.update_batch(items[:2000])
    assert estimator.estimate() == single.estimate()


def test_mergeable_names_cover_the_figure1_baselines():
    names = set(mergeable_f0_names())
    for expected in (
        "ams",
        "bjkst",
        "exact",
        "flajolet-martin",
        "gibbons-tirthapura",
        "hyperloglog",
        "kmv",
        "knw",
        "knw-paper",
        "linear-counting",
        "loglog",
        "multiscale-bitmap",
    ):
        assert expected in names
    assert "knw-fast" not in names


# -- workers threaded through the analysis layer and the apps ------------------


def test_runner_workers_matches_serial():
    from repro.analysis.runner import run_f0_by_name

    stream = uniform_random_stream(UNIVERSE, 8000, seed=83)
    checkpoints = stream.checkpoints(3)
    serial = run_f0_by_name(
        "hyperloglog", stream, 0.1, seed=85, checkpoint_positions=checkpoints,
        batch_size=2048,
    )
    sharded = run_f0_by_name(
        "hyperloglog", stream, 0.1, seed=85, checkpoint_positions=checkpoints,
        batch_size=2048, workers=3,
    )
    assert sharded.estimate == serial.estimate
    assert [c.__dict__ for c in sharded.checkpoints] == [
        c.__dict__ for c in serial.checkpoints
    ]


def test_runner_turnstile_workers_matches_serial(turnstile_stream):
    """run_l0(workers=N) shards each segment and stays bit-identical."""
    from repro.analysis.runner import run_l0_by_name

    checkpoints = turnstile_stream.checkpoints(3)
    serial = run_l0_by_name(
        "knw-l0", turnstile_stream, 0.2, seed=87,
        checkpoint_positions=checkpoints, batch_size=256,
    )
    sharded = run_l0_by_name(
        "knw-l0", turnstile_stream, 0.2, seed=87,
        checkpoint_positions=checkpoints, batch_size=256, workers=3,
    )
    assert sharded.estimate == serial.estimate
    assert [c.__dict__ for c in sharded.checkpoints] == [
        c.__dict__ for c in serial.checkpoints
    ]


def test_sweep_workers_matches_serial():
    from repro.analysis.sweeps import accuracy_sweep

    def factory(seed):
        return uniform_random_stream(1 << 16, 3000, seed=seed)

    serial = accuracy_sweep(["hyperloglog", "kmv"], factory, [0.1], [1, 2])
    pooled = accuracy_sweep(["hyperloglog", "kmv"], factory, [0.1], [1, 2], workers=2)
    assert [point.__dict__ for point in serial] == [point.__dict__ for point in pooled]


def test_query_optimizer_partitioned_ingest_matches_column_ingest():
    from repro.apps.query_optimizer import ColumnStatisticsCollector

    rng = np.random.RandomState(87)
    values = [
        int(value) if value >= 0 else None
        for value in rng.randint(-2000, 1 << 15, size=4000)
    ]
    whole = ColumnStatisticsCollector(["c"], universe_size=1 << 16, eps=0.1, seed=5)
    whole.ingest_column("c", values)
    partitioned = ColumnStatisticsCollector(["c"], universe_size=1 << 16, eps=0.1, seed=5)
    partitioned.ingest_column_partitions(
        "c", [values[:1000], values[1000:2500], values[2500:]], workers=2
    )
    assert partitioned.ndv("c") == whole.ndv("c")
    assert partitioned._row_counts == whole._row_counts


def test_network_monitor_per_link_shards_match_union():
    import random as stdlib_random

    from repro.apps.network_monitor import FlowCardinalityMonitor
    from repro.streams.datasets import FlowRecord

    rng = stdlib_random.Random(89)
    records = [
        FlowRecord(rng.randrange(64), rng.randrange(4096), rng.randrange(1024))
        for _ in range(2400)
    ]
    links = [records[:800], records[800:1400], records[1400:]]
    sharded = FlowCardinalityMonitor(
        universe_size=1 << 16, window_packets=1 << 30, seed=2, mergeable=True
    )
    report = sharded.ingest_window_shards(links, workers=2)
    serial = FlowCardinalityMonitor(
        universe_size=1 << 16, window_packets=1 << 30, seed=2, mergeable=True
    )
    serial.observe_batch(records)
    assert report.__dict__ == serial.flush().__dict__


def test_network_monitor_shards_require_mergeable_mode():
    from repro.apps.network_monitor import FlowCardinalityMonitor

    monitor = FlowCardinalityMonitor(universe_size=1 << 16, seed=2)
    with pytest.raises(ParameterError):
        monitor.ingest_window_shards([[]])


def test_data_cleaning_parallel_pairs_match_serial():
    import random as stdlib_random

    from repro.apps.data_cleaning import SimilarColumnFinder

    rng = stdlib_random.Random(91)
    base = [rng.randrange(1 << 12) for _ in range(600)]
    finder = SimilarColumnFinder(1 << 12, eps=0.3, seed=3)
    finder.add_column("a", base)
    finder.add_column("b", base[:500] + [rng.randrange(1 << 12) for _ in range(100)])
    finder.add_column("c", [rng.randrange(1 << 12) for _ in range(600)])
    serial = [report.__dict__ for report in finder.most_similar_pairs(3)]
    pooled = [report.__dict__ for report in finder.most_similar_pairs(3, workers=2)]
    assert pooled == serial


# -- turnstile (L0) sharded ingestion ------------------------------------------
#
# The library's L0 sketches are linear with eagerly drawn hashes, so
# k-way sharded ingest + merge-reduce is bit-identical to sequential
# ingestion for *every* mergeable L0 estimator — no lazily-drawn
# configurations exist on this side.


@pytest.fixture(scope="module")
def turnstile_updates():
    """An insert+delete update stream as aligned (items, deltas) arrays."""
    rng = np.random.RandomState(67)
    inserts = rng.randint(0, UNIVERSE, size=9000).astype(np.uint64)
    deleted = inserts[rng.permutation(9000)[:3000]]
    items = np.concatenate([inserts, deleted])
    deltas = np.concatenate(
        [np.ones(9000, dtype=np.int64), -np.ones(3000, dtype=np.int64)]
    )
    return items, deltas


@pytest.fixture(scope="module")
def sequential_l0_states(turnstile_updates):
    """Reference single-sketch runs, one per mergeable L0 name."""
    from repro.parallel import mergeable_l0_names

    items, deltas = turnstile_updates
    states = {}
    for name in mergeable_l0_names():
        estimator = make_l0_estimator(name, UNIVERSE, 0.2, 1 << 16, seed=73)
        estimator.update_batch(items, deltas)
        states[name] = (estimator.state_dict(), estimator.estimate())
    return states


def test_shard_updates_partitions_without_copying(turnstile_updates):
    from repro.parallel import shard_updates

    shards = shard_updates(turnstile_updates, 7)
    assert len(shards) == 7
    assert sum(len(items) for items, _ in shards) == len(turnstile_updates[0])
    assert np.array_equal(
        np.concatenate([items for items, _ in shards]), turnstile_updates[0]
    )
    assert np.array_equal(
        np.concatenate([deltas for _, deltas in shards]), turnstile_updates[1]
    )
    assert all(items.base is not None for items, _ in shards)  # views


def test_mergeable_l0_names_cover_the_registry():
    from repro.parallel import mergeable_l0_names

    names = mergeable_l0_names()
    assert {"knw-l0", "knw-l0-paper", "ganguly", "exact-l0"} <= set(names)


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_l0_merge_equals_sequential(
    shards, turnstile_updates, sequential_l0_states
):
    from repro.parallel import mergeable_l0_names

    for name in mergeable_l0_names():
        estimator = make_l0_estimator(name, UNIVERSE, 0.2, 1 << 16, seed=73)
        parallel_ingest_into(
            estimator, *turnstile_updates, shards=shards, workers=1,
        )
        state, estimate = sequential_l0_states[name]
        assert estimator.state_dict() == state, (name, shards)
        assert estimator.estimate() == estimate, (name, shards)


def test_l0_four_worker_processes_bit_identical(
    turnstile_updates, sequential_l0_states
):
    estimator = parallel_ingest_into(
        make_l0_estimator("knw-l0", UNIVERSE, 0.2, 1 << 16, 73),
        *turnstile_updates,
        workers=4,
        shards=4,
    )
    state, estimate = sequential_l0_states["knw-l0"]
    assert estimator.state_dict() == state
    assert estimator.estimate() == estimate


def test_l0_median_wrapper_shards_and_merges(turnstile_updates):
    from repro.estimators.median import MedianTurnstileEstimator
    from repro.l0.ganguly import GangulyStyleL0Estimator

    def build():
        return MedianTurnstileEstimator(
            lambda index: GangulyStyleL0Estimator(
                UNIVERSE, eps=0.2, magnitude_bound=1 << 16, seed=120 + index
            ),
            repetitions=3,
        )

    items, deltas = turnstile_updates
    reference = build()
    reference.update_batch(items, deltas)
    sharded = build()
    parallel_ingest_into(sharded, *turnstile_updates, shards=3, workers=1)
    for mine, theirs in zip(sharded.copies, reference.copies):
        assert mine.state_dict() == theirs.state_dict()
    assert sharded.estimate() == reference.estimate()


def test_l0_mid_stream_template_state_is_preserved(turnstile_updates):
    """Sharding may start mid-stream: the template's state is cloned in."""
    items, deltas = turnstile_updates
    head_items, head_deltas = items[:2000], deltas[:2000]
    tail = (items[2000:], deltas[2000:])
    reference = make_l0_estimator("ganguly", UNIVERSE, 0.2, 1 << 16, seed=77)
    reference.update_batch(items, deltas)
    resumed = make_l0_estimator("ganguly", UNIVERSE, 0.2, 1 << 16, seed=77)
    resumed.update_batch(head_items, head_deltas)
    parallel_ingest_into(resumed, *tail, shards=3, workers=1)
    assert resumed.state_dict() == reference.state_dict()


def test_l0_unmergeable_estimator_raises(turnstile_updates):
    from repro.estimators.base import TurnstileEstimator

    class Unmergeable(TurnstileEstimator):
        seed = 1

        def update(self, item, delta):
            pass

        def estimate(self):
            return 0.0

        def space_bits(self):
            return 0

    with pytest.raises(ParameterError):
        parallel_ingest_into(
            Unmergeable(), *turnstile_updates, shards=3, workers=1,
        )


def test_l0_seedless_estimator_raises(turnstile_updates):
    estimator = make_l0_estimator("knw-l0", UNIVERSE, 0.2, 1 << 16, seed=None)
    with pytest.raises(ParameterError):
        parallel_ingest_into(estimator, *turnstile_updates, shards=3, workers=1)


def test_l0_sweep_batched_trials_match_scalar_trials():
    """The L0 sweep's batched driving changes nothing but the wall-clock."""
    from repro.analysis.sweeps import l0_accuracy_sweep
    from repro.streams.turnstile import insert_delete_stream

    def factory(seed):
        return insert_delete_stream(
            1 << 16, 1500, delete_fraction=0.4, copies=1, seed=seed
        )

    batched = l0_accuracy_sweep(["knw-l0", "ganguly"], factory, [0.2], [1, 2])
    scalar = l0_accuracy_sweep(
        ["knw-l0", "ganguly"], factory, [0.2], [1, 2], batch_size=None
    )
    pooled = l0_accuracy_sweep(
        ["knw-l0", "ganguly"], factory, [0.2], [1, 2], workers=2
    )
    assert [point.__dict__ for point in batched] == [
        point.__dict__ for point in scalar
    ]
    assert [point.__dict__ for point in batched] == [
        point.__dict__ for point in pooled
    ]


# -- the entry point: the target's type picks the plan -------------------------


def _f0_window():
    from repro.window import WindowedSketch

    return WindowedSketch(make_f0_estimator("hyperloglog", UNIVERSE, 0.1, 5), retention=4)


def _l0_window():
    from repro.window import WindowedSketch

    return WindowedSketch(
        make_l0_estimator("ganguly", UNIVERSE, 0.2, 1 << 16, 5), retention=4
    )


def _store(family="hyperloglog", **params):
    from repro.store import SketchStore

    return SketchStore.for_family(family, UNIVERSE, eps=0.2, seed=5, **params)


def _store_window(turnstile=False):
    from repro.window import WindowedSketchStore

    if turnstile:
        return WindowedSketchStore(_store("ganguly", magnitude_bound=1 << 16), retention=4)
    return WindowedSketchStore(_store(), retention=4)


_DISPATCH_ITEMS = np.arange(64, dtype=np.uint64)
_DISPATCH_DELTAS = np.ones(64, dtype=np.int64)
_DISPATCH_KEYS = np.arange(64, dtype=np.int64) % 5
_DISPATCH_EPOCHS = np.arange(64, dtype=np.int64) // 16

#: ``(target factory, inputs, (axis, recipe, discipline, kind, meta, batch_size))``
DISPATCH_TABLE = {
    "f0-estimator": (
        lambda: make_f0_estimator("hyperloglog", UNIVERSE, 0.1, 5),
        dict(),
        ("range", "clone", "merge-reduce", "items", (), 65536),
    ),
    "l0-estimator": (
        lambda: make_l0_estimator("ganguly", UNIVERSE, 0.2, 1 << 16, 5),
        dict(deltas=_DISPATCH_DELTAS),
        ("range", "cleared-clone", "additive", "updates", (), 65536),
    ),
    "store": (
        _store,
        dict(keys=_DISPATCH_KEYS),
        ("key", "cleared-clone", "merge-reduce", "keyed", (), 65536),
    ),
    "turnstile-store": (
        lambda: _store("ganguly", magnitude_bound=1 << 16),
        dict(keys=_DISPATCH_KEYS, deltas=_DISPATCH_DELTAS),
        ("key", "cleared-clone", "merge-reduce", "keyed", (), 65536),
    ),
    "f0-window": (
        _f0_window,
        dict(epochs=_DISPATCH_EPOCHS),
        ("epoch", "template-epochs", "adopt-in-order", "epochs", ("sketch", False), None),
    ),
    "l0-window": (
        _l0_window,
        dict(epochs=_DISPATCH_EPOCHS, deltas=_DISPATCH_DELTAS),
        ("epoch", "template-epochs", "adopt-in-order", "epochs", ("sketch", True), None),
    ),
    "store-window": (
        _store_window,
        dict(epochs=_DISPATCH_EPOCHS, keys=_DISPATCH_KEYS),
        ("epoch", "template-epochs", "adopt-in-order", "epochs", ("store", False), None),
    ),
    "turnstile-store-window": (
        lambda: _store_window(turnstile=True),
        dict(epochs=_DISPATCH_EPOCHS, keys=_DISPATCH_KEYS, deltas=_DISPATCH_DELTAS),
        ("epoch", "template-epochs", "adopt-in-order", "epochs", ("store", True), None),
    ),
}


@pytest.fixture
def captured_plans(monkeypatch):
    """Record the plans the entry point builds instead of executing them."""
    import repro.parallel.api as api

    plans = []

    def capture(plan, target, workers=None, spool_dir=None):
        plans.append(plan)
        return target

    monkeypatch.setattr(api, "execute_plan", capture)
    return plans


@pytest.mark.parametrize("case", sorted(DISPATCH_TABLE))
def test_target_type_picks_the_plan(case, captured_plans):
    build, inputs, expected = DISPATCH_TABLE[case]
    parallel_ingest_into(build(), _DISPATCH_ITEMS, workers=1, shards=2, **inputs)
    (plan,) = captured_plans
    assert (
        plan.axis, plan.recipe, plan.discipline, plan.kind, plan.meta, plan.batch_size
    ) == expected
    assert len(plan.shards) == 2


REJECTED_INPUTS = {
    "deltas-for-insertion-only-estimator": (
        lambda: make_f0_estimator("hyperloglog", UNIVERSE, 0.1, 5),
        dict(deltas=_DISPATCH_DELTAS),
    ),
    "turnstile-estimator-without-deltas": (
        lambda: make_l0_estimator("ganguly", UNIVERSE, 0.2, 1 << 16, 5),
        dict(),
    ),
    "keys-for-plain-estimator": (
        lambda: make_f0_estimator("hyperloglog", UNIVERSE, 0.1, 5),
        dict(keys=_DISPATCH_KEYS),
    ),
    "store-without-keys": (_store, dict()),
    "epochs-for-estimator": (
        lambda: make_f0_estimator("hyperloglog", UNIVERSE, 0.1, 5),
        dict(epochs=_DISPATCH_EPOCHS),
    ),
    "epochs-for-store": (_store, dict(keys=_DISPATCH_KEYS, epochs=_DISPATCH_EPOCHS)),
    "window-without-epochs": (_f0_window, dict()),
    "unsupported-target": (lambda: {"not": "a sketch"}, dict()),
}


@pytest.mark.parametrize("case", sorted(REJECTED_INPUTS))
def test_inputs_the_target_cannot_use_are_rejected_up_front(case, captured_plans):
    build, inputs = REJECTED_INPUTS[case]
    target = build()
    before = target.to_bytes() if hasattr(target, "to_bytes") else None
    with pytest.raises(ParameterError):
        parallel_ingest_into(target, _DISPATCH_ITEMS, workers=1, shards=2, **inputs)
    assert captured_plans == []
    if before is not None:
        assert target.to_bytes() == before


# -- a rejected batch: what sequential ingest raises, and nothing merged -------


def _out_of_universe_items():
    items = np.arange(1000, dtype=np.uint64)
    items[-1] = UNIVERSE
    return items


def _f0_rejection():
    items = _out_of_universe_items()
    return (
        lambda: make_f0_estimator("knw-paper", UNIVERSE, 0.1, 71),
        lambda target: target.update_batch(items),
        (items,),
        dict(),
    )


def _median_rejection():
    items = _out_of_universe_items()

    def build():
        return MedianEstimator(
            lambda index: make_f0_estimator("hyperloglog", UNIVERSE, 0.15, 80 + index),
            repetitions=3,
        )

    return build, lambda target: target.update_batch(items), (items,), dict()


def _l0_rejection():
    items = np.arange(1000, dtype=np.uint64)
    deltas = np.ones(999, dtype=np.int64)
    return (
        lambda: make_l0_estimator("knw-l0", UNIVERSE, 0.2, 1 << 16, 73),
        lambda target: target.update_batch(items, deltas),
        (items, deltas),
        dict(),
    )


def _store_rejection():
    items = _out_of_universe_items()
    keys = np.arange(1000, dtype=np.int64) % 8
    return (
        _store,
        lambda target: target.update_grouped(keys, items),
        (items,),
        dict(keys=keys),
    )


def _keyed_window_rejection():
    items = np.arange(1000, dtype=np.uint64)
    keys = np.arange(1000, dtype=np.int64) % 8
    epochs = np.arange(1000, dtype=np.int64) // 250
    return (
        lambda: _store_window(turnstile=True),
        lambda target: target.ingest_timestamped(epochs, keys, items),
        (items,),
        dict(keys=keys, epochs=epochs),
    )


REJECTIONS = {
    "f0-item-outside-universe": _f0_rejection,
    "median-item-outside-universe": _median_rejection,
    "l0-delta-length-mismatch": _l0_rejection,
    "store-item-outside-universe": _store_rejection,
    "keyed-window-turnstile-without-deltas": _keyed_window_rejection,
}


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejected_batch_raises_as_sequential_and_merges_nothing(case, shards):
    build, sequential, args, inputs = REJECTIONS[case]()
    with pytest.raises(Exception) as expected:
        sequential(build())
    target = build()
    before = target.to_bytes()
    with pytest.raises(Exception) as raised:
        parallel_ingest_into(target, *args, workers=1, shards=shards, **inputs)
    assert type(raised.value) is type(expected.value), raised.value
    assert target.to_bytes() == before


# -- the coordinator ingests shard 0: every target type, real processes --------

_ENGINE_RNG = np.random.RandomState(89)
_ENGINE_ITEMS = _ENGINE_RNG.randint(0, UNIVERSE, size=4000).astype(np.uint64)
_ENGINE_DELTAS = np.where(_ENGINE_RNG.rand(4000) < 0.25, -1, 2).astype(np.int64)
_ENGINE_KEYS = _ENGINE_RNG.randint(0, 24, size=4000).astype(np.int64)
_ENGINE_EPOCHS = np.arange(4000, dtype=np.int64) // 400


def _grouped_in_key_axis_order(store, shards):
    """Sequential grouped ingest, with the updates regrouped shard by shard.

    The key axis registers store rows shard by shard (part of the store's
    bytes), so this is the sequential ingest whose bytes sharding matches.
    """
    rank = np.unique(_ENGINE_KEYS, return_inverse=True)[1]
    order = np.argsort(rank % shards, kind="stable")
    store.update_grouped(_ENGINE_KEYS[order], _ENGINE_ITEMS[order])


#: ``(target factory, inputs, sequential ingest(target, shards))``
ENGINE_TARGETS = {
    "estimator": (
        lambda: make_f0_estimator("knw", UNIVERSE, 0.1, 71),
        dict(),
        lambda target, shards: target.update_batch(_ENGINE_ITEMS),
    ),
    "turnstile-estimator": (
        lambda: make_l0_estimator("knw-l0", UNIVERSE, 0.2, 1 << 16, 73),
        dict(deltas=_ENGINE_DELTAS),
        lambda target, shards: target.update_batch(_ENGINE_ITEMS, _ENGINE_DELTAS),
    ),
    "store": (_store, dict(keys=_ENGINE_KEYS), _grouped_in_key_axis_order),
    "windowed-sketch": (
        lambda: WindowedSketch(make_f0_estimator("knw", UNIVERSE, 0.1, 71), retention=16),
        dict(epochs=_ENGINE_EPOCHS),
        lambda target, shards: target.ingest_timestamped(_ENGINE_EPOCHS, _ENGINE_ITEMS),
    ),
    "windowed-store": (
        lambda: WindowedSketchStore(_store(), retention=16),
        dict(epochs=_ENGINE_EPOCHS, keys=_ENGINE_KEYS),
        lambda target, shards: target.ingest_timestamped(
            _ENGINE_EPOCHS, _ENGINE_KEYS, _ENGINE_ITEMS
        ),
    ),
}


@pytest.mark.parametrize("shards", [2, 3, 8])
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("case", sorted(ENGINE_TARGETS))
def test_coordinator_and_pool_match_sequential_bytes(case, workers, shards):
    """Shard 0 fed by the coordinator, the rest by pool processes: the
    bytes equal sequential ingest for every target type."""
    build, inputs, sequential = ENGINE_TARGETS[case]
    reference = build()
    sequential(reference, shards)
    sharded = build()
    parallel_ingest_into(sharded, _ENGINE_ITEMS, workers=workers, shards=shards, **inputs)
    assert sharded.to_bytes() == reference.to_bytes()
