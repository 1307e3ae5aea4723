"""Batch/scalar equivalence: the binding contract of ``update_batch``.

For every estimator with a vectorized ``update_batch`` override, feeding
the same stream through batches of sizes {1, 7, 1024} must leave the
sketch in *bit-identical* state — and produce identical estimates — to
the scalar ``update`` loop.  The state comparisons below reach into each
sketch's actual storage (registers, bitmaps, counters, samples, base
levels, budgets) rather than only the estimate, so a batch path that
"merely" lands near the right answer fails loudly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines.bjkst import BJKSTSampler
from repro.baselines.flajolet_martin import FlajoletMartinPCSA
from repro.baselines.hyperloglog import HyperLogLogCounter
from repro.baselines.kmv import KMinimumValues
from repro.baselines.linear_counting import LinearCounter
from repro.baselines.loglog import LogLogCounter
from repro.core.knw import KNWDistinctCounter, KNWFigure3Sketch
from repro.core.rough_estimator import FastRoughEstimator, RoughEstimator
from repro.estimators.median import MedianEstimator, MedianTurnstileEstimator
from repro.exceptions import ParameterError, UpdateError
from repro.streams.generators import (
    distinct_items_stream,
    uniform_random_stream,
    zipf_stream,
)

UNIVERSE = 1 << 20
BATCH_SIZES = [1, 7, 1024]


def _stream_items(kind: str, length: int, seed: int):
    if kind == "uniform":
        stream = uniform_random_stream(UNIVERSE, length, seed=seed)
    elif kind == "zipf":
        stream = zipf_stream(UNIVERSE, length, seed=seed)
    else:
        stream = distinct_items_stream(UNIVERSE, length // 2, repetitions=2, seed=seed)
    return [update.item for update in stream]


def _feed_batches(estimator, items, batch_size):
    for start in range(0, len(items), batch_size):
        estimator.update_batch(
            np.asarray(items[start : start + batch_size], dtype=np.uint64)
        )


# -- per-estimator state extractors (the full externally meaningful state) -----


def _hll_state(est):
    return est._registers.tolist()


def _fm_state(est):
    return [bitmap.to_list() for bitmap in est._bitmaps]


def _lc_state(est):
    return est._bitmap.to_list()


def _kmv_state(est):
    return (est._values, sorted(est._members))


def _bjkst_state(est):
    return (est._level, est._sample)


def _rough_state(est):
    return est._counters.tolist()


def _fast_rough_state(est):
    return (_rough_state(est), est._committed_level, est._cached_estimate)


def _fig3_state(est):
    return (
        est._counters.tolist(),
        est._base_level,
        est._est_exponent,
        est._occupied,
        est._bit_budget,
        est._failed,
    )


def _knw_state(est):
    return (
        _fig3_state(est.core),
        _rough_state(est.core.rough),
        sorted(est.small._exact),
        est.small._exact_overflowed,
        est.small._bits.to_list(),
    )


def _median_hll_state(est):
    return [_hll_state(copy) for copy in est.copies]


def _median_knw_state(est):
    return [_knw_state(copy) for copy in est.copies]


def _median_hll(seed):
    return MedianEstimator(
        lambda index: HyperLogLogCounter(UNIVERSE, eps=0.05, seed=seed + index),
        repetitions=3,
    )


def _median_knw(seed):
    return MedianEstimator(
        lambda index: KNWDistinctCounter(UNIVERSE, eps=0.1, seed=seed + index),
        repetitions=3,
    )


ESTIMATORS = [
    ("hyperloglog", lambda seed: HyperLogLogCounter(UNIVERSE, eps=0.05, seed=seed), _hll_state),
    ("loglog", lambda seed: LogLogCounter(UNIVERSE, eps=0.05, seed=seed), _hll_state),
    ("flajolet-martin", lambda seed: FlajoletMartinPCSA(UNIVERSE, maps=64, seed=seed), _fm_state),
    ("linear-counting", lambda seed: LinearCounter(UNIVERSE, bits=4096, seed=seed), _lc_state),
    ("kmv", lambda seed: KMinimumValues(UNIVERSE, eps=0.05, seed=seed), _kmv_state),
    ("bjkst", lambda seed: BJKSTSampler(UNIVERSE, eps=0.05, seed=seed), _bjkst_state),
    ("rough", lambda seed: RoughEstimator(UNIVERSE, seed=seed), _rough_state),
    (
        "rough-uniform",
        lambda seed: RoughEstimator(UNIVERSE, seed=seed, use_uniform_family=True),
        _rough_state,
    ),
    ("rough-fast", lambda seed: FastRoughEstimator(UNIVERSE, seed=seed), _fast_rough_state),
    ("figure3", lambda seed: KNWFigure3Sketch(UNIVERSE, eps=0.1, seed=seed), _fig3_state),
    ("knw", lambda seed: KNWDistinctCounter(UNIVERSE, eps=0.05, seed=seed), _knw_state),
    (
        "knw-paper",
        lambda seed: KNWDistinctCounter(
            UNIVERSE, eps=0.05, seed=seed, offset_divisor=32, rough_uniform_family=False
        ),
        _knw_state,
    ),
    # The amplification wrappers must forward batches to every copy (a
    # wrapper falling back to the base per-item loop would still be
    # *correct*, so only a state comparison across batch sizes — via the
    # copies' states — pins the forwarding down).
    ("median-hll", _median_hll, _median_hll_state),
    ("median-knw", _median_knw, _median_knw_state),
]


@pytest.mark.parametrize("workload", ["uniform", "zipf", "distinct"])
@pytest.mark.parametrize(
    "name,factory,state", ESTIMATORS, ids=[entry[0] for entry in ESTIMATORS]
)
def test_batch_matches_scalar_bit_for_bit(name, factory, state, workload):
    items = _stream_items(workload, 6000, seed=101)
    scalar = factory(31)
    for item in items:
        scalar.update(item)
    scalar_state = state(scalar)
    scalar_estimate = scalar.estimate()
    for batch_size in BATCH_SIZES:
        batched = factory(31)
        _feed_batches(batched, items, batch_size)
        assert state(batched) == scalar_state, (
            "%s state diverged at batch size %d" % (name, batch_size)
        )
        assert batched.estimate() == scalar_estimate, (
            "%s estimate diverged at batch size %d" % (name, batch_size)
        )


@pytest.mark.parametrize(
    "name,factory,state", ESTIMATORS, ids=[entry[0] for entry in ESTIMATORS]
)
def test_mixed_scalar_and_batch_ingestion(name, factory, state):
    """Interleaving scalar updates and batches must equal the pure loop."""
    items = _stream_items("uniform", 3000, seed=7)
    reference = factory(5)
    for item in items:
        reference.update(item)
    mixed = factory(5)
    cursor = 0
    rng = random.Random(9)
    while cursor < len(items):
        if rng.random() < 0.5:
            mixed.update(items[cursor])
            cursor += 1
        else:
            take = rng.randrange(1, 300)
            mixed.update_batch(np.asarray(items[cursor : cursor + take], dtype=np.uint64))
            cursor += take
    assert state(mixed) == state(reference)
    assert mixed.estimate() == reference.estimate()


def test_empty_batch_is_a_no_op():
    estimator = HyperLogLogCounter(UNIVERSE, eps=0.05, seed=1)
    before = _hll_state(estimator)
    estimator.update_batch(np.asarray([], dtype=np.uint64))
    estimator.update_batch([])
    assert _hll_state(estimator) == before


def test_batch_validation_is_all_or_nothing():
    """An out-of-universe batch raises and leaves the sketch untouched."""
    estimator = KNWDistinctCounter(UNIVERSE, eps=0.1, seed=3)
    estimator.update_batch(np.arange(100, dtype=np.uint64))
    before = _knw_state(estimator)
    with pytest.raises(ParameterError):
        estimator.update_batch(np.asarray([5, UNIVERSE + 4, 6], dtype=np.uint64))
    assert _knw_state(estimator) == before


def test_batch_list_input_accepted():
    """update_batch accepts plain Python sequences, not just ndarrays."""
    a = KMinimumValues(UNIVERSE, eps=0.1, seed=11)
    b = KMinimumValues(UNIVERSE, eps=0.1, seed=11)
    items = _stream_items("uniform", 500, seed=13)
    for item in items:
        a.update(item)
    b.update_batch(items)
    assert _kmv_state(a) == _kmv_state(b)


def test_batched_merge_matches_scalar_merge():
    """Merging batch-fed sketches equals merging scalar-fed sketches."""
    left_items = _stream_items("uniform", 2000, seed=17)
    right_items = _stream_items("uniform", 2000, seed=19)

    def merged(feed):
        left = KNWDistinctCounter(UNIVERSE, eps=0.1, seed=23)
        right = KNWDistinctCounter(UNIVERSE, eps=0.1, seed=23)
        feed(left, left_items)
        feed(right, right_items)
        left.merge(right)
        return left

    def scalar_feed(est, items):
        for item in items:
            est.update(item)

    def batch_feed(est, items):
        est.update_batch(np.asarray(items, dtype=np.uint64))

    scalar_merged = merged(scalar_feed)
    batch_merged = merged(batch_feed)
    assert _knw_state(batch_merged) == _knw_state(scalar_merged)
    assert batch_merged.estimate() == scalar_merged.estimate()


def test_giant_universe_batch_matches_scalar():
    """Universes beyond 2^61 take the exact object-array hash fallback;
    batch ingestion must still work and agree with the scalar loop."""
    universe = 1 << 62
    items = [random.Random(3).randrange(universe) for _ in range(300)]
    cases = [
        ("knw", lambda: KNWDistinctCounter(universe, eps=0.1, seed=5), _knw_state),
        ("bjkst", lambda: BJKSTSampler(universe, eps=0.1, seed=5), _bjkst_state),
        ("rough", lambda: RoughEstimator(universe, seed=5), _rough_state),
        (
            "hyperloglog",
            lambda: HyperLogLogCounter(universe, eps=0.1, seed=5),
            _hll_state,
        ),
        ("kmv", lambda: KMinimumValues(universe, eps=0.1, seed=5), _kmv_state),
    ]
    for name, factory, state in cases:
        scalar = factory()
        for item in items:
            scalar.update(item)
        batched = factory()
        for start in range(0, len(items), 97):
            batched.update_batch(items[start : start + 97])
        assert state(batched) == state(scalar), name
        assert batched.estimate() == scalar.estimate(), name


def test_network_monitor_observe_batch_equals_observe():
    from repro.apps.network_monitor import FlowCardinalityMonitor
    from repro.streams.datasets import FlowRecord

    rng = random.Random(41)
    records = [
        FlowRecord(rng.randrange(64), rng.randrange(4096), rng.randrange(1024))
        for _ in range(2500)
    ]
    scalar = FlowCardinalityMonitor(universe_size=1 << 16, window_packets=1000, seed=2)
    batched = FlowCardinalityMonitor(universe_size=1 << 16, window_packets=1000, seed=2)
    scalar_reports = [r for r in (scalar.observe(rec) for rec in records) if r]
    batched_reports = []
    for start in range(0, len(records), 700):
        batched_reports.extend(batched.observe_batch(records[start : start + 700]))
    assert [r.__dict__ for r in batched_reports] == [r.__dict__ for r in scalar_reports]
    assert scalar.flush().__dict__ == batched.flush().__dict__


def test_query_optimizer_column_ingest_equals_row_ingest():
    from repro.apps.query_optimizer import ColumnStatisticsCollector

    rng = random.Random(43)
    values = [rng.randrange(1 << 16) if rng.random() > 0.1 else None for _ in range(3000)]
    by_row = ColumnStatisticsCollector(["c"], universe_size=1 << 16, eps=0.1, seed=5)
    by_column = ColumnStatisticsCollector(["c"], universe_size=1 << 16, eps=0.1, seed=5)
    for value in values:
        by_row.ingest_row({"c": value})
    by_column.ingest_column("c", values)
    assert by_row.ndv("c") == by_column.ndv("c")
    assert by_row._row_counts == by_column._row_counts


def test_process_stream_batched_equals_scalar():
    stream = uniform_random_stream(UNIVERSE, 4000, seed=29)
    scalar = HyperLogLogCounter(UNIVERSE, eps=0.05, seed=31)
    batched = HyperLogLogCounter(UNIVERSE, eps=0.05, seed=31)
    scalar_result = scalar.process_stream(stream)
    batched_result = batched.process_stream(stream, batch_size=512)
    assert scalar_result == batched_result
    assert _hll_state(scalar) == _hll_state(batched)


def test_median_wrapper_uses_the_copies_batch_paths():
    """Forwarded batches must reach the vectorized overrides, not the base
    loop: a probe copy records which entry point was used."""

    class Probe(HyperLogLogCounter):
        batch_calls = 0
        scalar_calls = 0

        def update(self, item):
            Probe.scalar_calls += 1
            super().update(item)

        def update_batch(self, items):
            Probe.batch_calls += 1
            super().update_batch(items)

    wrapper = MedianEstimator(
        lambda index: Probe(UNIVERSE, eps=0.1, seed=index), repetitions=3
    )
    wrapper.update_batch(np.arange(500, dtype=np.uint64))
    assert Probe.batch_calls == 3
    assert Probe.scalar_calls == 0


def test_median_turnstile_batch_matches_scalar():
    from repro.l0.knw_l0 import KNWHammingNormEstimator

    def build():
        return MedianTurnstileEstimator(
            lambda index: KNWHammingNormEstimator(
                UNIVERSE, eps=0.2, magnitude_bound=1 << 12, seed=60 + index
            ),
            repetitions=3,
        )

    rng = random.Random(63)
    updates = [(rng.randrange(1 << 12), rng.choice([1, 1, 1, -1])) for _ in range(900)]
    scalar = build()
    for item, delta in updates:
        scalar.update(item, delta)
    batched = build()
    for start in range(0, len(updates), 250):
        chunk = updates[start : start + 250]
        batched.update_batch([i for i, _ in chunk], [d for _, d in chunk])
    assert batched.estimate() == scalar.estimate()
    for mine, theirs in zip(batched.copies, scalar.copies):
        assert mine.state_dict() == theirs.state_dict()


def test_median_turnstile_batch_validates_lengths():
    from repro.l0.knw_l0 import KNWHammingNormEstimator

    wrapper = MedianTurnstileEstimator(
        lambda index: KNWHammingNormEstimator(
            UNIVERSE, eps=0.2, magnitude_bound=1 << 12, seed=index
        ),
        repetitions=3,
    )
    before = [copy.state_dict() for copy in wrapper.copies]
    with pytest.raises(UpdateError):
        wrapper.update_batch([1, 2, 3], [1, 1])
    assert [copy.state_dict() for copy in wrapper.copies] == before


def test_turnstile_process_stream_batched_equals_scalar(turnstile_stream):
    from repro.l0.knw_l0 import KNWHammingNormEstimator

    def build():
        return KNWHammingNormEstimator(
            turnstile_stream.universe_size,
            eps=0.2,
            magnitude_bound=1 << 12,
            seed=67,
        )

    scalar = build()
    scalar_result = scalar.process_stream(turnstile_stream)
    for batch_size in (1, 7, 256):
        batched = build()
        batched_result = batched.process_stream(turnstile_stream, batch_size=batch_size)
        assert batched_result == scalar_result
        assert batched.state_dict() == scalar.state_dict()


# -- turnstile (L0) batch equivalence ------------------------------------------
#
# The vectorized turnstile pipeline carries the same binding contract as
# the F0 side: for every registry L0 estimator, any batch split of an
# insert+delete stream must leave *bit-identical* state (``state_dict``
# reaches every counter, prime, and hash) and identical estimates.

L0_UNIVERSE = 1 << 16
L0_MAGNITUDE = 1 << 12
L0_BATCH_SIZES = [1, 7, 512]


def _turnstile_updates(length, seed, signs=(1, 1, 1, -1), deltas=(1,)):
    """An insert-heavy mixed stream whose deletions hit previously seen items."""
    rng = random.Random(seed)
    updates = []
    seen = []
    for _ in range(length):
        if seen and rng.random() < 0.3:
            updates.append((rng.choice(seen), -1))
        else:
            item = rng.randrange(L0_UNIVERSE)
            seen.append(item)
            updates.append((item, rng.choice(deltas) * rng.choice(signs)))
    return updates


def _feed_update_batches(estimator, updates, batch_size):
    items = np.asarray([item for item, _ in updates], dtype=np.uint64)
    deltas = np.asarray([delta for _, delta in updates], dtype=np.int64)
    for start in range(0, len(updates), batch_size):
        estimator.update_batch(
            items[start : start + batch_size], deltas[start : start + batch_size]
        )


def _l0_registry_cases():
    from repro.estimators.registry import l0_algorithm_names, make_l0_estimator

    return [
        (
            name,
            lambda seed, name=name: make_l0_estimator(
                name, L0_UNIVERSE, 0.2, L0_MAGNITUDE, seed=seed
            ),
        )
        for name in l0_algorithm_names()
    ]


@pytest.mark.parametrize("deltas", [(1,), (1, 2, 5)], ids=["unit", "multi"])
@pytest.mark.parametrize(
    "name,factory", _l0_registry_cases(), ids=[c[0] for c in _l0_registry_cases()]
)
def test_turnstile_batch_matches_scalar_bit_for_bit(name, factory, deltas):
    """Insert+delete mixes: every registry L0 estimator, every batch split."""
    updates = _turnstile_updates(3000, seed=211, deltas=deltas)
    scalar = factory(37)
    for item, delta in updates:
        scalar.update(item, delta)
    scalar_state = scalar.state_dict()
    scalar_estimate = scalar.estimate()
    for batch_size in L0_BATCH_SIZES:
        batched = factory(37)
        _feed_update_batches(batched, updates, batch_size)
        assert batched.state_dict() == scalar_state, (
            "%s state diverged at batch size %d" % (name, batch_size)
        )
        assert batched.estimate() == scalar_estimate, (
            "%s estimate diverged at batch size %d" % (name, batch_size)
        )


@pytest.mark.parametrize(
    "name,factory", _l0_registry_cases(), ids=[c[0] for c in _l0_registry_cases()]
)
def test_turnstile_mixed_scalar_and_batch_ingestion(name, factory):
    """Interleaving scalar updates and batches must equal the pure loop."""
    updates = _turnstile_updates(2000, seed=223)
    reference = factory(41)
    for item, delta in updates:
        reference.update(item, delta)
    mixed = factory(41)
    cursor = 0
    rng = random.Random(13)
    while cursor < len(updates):
        if rng.random() < 0.5:
            item, delta = updates[cursor]
            mixed.update(item, delta)
            cursor += 1
        else:
            take = rng.randrange(1, 300)
            chunk = updates[cursor : cursor + take]
            mixed.update_batch(
                np.asarray([i for i, _ in chunk], dtype=np.uint64),
                np.asarray([d for _, d in chunk], dtype=np.int64),
            )
            cursor += take
    assert mixed.state_dict() == reference.state_dict(), name
    assert mixed.estimate() == reference.estimate(), name


def test_turnstile_batch_validation_is_all_or_nothing():
    """An out-of-universe batch raises and leaves the sketch untouched."""
    from repro.l0.knw_l0 import KNWHammingNormEstimator

    estimator = KNWHammingNormEstimator(
        L0_UNIVERSE, eps=0.2, magnitude_bound=L0_MAGNITUDE, seed=3
    )
    estimator.update_batch(np.arange(100, dtype=np.uint64), np.ones(100, dtype=np.int64))
    before = estimator.state_dict()
    with pytest.raises(ParameterError):
        estimator.update_batch(
            np.asarray([5, L0_UNIVERSE + 4, 6], dtype=np.uint64),
            np.ones(3, dtype=np.int64),
        )
    with pytest.raises(UpdateError):
        estimator.update_batch(np.asarray([5, 6], dtype=np.uint64), [1])
    assert estimator.state_dict() == before


def test_turnstile_zero_deltas_and_lists_match_scalar():
    """Zero deltas are skipped like the scalar update; list input works."""
    from repro.l0.knw_l0 import KNWHammingNormEstimator

    def build():
        return KNWHammingNormEstimator(
            L0_UNIVERSE, eps=0.2, magnitude_bound=L0_MAGNITUDE, seed=47
        )

    reference = build()
    for item in range(50):
        reference.update(item, 2)
    batched = build()
    batched.update_batch(list(range(50)), [2, 0] * 25)  # zero deltas interleaved
    batched.update_batch([item for item in range(1, 50, 2)], [2] * 25)
    assert batched.state_dict() == reference.state_dict()


def test_turnstile_median_wrapper_batch_matches_scalar():
    """The median wrapper forwards batches; copies stay bit-identical."""
    from repro.l0.ganguly import GangulyStyleL0Estimator

    def build():
        return MedianTurnstileEstimator(
            lambda index: GangulyStyleL0Estimator(
                L0_UNIVERSE, eps=0.2, magnitude_bound=L0_MAGNITUDE, seed=90 + index
            ),
            repetitions=3,
        )

    updates = _turnstile_updates(1500, seed=229)
    scalar = build()
    for item, delta in updates:
        scalar.update(item, delta)
    for batch_size in (1, 333):
        batched = build()
        _feed_update_batches(batched, updates, batch_size)
        for mine, theirs in zip(batched.copies, scalar.copies):
            assert mine.state_dict() == theirs.state_dict()
        assert batched.estimate() == scalar.estimate()


@pytest.mark.parametrize(
    "name,factory", _l0_registry_cases(), ids=[c[0] for c in _l0_registry_cases()]
)
def test_turnstile_serialize_round_trip_mid_batch_ingest(name, factory):
    """to_bytes mid-batch-ingest, revive, continue batching: bit-identical."""
    from repro.estimators.base import TurnstileEstimator

    updates = _turnstile_updates(2000, seed=233)
    first, second = updates[:1000], updates[1000:]
    reference = factory(53)
    _feed_update_batches(reference, first, 256)
    revived = TurnstileEstimator.from_bytes(reference.to_bytes())
    assert revived.state_dict() == reference.state_dict()
    _feed_update_batches(reference, second, 256)
    _feed_update_batches(revived, second, 256)
    assert revived.state_dict() == reference.state_dict(), name
    assert revived.estimate() == reference.estimate(), name


def test_network_monitor_flow_events_batch_equals_scalar():
    """The monitor's deletion path: batched open/close events match scalar."""
    from repro.apps.network_monitor import FlowCardinalityMonitor
    from repro.streams.datasets import FlowRecord

    rng = random.Random(59)
    events = []
    open_flows = []
    for _ in range(2000):
        if open_flows and rng.random() < 0.4:
            record = open_flows.pop(rng.randrange(len(open_flows)))
            events.append((record, -1))
        else:
            record = FlowRecord(
                rng.randrange(256), rng.randrange(4096), rng.randrange(1024)
            )
            open_flows.append(record)
            events.append((record, 1))

    def build():
        return FlowCardinalityMonitor(
            universe_size=1 << 16, seed=2, track_active_flows=True
        )

    scalar = build()
    for record, delta in events:
        if delta > 0:
            scalar.observe_flow_open(record)
        else:
            scalar.observe_flow_close(record)
    batched = build()
    for start in range(0, len(events), 700):
        chunk = events[start : start + 700]
        batched.observe_flow_events_batch(
            [record for record, _ in chunk], [delta for _, delta in chunk]
        )
    assert (
        batched._active_flows.state_dict() == scalar._active_flows.state_dict()
    )
    assert batched.active_flow_estimate() == scalar.active_flow_estimate()
    # The estimate tracks the true number of open flows within the sketch's
    # accuracy envelope (exact below the small-L0 handover).
    assert scalar.active_flow_estimate() == pytest.approx(
        len(open_flows), rel=0.35
    )


def test_monitor_without_flow_tracking_refuses_flow_events():
    from repro.apps.network_monitor import FlowCardinalityMonitor
    from repro.streams.datasets import FlowRecord

    monitor = FlowCardinalityMonitor(universe_size=1 << 16, seed=2)
    with pytest.raises(ParameterError):
        monitor.observe_flow_open(FlowRecord(1, 2, 3))
    with pytest.raises(ParameterError):
        monitor.active_flow_estimate()


def test_iter_update_batches_views(turnstile_stream):
    items = turnstile_stream.item_array()
    deltas = turnstile_stream.delta_array()
    rebuilt_items, rebuilt_deltas = [], []
    for chunk_items, chunk_deltas in turnstile_stream.iter_update_batches(100):
        assert len(chunk_items) == len(chunk_deltas) <= 100
        rebuilt_items.extend(chunk_items.tolist())
        rebuilt_deltas.extend(chunk_deltas.tolist())
    assert rebuilt_items == items.tolist()
    assert rebuilt_deltas == deltas.tolist()
    with pytest.raises(ParameterError):
        next(turnstile_stream.iter_update_batches(0))
