"""Workload-zoo stress suite: cross-path equivalence and accuracy envelopes.

For every registry family, on every workload class it can legally ingest,
the five ingestion paths must agree:

* **scalar** — the ``update``/``update(item, delta)`` loop (the reference).
* **batch** — vectorized ``update_batch`` chunks.
* **grouped store** — a :class:`repro.store.SketchStore` row fed through
  the grouped scatter (skipped for the seedless ``exact``/``exact-l0``
  templates, which the object store refuses by design).
* **sharded parallel** — :mod:`repro.parallel` merge-reduce over shards
  (mergeable families only).
* **windowed** — :class:`repro.window.WindowedSketch` epoch rollups
  (mergeable families only).

"Agree" means *bit-identical* ``state_dict`` — after scrubbing the
scalar-loop memo caches (``_last_item`` / ``_last_extended_bin``), which
the repo's batch-equivalence suite likewise excludes — plus an accuracy
envelope against the generator's exact ground truth.  Envelopes are
per-family: engineering configurations get a multiple of the sizing
``eps``; the paper-faithful constant configurations (``knw-paper``,
``knw-l0-paper``) and the order-of-magnitude AMS baseline are only
sanity-bounded at this scaled-down sketch size (their constants want far
larger sketches than a test-sized universe justifies).

Scale is env-tunable: ``WORKLOAD_TEST_UNIVERSE``, ``WORKLOAD_TEST_LENGTH``,
``WORKLOAD_TEST_KEYS``, ``WORKLOAD_TEST_EPOCHS``,
``WORKLOAD_TEST_EPOCH_UPDATES`` override the defaults (see
:func:`repro.streams.workloads.scale_from_env`).  Envelope assertions are
calibrated at the default scale and are skipped under overrides.
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from repro import serialize
from repro.estimators.registry import (
    f0_algorithm_names,
    l0_algorithm_names,
    make_f0_estimator,
    make_l0_estimator,
)
from repro.exceptions import ParameterError
from repro.parallel import (
    mergeable_f0_names,
    mergeable_l0_names,
    parallel_ingest_into,
)
from repro.store import SketchStore
from repro.streams import (
    WorkloadScale,
    make_workload,
    scale_from_env,
    workload_class,
    workload_class_names,
    workload_fingerprint,
)
from repro.window import WindowedSketch

DEFAULT_TEST_SCALE = WorkloadScale(
    universe_size=1 << 14,
    length=1_500,
    key_count=16,
    epochs=4,
    updates_per_epoch=200,
)
TEST_SCALE = scale_from_env(default=DEFAULT_TEST_SCALE, prefix="WORKLOAD_TEST")
AT_DEFAULT_SCALE = TEST_SCALE == DEFAULT_TEST_SCALE

EPS = 0.2
WORKLOAD_SEED = 1031
ENVELOPE_SEEDS = (1, 2, 3, 4, 5)

CLASSES = workload_class_names()
INSERTION_CLASSES = [c for c in CLASSES if not workload_class(c).turnstile]
TURNSTILE_CLASSES = [c for c in CLASSES if workload_class(c).turnstile]

#: Registry templates without an explicit seed; the object sketch store
#: refuses them (every row must share seed-derived hash functions).
STORELESS = {"exact", "exact-l0"}

#: Maximum allowed *median* relative error (over ENVELOPE_SEEDS) per
#: family, on every workload class.  Tiers: exact/deterministic families
#: must be (near-)exact; engineering configurations get 3x the sizing
#: eps; the AMS baseline is an order-of-magnitude estimator; the
#: paper-constant configurations are sanity-bounded only (their
#: guarantees assume sketch sizes a test universe cannot justify).
ENVELOPE = {
    "exact": 0.01,
    "exact-l0": 0.01,
    "bjkst": 0.1,
    "gibbons-tirthapura": 0.1,
    "hyperloglog": 3 * EPS,
    "loglog": 3 * EPS,
    "kmv": 3 * EPS,
    "multiscale-bitmap": 3 * EPS,
    "flajolet-martin": 3 * EPS,
    "knw": 3 * EPS,
    "knw-fast": 3 * EPS,
    "knw-l0": 3 * EPS,
    "ganguly": 3 * EPS,
    "linear-counting": 1.0,
    "ams": 2.5,
    "knw-paper": 1.25,
    "knw-l0-paper": 1.25,
}

#: Scalar-loop memo caches excluded from bit-identity comparisons (the
#: batch-equivalence suite's state extractors exclude them the same way).
_CACHE_FIELDS = {"_last_item", "_last_extended_bin"}


def canonical_state(estimator):
    """``state_dict()`` with per-item memo caches scrubbed."""

    def scrub(node):
        if isinstance(node, dict):
            return {
                key: scrub(value)
                for key, value in node.items()
                if key not in _CACHE_FIELDS
            }
        if isinstance(node, list):
            return [scrub(entry) for entry in node]
        return node

    return scrub(estimator.state_dict())


def _stream(cls_name):
    return make_workload(cls_name, "stream", seed=WORKLOAD_SEED, scale=TEST_SCALE)


def _magnitude_bound(stream):
    return max(len(stream) * stream.max_update_magnitude(), 1)


# ---------------------------------------------------------------------------
# Cross-path grid: F0 families x insertion-only classes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls_name", INSERTION_CLASSES)
@pytest.mark.parametrize("family", f0_algorithm_names())
def test_f0_cross_path_bit_identity(family, cls_name):
    stream = _stream(cls_name)
    items = stream.item_array()
    universe = stream.universe_size

    def fresh(seed=7):
        return make_f0_estimator(family, universe, EPS, seed)

    reference = fresh()
    reference.update_batch(items)
    reference_state = canonical_state(reference)
    reference_estimate = reference.estimate()

    # scalar loop == batch
    scalar = fresh()
    for item in items.tolist():
        scalar.update(item)
    assert canonical_state(scalar) == reference_state
    assert scalar.estimate() == reference_estimate

    # uneven batch split == one batch
    split = fresh()
    for start in range(0, len(items), 311):
        split.update_batch(items[start : start + 311])
    assert canonical_state(split) == reference_state

    # grouped-store row == batch
    if family not in STORELESS:
        store = SketchStore.for_family(family, universe, keys=["k"], eps=EPS, seed=7)
        store.update_batch("k", items)
        assert canonical_state(store.sketch("k")) == reference_state
        assert store.estimate("k") == reference_estimate

    # sharded merge-reduce == batch (mergeable families only)
    if family in mergeable_f0_names():
        sharded = fresh()
        parallel_ingest_into(sharded, items, workers=1, shards=4)
        assert canonical_state(sharded) == reference_state
        assert sharded.estimate() == reference_estimate

    # windowed single-epoch rollup == batch (mergeable families only)
    if family in mergeable_f0_names():
        ring = WindowedSketch(fresh(), retention=2)
        ring.ingest_timestamped(np.zeros(len(items), dtype=np.int64), items)
        assert canonical_state(ring.window_sketch(1)) == reference_state
        assert ring.estimate_window(1) == reference_estimate


@pytest.mark.parametrize("cls_name", CLASSES)
@pytest.mark.parametrize("family", l0_algorithm_names())
def test_l0_cross_path_bit_identity(family, cls_name):
    """L0 families ingest every class: insertion-only streams are legal
    turnstile streams whose deltas are all +1."""
    stream = _stream(cls_name)
    items = stream.item_array()
    deltas = stream.delta_array()
    universe = stream.universe_size
    bound = _magnitude_bound(stream)

    def fresh(seed=7):
        return make_l0_estimator(family, universe, EPS, bound, seed)

    reference = fresh()
    reference.update_batch(items, deltas)
    reference_state = canonical_state(reference)
    reference_estimate = reference.estimate()

    scalar = fresh()
    for item, delta in zip(items.tolist(), deltas.tolist()):
        scalar.update(item, delta)
    assert canonical_state(scalar) == reference_state
    assert scalar.estimate() == reference_estimate

    split = fresh()
    for start in range(0, len(items), 311):
        split.update_batch(items[start : start + 311], deltas[start : start + 311])
    assert canonical_state(split) == reference_state

    if family not in STORELESS:
        store = SketchStore.for_family(
            family, universe, keys=["k"], eps=EPS, seed=7, magnitude_bound=bound
        )
        store.update_batch("k", items, deltas)
        assert canonical_state(store.sketch("k")) == reference_state
        assert store.estimate("k") == reference_estimate

    if family in mergeable_l0_names():
        sharded = fresh()
        parallel_ingest_into(sharded, items, deltas, workers=1, shards=4)
        assert canonical_state(sharded) == reference_state
        assert sharded.estimate() == reference_estimate

        ring = WindowedSketch(fresh(), retention=2)
        ring.ingest_timestamped(np.zeros(len(items), dtype=np.int64), items, deltas)
        assert canonical_state(ring.window_sketch(1)) == reference_state
        assert ring.estimate_window(1) == reference_estimate


# ---------------------------------------------------------------------------
# Accuracy envelopes: every family, every class it can ingest
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    not AT_DEFAULT_SCALE, reason="envelopes calibrated at the default scale"
)
@pytest.mark.parametrize("cls_name", INSERTION_CLASSES)
@pytest.mark.parametrize("family", f0_algorithm_names())
def test_f0_within_envelope(family, cls_name):
    stream = _stream(cls_name)
    items = stream.item_array()
    truth = stream.ground_truth()
    errors = []
    for seed in ENVELOPE_SEEDS:
        estimator = make_f0_estimator(family, stream.universe_size, EPS, seed)
        estimator.update_batch(items)
        errors.append(abs(estimator.estimate() - truth) / max(truth, 1))
    assert statistics.median(errors) <= ENVELOPE[family], (
        "%s on %s: median error %.3f over envelope %.3f (truth %d)"
        % (family, cls_name, statistics.median(errors), ENVELOPE[family], truth)
    )


@pytest.mark.skipif(
    not AT_DEFAULT_SCALE, reason="envelopes calibrated at the default scale"
)
@pytest.mark.parametrize("cls_name", CLASSES)
@pytest.mark.parametrize("family", l0_algorithm_names())
def test_l0_within_envelope(family, cls_name):
    stream = _stream(cls_name)
    items = stream.item_array()
    deltas = stream.delta_array()
    truth = stream.ground_truth()
    bound = _magnitude_bound(stream)
    errors = []
    for seed in ENVELOPE_SEEDS:
        estimator = make_l0_estimator(family, stream.universe_size, EPS, bound, seed)
        estimator.update_batch(items, deltas)
        errors.append(abs(estimator.estimate() - truth) / max(truth, 1))
    assert statistics.median(errors) <= ENVELOPE[family], (
        "%s on %s: median error %.3f over envelope %.3f (truth %d)"
        % (family, cls_name, statistics.median(errors), ENVELOPE[family], truth)
    )


# ---------------------------------------------------------------------------
# Grouped-store path over the keyed shapes
# ---------------------------------------------------------------------------

_KEYED_F0_FAMILIES = [n for n in f0_algorithm_names() if n not in STORELESS]
_KEYED_L0_FAMILIES = [n for n in l0_algorithm_names() if n not in STORELESS]


@pytest.mark.parametrize("cls_name", INSERTION_CLASSES)
@pytest.mark.parametrize("family", _KEYED_F0_FAMILIES)
def test_keyed_grouped_store_paths_agree(family, cls_name):
    """Grouped sweeps, per-key batches, and the scalar loop build
    byte-identical stores; each row equals a standalone same-seed sketch."""
    workload = make_workload(cls_name, "keyed", seed=WORKLOAD_SEED, scale=TEST_SCALE)
    universe = workload.universe_size

    def build():
        return SketchStore.for_family(family, universe, eps=EPS, seed=7)

    grouped = build()
    for keys, items in workload.iter_grouped_batches(257):
        grouped.update_grouped(keys, items)

    one_sweep = build()
    one_sweep.update_grouped(workload.keys, workload.items)
    assert one_sweep.to_bytes() == grouped.to_bytes()

    # The scalar loop populates per-row memo caches, so compare rows
    # through the canonical (cache-scrubbed) state rather than raw bytes.
    scalar = build()
    for key, item in zip(workload.keys.tolist(), workload.items.tolist()):
        scalar.update(key, item)
    assert scalar.keys == grouped.keys
    for key in grouped.keys:
        assert canonical_state(scalar.sketch(key)) == canonical_state(
            grouped.sketch(key)
        )

    # spot-check rows against standalone clones of the store template
    per_key_items = {}
    for key, item in zip(workload.keys.tolist(), workload.items.tolist()):
        per_key_items.setdefault(key, []).append(item)
    for key in list(per_key_items)[:3]:
        standalone = grouped.make_sketch()
        standalone.update_batch(np.asarray(per_key_items[key], dtype=np.uint64))
        assert canonical_state(grouped.sketch(key)) == canonical_state(standalone)


@pytest.mark.parametrize("cls_name", TURNSTILE_CLASSES)
@pytest.mark.parametrize("family", _KEYED_L0_FAMILIES)
def test_keyed_turnstile_grouped_store_paths_agree(family, cls_name):
    workload = make_workload(cls_name, "keyed", seed=WORKLOAD_SEED, scale=TEST_SCALE)
    assert workload.deltas is not None
    universe = workload.universe_size
    bound = max(len(workload), 1)

    def build():
        return SketchStore.for_family(
            family, universe, eps=EPS, seed=7, magnitude_bound=bound
        )

    grouped = build()
    for keys, items, deltas in workload.iter_grouped_update_batches(257):
        grouped.update_grouped(keys, items, deltas)

    one_sweep = build()
    one_sweep.update_grouped(workload.keys, workload.items, workload.deltas)
    assert one_sweep.to_bytes() == grouped.to_bytes()

    scalar = build()
    for key, item, delta in zip(
        workload.keys.tolist(), workload.items.tolist(), workload.deltas.tolist()
    ):
        scalar.update(key, item, delta)
    assert scalar.keys == grouped.keys
    for key in grouped.keys:
        assert canonical_state(scalar.sketch(key)) == canonical_state(
            grouped.sketch(key)
        )

    per_key = {}
    for key, item, delta in zip(
        workload.keys.tolist(), workload.items.tolist(), workload.deltas.tolist()
    ):
        per_key.setdefault(key, ([], []))
        per_key[key][0].append(item)
        per_key[key][1].append(delta)
    for key in list(per_key)[:3]:
        standalone = grouped.make_sketch()
        items, deltas = per_key[key]
        standalone.update_batch(
            np.asarray(items, dtype=np.uint64), np.asarray(deltas, dtype=np.int64)
        )
        assert canonical_state(grouped.sketch(key)) == canonical_state(standalone)


def test_keyed_churn_ground_truth_is_exact_per_key_support():
    """The churn workload's declared truth is the exact per-key support."""
    workload = make_workload("churn", "keyed", seed=WORKLOAD_SEED, scale=TEST_SCALE)
    truth = workload.ground_truth()
    recount = {}
    for key, item, delta in zip(
        workload.keys.tolist(), workload.items.tolist(), workload.deltas.tolist()
    ):
        net = recount.setdefault(key, {})
        net[item] = net.get(item, 0) + delta
    assert truth == {
        key: sum(1 for value in net.values() if value) for key, net in recount.items()
    }


# ---------------------------------------------------------------------------
# Windowed path: rollups over the timestamped shapes
# ---------------------------------------------------------------------------

_WINDOW_F0_FAMILIES = mergeable_f0_names()


@pytest.mark.parametrize("cls_name", INSERTION_CLASSES)
@pytest.mark.parametrize("family", _WINDOW_F0_FAMILIES)
def test_windowed_rollup_equals_fresh_sketch_over_window(family, cls_name):
    """The k-epoch rollup is bit-identical to a fresh same-seed sketch fed
    exactly the window's updates."""
    workload = make_workload(
        cls_name, "windowed", seed=WORKLOAD_SEED, scale=TEST_SCALE
    )
    template = make_f0_estimator(family, workload.universe_size, EPS, 7)
    blob = template.to_bytes()
    ring = WindowedSketch(template, retention=workload.epoch_count)
    ring.ingest_timestamped(workload.epochs, workload.items, batch_size=509)
    for width in {1, max(workload.epoch_count // 2, 1), workload.epoch_count}:
        fresh = serialize.loads(blob)
        _, window_items, _ = workload.window_slice(width)
        if len(window_items):
            fresh.update_batch(window_items)
        assert canonical_state(ring.window_sketch(width)) == canonical_state(fresh), (
            "%s on %s: rollup diverged at width %d" % (family, cls_name, width)
        )


@pytest.mark.parametrize("family", mergeable_l0_names())
def test_windowed_turnstile_rollup_equals_fresh_sketch(family):
    workload = make_workload("churn", "windowed", seed=WORKLOAD_SEED, scale=TEST_SCALE)
    assert workload.deltas is not None
    bound = max(len(workload), 1)
    template = make_l0_estimator(family, workload.universe_size, EPS, bound, 7)
    blob = template.to_bytes()
    ring = WindowedSketch(template, retention=workload.epoch_count)
    ring.ingest_timestamped(
        workload.epochs, workload.items, workload.deltas, batch_size=509
    )
    for width in {1, workload.epoch_count}:
        fresh = serialize.loads(blob)
        _, window_items, window_deltas = workload.window_slice(width)
        if len(window_items):
            fresh.update_batch(window_items, window_deltas)
        assert canonical_state(ring.window_sketch(width)) == canonical_state(fresh)


def test_bursty_gaps_close_as_empty_epochs_and_stay_exact():
    """The bursty class's long silent gaps must not disturb the rollup:
    with the exact mergeable family, every window answer is exactly the
    workload's ground truth, across gap-spanning widths."""
    workload = make_workload("bursty", "windowed", seed=WORKLOAD_SEED, scale=TEST_SCALE)
    busy_epochs = len(set(workload.epochs.tolist()))
    assert workload.epoch_count > busy_epochs, "bursty workload must contain gaps"
    ring = WindowedSketch(
        make_f0_estimator("exact", workload.universe_size, EPS, 7),
        retention=workload.epoch_count,
    )
    ring.ingest_timestamped(workload.epochs, workload.items)
    for width in range(1, workload.epoch_count + 1):
        assert ring.estimate_window(width) == workload.ground_truth_window(width)


def test_windowed_ingest_batch_size_invariance():
    workload = make_workload("churn", "windowed", seed=WORKLOAD_SEED, scale=TEST_SCALE)
    bound = max(len(workload), 1)

    def ingest(batch_size):
        ring = WindowedSketch(
            make_l0_estimator("knw-l0", workload.universe_size, EPS, bound, 7),
            retention=workload.epoch_count,
        )
        ring.ingest_timestamped(
            workload.epochs, workload.items, workload.deltas, batch_size=batch_size
        )
        return ring

    reference = ingest(None)
    reference_states = [
        canonical_state(reference.window_sketch(width))
        for width in range(1, workload.epoch_count + 1)
    ]
    for batch_size in (1, 97, 4096):
        ring = ingest(batch_size)
        states = [
            canonical_state(ring.window_sketch(width))
            for width in range(1, workload.epoch_count + 1)
        ]
        assert states == reference_states


# ---------------------------------------------------------------------------
# Seed determinism (satellite): byte-identical re-generation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", ["stream", "keyed", "windowed"])
@pytest.mark.parametrize("cls_name", CLASSES)
def test_generators_are_seed_deterministic(cls_name, shape):
    first = make_workload(cls_name, shape, seed=99, scale=TEST_SCALE)
    second = make_workload(cls_name, shape, seed=99, scale=TEST_SCALE)
    other = make_workload(cls_name, shape, seed=100, scale=TEST_SCALE)
    fingerprint = workload_fingerprint(first)
    assert fingerprint == workload_fingerprint(second)
    assert fingerprint != workload_fingerprint(other)


def test_fingerprint_covers_sketch_state_reproducibility():
    """Same-seed workloads drive a sketch into byte-identical state —
    the property the fingerprint regression stands in for."""
    first = make_workload("skew", "stream", seed=5, scale=TEST_SCALE)
    second = make_workload("skew", "stream", seed=5, scale=TEST_SCALE)
    a = make_f0_estimator("hyperloglog", first.universe_size, EPS, 3)
    b = make_f0_estimator("hyperloglog", second.universe_size, EPS, 3)
    a.update_batch(first.item_array())
    b.update_batch(second.item_array())
    assert a.to_bytes() == b.to_bytes()


# ---------------------------------------------------------------------------
# Sweep reachability by class name
# ---------------------------------------------------------------------------


def test_all_classes_reachable_from_sweeps_by_name():
    from repro.analysis import (
        accuracy_sweep,
        keyed_accuracy_sweep,
        l0_accuracy_sweep,
        windowed_accuracy_sweep,
        workload_class_grid,
    )

    for cls_name in INSERTION_CLASSES:
        points = accuracy_sweep(
            ["hyperloglog"], cls_name, [EPS], [1], workload_scale=TEST_SCALE
        )
        assert points and points[0].truth > 0
    for cls_name in TURNSTILE_CLASSES:
        points = l0_accuracy_sweep(
            ["knw-l0"], cls_name, [EPS], [1], workload_scale=TEST_SCALE
        )
        assert points and points[0].truth > 0
    keyed = keyed_accuracy_sweep(
        ["hyperloglog"], "cold-keys", [EPS], [1], workload_scale=TEST_SCALE
    )
    assert keyed[0].key_count == TEST_SCALE.key_count
    keyed_churn = keyed_accuracy_sweep(
        ["knw-l0"], "churn", [EPS], [1], workload_scale=TEST_SCALE
    )
    assert keyed_churn[0].key_count == TEST_SCALE.key_count
    windowed = windowed_accuracy_sweep(
        ["hyperloglog"], "bursty", [1, 2], EPS, [1], workload_scale=TEST_SCALE
    )
    assert {point.window for point in windowed} == {1, 2}
    windowed_churn = windowed_accuracy_sweep(
        ["knw-l0"], "churn", [1], EPS, [1], workload_scale=TEST_SCALE
    )
    assert windowed_churn[0].truth > 0
    grid = workload_class_grid(
        ["hyperloglog"], ["knw-l0"], [EPS], [1], workload_scale=TEST_SCALE
    )
    assert sorted(grid) == sorted(CLASSES)


def test_turnstile_class_rejected_from_f0_sweep():
    from repro.analysis import accuracy_sweep

    with pytest.raises(ParameterError):
        accuracy_sweep(["hyperloglog"], "churn", [EPS], [1], workload_scale=TEST_SCALE)


def test_unknown_class_and_shape_raise():
    from repro.analysis import resolve_workload_factory

    with pytest.raises(ParameterError):
        make_workload("no-such-class")
    with pytest.raises(ParameterError):
        make_workload("skew", shape="no-such-shape")
    with pytest.raises(ParameterError):
        resolve_workload_factory(12345, "stream")
