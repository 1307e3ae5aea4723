"""Keyed sketch-store throughput: ``update_grouped`` vs a dict of sketches.

The tentpole gate of the keyed-store subsystem: a
:class:`~repro.store.store.SketchStore` holds 100k per-key sketches as
struct-of-arrays state and ingests a 10^6-update keyed batch in one hash
pass plus a sort/group scatter per chunk, where the dict-of-sketches
pattern the applications used before pays at least one Python
``update_batch`` call (validation, hashing, register scatter) per
*touched key* per chunk.

Two baselines are measured for each gated family:

* ``dict-scalar`` — one ``update(item)`` call per update on a dict of
  independent sketches (the pre-refactor per-record application path),
  timed on a prefix sample;
* ``dict-batch`` — group the chunk by key in Python, then one vectorized
  ``update_batch`` per touched key (the strongest dict-of-sketches
  implementation), timed in full.

The grouped and dict-batch sides are timed in :data:`PAIRS` interleaved
repeats; the speedup is the median of the per-pair ratios and every
rate is a median, so one slow stretch of the host does not decide the
recorded row.

Acceptance gate (asserted at full scale): the grouped store path must
ingest at least 10x faster than the *stronger* dict-of-sketches baseline
for ``hyperloglog`` and ``linear-counting`` at 100k keys / 10^6 updates.
The gate is skipped — with the measured table still printed — when the
workload has been shrunk below full scale for a smoke run.

A state-equivalence check always runs: a sample of store rows must be
bit-identical to the corresponding dict sketches.

Environment knobs (for CI smoke runs and local experiments):

* ``BENCH_STORE_KEYS`` — distinct key count (default 100_000).
* ``BENCH_STORE_ITEMS`` — keyed update count (default 1_000_000).
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import BENCH_UNIVERSE, emit, metric, record, run_once

from repro.kernels import get_backend, kernel_backend_info
from repro.store import SketchStore, make_sketch_array

#: Full-scale defaults; override via the environment for smoke runs.
KEY_COUNT = int(os.environ.get("BENCH_STORE_KEYS", 100_000))
STREAM_LENGTH = int(os.environ.get("BENCH_STORE_ITEMS", 1_000_000))

#: Updates driven through the scalar dict loop (its rate is steady, so a
#: prefix suffices; the other paths always ingest the full workload).
SCALAR_SAMPLE = min(20_000, STREAM_LENGTH)

#: Chunk length for the grouped and dict-batch paths.
BATCH_LENGTH = 1 << 17

#: Interleaved (dict-batch, grouped) timing pairs per family.
PAIRS = 5

#: Per-key accuracy target (sizes the per-key sketches).
EPS = 0.1

#: Families under the assertion gate and their required speedups over the
#: dict-batch baseline.
GATED = {"hyperloglog": 10.0, "linear-counting": 10.0}

#: Scale below which the gate is skipped (smoke runs).
GATE_KEYS = 100_000
GATE_ITEMS = 1_000_000

SEED = 11


def _workload():
    """A skew-free keyed workload: uniform keys, uniform items."""
    rng = np.random.default_rng(20100609)
    keys = rng.integers(0, KEY_COUNT, size=STREAM_LENGTH, dtype=np.int64)
    items = rng.integers(0, BENCH_UNIVERSE, size=STREAM_LENGTH, dtype=np.uint64)
    return keys, items


def _store(family: str) -> SketchStore:
    return SketchStore.for_family(family, BENCH_UNIVERSE, eps=EPS, seed=SEED)


def _dict_scalar_rate(family: str, keys, items) -> float:
    """The pre-refactor path: a dict of sketches, one update() per event."""
    template = make_sketch_array(family, BENCH_UNIVERSE, eps=EPS, seed=SEED)
    sketches = {}
    key_list = keys.tolist()
    item_list = items.tolist()
    start = time.perf_counter()
    for key, item in zip(key_list, item_list):
        sketch = sketches.get(key)
        if sketch is None:
            sketch = sketches[key] = template.make_sketch()
        sketch.update(item)
    return len(key_list) / (time.perf_counter() - start)


def _dict_batch_rate(family: str, keys, items) -> float:
    """The strongest dict-of-sketches variant: per-key update_batch calls."""
    template = make_sketch_array(family, BENCH_UNIVERSE, eps=EPS, seed=SEED)
    sketches = {}
    start = time.perf_counter()
    for cursor in range(0, len(items), BATCH_LENGTH):
        chunk_keys = keys[cursor : cursor + BATCH_LENGTH]
        chunk_items = items[cursor : cursor + BATCH_LENGTH]
        order = np.argsort(chunk_keys, kind="stable")
        sorted_keys = chunk_keys[order]
        sorted_items = chunk_items[order]
        boundaries = np.flatnonzero(
            np.concatenate(
                (np.ones(1, dtype=bool), sorted_keys[1:] != sorted_keys[:-1])
            )
        )
        ends = np.append(boundaries[1:], len(sorted_keys))
        touched = sorted_keys[boundaries].tolist()
        for index, key in enumerate(touched):
            sketch = sketches.get(key)
            if sketch is None:
                sketch = sketches[key] = template.make_sketch()
            sketch.update_batch(
                sorted_items[int(boundaries[index]) : int(ends[index])]
            )
    return len(items) / (time.perf_counter() - start)


def _grouped_rate(family: str, keys, items):
    """The store path: grouped vectorized sweeps over the whole batch."""
    store = _store(family)
    start = time.perf_counter()
    for cursor in range(0, len(items), BATCH_LENGTH):
        store.update_grouped(
            keys[cursor : cursor + BATCH_LENGTH],
            items[cursor : cursor + BATCH_LENGTH],
        )
    return len(items) / (time.perf_counter() - start), store


def _check_state_equivalence(family: str, store: SketchStore, keys, items) -> None:
    """A sample of store rows must equal the dict sketches bit-for-bit."""
    template = make_sketch_array(family, BENCH_UNIVERSE, eps=EPS, seed=SEED)
    sample = store.keys[:: max(len(store) // 16, 1)][:16]
    for key in sample:
        reference = template.make_sketch()
        mask = keys == key
        reference.update_batch(items[mask])
        exported = store.sketch(key)
        assert exported.state_dict() == reference.state_dict(), (
            "store row for key %r diverged from its independent sketch" % key
        )


def test_sketch_store_throughput_table(benchmark):
    """E-store: keyed updates/sec table plus the 10x grouped-vs-dict gate."""
    keys, items = _workload()
    scalar_keys = keys[:SCALAR_SAMPLE]
    scalar_items = items[:SCALAR_SAMPLE]
    np.unique(np.arange(4, dtype=np.uint64))  # trigger numpy lazy imports

    def experiment():
        rows = {}
        for family in GATED:
            scalar = _dict_scalar_rate(family, scalar_keys, scalar_items)
            pairs = []
            for _ in range(PAIRS):
                dict_batch = _dict_batch_rate(family, keys, items)
                grouped, store = _grouped_rate(family, keys, items)
                pairs.append((dict_batch, grouped, grouped / dict_batch))
            _check_state_equivalence(family, store, keys, items)
            dict_batch, grouped, speedup = np.median(np.array(pairs), axis=0).tolist()
            rows[family] = (scalar, dict_batch, grouped, speedup)
        return rows

    rows = run_once(benchmark, experiment)
    lines = [
        "%-16s %14s %14s %14s %9s"
        % ("family", "dict upd/s", "dict-batch/s", "grouped upd/s", "speedup")
    ]
    for family, (scalar, dict_batch, grouped, speedup) in rows.items():
        lines.append(
            "%-16s %14.0f %14.0f %14.0f %8.1fx"
            % (family, scalar, dict_batch, grouped, speedup)
        )
    lines.append(
        "(medians of %d interleaved pairs; speedup column: grouped store vs "
        "the per-key update_batch dict)" % PAIRS
    )
    emit(
        "E-store: keyed store grouped ingestion, %d keys / %d updates"
        % (KEY_COUNT, STREAM_LENGTH),
        "\n".join(lines),
    )
    metrics = {}
    for family, (scalar, dict_batch, grouped, speedup) in rows.items():
        metrics["%s_dict_updates_per_s" % family] = metric(
            scalar, "higher", "rate", "updates/s"
        )
        metrics["%s_grouped_updates_per_s" % family] = metric(
            grouped, "higher", "rate", "updates/s"
        )
        metrics["%s_grouped_speedup" % family] = metric(speedup, "higher", "ratio")
    record(
        "sketch_store",
        metrics,
        scale={
            "keys": KEY_COUNT,
            "updates": STREAM_LENGTH,
            "kernel_backend": get_backend(),
        },
        environment={"kernels": kernel_backend_info()},
    )
    if KEY_COUNT >= GATE_KEYS and STREAM_LENGTH >= GATE_ITEMS:
        for family, required in GATED.items():
            speedup = rows[family][3]
            assert speedup >= required, (
                "%s grouped path achieved only %.1fx over the dict-of-sketches "
                "baseline (gate: %.0fx)" % (family, speedup, required)
            )
    else:
        emit(
            "E-store gate",
            "skipped: smoke scale (%d keys / %d updates < %d / %d)"
            % (KEY_COUNT, STREAM_LENGTH, GATE_KEYS, GATE_ITEMS),
        )
