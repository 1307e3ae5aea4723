"""Serialization codec: state bytes and encode/decode throughput per target.

``repro.serialize`` carries every sketch across the process and
durability boundaries: shard results, WAL snapshots, epoch templates,
object-backed store rows.  This benchmark measures the codec target by
target, on states built at a fixed seed and scale:

* every registry family (13 F0, 4 L0) after ``ITEMS`` updates at
  universe 2^32, eps 0.05 (L0 families see inserts, magnitude bound
  2^20) — so ``knw-l0`` is the headline state at 64Ki inserts;
* ``knw-paper-bulk``: ``knw-paper`` after an ``f0-bulk``-sized ingest
  (``16 * ITEMS`` items, about one ``f0-bulk`` episode);
* an array-backed (``hyperloglog``) and an object-backed
  (``knw-paper``) ``SketchStore`` over 64 keys;
* a ``knw-paper`` ``WindowedSketch`` ring holding 8 epochs.

Per target it records the state bytes (``to_bytes()`` length, kind
``space``: portable, so ``report.py`` gates it at its strict threshold)
and the median over ``REPEATS`` runs of ``to_bytes()`` (encode) and
``serialize.loads`` (decode), as MB/s of state bytes (kind ``rate``).
Since a smaller state moves fewer bytes, compare codec versions by the
milliseconds in the printed table, not by MB/s.  Every target must
round-trip to identical bytes.

Environment knobs (for CI smoke runs and local experiments):

* ``BENCH_SERIALIZE_ITEMS`` — updates per target (default 65536).
* ``BENCH_SERIALIZE_REPEATS`` — timed runs per target and direction
  (default 30).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
from conftest import emit, metric, record, run_once

from repro import serialize
from repro.estimators.registry import (
    f0_algorithm_names,
    l0_algorithm_names,
    make_f0_estimator,
    make_l0_estimator,
)
from repro.store import SketchStore
from repro.window import WindowedSketch

ITEMS = int(os.environ.get("BENCH_SERIALIZE_ITEMS", 65536))
REPEATS = int(os.environ.get("BENCH_SERIALIZE_REPEATS", 30))

UNIVERSE = 1 << 32
EPS = 0.05
MAGNITUDE_BOUND = 1 << 20
SEED = 20100608
KEYS = 64
EPOCHS = 8


def _items(count: int) -> np.ndarray:
    return np.random.default_rng(SEED).integers(0, UNIVERSE, size=count, dtype=np.uint64)


def _targets():
    """``(name, object)`` for every measured state, built deterministically."""
    items = _items(ITEMS)
    for name in f0_algorithm_names():
        sketch = make_f0_estimator(name, UNIVERSE, EPS, seed=SEED)
        sketch.update_batch(items)
        yield name, sketch
    for name in l0_algorithm_names():
        sketch = make_l0_estimator(name, UNIVERSE, EPS, MAGNITUDE_BOUND, seed=SEED)
        sketch.update_batch(items, np.ones(ITEMS, dtype=np.int64))
        yield name, sketch
    bulk = make_f0_estimator("knw-paper", UNIVERSE, EPS, seed=SEED)
    bulk.update_batch(_items(16 * ITEMS))
    yield "knw-paper-bulk", bulk
    keys = np.arange(ITEMS, dtype=np.int64) % KEYS
    for label, family in (("store-array", "hyperloglog"), ("store-object", "knw-paper")):
        store = SketchStore.for_family(family, UNIVERSE, eps=EPS, seed=SEED)
        store.update_grouped(keys, items)
        yield label, store
    ring = WindowedSketch(make_f0_estimator("knw-paper", UNIVERSE, EPS, seed=SEED), EPOCHS)
    ring.ingest_timestamped(np.arange(ITEMS, dtype=np.int64) * EPOCHS // ITEMS, items)
    yield "window", ring


def _median_seconds(call) -> float:
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_serialize_codec(benchmark):
    """E-serialize: state bytes and codec throughput for every target."""

    def experiment():
        rows = {}
        for name, target in _targets():
            blob = target.to_bytes()
            assert serialize.loads(blob).to_bytes() == blob, name
            encode_s = _median_seconds(target.to_bytes)
            decode_s = _median_seconds(lambda: serialize.loads(blob))
            rows[name] = (len(blob), encode_s, decode_s)
        return rows

    rows = run_once(benchmark, experiment)
    lines = ["%-20s %10s %10s %10s %9s %9s" % (
        "target", "bytes", "encode ms", "decode ms", "enc MB/s", "dec MB/s"
    )]
    metrics = {}
    for name, (size, encode_s, decode_s) in rows.items():
        encode_rate = size / encode_s / 1e6
        decode_rate = size / decode_s / 1e6
        lines.append("%-20s %10d %10.3f %10.3f %9.2f %9.2f" % (
            name, size, encode_s * 1e3, decode_s * 1e3, encode_rate, decode_rate
        ))
        metrics["%s_state_bytes" % name] = metric(size, "lower", "space", "B")
        metrics["%s_encode_mb_per_s" % name] = metric(encode_rate, "higher", "rate", "MB/s")
        metrics["%s_decode_mb_per_s" % name] = metric(decode_rate, "higher", "rate", "MB/s")
    emit(
        "E-serialize -- codec per target, %d items, median of %d runs"
        % (ITEMS, REPEATS),
        "\n".join(lines),
    )
    record(
        "serialize",
        metrics,
        scale={"items": ITEMS, "universe": UNIVERSE, "eps": EPS, "seed": SEED},
    )
