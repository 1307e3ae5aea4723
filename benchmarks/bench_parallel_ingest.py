"""Sharded multi-process ingestion vs. serial batched ingestion.

The parallel engine exists to turn cores into throughput: partition a
heavy stream, ingest every shard in a worker process through the
vectorized batch pipeline, merge-reduce the serialized shard sketches.
This benchmark measures that end to end — stream sharding, worker
fan-out, state transport, merge — against the strongest serial baseline
(the ``update_batch`` fast path, not the scalar loop), and checks the
merged estimate agrees with the serial one.

Acceptance gate (asserted when the hardware can express it): at
8 workers on a >= 10M-item stream, at least one estimator must ingest
at least 2x faster than serial batched ingestion.  The gate needs
actual parallel hardware, so it is skipped — with the measured table
still printed — when fewer than 4 usable cores are available or when
the stream has been shrunk below 10M items for a smoke run.

Environment knobs (for CI smoke runs and local experiments):

* ``BENCH_PARALLEL_ITEMS`` — stream length (default 10_000_000).
* ``BENCH_PARALLEL_WORKERS`` — worker count (default 8).
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import emit, metric, record, run_once

from repro.parallel import parallel_ingest_into, shutdown_pool
from repro.estimators.registry import make_f0_estimator

#: Universe for the parallel benchmark (large enough that 10M items stay
#: far from exhausting it).
PARALLEL_UNIVERSE = 1 << 26

#: Full-scale defaults; override via the environment for smoke runs.
STREAM_LENGTH = int(os.environ.get("BENCH_PARALLEL_ITEMS", 10_000_000))
WORKERS = int(os.environ.get("BENCH_PARALLEL_WORKERS", 8))

#: Chunk length for both the serial baseline and the shard workers.
BATCH_LENGTH = 1 << 16

#: Estimators measured.  ``knw-paper`` carries the acceptance gate
#: honours: its per-item work is the heaviest, so it has the most to
#: gain from fan-out; HyperLogLog bounds the other end (its batch path
#: is so fast that transport overhead dominates).
ESTIMATORS = ["hyperloglog", "kmv", "knw-paper"]

#: Speedup at least one estimator must reach at full scale.
SPEEDUP_FLOOR = 2.0

#: Cores below which the speedup gate cannot be expressed.
MIN_GATE_CORES = 4


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _stream() -> np.ndarray:
    rng = np.random.default_rng(20100608)
    return rng.integers(0, PARALLEL_UNIVERSE, size=STREAM_LENGTH, dtype=np.uint64)


def _serial_seconds(name: str, items: np.ndarray) -> "tuple[float, float]":
    estimator = make_f0_estimator(name, PARALLEL_UNIVERSE, 0.05, seed=1)
    start = time.perf_counter()
    for cursor in range(0, len(items), BATCH_LENGTH):
        estimator.update_batch(items[cursor : cursor + BATCH_LENGTH])
    return time.perf_counter() - start, estimator.estimate()


def _parallel_seconds(name: str, items: np.ndarray) -> "tuple[float, float]":
    start = time.perf_counter()
    estimator = parallel_ingest_into(
        make_f0_estimator(name, PARALLEL_UNIVERSE, 0.05, seed=1),
        items,
        workers=WORKERS,
        batch_size=BATCH_LENGTH,
    )
    return time.perf_counter() - start, estimator.estimate()


def test_parallel_ingest_speedup(benchmark):
    """E-parallel: WORKERS-way sharded ingest vs serial batched ingest."""
    items = _stream()
    truth_scale = len(items)

    def experiment():
        rows = {}
        for name in ESTIMATORS:
            serial_s, serial_estimate = _serial_seconds(name, items)
            parallel_s, parallel_estimate = _parallel_seconds(name, items)
            rows[name] = (serial_s, parallel_s, serial_s / parallel_s,
                          serial_estimate, parallel_estimate)
        return rows

    rows = run_once(benchmark, experiment)
    lines = [
        "%-12s %10s %10s %9s"
        % ("algorithm", "serial s", "%d-way s" % WORKERS, "speedup")
    ]
    for name, (serial_s, parallel_s, speedup, _, _) in rows.items():
        lines.append(
            "%-12s %10.2f %10.2f %8.2fx" % (name, serial_s, parallel_s, speedup)
        )
    cores = _usable_cores()
    emit(
        "E-parallel -- sharded ingest, %d items, %d workers, %d cores"
        % (truth_scale, WORKERS, cores),
        "\n".join(lines),
    )
    metrics = {}
    for name, (serial_s, parallel_s, speedup, _, _) in rows.items():
        metrics["%s_serial_items_per_s" % name] = metric(
            truth_scale / serial_s, "higher", "rate", "items/s"
        )
        metrics["%s_parallel_items_per_s" % name] = metric(
            truth_scale / parallel_s, "higher", "rate", "items/s"
        )
        metrics["%s_parallel_speedup" % name] = metric(speedup, "higher", "rate")
    record(
        "parallel_ingest",
        metrics,
        scale={"items": truth_scale, "workers": WORKERS},
    )

    # Sharded and serial ingestion must agree (bit-identical for the
    # seed-determined estimators) regardless of the timing outcome.
    for name, (_, _, _, serial_estimate, parallel_estimate) in rows.items():
        assert parallel_estimate == serial_estimate, (
            "%s sharded estimate %r diverged from serial %r"
            % (name, parallel_estimate, serial_estimate)
        )

    if cores < MIN_GATE_CORES:
        emit(
            "E-parallel gate",
            "skipped: %d usable core(s) cannot express a %d-worker speedup"
            % (cores, WORKERS),
        )
        return
    if truth_scale < 10_000_000:
        emit(
            "E-parallel gate",
            "skipped: smoke-scale stream (%d items < 10M)" % truth_scale,
        )
        return
    best = max(speedup for _, _, speedup, _, _ in rows.values())
    assert best >= SPEEDUP_FLOOR, (
        "no estimator reached %.1fx over serial batched ingest at %d workers "
        "(best %.2fx)" % (SPEEDUP_FLOOR, WORKERS, best)
    )


#: Items per call in the warm-vs-cold pool experiment: small enough that
#: pool startup dominates a cold call, so reuse is what is measured.
POOL_CALL_ITEMS = 1 << 16

#: Warm calls measured (the median is compared against the cold call).
POOL_WARM_CALLS = 5


def test_warm_pool_vs_cold_pool(benchmark):
    """E-pool: persistent-pool reuse vs per-call pool startup."""
    rng = np.random.default_rng(20100609)
    items = rng.integers(0, PARALLEL_UNIVERSE, size=POOL_CALL_ITEMS, dtype=np.uint64)
    # At least two workers, so every call goes to the pool.
    workers = max(WORKERS, 2)

    def ingest_once() -> float:
        estimator = make_f0_estimator("hyperloglog", PARALLEL_UNIVERSE, 0.05, seed=1)
        start = time.perf_counter()
        parallel_ingest_into(
            estimator, items, workers=workers, batch_size=BATCH_LENGTH
        )
        return time.perf_counter() - start

    def experiment():
        shutdown_pool()  # the cold call pays worker startup in full
        cold_s = ingest_once()
        warm = sorted(ingest_once() for _ in range(POOL_WARM_CALLS))
        return cold_s, warm[len(warm) // 2]

    cold_s, warm_s = run_once(benchmark, experiment)
    emit(
        "E-pool -- %d-item sharded calls, %d workers"
        % (POOL_CALL_ITEMS, workers),
        "cold (fresh pool) %8.4f s\nwarm (reused pool) %8.4f s  (%.1fx)"
        % (cold_s, warm_s, cold_s / warm_s),
    )
    record(
        "parallel_ingest",
        {
            "cold_pool_calls_per_s": metric(1.0 / cold_s, "higher", "rate", "calls/s"),
            "warm_pool_calls_per_s": metric(1.0 / warm_s, "higher", "rate", "calls/s"),
            "warm_over_cold_speedup": metric(cold_s / warm_s, "higher", "rate"),
        },
        scale={"items": STREAM_LENGTH, "workers": workers},
    )
    # Reuse must beat startup: a warm call does strictly less work than a
    # cold one (same shards, no worker spawn), and the workload is sized
    # so spawn cost dominates.  Holds on any core count.
    assert warm_s < cold_s, (
        "warm persistent-pool call (%.4fs) did not beat cold pool startup "
        "(%.4fs)" % (warm_s, cold_s)
    )
