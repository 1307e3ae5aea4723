"""Batch-ingestion throughput: ``update_batch`` vs. the scalar ``update`` loop.

The vectorized batch pipeline exists for one reason — ingesting heavy
streams at hardware speed instead of interpreter speed — so this benchmark
measures exactly that: items/second through the scalar loop vs. through
``update_batch``, on a 10^6-item uniform stream, for the hot estimators.

Acceptance gate (asserted, not just printed): HyperLogLog and KMV must
ingest at least 10x faster through the batch path.  The KNW estimators are
reported alongside (their batch speedups are far larger, since their
scalar updates do the most per-item Python work) together with a
batch-size sensitivity row.

Each family's scalar and batch rates are timed back to back, and every
family once per round, in :data:`ROUNDS` rounds
(``conftest.interleaved_medians``); a row records the median over the
rounds and a speedup the median of the rounds' ratios, so a slow stretch
of the host moves every row alike instead of one.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from conftest import BENCH_UNIVERSE, emit, interleaved_medians, metric, record, run_once

from repro.baselines.hyperloglog import HyperLogLogCounter
from repro.baselines.kmv import KMinimumValues
from repro.core.knw import KNWDistinctCounter
from repro.estimators.registry import make_f0_estimator
from repro.kernels import get_backend, kernel_backend_info

#: Stream length for the headline throughput numbers.
STREAM_LENGTH = 1_000_000

#: Items driven through the scalar loop (its rate is steady, so a prefix
#: suffices; the batch path always ingests the full stream).
SCALAR_SAMPLE = 200_000

#: Chunk length for the batch path.
BATCH_LENGTH = 1 << 17

#: Estimators under the assertion gate and their required speedups.
GATED = {"hyperloglog": 10.0, "kmv": 10.0}

#: Interleaved rounds behind each table row.
ROUNDS = 5


def _stream() -> np.ndarray:
    rng = np.random.default_rng(20100607)
    return rng.integers(0, BENCH_UNIVERSE, size=STREAM_LENGTH, dtype=np.uint64)


def _scalar_rate(estimator, item_list) -> float:
    update = estimator.update
    start = time.perf_counter()
    for item in item_list:
        update(item)
    return len(item_list) / (time.perf_counter() - start)


def _batch_rate(estimator, items, batch_length=BATCH_LENGTH) -> float:
    start = time.perf_counter()
    for cursor in range(0, len(items), batch_length):
        estimator.update_batch(items[cursor : cursor + batch_length])
    return len(items) / (time.perf_counter() - start)


FACTORIES = {
    "hyperloglog": lambda: HyperLogLogCounter(BENCH_UNIVERSE, eps=0.05, seed=1),
    "kmv": lambda: KMinimumValues(BENCH_UNIVERSE, eps=0.05, seed=2),
    "knw": lambda: KNWDistinctCounter(BENCH_UNIVERSE, eps=0.05, seed=3),
    "knw-paper": lambda: make_f0_estimator("knw-paper", BENCH_UNIVERSE, 0.05, seed=4),
}


def test_batch_throughput_table(benchmark):
    """E-batch: the items/sec table plus the 10x acceptance assertions."""
    items = _stream()
    item_list = items[:SCALAR_SAMPLE].tolist()
    np.unique(np.arange(4, dtype=np.uint64))  # trigger numpy lazy imports

    def experiment():
        sides = {
            name: (
                lambda factory=factory: _scalar_rate(factory(), item_list),
                lambda factory=factory: _batch_rate(factory(), items),
            )
            for name, factory in FACTORIES.items()
        }
        return interleaved_medians(sides, ROUNDS)

    rows = run_once(benchmark, experiment)
    lines = ["%-12s %14s %14s %9s" % ("algorithm", "scalar it/s", "batch it/s", "speedup")]
    for name, (scalar, batch, speedup) in rows.items():
        lines.append("%-12s %14.0f %14.0f %8.1fx" % (name, scalar, batch, speedup))
    emit(
        "E-batch -- update_batch vs scalar update, %d items" % STREAM_LENGTH,
        "\n".join(lines),
    )
    metrics = {}
    for name, (scalar, batch, speedup) in rows.items():
        metrics["%s_scalar_items_per_s" % name] = metric(scalar, "higher", "rate", "items/s")
        metrics["%s_batch_items_per_s" % name] = metric(batch, "higher", "rate", "items/s")
        metrics["%s_batch_speedup" % name] = metric(speedup, "higher", "ratio")
    record(
        "batch_throughput",
        metrics,
        scale={
            "universe": BENCH_UNIVERSE,
            "items": STREAM_LENGTH,
            "kernel_backend": get_backend(),
        },
        environment={"kernels": kernel_backend_info()},
    )
    for name, floor in GATED.items():
        assert rows[name][2] >= floor, (
            "%s batch ingestion is only %.1fx the scalar loop (need >= %.0fx)"
            % (name, rows[name][2], floor)
        )


@pytest.mark.parametrize("batch_length", [1 << 12, 1 << 15, 1 << 18])
def test_batch_size_sensitivity(benchmark, batch_length):
    """Throughput as a function of chunk size (HyperLogLog)."""
    items = _stream()

    def experiment():
        return _batch_rate(
            HyperLogLogCounter(BENCH_UNIVERSE, eps=0.05, seed=1),
            items,
            batch_length=batch_length,
        )

    rate = run_once(benchmark, experiment)
    emit(
        "E-batch sensitivity -- chunk %d" % batch_length,
        "hyperloglog batch ingest: %.0f items/s" % rate,
    )
    record(
        "batch_throughput",
        {
            "hyperloglog_chunk%d_items_per_s"
            % batch_length: metric(rate, "higher", "rate", "items/s")
        },
    )


def test_batch_and_scalar_agree_on_the_benchmark_stream():
    """The throughput comparison is only meaningful if states coincide."""
    items = _stream()[:100_000]
    scalar = KMinimumValues(BENCH_UNIVERSE, eps=0.05, seed=2)
    batched = KMinimumValues(BENCH_UNIVERSE, eps=0.05, seed=2)
    for item in items.tolist():
        scalar.update(item)
    batched.update_batch(items)
    assert scalar.estimate() == batched.estimate()
