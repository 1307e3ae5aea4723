"""Turnstile (L0) batch-ingestion throughput: ``update_batch`` vs the scalar loop.

The L0 sketches' scalar updates do the most per-item Python work in the
library — several Carter--Wegman evaluations plus fingerprint field
arithmetic per update — so they have the most to gain from the vectorized
turnstile pipeline.  This benchmark measures updates/second through the
scalar ``update(item, delta)`` loop vs. through ``update_batch(items,
deltas)`` on an insert+delete turnstile stream, and gates the tentpole
speedup.

Acceptance gate (asserted at full scale): ``knw-l0`` and ``ganguly`` must
ingest at least 10x faster through the batch path on a 10^6-update
stream.  The gate is skipped — with the measured table still printed —
when the stream has been shrunk below 10^6 updates for a smoke run.

Each family's scalar and batch rates are timed back to back, and every
family once per round, in :data:`ROUNDS` rounds
(``conftest.interleaved_medians``); a row records the median over the
rounds and a speedup the median of the rounds' ratios.

Environment knobs (for CI smoke runs and local experiments):

* ``BENCH_L0_ITEMS`` — turnstile stream length (default 1_000_000).
"""

from __future__ import annotations

import os
import time

import numpy as np
from conftest import BENCH_UNIVERSE, emit, interleaved_medians, metric, record, run_once

from repro.estimators.registry import make_l0_estimator
from repro.kernels import get_backend, kernel_backend_info

#: Full-scale default; override via the environment for smoke runs.
STREAM_LENGTH = int(os.environ.get("BENCH_L0_ITEMS", 1_000_000))

#: Updates driven through the scalar loop (its rate is steady, so a prefix
#: suffices; the batch path always ingests the full stream).
SCALAR_SAMPLE = min(20_000, STREAM_LENGTH)

#: Chunk length for the batch path.
BATCH_LENGTH = 1 << 17

#: Relative-error target: K = 128 bins keeps sketch construction cheap
#: while the per-update work stays representative.
EPS = 0.1

#: Magnitude bound covering the |delta| = 1 stream below.
MAGNITUDE_BOUND = 1 << 30

#: Estimators under the assertion gate and their required speedups.
GATED = {"knw-l0": 10.0, "ganguly": 10.0}

#: Stream length below which the gate is skipped (smoke runs).
GATE_SCALE = 1_000_000

#: Interleaved rounds behind each table row.
ROUNDS = 5


def _stream() -> "tuple[np.ndarray, np.ndarray]":
    """Build an insert-then-delete turnstile stream.

    75% of the updates insert uniformly random items; the remaining 25%
    delete a permutation sample of the *insert occurrences*, so every
    frequency stays non-negative (Ganguly's requirement) while the
    deletion path is genuinely exercised.
    """
    rng = np.random.default_rng(20100609)
    inserts = (3 * STREAM_LENGTH) // 4
    items = rng.integers(0, BENCH_UNIVERSE, size=inserts, dtype=np.uint64)
    deleted = items[rng.permutation(inserts)[: STREAM_LENGTH - inserts]]
    all_items = np.concatenate([items, deleted])
    deltas = np.concatenate(
        [
            np.ones(inserts, dtype=np.int64),
            -np.ones(STREAM_LENGTH - inserts, dtype=np.int64),
        ]
    )
    return all_items, deltas


def _factory(name: str):
    return make_l0_estimator(name, BENCH_UNIVERSE, EPS, MAGNITUDE_BOUND, seed=11)


def _scalar_rate(estimator, item_list, delta_list) -> float:
    update = estimator.update
    start = time.perf_counter()
    for item, delta in zip(item_list, delta_list):
        update(item, delta)
    return len(item_list) / (time.perf_counter() - start)


def _batch_rate(estimator, items, deltas, batch_length=BATCH_LENGTH) -> float:
    start = time.perf_counter()
    for cursor in range(0, len(items), batch_length):
        estimator.update_batch(
            items[cursor : cursor + batch_length],
            deltas[cursor : cursor + batch_length],
        )
    return len(items) / (time.perf_counter() - start)


def test_l0_batch_throughput_table(benchmark):
    """E-L0-batch: turnstile updates/sec table plus the 10x gate."""
    items, deltas = _stream()
    item_list = items[:SCALAR_SAMPLE].tolist()
    delta_list = deltas[:SCALAR_SAMPLE].tolist()
    np.unique(np.arange(4, dtype=np.uint64))  # trigger numpy lazy imports

    def experiment():
        sides = {
            name: (
                lambda name=name: _scalar_rate(_factory(name), item_list, delta_list),
                lambda name=name: _batch_rate(_factory(name), items, deltas),
            )
            for name in GATED
        }
        return interleaved_medians(sides, ROUNDS)

    rows = run_once(benchmark, experiment)
    lines = [
        "%-12s %14s %14s %9s"
        % ("algorithm", "scalar upd/s", "batch upd/s", "speedup")
    ]
    for name, (scalar, batch, speedup) in rows.items():
        lines.append("%-12s %14.0f %14.0f %8.1fx" % (name, scalar, batch, speedup))
    emit(
        "E-L0-batch -- turnstile update_batch vs scalar update, %d updates"
        % STREAM_LENGTH,
        "\n".join(lines),
    )
    metrics = {}
    for name, (scalar, batch, speedup) in rows.items():
        metrics["%s_scalar_updates_per_s" % name] = metric(
            scalar, "higher", "rate", "updates/s"
        )
        metrics["%s_batch_updates_per_s" % name] = metric(
            batch, "higher", "rate", "updates/s"
        )
        metrics["%s_batch_speedup" % name] = metric(speedup, "higher", "ratio")
    record(
        "l0_throughput",
        metrics,
        scale={"updates": STREAM_LENGTH, "kernel_backend": get_backend()},
        environment={"kernels": kernel_backend_info()},
    )
    if STREAM_LENGTH < GATE_SCALE:
        emit(
            "E-L0-batch gate",
            "skipped: smoke-scale stream (%d updates < %d)"
            % (STREAM_LENGTH, GATE_SCALE),
        )
        return
    for name, floor in GATED.items():
        assert rows[name][2] >= floor, (
            "%s batch ingestion is only %.1fx the scalar loop (need >= %.0fx)"
            % (name, rows[name][2], floor)
        )


def test_batch_and_scalar_agree_on_the_benchmark_stream():
    """The throughput comparison is only meaningful if states coincide."""
    items, deltas = _stream()
    items, deltas = items[:50_000], deltas[:50_000]
    for name in GATED:
        scalar = _factory(name)
        for item, delta in zip(items.tolist(), deltas.tolist()):
            scalar.update(item, delta)
        batched = _factory(name)
        batched.update_batch(items, deltas)
        assert batched.state_dict() == scalar.state_dict(), name
        assert batched.estimate() == scalar.estimate(), name
