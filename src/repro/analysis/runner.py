"""Experiment runner: execute estimators over streams with checkpoints.

This is the piece of glue every benchmark and example shares: given a
stream and an estimator (or a registry name), run the stream through it,
optionally query the estimate at mid-stream checkpoints (the paper's
"report at any point" capability), and collect the estimate, the exact
ground truth, the relative error, and the space consumed.

Every entry point takes an optional ``batch_size``: when set, the stream
is driven through the estimator's ``update_batch`` in chunks (split at
checkpoint boundaries so mid-stream reports still see exactly the
requested prefixes).  Batch and scalar driving produce identical results
— the batch API is contractually equivalent to the update loop — so
sweeps can enable batching purely for throughput.

Every entry point additionally takes ``workers``: when more than 1, each
stream segment between checkpoints is ingested by the sharded
multi-process engine (:mod:`repro.parallel`) — worker processes ingest
contiguous shards into same-seed clones and the results merge-reduce
back into the run's estimator, so mid-stream reports still see exactly
the requested prefixes.  Requires a mergeable estimator; results are
bit-identical to serial driving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..estimators.base import CardinalityEstimator, TurnstileEstimator
from ..estimators.registry import make_f0_estimator, make_l0_estimator
from ..exceptions import ParameterError, UpdateError
from ..parallel import DEFAULT_SHARD_BATCH, parallel_ingest_into
from ..streams.model import MaterializedStream
from .metrics import relative_error

__all__ = [
    "CheckpointResult",
    "RunResult",
    "KeyedRunResult",
    "run_f0",
    "run_l0",
    "run_f0_by_name",
    "run_l0_by_name",
    "run_keyed_f0",
    "run_keyed_l0",
]


@dataclass
class CheckpointResult:
    """Estimate vs. truth at one mid-stream checkpoint."""

    position: int
    truth: int
    estimate: float
    relative_error: float


@dataclass
class RunResult:
    """Outcome of running one estimator over one stream.

    Attributes:
        algorithm: the estimator's declared name.
        stream: the stream's name.
        truth: exact F0/L0 of the full stream.
        estimate: the estimator's final output.
        relative_error: ``|estimate - truth| / truth``.
        space_bits: the sketch size after the run.
        checkpoints: optional mid-stream measurements.
    """

    algorithm: str
    stream: str
    truth: int
    estimate: float
    relative_error: float
    space_bits: int
    checkpoints: List[CheckpointResult] = field(default_factory=list)


def _checkpoint(
    checkpoints: List[CheckpointResult],
    estimator,
    position: int,
    truth: int,
) -> None:
    estimate = estimator.estimate()
    checkpoints.append(
        CheckpointResult(
            position=position,
            truth=truth,
            estimate=estimate,
            relative_error=relative_error(estimate, truth) if truth else 0.0,
        )
    )


def _drive_batched(
    estimator,
    stream: MaterializedStream,
    positions: Sequence[int],
    truths: Sequence[int],
    checkpoints: List[CheckpointResult],
    batch_size: int,
    turnstile: bool,
) -> None:
    """Feed the stream via ``update_batch`` chunks, split at checkpoints."""
    items = stream.item_array()
    deltas = stream.delta_array() if turnstile else None

    def feed_until(boundary: int, cursor: int) -> int:
        while cursor < boundary:
            stop = min(cursor + batch_size, boundary)
            if turnstile:
                estimator.update_batch(items[cursor:stop], deltas[cursor:stop])
            else:
                estimator.update_batch(items[cursor:stop])
            cursor = stop
        return cursor

    cursor = 0
    for position, truth in zip(positions, truths):
        cursor = feed_until(position, cursor)
        if position > 0:  # the scalar loop reports only after an update
            _checkpoint(checkpoints, estimator, position, truth)
    feed_until(len(stream), cursor)


def _drive_persistent(
    estimator,
    stream: MaterializedStream,
    positions: Sequence[int],
    truths: Sequence[int],
    checkpoints: List[CheckpointResult],
    batch_size: Optional[int],
    turnstile: bool,
    persist_dir: str,
) -> None:
    """Feed the stream through a write-ahead-logged Checkpointer.

    Every ``batch_size`` chunk becomes one durable delta record, and
    every checkpoint boundary (plus end of stream) writes a full
    snapshot and compacts the log — so a crash mid-run recovers to the
    last acknowledged batch via :func:`repro.durability.recover`,
    bit-identical to the state the run had there.  The estimate/error
    results are identical to the un-persisted batched drive.
    """
    from ..durability import Checkpointer

    items = stream.item_array()
    deltas = stream.delta_array() if turnstile else None
    chunk = batch_size if batch_size is not None else DEFAULT_SHARD_BATCH
    checkpointer = Checkpointer(estimator, persist_dir)
    try:

        def feed_until(boundary: int, cursor: int) -> int:
            while cursor < boundary:
                stop = min(cursor + chunk, boundary)
                checkpointer.ingest(
                    items[cursor:stop],
                    None if deltas is None else deltas[cursor:stop],
                )
                cursor = stop
            return cursor

        cursor = 0
        for position, truth in zip(positions, truths):
            if position > cursor:
                cursor = feed_until(position, cursor)
                checkpointer.snapshot()
            if position > 0:
                _checkpoint(checkpoints, estimator, position, truth)
        feed_until(len(stream), cursor)
        checkpointer.snapshot()
    finally:
        checkpointer.close()


def _drive_sharded(
    estimator,
    stream: MaterializedStream,
    positions: Sequence[int],
    truths: Sequence[int],
    checkpoints: List[CheckpointResult],
    batch_size: Optional[int],
    workers: int,
    turnstile: bool,
) -> None:
    """Feed each inter-checkpoint segment through the sharded engine.

    The process-wide persistent pool (:mod:`repro.parallel.pool`) serves
    every segment — pool startup is paid once per *process*, not once
    per checkpoint or even per run.  Turnstile runs shard ``(items,
    deltas)`` pairs through the L0 additive engine; insertion-only runs
    shard the item array.
    """
    items = stream.item_array()
    deltas = stream.delta_array() if turnstile else None
    chunk = batch_size if batch_size is not None else DEFAULT_SHARD_BATCH

    def ingest_segment(start: int, stop: int) -> None:
        parallel_ingest_into(
            estimator,
            items[start:stop],
            None if deltas is None else deltas[start:stop],
            workers=workers,
            shards=workers,
            batch_size=chunk,
        )

    cursor = 0
    for position, truth in zip(positions, truths):
        if position > cursor:
            ingest_segment(cursor, position)
            cursor = position
        if position > 0:
            _checkpoint(checkpoints, estimator, position, truth)
    if cursor < len(stream):
        ingest_segment(cursor, len(stream))


def _run(
    estimator,
    stream: MaterializedStream,
    checkpoint_positions: Optional[Sequence[int]],
    turnstile: bool,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    persist_dir: Optional[str] = None,
) -> RunResult:
    positions = list(checkpoint_positions) if checkpoint_positions else []
    truths = stream.ground_truth_at(positions) if positions else []
    checkpoints: List[CheckpointResult] = []
    if persist_dir is not None:
        if workers is not None and workers > 1:
            raise ParameterError(
                "persist_dir is incompatible with workers > 1: sharded "
                "merges bypass the write-ahead log, so the recovered state "
                "would silently miss them"
            )
        if batch_size is not None and batch_size <= 0:
            raise ParameterError("batch_size must be positive")
        if not turnstile and not stream.is_insertion_only():
            raise UpdateError("insertion-only run received a turnstile stream")
        _drive_persistent(
            estimator,
            stream,
            positions,
            truths,
            checkpoints,
            batch_size,
            turnstile,
            persist_dir,
        )
    elif workers is not None and workers > 1:
        _drive_sharded(
            estimator,
            stream,
            positions,
            truths,
            checkpoints,
            batch_size,
            workers,
            turnstile,
        )
    elif batch_size is not None:
        if batch_size <= 0:
            raise ParameterError("batch_size must be positive")
        if not turnstile and not stream.is_insertion_only():
            raise UpdateError("insertion-only run received a turnstile stream")
        _drive_batched(
            estimator, stream, positions, truths, checkpoints, batch_size, turnstile
        )
    else:
        next_checkpoint = 0
        # Reporting happens only after an update: checkpoints at position 0
        # are skipped (not stalled on — a 0 entry must not block later ones).
        while next_checkpoint < len(positions) and positions[next_checkpoint] == 0:
            next_checkpoint += 1
        for index, update in enumerate(stream):
            if turnstile:
                estimator.update(update.item, update.delta)
            else:
                if update.delta != 1:
                    raise UpdateError(
                        "insertion-only run received a turnstile update at position %d"
                        % index
                    )
                estimator.update(update.item)
            while (
                next_checkpoint < len(positions)
                and positions[next_checkpoint] == index + 1
            ):
                _checkpoint(
                    checkpoints, estimator, index + 1, truths[next_checkpoint]
                )
                next_checkpoint += 1
    truth = stream.ground_truth()
    estimate = estimator.estimate()
    return RunResult(
        algorithm=getattr(estimator, "name", type(estimator).__name__),
        stream=stream.name,
        truth=truth,
        estimate=estimate,
        relative_error=relative_error(estimate, truth) if truth else 0.0,
        space_bits=estimator.space_bits(),
        checkpoints=checkpoints,
    )


def run_f0(
    estimator: CardinalityEstimator,
    stream: MaterializedStream,
    checkpoint_positions: Optional[Sequence[int]] = None,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    persist_dir: Optional[str] = None,
) -> RunResult:
    """Run an insertion-only estimator over a stream.

    Args:
        estimator: the sketch to drive.
        stream: the insertion-only stream.
        checkpoint_positions: optional non-decreasing prefix lengths at
            which to record mid-stream estimates.
        batch_size: when set, drive the sketch via ``update_batch`` in
            chunks of this many items (identical results, higher
            throughput).
        workers: when > 1, ingest each inter-checkpoint segment through
            the sharded multi-process engine (requires a mergeable
            estimator built with an explicit seed).
        persist_dir: when set, every ingested chunk is write-ahead
            logged to this (fresh) directory and every checkpoint
            boundary writes a durable snapshot, so a killed run is
            recoverable with :func:`repro.durability.recover`; results
            are identical to the un-persisted run.  Incompatible with
            ``workers > 1``.
    """
    if not stream.is_insertion_only():
        raise ParameterError("run_f0 requires an insertion-only stream")
    return _run(
        estimator,
        stream,
        checkpoint_positions,
        turnstile=False,
        batch_size=batch_size,
        workers=workers,
        persist_dir=persist_dir,
    )


def run_l0(
    estimator: TurnstileEstimator,
    stream: MaterializedStream,
    checkpoint_positions: Optional[Sequence[int]] = None,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    persist_dir: Optional[str] = None,
) -> RunResult:
    """Run a turnstile estimator over a stream (see :func:`run_f0`).

    ``workers > 1`` ingests each inter-checkpoint segment through the
    sharded L0 engine — the library's L0 sketches are linear, so the
    sharded state is bit-identical to serial driving (requires an
    estimator built with an explicit seed).  ``persist_dir`` write-ahead
    logs the run exactly as in :func:`run_f0`.
    """
    return _run(
        estimator,
        stream,
        checkpoint_positions,
        turnstile=True,
        batch_size=batch_size,
        workers=workers,
        persist_dir=persist_dir,
    )


@dataclass
class KeyedRunResult:
    """Outcome of running one sketch-store family over a keyed workload.

    Attributes:
        family: the store's sketch family.
        workload: the workload's name.
        key_count: number of distinct keys observed.
        mean_truth: mean exact per-key distinct count.
        mean_relative_error: per-key relative errors, averaged.
        max_relative_error: the worst per-key relative error.
        space_bits: the store's total footprint after the run.
        estimates: per-key estimates (key -> estimate).
        truth: per-key exact distinct counts (key -> count).
    """

    family: str
    workload: str
    key_count: int
    mean_truth: float
    mean_relative_error: float
    max_relative_error: float
    space_bits: int
    estimates: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)


def run_keyed_f0(
    family: str,
    workload,
    eps: float,
    seed: Optional[int] = None,
    batch_size: Optional[int] = DEFAULT_SHARD_BATCH,
    workers: Optional[int] = None,
    **family_params,
) -> KeyedRunResult:
    """Run one sketch-store family over a keyed insertion-only workload.

    The keyed-workload counterpart of :func:`run_f0_by_name`: a
    :class:`~repro.store.store.SketchStore` ingests the whole workload
    through grouped vectorized sweeps (chunked at ``batch_size``), every
    key's estimate is read with one bulk ``estimate_all``, and the
    per-key relative errors against the exact per-key distinct counts
    are aggregated.

    Args:
        family: a struct-of-arrays store family or any registry F0 name
            (see :func:`repro.store.families.make_sketch_array`).
        workload: a :class:`repro.streams.generators.KeyedWorkload`.
        eps: target relative error per key.
        seed: store seed (required by the store's homologous-rows model).
        batch_size: grouped-sweep chunk length (``None`` drives the
            whole workload as one sweep).
        workers: when > 1, shard the workload by key range over this
            many worker processes (:func:`repro.parallel
            .parallel_ingest_into`); results are identical to serial
            grouped driving.
        **family_params: forwarded to the family factory.
    """
    from ..store import SketchStore

    store = SketchStore.for_family(
        family, workload.universe_size, eps=eps, seed=seed, **family_params
    )
    if workers is not None and workers > 1:
        parallel_ingest_into(
            store,
            workload.items,
            keys=workload.keys,
            workers=workers,
            batch_size=batch_size,
        )
    elif batch_size is None:
        store.update_grouped(workload.keys, workload.items)
    else:
        for keys, items in workload.iter_grouped_batches(batch_size):
            store.update_grouped(keys, items)
    truth = workload.ground_truth()
    estimates = store.estimate_all()
    errors = [
        relative_error(estimates[key], count) if count else 0.0
        for key, count in truth.items()
    ]
    return KeyedRunResult(
        family=family,
        workload=getattr(workload, "name", "keyed"),
        key_count=len(truth),
        mean_truth=(sum(truth.values()) / len(truth)) if truth else 0.0,
        mean_relative_error=(sum(errors) / len(errors)) if errors else 0.0,
        max_relative_error=max(errors, default=0.0),
        space_bits=store.space_bits(),
        estimates=estimates,
        truth=truth,
    )


def run_keyed_l0(
    family: str,
    workload,
    eps: float,
    seed: Optional[int] = None,
    batch_size: Optional[int] = DEFAULT_SHARD_BATCH,
    magnitude_bound: Optional[int] = None,
    **family_params,
) -> KeyedRunResult:
    """Run one L0 sketch-store family over a keyed turnstile workload.

    The turnstile counterpart of :func:`run_keyed_f0`: the workload's
    updates carry signed deltas (see
    :class:`repro.streams.generators.KeyedWorkload`), the store is built
    from an L0 family, and per-key errors are scored against the exact
    per-key support sizes after cancellation.  Insertion-only keyed
    workloads are accepted too (their deltas are implicitly all ``+1``).

    Args:
        family: an L0 registry name (``knw-l0``, ``ganguly``, ...).
        workload: a :class:`repro.streams.generators.KeyedWorkload`.
        eps: target relative error per key.
        seed: store seed.
        batch_size: grouped-sweep chunk length (``None`` drives the
            whole workload as one sweep).
        magnitude_bound: per-frequency magnitude bound forwarded to the
            family factory; defaults to the workload's worst case
            (every update hitting one (key, item) pair).
        **family_params: forwarded to the family factory.
    """
    from ..store import SketchStore

    if magnitude_bound is None:
        deltas = getattr(workload, "deltas", None)
        worst = 1
        if deltas is not None:
            worst = max((abs(int(delta)) for delta in deltas), default=1)
        magnitude_bound = max(len(workload) * worst, 1)
    store = SketchStore.for_family(
        family,
        workload.universe_size,
        eps=eps,
        seed=seed,
        magnitude_bound=magnitude_bound,
        **family_params,
    )
    if batch_size is None:
        store.update_grouped(workload.keys, workload.items, workload.deltas)
    else:
        for keys, items, deltas in workload.iter_grouped_update_batches(batch_size):
            store.update_grouped(keys, items, deltas)
    truth = workload.ground_truth()
    estimates = store.estimate_all()
    errors = [
        relative_error(estimates[key], count) if count else 0.0
        for key, count in truth.items()
    ]
    return KeyedRunResult(
        family=family,
        workload=getattr(workload, "name", "keyed"),
        key_count=len(truth),
        mean_truth=(sum(truth.values()) / len(truth)) if truth else 0.0,
        mean_relative_error=(sum(errors) / len(errors)) if errors else 0.0,
        max_relative_error=max(errors, default=0.0),
        space_bits=store.space_bits(),
        estimates=estimates,
        truth=truth,
    )


def run_f0_by_name(
    name: str,
    stream: MaterializedStream,
    eps: float,
    seed: Optional[int] = None,
    checkpoint_positions: Optional[Sequence[int]] = None,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    persist_dir: Optional[str] = None,
) -> RunResult:
    """Instantiate a registered F0 algorithm and run it over ``stream``."""
    estimator = make_f0_estimator(name, stream.universe_size, eps, seed)
    return run_f0(
        estimator,
        stream,
        checkpoint_positions,
        batch_size=batch_size,
        workers=workers,
        persist_dir=persist_dir,
    )


def run_l0_by_name(
    name: str,
    stream: MaterializedStream,
    eps: float,
    seed: Optional[int] = None,
    checkpoint_positions: Optional[Sequence[int]] = None,
    batch_size: Optional[int] = None,
    workers: Optional[int] = None,
    persist_dir: Optional[str] = None,
) -> RunResult:
    """Instantiate a registered L0 algorithm and run it over ``stream``."""
    magnitude_bound = max(len(stream) * stream.max_update_magnitude(), 1)
    estimator = make_l0_estimator(name, stream.universe_size, eps, magnitude_bound, seed)
    return run_l0(
        estimator,
        stream,
        checkpoint_positions,
        batch_size=batch_size,
        workers=workers,
        persist_dir=persist_dir,
    )
