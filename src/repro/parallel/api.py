"""The one sharded-ingestion entry point: the plan follows from the target.

:func:`parallel_ingest_into` validates the whole input on the
coordinator, reads the :class:`~repro.parallel.plan.IngestPlan` (shard
axis × worker state recipe × merge discipline) off the target's type —
the five target types and their plans are tabulated in
:mod:`repro.parallel` — cuts the shards, and hands the plan to
:func:`~repro.parallel.plan.execute_plan`.

Correctness contract.  For every estimator that supports :meth:`merge
<repro.estimators.base.CardinalityEstimator.merge>`, shard-and-merge is
**bit-identical** to sequential ingestion, because every mergeable
estimator's hash functions are fixed by its seed: the merged sketch's
state and estimate equal those of a single sketch fed the concatenated
stream, for any shard and worker count.  The per-counter reductions are
maxima, ORs, set unions, and modular counter sums — commutative and
associative — which also makes the engine safe to use *mid-stream*:
idempotent families clone the coordinator's state into every worker
(re-merging it is a no-op), while additive families give the workers
*cleared* clones so the prior state enters the sum exactly once.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..estimators.base import CardinalityEstimator, TurnstileEstimator, universe_bound
from ..estimators.registry import (
    f0_algorithm_names,
    l0_algorithm_names,
    make_f0_estimator,
    make_l0_estimator,
)
from ..exceptions import ParameterError
from ..store.store import SketchStore
from ..streams.model import MaterializedStream
from ..vectorize import as_delta_array, as_key_array
from ..window.windowed import WindowedSketch, WindowedSketchStore, epoch_runs
from .plan import DEFAULT_SHARD_BATCH, IngestPlan, _supports_merge, execute_plan
from .pool import default_workers
from .shards import shard_epoch_slices, shard_items, shard_keyed_updates, shard_updates

__all__ = [
    "parallel_ingest_into",
    "mergeable_f0_names",
    "mergeable_l0_names",
]

#: ``batch_size`` left unset: the target type's own default chunking.
_TARGET_DEFAULT = object()


def parallel_ingest_into(
    target,
    items,
    deltas=None,
    *,
    keys=None,
    epochs=None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    batch_size=_TARGET_DEFAULT,
):
    """Shard a stream and ingest it into ``target`` by the plan its type fixes.

    The whole input is validated on the coordinator first — with the
    validators the target's own sequential ingestion uses — so a
    rejected call raises what sequential ingestion raises, for any shard
    count, and leaves the target untouched.

    Args:
        target: a ``CardinalityEstimator``, ``TurnstileEstimator``,
            ``SketchStore``, ``WindowedSketch``, or
            ``WindowedSketchStore``; its type fixes the plan.
        items: identifiers (integer sequence or ndarray).  Estimator
            targets also take a :class:`~repro.streams.model
            .MaterializedStream`; a stream carries its own deltas.
        deltas: one signed delta per item, for turnstile targets.
        keys: one key per item, for store targets (required there).
        epochs: one non-decreasing epoch per item, for windowed targets
            (required there); none may precede the window's open epoch.
        workers: process count; defaults to
            :func:`~repro.parallel.pool.default_workers`.  Shards run
            in-process exactly when ``min(workers, non-empty shards)``
            is 1; one non-empty shard feeds the target directly.
        shards: shard count; defaults to ``workers``.
        batch_size: chunk length for each shard's batch driving.  When
            unset: :data:`~repro.parallel.plan.DEFAULT_SHARD_BATCH` for
            estimators and stores, one batch per epoch run for windows.
            ``None`` forces the scalar loop for estimators, one grouped
            sweep per shard for stores, and one batch per epoch run for
            windows.

    Returns:
        ``target`` (mutated in place), for chaining.

    Raises:
        ParameterError: on an unsupported target type, on inputs the
            target type needs but lacks or cannot use (``deltas`` for an
            insertion-only estimator, ``keys`` for a non-store target,
            ``epochs`` for a non-windowed one, ...), and on invalid item,
            epoch, or count values — all before any work is done.
        UpdateError: on a delta/model mismatch for stores and windows,
            and on a delta-length mismatch — as their sequential paths
            raise.
    """
    if workers is None and shards is None:
        workers = default_workers()
    count = shards if shards is not None else workers
    plan = _plan_for(target, items, deltas, keys, epochs, count, batch_size)
    return execute_plan(plan, target, workers=workers)


def _plan_for(target, items, deltas, keys, epochs, count, batch_size) -> IngestPlan:
    """Validate the input against ``target`` and build its plan."""
    windowed = isinstance(target, (WindowedSketch, WindowedSketchStore))
    keyed = isinstance(target, (SketchStore, WindowedSketchStore))
    if not (
        windowed or keyed or isinstance(target, (CardinalityEstimator, TurnstileEstimator))
    ):
        raise ParameterError(
            "parallel_ingest_into cannot shard into a %s" % type(target).__name__
        )
    if windowed and epochs is None:
        raise ParameterError("windowed targets need one epoch per item")
    if epochs is not None and not windowed:
        raise ParameterError("epochs apply only to windowed targets")
    if keyed and keys is None:
        raise ParameterError("store targets need one key per item")
    if keys is not None and not keyed:
        raise ParameterError("keys apply only to store targets")
    if batch_size is _TARGET_DEFAULT:
        batch_size = None if windowed else DEFAULT_SHARD_BATCH
    elif batch_size is not None and batch_size <= 0:
        raise ParameterError("batch_size must be positive")

    if windowed:
        return _epoch_plan(target, epochs, keys, items, deltas, count, batch_size)
    if keyed:
        items, deltas = target.array.validate_batch(items, deltas)
        return IngestPlan(
            "key", "cleared-clone", "merge-reduce", "keyed",
            shard_keyed_updates(keys, items, deltas, shards=count), batch_size,
        )
    items, deltas = _estimator_batch(target, items, deltas)
    if isinstance(target, TurnstileEstimator):
        return IngestPlan(
            "range", "cleared-clone", "additive", "updates",
            shard_updates((items, deltas), count), batch_size,
        )
    return IngestPlan(
        "range", "clone", "merge-reduce", "items", shard_items(items, count), batch_size
    )


def _estimator_batch(target, items, deltas):
    """Validate an estimator's input as its own ``update_batch`` would."""
    turnstile = isinstance(target, TurnstileEstimator)
    if isinstance(items, MaterializedStream):
        if deltas is not None:
            raise ParameterError("a materialized stream carries its own deltas")
        if turnstile:
            deltas = items.delta_array()
        elif not items.is_insertion_only():
            raise ParameterError(
                "an insertion-only estimator cannot ingest a turnstile stream"
            )
        items = items.item_array()
    if turnstile and deltas is None:
        raise ParameterError("turnstile estimators need one delta per item")
    if deltas is not None and not turnstile:
        raise ParameterError("insertion-only estimators take no deltas")
    items = as_key_array(items, universe_bound(target))
    if turnstile:
        deltas = as_delta_array(deltas, len(items))
    return items, deltas


def _epoch_plan(target, epochs, keys, items, deltas, count, batch_size) -> IngestPlan:
    """Validate a timestamped stream with the ring's own check; build its plan.

    ``validate_timestamped`` is the check the ring's sequential
    ``ingest_timestamped`` runs before it changes anything, so no shard
    ever fails on input the coordinator could have rejected.
    """
    store = isinstance(target, WindowedSketchStore)
    if store:
        _, items, deltas = target.validate_timestamped(epochs, keys, items, deltas)
    else:
        _, items, deltas = target.validate_timestamped(epochs, items, deltas)
    return IngestPlan(
        "epoch", "template-epochs", "adopt-in-order", "epochs",
        _epoch_shards(epochs, items, deltas, keys, count), batch_size,
        meta=("store" if store else "sketch", target.turnstile),
    )


def _epoch_shards(epochs, items, deltas, keys, count):
    """Cut a timestamped stream into epoch-run shard payloads.

    Returns one run-list per non-empty epoch-range span; each run is
    ``(epoch, items, deltas)`` — or ``(epoch, keys, items, deltas)``
    when ``keys`` is given — over NumPy views of the caller's arrays.
    """
    spans = [span for span in shard_epoch_slices(epochs, count) if span[1] > span[0]]
    shard_payloads = []
    for start, stop in spans:
        runs = []
        for epoch, run_start, run_stop in epoch_runs(epochs[start:stop]):
            lo, hi = start + run_start, start + run_stop
            sliced_deltas = None if deltas is None else deltas[lo:hi]
            if keys is None:
                runs.append((epoch, items[lo:hi], sliced_deltas))
            else:
                runs.append((epoch, keys[lo:hi], items[lo:hi], sliced_deltas))
        shard_payloads.append(runs)
    return shard_payloads


_MERGEABLE_CACHE: Optional[Dict[str, bool]] = None


def _drop_capability_caches() -> None:
    """Reset the registry-derived memo cache in forked pool workers.

    The cache is a pure function of the estimator registry, but a child
    should re-derive it against whatever registry *it* sees rather than
    inherit the coordinator's snapshot through fork.
    """
    global _MERGEABLE_CACHE
    _MERGEABLE_CACHE = None


os.register_at_fork(after_in_child=_drop_capability_caches)


def mergeable_f0_names() -> List[str]:
    """Return the registered F0 algorithms usable with sharded ingestion.

    Every one is seed-determined, so its sharded ingest is *bit-identical*
    to sequential ingest.
    """
    global _MERGEABLE_CACHE
    if _MERGEABLE_CACHE is None:
        _MERGEABLE_CACHE = {
            name: _supports_merge(make_f0_estimator(name, 1 << 12, 0.25, seed=0))
            for name in f0_algorithm_names()
        }
    return [name for name, able in sorted(_MERGEABLE_CACHE.items()) if able]


_L0_MERGEABLE_CACHE: Optional[Dict[str, bool]] = None


def mergeable_l0_names() -> List[str]:
    """Return the registered L0 algorithms usable with sharded ingestion.

    Every mergeable L0 sketch in the library is linear with seed-determined
    hash functions, so sharded ingest is *bit-identical* to sequential
    ingest.
    """
    global _L0_MERGEABLE_CACHE
    if _L0_MERGEABLE_CACHE is None:
        _L0_MERGEABLE_CACHE = {
            name: _supports_merge(
                make_l0_estimator(name, 1 << 12, 0.25, 1 << 10, seed=0)
            )
            for name in l0_algorithm_names()
        }
    return [name for name, able in sorted(_L0_MERGEABLE_CACHE.items()) if able]
