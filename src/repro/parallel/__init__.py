"""Sharded multi-process ingestion: one entry point, one executor.

This is the distributed-deployment shape the paper's introduction
motivates (union of streams observed at many points) realised on one
machine.  A stream is partitioned along a *shard axis*, each shard is
ingested by a worker process into a state built from a *worker state
recipe* (through the vectorized ``update_batch`` pipeline), the worker
ships its state back serialized (:mod:`repro.serialize` — no pickle of
live objects), and the coordinator lands the shard states under a
*merge discipline*.  That ``(axis, recipe, discipline)`` triple is an
:class:`IngestPlan`; one engine — :func:`execute_plan` — runs every
plan, and one entry point — :func:`parallel_ingest_into` — builds the
plan from its target's type:

========================  ====================================  =========  ===================  ==================
target type               inputs                                axis       recipe               discipline
========================  ====================================  =========  ===================  ==================
``CardinalityEstimator``  ``items``                             ``range``  ``clone``            ``merge-reduce``
``TurnstileEstimator``    ``items``, ``deltas``                 ``range``  ``cleared-clone``    ``additive``
``SketchStore``           ``keys``, ``items`` (+ ``deltas``)    ``key``    ``cleared-clone``    ``merge-reduce``
``WindowedSketch``        ``epochs``, ``items`` (+ ``deltas``)  ``epoch``  ``template-epochs``  ``adopt-in-order``
``WindowedSketchStore``   ``epochs``, ``keys``, ``items``       ``epoch``  ``template-epochs``  ``adopt-in-order``
                          (+ ``deltas``)
========================  ====================================  =========  ===================  ==================

``(+ deltas)``: required for turnstile families, refused otherwise.  A
turnstile :class:`~repro.streams.model.MaterializedStream` carries its
own deltas.  The whole input is validated on the coordinator before any
shard is cut, so a rejected call raises what sequential ingestion
raises and leaves the target untouched.

The engine gives every plan three capabilities: **pipelined shard
handoff** (the coordinator merges shard states as they complete),
**per-shard failure recovery** (a worker that raises or dies costs only
its shard — bounded retries, deterministic final state), and the
**process-wide persistent worker pool** (:mod:`repro.parallel.pool` —
created lazily, reused across calls, fork-safe, explicitly shut down
via :func:`shutdown_pool`).

Shards go to worker processes from the persistent pool — the
wall-clock win on multi-core hosts (see
``benchmarks/bench_parallel_ingest.py``) — unless only one worker can
do useful work (``min(workers, non-empty shards) == 1``); then the
identical shard / serialize / revive / merge dataflow runs in-process,
byte-for-byte the same.
"""

from __future__ import annotations

from .api import mergeable_f0_names, mergeable_l0_names, parallel_ingest_into
from .plan import (
    DEFAULT_SHARD_BATCH,
    DEFAULT_SHARD_RETRIES,
    IngestPlan,
    ShardFault,
    execute_plan,
)
from .pool import (
    default_workers,
    discard_shared,
    get_pool,
    load_shared,
    pool_stats,
    reset_pool,
    shutdown_pool,
    stage_shared,
)
from .shards import (
    shard_epoch_slices,
    shard_items,
    shard_keyed_updates,
    shard_updates,
)
from .workers import InjectedShardFault

__all__ = [
    # The declarative core.
    "IngestPlan",
    "execute_plan",
    "ShardFault",
    "InjectedShardFault",
    "DEFAULT_SHARD_BATCH",
    "DEFAULT_SHARD_RETRIES",
    # Shard-axis partitioners.
    "shard_items",
    "shard_updates",
    "shard_keyed_updates",
    "shard_epoch_slices",
    # The entry point: builds the plan from the target's type.
    "parallel_ingest_into",
    # Registry probes.
    "mergeable_f0_names",
    "mergeable_l0_names",
    # The persistent worker pool.
    "default_workers",
    "get_pool",
    "reset_pool",
    "shutdown_pool",
    "pool_stats",
    "stage_shared",
    "load_shared",
    "discard_shared",
]
