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

``workers`` counts the coordinator: it feeds shard 0 into the target
itself while ``workers - 1`` pool processes ingest the other shards
(with ``workers=1`` they run the identical shard / serialize / revive /
merge dataflow in-process).  Without ``shards=``, a call the pool cannot
speed up — by the per-item and fixed costs the engine has measured for
the target type — runs as one in-process shard.  Every placement is
byte-for-byte the same.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        # The declarative core.
        "IngestPlan": "plan",
        "execute_plan": "plan",
        "ShardFault": "plan",
        "InjectedShardFault": "workers",
        "DEFAULT_SHARD_BATCH": "plan",
        "DEFAULT_SHARD_RETRIES": "plan",
        # Shard-axis partitioners.
        "shard_items": "shards",
        "shard_updates": "shards",
        "shard_keyed_updates": "shards",
        "shard_epoch_slices": "shards",
        # The entry point: builds the plan from the target's type.
        "parallel_ingest_into": "api",
        # Registry probes.
        "mergeable_f0_names": "api",
        "mergeable_l0_names": "api",
        # The persistent worker pool.
        "default_workers": "pool",
        "get_pool": "pool",
        "reset_pool": "pool",
        "shutdown_pool": "pool",
        "pool_stats": "pool",
        "stage_shared": "pool",
        "load_shared": "pool",
        "discard_shared": "pool",
    },
)
