"""The declarative ingestion plan and its one execution engine.

Every sharded multi-process ingestion in the library is an
:class:`IngestPlan`: a *shard axis* (how the stream was partitioned), a
*worker state recipe* (what state each worker starts from), and a
*merge discipline* (how shard results land back in the coordinator's
object).  :func:`~repro.parallel.api.parallel_ingest_into` builds the
plan from its target's type; :func:`execute_plan` is the single engine
that runs it.

=========================  =========  ===================  ==================
target type                axis       recipe               discipline
=========================  =========  ===================  ==================
``CardinalityEstimator``   ``range``  ``clone``            ``merge-reduce``
``TurnstileEstimator``     ``range``  ``cleared-clone``    ``additive``
``SketchStore``            ``key``    ``cleared-clone``    ``merge-reduce``
``WindowedSketch``         ``epoch``  ``template-epochs``  ``adopt-in-order``
``WindowedSketchStore``    ``epoch``  ``template-epochs``  ``adopt-in-order``
=========================  =========  ===================  ==================

Because all plans flow through one engine, capabilities land everywhere
at once:

* **The coordinator is a worker** — it ingests shard 0 straight into its
  own object while the other shards run, so a plan with ``workers``
  processes asks the pool for ``workers - 1``.  Shard 0 needs no
  template revival, no result transport and no merge.

* **Pipelined shard handoff** — shards are submitted individually and
  their serialized states are consumed as they complete
  (``imap_unordered`` style), so the coordinator deserializes and merges
  fast shards while slow shards are still ingesting.  Commutative
  disciplines (``merge-reduce`` over idempotent max/OR/union reductions,
  ``additive`` over modular counter sums) fold results in completion
  order — the final state is order-independent, so it stays bit-identical
  to the sequential run.  Order-sensitive disciplines (``adopt-in-order``
  epoch adoption, which must move the ring forward; key-axis
  ``merge-reduce``, whose row-registration order is part of the store's
  serialized form) buffer out-of-order completions and apply each
  contiguous prefix as soon as it is ready.

* **Per-shard failure recovery** — a worker that raises, or dies
  outright (SIGKILL breaks the whole pool), costs only its own shard:
  the serialized-state transport makes every shard independently
  replayable, so the engine rebuilds the pool if it broke and re-submits
  just the shards that had not delivered a result, up to
  ``retries`` attempts per shard.  Any successful attempt of a shard
  produces the same bytes, so the final state is deterministic no matter
  which attempt succeeded; shards whose results were already collected
  are never re-ingested.  A shard that keeps failing raises
  :class:`~repro.exceptions.WorkerFailureError`.

* **The persistent worker pool** — pooled execution draws from the
  process-wide pool (:mod:`repro.parallel.pool`); pool startup is paid
  once per process, not once per call.

* **Measured placement** — the engine keeps, per target type, what its
  direct feeds cost per item and what its pooled calls cost beyond
  shard 0, and :func:`~repro.parallel.api.parallel_ingest_into` keeps a
  call in-process when the pool cannot save more than it costs (see
  :func:`_stays_in_process`).
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from concurrent.futures import BrokenExecutor, Future, as_completed
from dataclasses import dataclass
from statistics import median
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from .. import serialize
from ..estimators.base import CardinalityEstimator, TurnstileEstimator
from ..exceptions import (
    FormatVersionError,
    ParameterError,
    PersistenceError,
    WorkerFailureError,
)
from ..vectorize import np
from .pool import _COSTS, default_workers, get_pool, reset_pool
from .workers import (
    InjectedShardFault,
    ShardFault,
    ingest_shard,
    _feed_items,
    _feed_keyed,
    _feed_updates,
    _trip_fault,
)

__all__ = [
    "DEFAULT_SHARD_BATCH",
    "DEFAULT_SHARD_RETRIES",
    "IngestPlan",
    "ShardFault",
    "execute_plan",
]

#: Chunk length used when workers drive shards through ``update_batch``.
DEFAULT_SHARD_BATCH = 65536

#: Re-ingestion attempts granted to a failed shard beyond its first try.
DEFAULT_SHARD_RETRIES = 2

_AXES = ("range", "key", "epoch")
_RECIPES = ("clone", "cleared-clone", "template-epochs")
_DISCIPLINES = ("merge-reduce", "additive", "adopt-in-order")
_KINDS = ("items", "updates", "keyed", "epochs")

#: Samples kept per cost, and the fewest that may decide a placement: a
#: cold pool's first call costs tens of milliseconds and must not decide
#: alone.
_COST_SAMPLES = 8
_COST_WARMUP = 3


@dataclass
class IngestPlan:
    """A declarative description of one sharded ingestion.

    Attributes:
        axis: how the stream was partitioned — ``"range"`` (contiguous
            item/update slices), ``"key"`` (every key in exactly one
            shard), or ``"epoch"`` (whole epochs per shard).
        recipe: the worker's starting state — ``"clone"`` (the
            coordinator's current state; sound for idempotent
            reductions), ``"cleared-clone"`` (same randomness, zeroed
            counters; required when merges are additive, and the shape
            of a key-store's ``spawn_empty``), or ``"template-epochs"``
            (each epoch run revives the ring's empty epoch template).
        discipline: how shard results land back — ``"merge-reduce"``
            (idempotent ``merge``/``merge_from``), ``"additive"``
            (counter-wise sums via ``merge``), or ``"adopt-in-order"``
            (epoch states adopted ring-forward).
        kind: the worker payload dialect (``"items"``, ``"updates"``,
            ``"keyed"``, ``"epochs"``) — derived from the axis and the
            stream model by ``parallel_ingest_into``.
        shards: the shard payload bodies (empty shards are filtered by
            the engine).
        batch_size: chunk length for the workers' ``update_batch``
            driving; ``None`` means the per-kind legacy default (scalar
            loop for ``range``, one sweep for ``key``, one batch per
            epoch run for ``epoch``).
        meta: kind-specific extras (for ``"epochs"``: the template kind
            and the turnstile flag).
        retries: re-ingestion attempts granted per failed shard.
        fault: optional fault-injection map ``{shard_index:
            ShardFault}`` for tests and chaos runs.
    """

    axis: str
    recipe: str
    discipline: str
    kind: str
    shards: List[Any]
    batch_size: Optional[int] = DEFAULT_SHARD_BATCH
    meta: Tuple = ()
    retries: int = DEFAULT_SHARD_RETRIES
    fault: Optional[Mapping[int, ShardFault]] = None

    def __post_init__(self) -> None:
        if self.axis not in _AXES:
            raise ParameterError("unknown shard axis %r" % (self.axis,))
        if self.recipe not in _RECIPES:
            raise ParameterError("unknown worker state recipe %r" % (self.recipe,))
        if self.discipline not in _DISCIPLINES:
            raise ParameterError("unknown merge discipline %r" % (self.discipline,))
        if self.kind not in _KINDS:
            raise ParameterError("unknown shard kind %r" % (self.kind,))
        if self.retries < 0:
            raise ParameterError("retries must not be negative")


def _shard_size(kind: str, shard) -> int:
    """The number of updates in one shard."""
    if kind == "items":
        return len(shard)
    if kind == "epochs":
        return sum(len(run[-2]) for run in shard)  # each run's items
    return len(shard[0])  # updates / keyed: aligned arrays


def _costs(target) -> Tuple[Deque[float], Deque[float]]:
    """The target type's cost samples: ``(ns per item, fixed ns)``.

    The first are the last direct feeds (calls kept in-process, and shard
    0); the second the last pooled calls with one shard per worker: the
    coordinator's wall time from template to last landed result, minus
    its shard-0 feed.  The table (:data:`repro.parallel.pool._COSTS`)
    holds only floats, never sketch state, and goes with the pool.
    """
    key = type(target)
    if key not in _COSTS:
        _COSTS[key] = (deque(maxlen=_COST_SAMPLES), deque(maxlen=_COST_SAMPLES))
    return _COSTS[key]


def _stays_in_process(target, items: int, workers: int) -> bool:
    """Whether a call of ``items`` updates costs least fed in-process.

    With ``c`` the median ns per item of the target type's recent direct
    feeds and ``F`` the median fixed cost of its recent pooled calls, a
    pooled call costs about ``F + n·c/w`` and an in-process one ``n·c``;
    so the call stays in-process when ``n·c·(1 − 1/w) ≤ F``.  A type with
    fewer than :data:`_COST_WARMUP` samples of either is pooled.
    """
    per_item, fixed = _COSTS.get(type(target), ((), ()))
    if len(per_item) < _COST_WARMUP or len(fixed) < _COST_WARMUP:
        return False
    return items * median(per_item) * (1.0 - 1.0 / workers) <= median(fixed)


def _supports_merge(estimator) -> bool:
    if isinstance(estimator, TurnstileEstimator):
        return type(estimator).merge is not TurnstileEstimator.merge
    return type(estimator).merge is not CardinalityEstimator.merge


def _require_explicit_seed(estimator) -> None:
    """Refuse seedless sketches up front, before any shard work is spent.

    Plain sketches carry a ``seed`` attribute; amplification wrappers
    carry none but expose their ``copies``, whose seeds determine merge
    compatibility — check whichever is present.
    """
    seedless = getattr(estimator, "seed", 0) is None or any(
        getattr(copy, "seed", 0) is None
        for copy in getattr(estimator, "copies", ())
    )
    if seedless:
        raise ParameterError(
            "sharded ingestion needs an explicit seed so the shard sketches "
            "share hash functions; construct the estimator with seed=..."
        )


def _template_for(plan: IngestPlan, target) -> bytes:
    """Realize the plan's worker state recipe against the target."""
    if plan.recipe == "clone":
        return target.to_bytes()
    if plan.recipe == "cleared-clone":
        if plan.axis == "key":
            return target.spawn_empty().to_bytes()
        # Clear once on the coordinator instead of once per worker: the
        # revived clone keeps the template's hash randomness, and its
        # serialized cleared state is exactly what each worker would have
        # produced by reviving and clearing locally.
        clone = serialize.loads(target.to_bytes())
        clone.clear()
        return clone.to_bytes()
    return target.template_bytes  # "template-epochs"


def _feed_direct(plan: IngestPlan, target, shard) -> int:
    """Feed one shard into the coordinator's object itself; return its ns.

    No worker state, no serialized transport, no merge, so a one-shard
    plan works even for unmergeable or seedless sketches.  The shard is
    chunked by ``plan.batch_size`` exactly as a worker would feed it.
    The ns per update is recorded for :func:`_stays_in_process`.
    """
    start = time.perf_counter_ns()
    if plan.kind == "items":
        _feed_items(target, shard, plan.batch_size)
    elif plan.kind == "updates":
        _feed_updates(target, shard, plan.batch_size)
    elif plan.kind == "keyed":
        _feed_keyed(target, shard, plan.batch_size)
    else:  # epochs: replay the runs through the ring's own timestamped path
        template_kind = plan.meta[0]
        for run in shard:
            epoch = int(run[0])
            stamped = np.full(len(run[-2]), epoch, dtype=np.int64)
            if template_kind == "store":
                _, keys, items, deltas = run
                target.ingest_timestamped(
                    stamped, keys, items, deltas, batch_size=plan.batch_size
                )
            else:
                _, items, deltas = run
                target.ingest_timestamped(
                    stamped, items, deltas, batch_size=plan.batch_size
                )
    elapsed = time.perf_counter_ns() - start
    _costs(target)[0].append(elapsed / _shard_size(plan.kind, shard))
    return elapsed


def _feed_shard_zero(plan: IngestPlan, target, shard) -> int:
    """The coordinator's own shard: fault check first, then :func:`_feed_direct`.

    A fault planned for shard 0 trips before anything is fed (a ``kill``
    raises instead, as in-process execution does), so each failed
    attempt leaves the target untouched and the retry is against the
    target itself.
    """
    attempt = 0
    while True:
        try:
            _trip_fault(_fault_mode(plan, 0, attempt), True)
            return _feed_direct(plan, target, shard)
        except InjectedShardFault as error:
            attempt += 1
            if attempt > plan.retries:
                raise WorkerFailureError(
                    "shard 0 failed %d time(s), exhausting its retry budget "
                    "of %d" % (attempt, plan.retries)
                ) from error


def _apply_result(plan: IngestPlan, target, result) -> None:
    """Land one shard's serialized result in the coordinator's object."""
    if plan.discipline == "adopt-in-order":
        target.load_epoch_sketches(
            (epoch, serialize.loads(blob)) for epoch, blob in result
        )
    elif plan.axis == "key":
        target.merge_from(serialize.loads(result))
    else:
        target.merge(serialize.loads(result))


class _ResultSink:
    """Applies shard results under the plan's ordering constraint.

    Commutative disciplines fold results the moment they arrive;
    order-sensitive ones buffer out-of-order completions and flush each
    contiguous prefix of shard indices as soon as it is complete.  Shard
    0 is the coordinator's own, fed before any result lands, so the
    prefix starts at shard 1.
    """

    def __init__(self, plan: IngestPlan, target) -> None:
        self._plan = plan
        self._target = target
        # Key-axis merge_from registers rows in arrival order (part of
        # the store's serialized form), and epoch adoption only moves
        # the ring forward — both need plan-order application.
        self._ordered = plan.discipline == "adopt-in-order" or plan.axis == "key"
        self._buffer: Dict[int, Any] = {}
        self._next = 1

    def add(self, index: int, result) -> None:
        if not self._ordered:
            _apply_result(self._plan, self._target, result)
            return
        self._buffer[index] = result
        while self._next in self._buffer:
            _apply_result(self._plan, self._target, self._buffer.pop(self._next))
            self._next += 1


class _ResultSpool:
    """Durable per-shard result spool: crash insurance for the coordinator.

    Each delivered shard result is appended (fsync'd) to a
    :class:`~repro.durability.DurableLog` in ``directory`` *before* it is
    merged, so a coordinator that dies mid-plan can re-run the same plan
    with the same ``spool_dir`` and re-ingest only the shards that never
    delivered.  Shard 0, fed by the coordinator itself, never has a
    result to spool: a resumed plan feeds it again.  The spool opens
    with a fingerprint record binding it to the plan (kind, axes, shard
    count, worker template bytes); resuming
    with a different plan fails fast rather than merging foreign results.
    The spool is destroyed on successful completion — finished state must
    not be mistaken for something resumable.
    """

    _KIND_META = 0x03  # RECORD_KIND_META
    _KIND_RESULT = 0x02  # RECORD_KIND_DELTA

    def __init__(self, directory: str, plan: IngestPlan, template: bytes) -> None:
        from ..durability.log import DurableLog, scan_segment

        fingerprint = hashlib.sha256(
            serialize.dumps_tree(
                {
                    "axis": plan.axis,
                    "recipe": plan.recipe,
                    "discipline": plan.discipline,
                    "kind": plan.kind,
                    "shards": len(plan.shards),
                    "batch_size": plan.batch_size,
                    "meta": list(plan.meta),
                    "template": template,
                }
            )
        ).hexdigest()
        self._log = DurableLog(directory)
        self.recovered: Dict[int, Any] = {}
        self._seq = 0
        segments = self._log.segment_paths()
        if segments:
            first_scan = scan_segment(segments[0][1])
            head = first_scan.records[0] if first_scan.records else None
            try:
                meta = None if head is None else serialize.loads_tree(head.payload)
            except FormatVersionError as error:
                self._log.close()
                raise PersistenceError(
                    "result spool %r is in serialization format version %d; "
                    "this build reads only version %d" % (directory, error.found, error.expected)
                ) from error
            if (
                not isinstance(meta, dict)
                or head.kind != self._KIND_META
                or meta.get("fingerprint") != fingerprint
            ):
                self._log.close()
                raise PersistenceError(
                    "result spool %r does not match this plan (different "
                    "plan shape, shard count, or worker template); clear "
                    "the directory or use a fresh spool_dir" % directory
                )
            for _, path in segments:
                scan = scan_segment(path)
                for record in scan.records:
                    self._seq = max(self._seq, record.seq)
                    if record.kind != self._KIND_RESULT:
                        continue
                    tree = serialize.loads_tree(record.payload)
                    self.recovered[int(tree["index"])] = tree["result"]
            # Never append after unverified bytes: resume in a new segment.
            self._log.open_segment(self._seq + 1)
        else:
            self._log.open_segment(1)
            self._seq = 1
            self._log.append(
                self._KIND_META,
                self._seq,
                serialize.dumps_tree({"fingerprint": fingerprint}),
            )

    def record(self, index: int, result) -> None:
        self._seq += 1
        self._log.append(
            self._KIND_RESULT,
            self._seq,
            serialize.dumps_tree({"index": index, "result": result}),
        )

    def close(self) -> None:
        self._log.close()

    def destroy(self) -> None:
        self._log.destroy()


def _fault_mode(plan: IngestPlan, index: int, attempt: int) -> Optional[str]:
    spec = None if plan.fault is None else plan.fault.get(index)
    return spec.mode if spec is not None and attempt < spec.failures else None


class _InlineExecutor:
    """Runs each submitted shard at once, in the coordinator's process.

    With ``workers=1`` the other shards take the pooled path's dataflow
    and retry loop unchanged; their payloads say ``inline``, so a
    ``kill`` fault raises instead of killing the coordinator.
    """

    def submit(self, function, payload) -> Future:
        future: Future = Future()
        try:
            future.set_result(function(payload))
        except Exception as error:
            future.set_exception(error)
        return future


def _run_shards(
    plan: IngestPlan,
    target,
    work: List[Any],
    template: bytes,
    workers: int,
    spool: Optional[_ResultSpool] = None,
) -> int:
    """Run a plan: shard 0 in the coordinator, the others on ``workers - 1``.

    Shards 1… are submitted first, so they ingest while the coordinator
    feeds shard 0; their results then land as they complete, with retry.
    Returns the ns the coordinator spent feeding shard 0.
    """
    inline = workers == 1
    executor = _InlineExecutor() if inline else get_pool(workers - 1)
    sink = _ResultSink(plan, target)
    # Shard 0 is fed again on a resume, so a spooled shard-0 result (older
    # builds spooled one) is skipped: an additive merge must not count it twice.
    done = {} if spool is None else {i: r for i, r in spool.recovered.items() if i}
    attempts = [0] * len(work)
    pending = [index for index in range(1, len(work)) if index not in done]
    last_error: Optional[BaseException] = None
    fed = None
    while fed is None or pending:
        futures = {}
        failed: List[int] = []
        broken = False
        for index in pending:
            if broken:
                failed.append(index)
                continue
            payload = (plan.kind, template, work[index], plan.batch_size, plan.meta,
                       _fault_mode(plan, index, attempts[index]), inline)
            try:
                futures[executor.submit(ingest_shard, payload)] = index
            except Exception as error:  # a pool already broken by a prior round
                last_error = error
                broken = True
                attempts[index] += 1
                failed.append(index)
        if fed is None:
            fed = _feed_shard_zero(plan, target, work[0])
            for index in sorted(done):
                sink.add(index, done[index])
        for future in as_completed(futures):
            index = futures[future]
            try:
                result = future.result()
            except Exception as error:
                # A worker raise fails one future; a worker death breaks
                # the pool and fails every uncollected future.  Either
                # way only the shards without a delivered result are
                # charged and retried — collected results are kept.
                last_error = error
                attempts[index] += 1
                failed.append(index)
                if isinstance(error, BrokenExecutor):
                    broken = True
                continue
            if spool is not None:
                spool.record(index, result)
            sink.add(index, result)
        exhausted = [index for index in failed if attempts[index] > plan.retries]
        if exhausted:
            raise WorkerFailureError(
                "shard(s) %s exhausted their retry budget of %d"
                % (exhausted, plan.retries)
            ) from last_error
        if failed and broken:
            reset_pool()
            executor = get_pool(workers - 1)
        pending = sorted(failed)
    return fed


def execute_plan(
    plan: IngestPlan,
    target,
    workers: Optional[int] = None,
    spool_dir: Optional[str] = None,
):
    """Execute an ingestion plan against ``target`` (mutated in place).

    Args:
        plan: the declarative plan (see :class:`IngestPlan`).
        target: the coordinator's object — an estimator, a
            :class:`~repro.store.store.SketchStore`, or a windowed ring —
            matching the plan's axis/discipline.
        workers: the number of processes that ingest, the coordinator
            included; defaults to
            :func:`~repro.parallel.pool.default_workers`, capped at the
            number of non-empty shards.  The coordinator feeds shard 0
            into ``target`` itself and the persistent pool gets
            ``workers - 1`` processes for the rest; with one worker the
            other shards run the identical serialize / revive / merge
            dataflow in-process.  Results are byte-for-byte the same
            either way.  A plan with one non-empty shard (and no fault
            or spool) is simply fed to ``target``.
        spool_dir: optional directory for a durable per-shard result
            spool.  Every delivered shard result is fsync'd there before
            being merged; re-running the same plan with the same
            ``spool_dir`` after a coordinator crash submits only the
            shards that never delivered, merging the spooled results for
            the rest (bit-identical to an uninterrupted run).  Shard 0
            delivers nothing to spool: a re-run feeds it again.  The
            spool is deleted when the plan completes.

    Returns:
        ``target``, for chaining.
    """
    if workers is None:
        workers = default_workers()
    if workers <= 0:
        raise ParameterError("workers must be positive")
    work = [shard for shard in plan.shards if _shard_size(plan.kind, shard) > 0]
    if not work:
        return target
    if len(work) == 1 and plan.fault is None and spool_dir is None:
        _feed_direct(plan, target, work[0])
        return target
    if plan.axis == "range":
        if not _supports_merge(target):
            raise ParameterError(
                "%s does not support merge; sharded ingestion needs a "
                "mergeable sketch" % type(target).__name__
            )
        _require_explicit_seed(target)

    workers = min(workers, len(work))
    start = time.perf_counter_ns()
    # The template is realized before anything is fed: it is the state
    # the call started from.
    template = _template_for(plan, target)
    spool = None if spool_dir is None else _ResultSpool(spool_dir, plan, template)
    try:
        fed = _run_shards(plan, target, work, template, workers, spool=spool)
    except BaseException:
        if spool is not None:
            spool.close()  # keep the delivered results for the re-run
        raise
    if workers == len(work) > 1:  # shaped like the pooled calls the rule weighs
        _costs(target)[1].append(time.perf_counter_ns() - start - fed)
    if spool is not None:
        spool.destroy()
    return target
