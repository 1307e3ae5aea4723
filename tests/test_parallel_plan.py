"""Plan-executor capabilities: shard retry, the pool, shared staging.

``tests/test_parallel.py`` pins the sharded-ingestion contracts
(bit-identity across shard and worker counts, and mid-stream takeover).
This suite pins what the declarative engine *added*:

* **per-shard failure recovery** — a worker that raises mid-shard, or
  dies by SIGKILL (breaking the whole pool), costs only its shard; the
  recovered result is bit-identical to the zero-failure run for every
  shard-deterministic family, and a shard that keeps failing raises
  :class:`~repro.exceptions.WorkerFailureError`;
* **the coordinator as a worker** — it feeds shard 0 itself (faults on
  it trip before anything is fed) and asks the pool for one process
  fewer;
* **measured placement** — a call without ``shards=`` stays in-process
  exactly when the target type's recorded costs say the pool cannot
  save more than it costs;
* **the persistent worker pool** — lazily created, reused across calls,
  grown by recreation, explicitly shut down, and fork-safe;
* **shared-payload staging** — the pool-initializer replacement used by
  the sweep harness and the data-cleaning profiler.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.estimators.registry import make_f0_estimator, make_l0_estimator
from repro.exceptions import ParameterError, WorkerFailureError
from repro.parallel import (
    IngestPlan,
    ShardFault,
    default_workers,
    execute_plan,
    get_pool,
    mergeable_f0_names,
    mergeable_l0_names,
    pool_stats,
    reset_pool,
    shard_items,
    shard_keyed_updates,
    shard_updates,
    shutdown_pool,
    stage_shared,
    load_shared,
    discard_shared,
)
from repro.parallel import parallel_ingest_into
from repro.parallel.api import _epoch_shards
from repro.parallel.plan import _COSTS, _costs, _stays_in_process
from repro.store import SketchStore
from repro.window import WindowedSketch

UNIVERSE = 1 << 16
EPS = 0.25
SEED = 71
SHARDS = 3


@pytest.fixture(scope="module", autouse=True)
def _own_pool():
    """Neither inherit an earlier module's pool nor leave one behind.

    The persistent pool outlives a module: without the first shutdown
    the fault tests below would run on whatever workers an earlier
    module forked, so their behaviour would depend on test order.
    """
    shutdown_pool()
    yield
    shutdown_pool()


@pytest.fixture(scope="module")
def items():
    return np.random.RandomState(29).randint(0, UNIVERSE, size=4000).astype(np.uint64)


@pytest.fixture(scope="module")
def updates(items):
    deltas = np.random.RandomState(31).randint(1, 4, size=len(items)).astype(np.int64)
    return items, deltas


def _f0_plan(items, fault=None, **overrides):
    options = dict(
        axis="range",
        recipe="clone",
        discipline="merge-reduce",
        kind="items",
        shards=shard_items(items, SHARDS),
        fault=fault,
    )
    options.update(overrides)
    return IngestPlan(**options)


def _l0_plan(updates, fault=None, **overrides):
    options = dict(
        axis="range",
        recipe="cleared-clone",
        discipline="additive",
        kind="updates",
        shards=shard_updates(updates, SHARDS),
        fault=fault,
    )
    options.update(overrides)
    return IngestPlan(**options)


def _sequential_f0(name, items):
    estimator = make_f0_estimator(name, UNIVERSE, EPS, seed=SEED)
    estimator.update_batch(items)
    return estimator


def _sequential_l0(name, updates):
    estimator = make_l0_estimator(name, UNIVERSE, EPS, 1 << 12, seed=SEED)
    estimator.update_batch(*updates)
    return estimator


class TestShardFaultRecovery:
    """Raise and SIGKILL faults trigger shard-only retry, bit-identically."""

    @pytest.mark.parametrize("name", mergeable_f0_names())
    @pytest.mark.parametrize("mode", ["raise", "kill"])
    def test_f0_recovers_bit_identical(self, items, name, mode):
        sequential = _sequential_f0(name, items)
        recovered = make_f0_estimator(name, UNIVERSE, EPS, seed=SEED)
        plan = _f0_plan(items, fault={1: ShardFault(mode)})
        execute_plan(plan, recovered, workers=2)
        assert recovered.state_dict() == sequential.state_dict()
        assert recovered.estimate() == sequential.estimate()

    @pytest.mark.parametrize("name", mergeable_l0_names())
    @pytest.mark.parametrize("mode", ["raise", "kill"])
    def test_l0_recovers_bit_identical(self, updates, name, mode):
        sequential = _sequential_l0(name, updates)
        recovered = make_l0_estimator(name, UNIVERSE, EPS, 1 << 12, seed=SEED)
        plan = _l0_plan(updates, fault={0: ShardFault(mode)})
        execute_plan(plan, recovered, workers=2)
        assert recovered.state_dict() == sequential.state_dict()
        assert recovered.estimate() == sequential.estimate()

    def test_every_shard_faulted_still_recovers(self, items):
        sequential = _sequential_f0("hyperloglog", items)
        recovered = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        fault = {index: ShardFault("raise") for index in range(SHARDS)}
        plan = _f0_plan(items, fault=fault)
        execute_plan(plan, recovered, workers=2)
        assert recovered.state_dict() == sequential.state_dict()

    def test_inline_execution_retries_too(self, items):
        sequential = _sequential_f0("kmv", items)
        recovered = make_f0_estimator("kmv", UNIVERSE, EPS, seed=SEED)
        plan = _f0_plan(items, fault={2: ShardFault("raise")})
        execute_plan(plan, recovered, workers=1)
        assert recovered.state_dict() == sequential.state_dict()

    def test_inline_downgrades_kill_to_raise(self, items):
        """A kill fault must not SIGKILL the coordinator under inline."""
        sequential = _sequential_f0("hyperloglog", items)
        recovered = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        plan = _f0_plan(items, fault={0: ShardFault("kill")})
        execute_plan(plan, recovered, workers=1)
        assert recovered.state_dict() == sequential.state_dict()

    def test_keyed_plan_recovers_bit_identical(self):
        """The faulted run must equal the zero-failure sharded run exactly.

        (Key-range sharding registers store rows in shard order rather
        than stream-first-occurrence order, so the zero-failure sharded
        run — not sequential grouped ingestion — is the byte-level
        reference; key-wise equivalence to sequential ingestion is
        pinned by ``tests/test_sketch_store.py``.)
        """
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 12, size=3000, dtype=np.int64)
        values = rng.integers(0, UNIVERSE, size=3000, dtype=np.uint64)

        def run(fault):
            store = SketchStore.for_family(
                "hyperloglog", UNIVERSE, eps=0.1, seed=SEED
            )
            plan = IngestPlan(
                axis="key",
                recipe="cleared-clone",
                discipline="merge-reduce",
                kind="keyed",
                shards=shard_keyed_updates(keys, values, shards=SHARDS),
                fault=fault,
            )
            execute_plan(plan, store, workers=2)
            return store

        reference = run(None)
        recovered = run({1: ShardFault("raise")})
        assert recovered.state_dict() == reference.state_dict()

    def test_windowed_plan_recovers_bit_identical(self):
        rng = np.random.default_rng(7)
        epochs = np.sort(rng.integers(0, 6, size=2400)).astype(np.int64)
        values = rng.integers(0, UNIVERSE, size=2400, dtype=np.uint64)
        sequential = WindowedSketch(
            make_f0_estimator("hyperloglog", UNIVERSE, EPS, SEED), retention=8
        )
        sequential.ingest_timestamped(epochs, values)
        recovered = WindowedSketch(
            make_f0_estimator("hyperloglog", UNIVERSE, EPS, SEED), retention=8
        )
        plan = IngestPlan(
            axis="epoch",
            recipe="template-epochs",
            discipline="adopt-in-order",
            kind="epochs",
            shards=_epoch_shards(epochs, values, None, None, SHARDS),
            batch_size=None,
            meta=("sketch", recovered.turnstile),
            fault={0: ShardFault("raise")},
        )
        execute_plan(plan, recovered, workers=2)
        assert recovered.state_dict() == sequential.state_dict()

    def test_retry_budget_exhaustion_raises(self, items):
        estimator = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        plan = _f0_plan(items, fault={1: ShardFault("raise", failures=5)})
        with pytest.raises(WorkerFailureError):
            execute_plan(plan, estimator, workers=1)

    def test_retry_budget_exhaustion_raises_in_processes(self, items):
        estimator = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        plan = _f0_plan(items, fault={1: ShardFault("kill", failures=5)})
        with pytest.raises(WorkerFailureError):
            execute_plan(plan, estimator, workers=2)

    def test_zero_retries_fails_on_first_fault(self, items):
        estimator = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        plan = _f0_plan(items, fault={0: ShardFault("raise")}, retries=0)
        with pytest.raises(WorkerFailureError):
            execute_plan(plan, estimator, workers=1)

    @pytest.mark.parametrize("mode", ["raise", "kill"])
    def test_l0_pool_shard_recovers_bit_identical(self, updates, mode):
        sequential = _sequential_l0("knw-l0", updates)
        recovered = make_l0_estimator("knw-l0", UNIVERSE, EPS, 1 << 12, seed=SEED)
        plan = _l0_plan(updates, fault={SHARDS - 1: ShardFault(mode)})
        execute_plan(plan, recovered, workers=2)
        assert recovered.to_bytes() == sequential.to_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", ["raise", "kill"])
    def test_shard_zero_fault_recovers_in_the_coordinator(self, items, mode, workers):
        sequential = _sequential_f0("knw-paper", items)
        recovered = make_f0_estimator("knw-paper", UNIVERSE, EPS, seed=SEED)
        get_pool(1)
        restarts = pool_stats()["restarts"]
        plan = _f0_plan(items, fault={0: ShardFault(mode, failures=2)})
        execute_plan(plan, recovered, workers=workers)
        assert recovered.to_bytes() == sequential.to_bytes()
        # Shard 0 is the coordinator's: a kill there raises, no worker dies.
        assert pool_stats()["restarts"] == restarts

    @pytest.mark.parametrize("mode", ["raise", "kill"])
    def test_permanent_shard_zero_fault_raises_before_anything_lands(self, items, mode):
        estimator = make_f0_estimator("knw-paper", UNIVERSE, EPS, seed=SEED)
        before = estimator.to_bytes()
        plan = _f0_plan(items, fault={0: ShardFault(mode, failures=3)})
        with pytest.raises(WorkerFailureError):
            execute_plan(plan, estimator, workers=2)
        assert estimator.to_bytes() == before

    def test_fault_spec_validation(self):
        with pytest.raises(ParameterError):
            ShardFault(mode="explode")
        with pytest.raises(ParameterError):
            ShardFault(failures=0)


class TestCoordinatorShard:
    def test_pool_gets_one_process_fewer_than_workers(self, items):
        shutdown_pool()
        estimator = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        execute_plan(_f0_plan(items), estimator, workers=2)
        assert pool_stats()["size"] == 1
        assert estimator.to_bytes() == _sequential_f0("hyperloglog", items).to_bytes()

    def test_one_worker_needs_no_pool(self, items):
        shutdown_pool()
        estimator = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        execute_plan(_f0_plan(items), estimator, workers=1)
        assert not pool_stats()["alive"]
        assert estimator.to_bytes() == _sequential_f0("hyperloglog", items).to_bytes()


def _seed_costs(target, per_item, fixed):
    """Inject cost samples for ``target``'s type: ns per item, fixed ns."""
    recorded_per_item, recorded_fixed = _costs(target)
    recorded_per_item.extend(per_item)
    recorded_fixed.extend(fixed)


class TestInProcessRule:
    @pytest.fixture(autouse=True)
    def _fresh_costs(self):
        _COSTS.clear()
        yield
        _COSTS.clear()

    def test_rule_on_injected_samples(self):
        target = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        assert not _stays_in_process(target, 16, 2)  # no samples: pooled
        _seed_costs(target, [200.0, 300.0, 400.0], [44e6])
        # n·c·(1 − 1/w) = 65536 · 300 · ½ ≈ 9.8 ms: below one cold 44 ms
        # pool start, but a single sample must not decide alone.
        assert not _stays_in_process(target, 1 << 16, 2)
        _seed_costs(target, [], [6e6, 6e6])  # F: median of 44, 6, 6 ms
        assert not _stays_in_process(target, 1 << 16, 2)  # 9.8 ms > 6 ms
        assert _stays_in_process(target, 1 << 15, 2)  # 4.9 ms ≤ 6 ms
        assert not _stays_in_process(target, 1 << 15, 3)  # 6.6 ms > 6 ms
        assert _stays_in_process(target, 1 << 15, 1)  # one worker saves nothing
        # Costs are per target type.
        other = make_f0_estimator("kmv", UNIVERSE, EPS, seed=SEED)
        assert not _stays_in_process(other, 1 << 15, 2)

    def test_fewer_than_three_per_item_samples_pool(self):
        target = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        _seed_costs(target, [300.0, 300.0], [6e6, 6e6, 6e6])
        assert not _stays_in_process(target, 16, 2)

    def test_samples_keep_the_last_eight(self):
        target = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        _seed_costs(target, [1e9] * 8 + [100.0] * 8, [1e6] * 3)
        per_item, _ = _costs(target)
        assert list(per_item) == [100.0] * 8

    def test_call_ruled_in_process_uses_no_pool(self, items):
        shutdown_pool()
        target = make_f0_estimator("knw-paper", UNIVERSE, EPS, seed=SEED)
        _seed_costs(target, [300.0] * 3, [50e6] * 3)
        created = pool_stats()["created"]
        parallel_ingest_into(target, items, workers=2)
        assert pool_stats()["created"] == created
        assert not pool_stats()["alive"]
        assert target.to_bytes() == _sequential_f0("knw-paper", items).to_bytes()
        # Kept in-process, the call's own feed is a new per-item sample.
        assert len(_costs(target)[0]) == 4

    def test_call_the_pool_pays_for_goes_to_the_pool(self, items):
        shutdown_pool()
        target = make_f0_estimator("knw-paper", UNIVERSE, EPS, seed=SEED)
        _seed_costs(target, [300.0] * 3, [1.0] * 3)
        parallel_ingest_into(target, items, workers=2)
        assert pool_stats()["alive"]
        assert target.to_bytes() == _sequential_f0("knw-paper", items).to_bytes()
        per_item, fixed = _costs(target)
        assert (len(per_item), len(fixed)) == (4, 4)  # shard 0's feed; the call

    def test_explicit_shards_is_the_plan_as_asked(self, items):
        shutdown_pool()
        target = make_f0_estimator("knw-paper", UNIVERSE, EPS, seed=SEED)
        _seed_costs(target, [300.0] * 3, [50e6] * 3)
        parallel_ingest_into(target, items, workers=2, shards=2)
        assert pool_stats()["alive"]
        assert target.to_bytes() == _sequential_f0("knw-paper", items).to_bytes()

    def test_nonpositive_workers_raise_with_warm_costs(self, items):
        target = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        _seed_costs(target, [300.0] * 3, [6e6] * 3)
        with pytest.raises(ParameterError):
            parallel_ingest_into(target, items, workers=0)

    @pytest.mark.parametrize("drop", [reset_pool, shutdown_pool])
    def test_pool_teardown_drops_the_costs(self, drop):
        target = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        _seed_costs(target, [300.0] * 3, [6e6] * 3)
        drop()
        assert _COSTS == {}

    def test_fork_child_drops_the_costs(self):
        target = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        _seed_costs(target, [300.0] * 3, [6e6] * 3)
        pid = os.fork()
        if pid == 0:
            os._exit(0 if not _COSTS else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert _COSTS  # the parent keeps its own


class TestPlanValidation:
    def test_unknown_axis_recipe_discipline_kind(self):
        with pytest.raises(ParameterError):
            IngestPlan("diagonal", "clone", "merge-reduce", "items", [])
        with pytest.raises(ParameterError):
            IngestPlan("range", "fresh", "merge-reduce", "items", [])
        with pytest.raises(ParameterError):
            IngestPlan("range", "clone", "consensus", "items", [])
        with pytest.raises(ParameterError):
            IngestPlan("range", "clone", "merge-reduce", "frames", [])
        with pytest.raises(ParameterError):
            IngestPlan("range", "clone", "merge-reduce", "items", [], retries=-1)


class TestDefaultWorkers:
    def test_respects_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert default_workers() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        def unavailable(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(os, "sched_getaffinity", unavailable, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert default_workers() == 6


class TestPersistentPool:
    def test_pool_is_reused_across_calls(self):
        shutdown_pool()
        first = get_pool(1)
        created = pool_stats()["created"]
        assert get_pool(1) is first
        assert pool_stats()["created"] == created

    def test_pool_grows_by_recreation_and_never_shrinks(self):
        shutdown_pool()
        small = get_pool(1)
        grown = get_pool(2)
        assert grown is not small
        assert pool_stats()["size"] == 2
        # Asking for less keeps the bigger pool.
        assert get_pool(1) is grown
        assert pool_stats()["size"] == 2

    def test_reset_pool_discards(self):
        get_pool(1)
        reset_pool()
        assert not pool_stats()["alive"]

    def test_shutdown_pool_discards(self):
        get_pool(1)
        shutdown_pool()
        assert not pool_stats()["alive"]

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ParameterError):
            get_pool(0)

    def test_fork_child_does_not_inherit_pool(self):
        get_pool(1)
        pid = os.fork()
        if pid == 0:  # child: the at-fork hook must have dropped the pool
            os._exit(0 if not pool_stats()["alive"] else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert pool_stats()["alive"]  # the parent's pool is untouched

    def test_pool_executes_after_fork_in_child(self):
        get_pool(1)
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                pool = get_pool(1)
                ok = pool.submit(os.getpid).result(timeout=60) > 0
                shutdown_pool()
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestSharedStaging:
    def test_roundtrip_and_discard(self):
        payload = {"stream": list(range(64)), "eps": 0.25}
        token = stage_shared(payload)
        try:
            assert os.path.exists(token)
            assert load_shared(token) == payload
            # Memoized: a second load returns the cached object.
            assert load_shared(token) is load_shared(token)
        finally:
            discard_shared(token)
        assert not os.path.exists(token)
        discard_shared(token)  # idempotent
