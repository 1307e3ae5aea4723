"""The benchmark's three workloads: seeded inputs, set-up, the call, the checks.

Inputs are made with NumPy from the seed alone; ``repro`` is imported inside
:meth:`Workload.setup`, so the set-up probe (``probe.py``) can time the
import, and the program only ever receives the generated arrays.

Every workload is a closed loop with one caller: an ingest call, then
``estimate()``, then the next call.  The loop repeats a fixed *episode*: a
fresh sketch (and, on ``l0-durable``, a fresh log) fed the same calls in the
same order.  A run stops only between episodes, so however fast the host is,
every run of a seed sees the same call sizes, the same sketch states and the
same final state; only the number of episodes varies.

The host's CPUs do not run at the same speed (on a shared machine one may
share its core with another tenant's busy thread), and a process that stays
on one of them for a whole run measures that CPU.  So the timed work
alternates between the CPUs the process may use: episode ``k``, and the
restores of its final state that follow it, run on CPU ``k mod n``, and a run
stops only after a whole cycle.
"""

from __future__ import annotations

import os
import shutil

import numpy as np

UNIVERSE = 1 << 32
EPS = 0.05
#: Largest absolute frequency the turnstile stream can reach (``mM``).
MAGNITUDE_BOUND = 1 << 20
#: The CPUs this process may run on, read before any pinning.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]


def pin(index: int) -> None:
    """Run this process on CPU ``index mod n`` of :data:`CPUS` from now on."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})


def unpin() -> None:
    """Let this process run on every CPU of :data:`CPUS` again."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS)


def trimmed_mean(samples, cut: float = 0.1) -> float:
    """Mean of the samples left after dropping ``cut`` of them at each end."""
    ordered = np.sort(samples)
    drop = int(len(ordered) * cut)
    return float(ordered[drop : len(ordered) - drop].mean())


class Workload:
    """One seeded workload; subclasses fill in the family-specific parts."""

    name = ""
    family = ""
    #: Consecutive calls whose latency quantiles are taken together; the
    #: episode is a whole number of blocks.
    block_calls = 1
    #: Restores of the final state after each episode: a fixed count, so
    #: every episode allocates alike; half a second to a second's worth.
    restores = 1

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.scale = scale
        items_seq, sizes_seq, sketch_seq = np.random.SeedSequence(seed).spawn(3)
        self.item_rng = np.random.default_rng(items_seq)
        self.size_rng = np.random.default_rng(sizes_seq)
        self.sketch_seed = int(sketch_seq.generate_state(1)[0])
        #: ``(start, size)`` of every call of an episode, in order.
        self.plan = []

    def scaled(self, count: int, floor: int = 64) -> int:
        return max(floor, int(count * self.scale))

    def _plan(self, sizes) -> None:
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.plan = list(zip(starts.tolist(), list(sizes)))

    @property
    def episode_items(self) -> int:
        start, size = self.plan[-1]
        return start + size

    # -- inputs ----------------------------------------------------------------

    def generate(self) -> None:
        """Draw the episode's call sizes and items."""
        raise NotImplementedError

    # -- the program -----------------------------------------------------------

    def setup(self, work_dir: str):
        """Import ``repro`` and build what the first call needs."""
        raise NotImplementedError

    def open_episode(self, state, index: int) -> None:
        """Replace the sketch (and its log) with fresh ones for episode ``index``."""
        state["sketch"] = self._sketch()

    def close_episode(self, state) -> None:
        """End an episode (flush/close what it opened)."""

    def call(self, state, start: int, size: int) -> None:
        raise NotImplementedError

    def query(self, state) -> float:
        return state["sketch"].estimate()

    def restorer(self, state):
        """A call that rebuilds the episode's final state from what was
        persisted and returns ``(sketch, recovery report or None)``.

        Without a log, the persisted form is ``to_bytes()`` itself.
        """
        from repro import serialize

        final = state["sketch"].to_bytes()
        return lambda: (serialize.loads(final), None)

    def teardown(self, state) -> None:
        """Release what :meth:`setup` started (processes, directories)."""

    def reference(self) -> bytes:
        """``to_bytes()`` of a same-seed sketch fed the episode's items differently."""
        raise NotImplementedError

    def exact(self) -> int:
        raise NotImplementedError


class F0Workload(Workload):
    """Insertion-only workloads on a registered F0 family."""

    def _sketch(self):
        import repro

        return repro.make_f0_estimator(self.family, UNIVERSE, EPS, seed=self.sketch_seed)

    def setup(self, work_dir: str):
        import repro.kernels

        backend = repro.kernels.kernel_backend_info()
        return {"sketch": self._sketch(), "backend": backend}

    def call(self, state, start: int, size: int) -> None:
        state["sketch"].update_batch(self.pool[start : start + size])

    def exact(self) -> int:
        return int(np.unique(self.pool).size)


class F0Bulk(F0Workload):
    """``knw-paper`` (Figures 2/3 verbatim) on large batches of uniform draws.

    An episode is ``ROUNDS`` rounds of ``block_calls`` calls.  Each round
    draws one size per stratum of the log range and shuffles them, so every
    round holds the same spread of sizes.
    """

    name = "f0-bulk"
    family = "knw-paper"
    block_calls = 16
    restores = 300
    ROUNDS = 2
    #: Call sizes are log-uniform over ``2**LOG2_MIN .. 2**LOG2_MAX`` items.
    LOG2_MIN, LOG2_MAX = 12, 17
    REFERENCE_BATCH = 1 << 16

    def generate(self) -> None:
        sizes = []
        for _ in range(self.ROUNDS):
            strata = np.arange(self.block_calls) + self.size_rng.random(self.block_calls)
            exponents = self.LOG2_MIN + (self.LOG2_MAX - self.LOG2_MIN) * strata / self.block_calls
            round_sizes = np.maximum(1, (np.exp2(exponents) * self.scale).astype(np.int64))
            self.size_rng.shuffle(round_sizes)
            sizes.extend(round_sizes.tolist())
        self._plan(sizes)
        length = self.episode_items
        support = self.item_rng.integers(0, UNIVERSE, max(1, length // 2), dtype=np.uint64)
        self.pool = support[self.item_rng.integers(0, len(support), length)]

    def reference(self) -> bytes:
        # Fixed batches: a serial ingest on f0-sharded, another partition here.
        sketch = self._sketch()
        for start in range(0, len(self.pool), self.REFERENCE_BATCH):
            sketch.update_batch(self.pool[start : start + self.REFERENCE_BATCH])
        return sketch.to_bytes()


class F0Sharded(F0Bulk):
    """f0-bulk's inputs and calls, each sharded over the persistent pool."""

    name = "f0-sharded"

    def setup(self, work_dir: str):
        state = super().setup(work_dir)
        from repro.parallel import get_pool, parallel_ingest_into

        state["ingest"] = parallel_ingest_into
        # nproc as the run started: the set-up probe runs pinned to one CPU.
        state["workers"] = len(CPUS)
        pool = get_pool(state["workers"])
        # The first submit forks every worker; wait so they are all alive.
        for future in [pool.submit(os.getpid) for _ in range(state["workers"])]:
            future.result()
        return state

    def call(self, state, start: int, size: int) -> None:
        state["ingest"](state["sketch"], self.pool[start : start + size], workers=state["workers"])

    def teardown(self, state) -> None:
        from repro.parallel import shutdown_pool

        shutdown_pool(wait=True)


class L0Durable(Workload):
    """``knw-l0`` under insert-then-delete churn, every call write-ahead logged.

    A pass inserts a set of 16 calls' worth of items, then deletes half of it
    in 8 more calls; an episode is two passes into a fresh log.  A snapshot
    follows every fifth record, so nine of an episode's 48 calls take one
    (the p90 falls among them) and recovery replays the last three records
    after the last snapshot.  The whole episode is one latency block.
    """

    name = "l0-durable"
    family = "knw-l0"
    CALL = 4096
    PASSES = 2
    SNAPSHOT_EVERY = 5
    block_calls = 48
    restores = 4

    def generate(self) -> None:
        call = self.scaled(self.CALL, floor=16)
        self._plan([call] * self.block_calls)
        count = 16 * call
        drawn = np.unique(self.item_rng.integers(0, UNIVERSE, count + count // 8, dtype=np.uint64))
        members = self.item_rng.permutation(drawn)[:count]
        deleted = members[self.item_rng.permutation(count)[: count // 2]]
        one_pass = np.concatenate([members, deleted])
        one_pass_deltas = np.concatenate(
            [np.ones(count, dtype=np.int64), -np.ones(count // 2, dtype=np.int64)]
        )
        self.pool = np.tile(one_pass, self.PASSES)
        self.deltas = np.tile(one_pass_deltas, self.PASSES)

    def _sketch(self):
        import repro

        return repro.make_l0_estimator(
            self.family, UNIVERSE, EPS, MAGNITUDE_BOUND, seed=self.sketch_seed
        )

    def setup(self, work_dir: str):
        import repro.kernels

        state = {"backend": repro.kernels.kernel_backend_info(), "work_dir": work_dir}
        self.open_episode(state, 0)
        return state

    def open_episode(self, state, index: int) -> None:
        import repro

        self._discard(state)
        log_dir = os.path.join(state["work_dir"], "wal-%d" % index)
        # The log must live in the checkout, which sits on a real disk; an
        # fsync there waits on other tenants' I/O.  Records and snapshots are
        # still written and flushed through the log, just not forced to disk.
        checkpointer = repro.Checkpointer(
            self._sketch(), log_dir, snapshot_every=self.SNAPSHOT_EVERY, sync=False
        )
        state.update(sketch=checkpointer.target, checkpointer=checkpointer, log_dir=log_dir)

    def _discard(self, state) -> None:
        if "checkpointer" in state:
            state["checkpointer"].close()
            shutil.rmtree(state["log_dir"], ignore_errors=True)

    def call(self, state, start: int, size: int) -> None:
        state["checkpointer"].ingest(
            self.pool[start : start + size], self.deltas[start : start + size]
        )

    def close_episode(self, state) -> None:
        state["wal_bytes"] = state["checkpointer"].log_bytes
        state["checkpointer"].close()

    def restorer(self, state):
        import repro

        log_dir = state["log_dir"]
        return lambda: repro.recover(log_dir)

    def teardown(self, state) -> None:
        self._discard(state)

    def reference(self) -> bytes:
        # The same updates fed in calls of twice the size, without the log.
        sketch = self._sketch()
        _, call = self.plan[0]
        for start in range(0, len(self.pool), 2 * call):
            stop = start + 2 * call
            sketch.update_batch(self.pool[start:stop], self.deltas[start:stop])
        return sketch.to_bytes()

    def exact(self) -> int:
        ids, inverse = np.unique(self.pool, return_inverse=True)
        net = np.bincount(inverse, weights=self.deltas, minlength=len(ids))
        return int(np.count_nonzero(net))


WORKLOADS = {cls.name: cls for cls in (F0Bulk, L0Durable, F0Sharded)}
