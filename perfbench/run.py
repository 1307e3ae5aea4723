"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload f0-bulk --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.  ``--trace 1``
runs the same loop untraced, then replays exactly its calls with the tracer
installed, and prints the per-layer metrics.  Both check the program's
output against a reference and exit non-zero on any failed operation.

The last line of standard output is the result object; the line before it
(``{"detail": ...}``) stamps the environment and the figures that carry no
bound: sample counts, accuracy, which patch points resolved.

Everything the run writes stays under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from tracer import KERNEL_POINTS, Tracer, resolve_points
from workloads import CPUS, WORKLOADS, pin, trimmed_mean, unpin

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")

#: Independent set-up measurements per run, each in a fresh interpreter;
#: they take turns on the CPUs, so the count is a multiple of the CPUs'.
SETUP_PROBES = 6
#: The p90 needs at least ten samples beyond it; whole episodes are run.
MIN_CALLS = 100


def _environment() -> dict:
    """Variables that keep the program's files inside the checkout."""
    return {
        "PYTHONPATH": SOURCE,
        "REPRO_KERNEL_BUILD_DIR": os.path.join(BUILD, "kernels"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
    }


def _setup_seconds(workload: str, seed: int, scale: float, work_dir: str) -> list:
    """Set-up times from fresh interpreters; the first run only warms caches."""
    command = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed), str(scale)]
    samples = []
    probes = -(-SETUP_PROBES // len(CPUS)) * len(CPUS)
    for index in range(probes + 1):
        probe_dir = os.path.join(work_dir, "probe-%d" % index)
        done = subprocess.run(
            command + [probe_dir, str(index)], capture_output=True, text=True, timeout=120
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + done.stderr)
        if index:
            samples.append(float(done.stdout.split()[-1]))
    return samples


def _reset_peak_rss() -> str:
    """Restart the RSS high-water mark; return how the peak will be read."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return "VmHWM"
    except OSError:
        return "ru_maxrss"


def _peak_rss_mib(source: str) -> float:
    if source == "VmHWM":
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _filesystem(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest matching mount)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


class Loop:
    """The closed loop: one ingest call, then one query, then the next call.

    Calls come in episodes (see ``workloads``); between episodes the
    workload builds fresh objects, outside the timed region, and the loop
    stops only there.  ``pause`` wraps that work (the tracer excludes it).
    After each episode the loop times restores of its final state, so the
    recovery figure samples the whole run, as the call latencies do; a
    replay of another loop's episodes skips them.
    """

    def __init__(self, workload, state, pause=None) -> None:
        self.workload = workload
        self.state = state
        self.pause = pause or contextlib.nullcontext
        self.update_s = []
        self.query_s = []
        self.items = 0
        self.episodes = 0
        #: Wall time of each episode; episode ``k`` ran on CPU ``k mod n``.
        self.episode_s = []
        self.wall = 0.0
        self.restore_s = []
        #: What the last restore returned: ``(sketch, recovery report)``.
        self.restored = None
        self.error = None

    def run(self, seconds: float, min_episodes: int, replay: int = 0) -> None:
        deadline = time.perf_counter() + seconds
        gc.collect()
        try:
            self._episodes(deadline, min_episodes, replay)
        finally:
            unpin()

    def _episodes(self, deadline: float, min_episodes: int, replay: int) -> None:
        workload, state = self.workload, self.state
        clock = time.perf_counter
        call, query, plan = workload.call, workload.query, workload.plan
        update_s, query_s = self.update_s, self.query_s
        while True:
            if self.episodes:
                with self.pause():
                    workload.open_episode(state, self.episodes)
                    gc.collect()
            pin(self.episodes)
            try:
                start = clock()
                for begin, size in plan:
                    before = clock()
                    call(state, begin, size)
                    between = clock()
                    query(state)
                    after = clock()
                    update_s.append(between - before)
                    query_s.append(after - between)
                self.episode_s.append(clock() - start)
                self.wall += self.episode_s[-1]
                self.items += workload.episode_items
                self.episodes += 1
                with self.pause():
                    workload.close_episode(state)
                if not replay:
                    self._restore()
            except Exception as error:  # reported as a failed operation
                traceback.print_exc()
                self.error = "%s: %s" % (type(error).__name__, error)
                break
            if replay:
                if self.episodes == replay:
                    break
            elif (
                self.episodes >= min_episodes
                and self.episodes % len(CPUS) == 0
                and clock() >= deadline
            ):
                break

    def _restore(self) -> None:
        """Restore the episode's final state ``workload.restores`` times."""
        restore = self.workload.restorer(self.state)
        clock = time.perf_counter
        gc.collect()
        for _ in range(self.workload.restores):
            before = clock()
            self.restored = restore()
            self.restore_s.append(clock() - before)

    @property
    def calls(self) -> int:
        return len(self.update_s)

    def block_quantile(self, q: float) -> float:
        """The ``q`` percentile of call latency in each block, averaged over blocks.

        Episodes take turns on CPUs that may differ in speed, so a percentile
        over the whole run can fall in the gap between the CPUs' latencies
        and jump; a block runs on one CPU, and the mean of the blocks'
        percentiles averages the CPUs.
        """
        block = self.workload.block_calls
        samples = np.asarray(self.update_s)
        blocks = samples[: len(samples) // block * block].reshape(-1, block)
        return float(np.percentile(blocks, q, axis=1).mean())


class Checks:
    """Output checks and the failed-operation ledger."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def ops(self, loop: Loop) -> None:
        self.attempted += len(loop.update_s) + len(loop.query_s)
        if loop.error is not None:
            self.attempted += 1
            self.failed += 1
            self.notes.append(loop.error)

    def same(self, what: str, produce, expected: bytes) -> None:
        self.attempted += 1
        try:
            got = produce()
        except Exception as error:  # a raised check is a failed operation
            traceback.print_exc()
            self.failed += 1
            self.notes.append("%s raised %s: %s" % (what, type(error).__name__, error))
            return
        if got != expected:
            self.failed += 1
            self.notes.append("%s: state bytes differ" % what)


def _end_to_end(loop, setup_samples, final, sketch, rss) -> dict:
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "throughput_items_per_s": (loop.items / loop.wall, "items/s"),
        "update_p50_ms": (loop.block_quantile(50) * 1e3, "ms"),
        "update_p90_ms": (loop.block_quantile(90) * 1e3, "ms"),
        # A query after a large call finds the caches evicted, one after a
        # small call does not; on the bulk workloads the median falls in the
        # gap between the two groups and jumps, so the query figure is a
        # trimmed mean.
        "query_mean_us": (trimmed_mean(loop.query_s) * 1e6, "us"),
        "sketch_bits": (sketch.space_bits(), "bits"),
        "state_bytes": (len(final), "B"),
        "peak_rss_mib": (rss, "MiB"),
        "recovery_s": (trimmed_mean(loop.restore_s), "s"),
    }


def _per_layer(tracer, loop, traced, state, report, restarts) -> dict:
    """The per-layer metrics, from the spans of the traced loop."""
    items = traced.items
    calls = tracer.calls
    total, own = tracer.total, tracer.own

    def count(*points):
        return sum(calls.get(point, 0) for point in points)

    def per_item(ns):
        return ns / items

    def per_call(group, point):
        made = count(point)
        return total[group] / made if made else 0.0

    kernel_calls = count(*KERNEL_POINTS)
    wal_bytes = state.get("wal_bytes", 0)
    layer_self = tracer.layer_self()
    metrics = {
        "vectorize.validate_ns_per_item": (per_item(total["vectorize.validate"]), "ns/item"),
        "kernels.hash_ns_per_item": (per_item(total["kernels.hash"]), "ns/item"),
        "kernels.scatter_ns_per_item": (per_item(total["kernels.scatter"]), "ns/item"),
        "kernels.calls_per_item": (kernel_calls / items, "calls/item"),
        "kernels.native_ratio": (tracer.native / kernel_calls if kernel_calls else 0.0, "ratio"),
        "bitstructs.unpacks_per_item": (
            count("repro.bitstructs.packed:PackedCounterArray.to_numpy") / items,
            "calls/item",
        ),
        "bitstructs.read_ns_per_item": (per_item(total["bitstructs.read"]), "ns/item"),
        "bitstructs.scatter_ns_per_item": (per_item(total["bitstructs.scatter"]), "ns/item"),
        "core.rough_estimate_calls_per_item": (
            count("repro.core.rough_estimator:RoughEstimator.estimate") / items,
            "calls/item",
        ),
        "core.rough_estimate_ns_per_item": (per_item(total["core.rough_estimate"]), "ns/item"),
        "core.rough_update_self_ns_per_item": (per_item(own["core.rough_update"]), "ns/item"),
        "core.bookkeeping_self_ns_per_item": (per_item(own["core.bookkeeping"]), "ns/item"),
        "core.query_ns_per_call": (
            per_call("core.query", "repro.core.knw:KNWDistinctCounter.estimate"),
            "ns",
        ),
        "l0.estimator_self_ns_per_item": (per_item(own["l0.estimator"]), "ns/item"),
        "l0.fingerprint_ns_per_item": (per_item(total["l0.fingerprint"]), "ns/item"),
        "l0.rough_ns_per_item": (per_item(total["l0.rough"]), "ns/item"),
        "l0.query_ns_per_call": (
            per_call("l0.query", "repro.l0.knw_l0:KNWHammingNormEstimator.estimate"),
            "ns",
        ),
        "serialize.encode_ns_per_item": (per_item(total["serialize.encode"]), "ns/item"),
        "serialize.bytes_out_per_item": (tracer.bytes_out / items, "B/item"),
        "serialize.decode_ns_per_item": (per_item(total["serialize.decode"]), "ns/item"),
        "durability.append_ns_per_item": (per_item(total["durability.append"]), "ns/item"),
        "durability.snapshots": (
            count("repro.durability.checkpoint:Checkpointer.snapshot") / traced.episodes,
            "count",
        ),
        "durability.snapshot_ns_per_item": (per_item(total["durability.snapshot"]), "ns/item"),
        "durability.wal_bytes_per_item": (wal_bytes * traced.episodes / items, "B/item"),
        "durability.replay_records": (report.replayed_records if report else 0, "count"),
        "durability.replay_dropped": (report.dropped_records if report else 0, "count"),
        "parallel.coord_self_ns_per_item": (per_item(own["parallel.coord"]), "ns/item"),
        "parallel.wait_ns_per_item": (per_item(total["parallel.wait"]), "ns/item"),
        "parallel.merge_ns_per_item": (per_item(total["parallel.merge"]), "ns/item"),
        "parallel.pooled_call_ratio": (
            count("repro.parallel.plan:get_pool") / traced.calls,
            "ratio",
        ),
        "parallel.pool_restarts": (restarts, "count"),
        "trace.overhead_ratio": (traced.wall / loop.wall, "ratio"),
    }
    wall_ns = traced.wall * 1e9
    for layer, ns in layer_self.items():
        metrics["%s.self_share" % layer] = (ns / wall_ns, "ratio")
    metrics["trace.unattributed_share"] = (1.0 - sum(layer_self.values()) / wall_ns, "ratio")
    return metrics


def _pool_restarts() -> int:
    from repro.parallel import pool_stats

    return pool_stats()["restarts"]


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0):
    """Run one workload; return ``(result, detail)``."""
    workload = WORKLOADS[name](seed, scale)
    work_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    checks = Checks()
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    states = []
    try:
        setup_samples = [] if trace else _setup_seconds(name, seed, scale, work_dir)
        workload.generate()
        min_episodes = -(-int(MIN_CALLS * min(scale, 1.0)) // len(workload.plan))
        state = workload.setup(os.path.join(work_dir, "untraced"))
        states.append(state)
        rss_source = _reset_peak_rss()
        loop = Loop(workload, state)
        loop.run(seconds, min_episodes)
        rss = _peak_rss_mib(rss_source)
        checks.ops(loop)
        sketch = state["sketch"]
        final = sketch.to_bytes()
        metrics = {}
        traced = None
        if trace and loop.error is None:
            restarts = _pool_restarts()
            tracer = Tracer(state["backend"]["name"] == "compiled")
            tracer.install()
            try:
                traced_state = workload.setup(os.path.join(work_dir, "traced"))
                states.append(traced_state)
                tracer.reset()
                traced = Loop(workload, traced_state, pause=tracer.paused)
                traced.run(seconds, min_episodes, replay=loop.episodes)
            finally:
                tracer.uninstall()
            restarts = _pool_restarts() - restarts
            checks.ops(traced)
            checks.same("traced run", traced_state["sketch"].to_bytes, final)
            detail["patch_points"] = tracer.sites
        else:
            detail["patch_points"] = resolve_points()
        if loop.error is None:
            revived, report = loop.restored
            checks.same("recovery", revived.to_bytes, final)
            checks.same("reference", workload.reference, final)
            if not checks.failed and traced is None:
                metrics = _end_to_end(loop, setup_samples, final, sketch, rss)
            elif not checks.failed:
                # The traced log holds the same records as the untraced one,
                # so the untraced recovery report stands for both.
                metrics = _per_layer(tracer, loop, traced, traced_state, report, restarts)
            exact = workload.exact()
            estimate = workload.query(state)
            detail.update(
                exact=exact,
                estimate=estimate,
                rel_error=abs(estimate - exact) / exact,
                replayed_records=report.replayed_records if report else None,
            )
        import repro.kernels

        detail.update(
            backend=repro.kernels.kernel_backend_info(),
            nproc=len(os.sched_getaffinity(0)),
            python=platform.python_version(),
            numpy=np.__version__,
            wal_fs=_filesystem(work_dir),
            episodes=loop.episodes,
            calls=loop.calls,
            items=loop.items,
            loop_s=loop.wall,
            episode_s=loop.episode_s,
            cpus=CPUS,
            update_samples=len(loop.update_s),
            query_samples=len(loop.query_s),
            restore_samples=len(loop.restore_s),
            setup_samples=setup_samples,
            rss_source=rss_source,
            failed_op_ratio=checks.failed / max(checks.attempted, 1),
            failures=checks.notes,
        )
    finally:
        for state in states:
            workload.teardown(state)
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input and call size factor (smoke tests)"
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print("run.py: no program at %s; run from a checkout" % SOURCE, file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (known: %s)" % (args.workload, ", ".join(WORKLOADS)))
    # Set for this process and inherited by every process it starts.
    os.environ.update(_environment())
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    sys.path.insert(0, SOURCE)
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
