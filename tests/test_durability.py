"""Durable persistence: WAL framing, recovery semantics, crash injection.

The proof obligations of :mod:`repro.durability`, from the bottom up:

* **log layer** — checksummed record framing round-trips; segments
  rotate; a second opener of the same directory fails fast on the
  advisory lock instead of interleaving writes;
* **checkpoint layer** — ``recover()`` rebuilds state *bit-identical*
  (equal ``to_bytes``) to the uninterrupted same-seed run for every
  registry family, tolerates torn tails (truncate-and-quarantine, never
  crash), detects mid-log corruption via checksums (stop at the last
  good record, structured :class:`~repro.durability.RecoveryReport`),
  falls back past a damaged snapshot, and compacts superseded files;
* **crash injection** — a subprocess ingests a seeded workload from the
  zoo and SIGKILLs itself at seed-stamped byte offsets / record counts
  (``DURABILITY_KILLS`` tunes how many cycles run); recovery of what it
  left behind must be bit-identical to a clean same-seed prefix run;
* **consumers** — the analysis runner's ``persist_dir``, the plan
  executor's ``spool_dir``, and the flow monitor's ``persist_dir``
  each survive interruption with results identical to the undisturbed
  path.
"""

from __future__ import annotations

import errno
import os

import numpy as np
import pytest

from repro import serialize
from repro.apps.network_monitor import FlowCardinalityMonitor
from repro.durability import (
    RECORD_KIND_DELTA,
    Checkpointer,
    DurableLog,
    recover,
)
from repro.durability.crashtest import (
    build_target,
    default_spec,
    iter_delta_trees,
    kill_points,
    run_clean,
    run_crash_cycle,
)
from repro.durability.log import encode_record, scan_segment
from repro.analysis.runner import run_f0_by_name, run_l0_by_name
from repro.estimators.registry import (
    f0_algorithm_names,
    l0_algorithm_names,
    make_f0_estimator,
    make_l0_estimator,
)
from repro.exceptions import ParameterError, PersistenceError
from repro.parallel import (
    IngestPlan,
    ShardFault,
    execute_plan,
    get_pool,
    pool_stats,
    reset_pool,
    shard_items,
    shutdown_pool,
)
from repro.streams import distinct_items_stream, insert_delete_stream
from repro.streams.datasets import packet_trace

UNIVERSE = 1 << 12
EPS = 0.25
SEED = 17

#: Tiny workload knobs: each family replays in well under a second.
TEST_SCALE = dict(
    universe_size=UNIVERSE, length=1200, key_count=24, epochs=4, updates_per_epoch=250
)

#: Crash-injection cycles per spec; CI smoke tunes this via the environment.
KILL_CYCLES = int(os.environ.get("DURABILITY_KILLS", "2"))


def _spec(directory, **overrides):
    spec = default_spec(str(directory), **overrides)
    spec["scale"] = dict(TEST_SCALE)
    spec["batch_size"] = 256
    spec["snapshot_every"] = overrides.pop("snapshot_every", 3)
    return spec


def _interrupted(spec, upto):
    """Run ``upto`` records through a Checkpointer, then die (no snapshot)."""
    checkpointer = Checkpointer(
        build_target(spec), spec["directory"], snapshot_every=spec["snapshot_every"]
    )
    for index, tree in enumerate(iter_delta_trees(spec)):
        if index >= upto:
            break
        checkpointer.ingest(**tree)
    # Simulate process death: release the lock, skip the final snapshot.
    checkpointer.log.close()
    return checkpointer.seq


class TestDurableLog:
    def test_record_round_trip_and_rotation(self, tmp_path):
        with DurableLog(str(tmp_path)) as log:
            log.open_segment(1)
            log.append(RECORD_KIND_DELTA, 1, b"alpha")
            log.append(RECORD_KIND_DELTA, 2, b"beta")
            log.open_segment(3)
            log.append(RECORD_KIND_DELTA, 3, b"gamma")
            segments = log.segment_paths()
        assert [seq for seq, _ in segments] == [1, 3]
        first = scan_segment(segments[0][1])
        assert first.clean
        assert [(r.kind, r.seq, r.payload) for r in first.records] == [
            (RECORD_KIND_DELTA, 1, b"alpha"),
            (RECORD_KIND_DELTA, 2, b"beta"),
        ]
        second = scan_segment(segments[1][1])
        assert [r.payload for r in second.records] == [b"gamma"]

    def test_second_opener_fails_fast(self, tmp_path):
        with DurableLog(str(tmp_path)):
            with pytest.raises(PersistenceError, match="already locked"):
                DurableLog(str(tmp_path))
        # Released on close: reopening afterwards succeeds.
        DurableLog(str(tmp_path)).close()

    def test_checkpointer_holds_the_lock(self, tmp_path):
        estimator = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        with Checkpointer(estimator, str(tmp_path)):
            with pytest.raises(PersistenceError, match="already locked"):
                DurableLog(str(tmp_path))
            with pytest.raises(PersistenceError, match="already locked"):
                recover(str(tmp_path))

    def test_closed_log_refuses_writes(self, tmp_path):
        log = DurableLog(str(tmp_path))
        log.open_segment(1)
        log.close()
        with pytest.raises(PersistenceError, match="closed"):
            log.append(RECORD_KIND_DELTA, 1, b"x")

    def test_fresh_checkpointer_refuses_existing_state(self, tmp_path):
        estimator = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        Checkpointer(estimator, str(tmp_path)).close()
        with pytest.raises(PersistenceError, match="already holds a durable log"):
            Checkpointer(estimator, str(tmp_path))


class TestBitIdenticalRecovery:
    """recover() == clean same-seed run, for every registry family."""

    @pytest.mark.parametrize("family", f0_algorithm_names())
    def test_f0_families(self, tmp_path, family):
        spec = _spec(tmp_path, kind="estimator", family=family, workload="skew")
        applied = _interrupted(spec, upto=3)
        target, report = recover(spec["directory"])
        assert report.clean
        assert report.last_seq == applied
        assert target.to_bytes() == run_clean(spec, upto=applied).to_bytes()

    @pytest.mark.parametrize("family", l0_algorithm_names())
    def test_l0_families(self, tmp_path, family):
        spec = _spec(tmp_path, kind="turnstile", family=family, workload="churn")
        applied = _interrupted(spec, upto=3)
        target, report = recover(spec["directory"])
        assert report.clean
        assert target.to_bytes() == run_clean(spec, upto=applied).to_bytes()

    def test_keyed_store(self, tmp_path):
        spec = _spec(tmp_path, kind="store", family="linear-counting", workload="skew")
        applied = _interrupted(spec, upto=4)
        target, report = recover(spec["directory"])
        assert report.clean
        assert target.to_bytes() == run_clean(spec, upto=applied).to_bytes()

    def test_windowed_ring(self, tmp_path):
        spec = _spec(tmp_path, kind="windowed", family="hyperloglog", workload="bursty")
        applied = _interrupted(spec, upto=4)
        target, report = recover(spec["directory"])
        assert report.clean
        assert target.to_bytes() == run_clean(spec, upto=applied).to_bytes()

    def test_resume_then_continue(self, tmp_path):
        """Checkpointer.open over an interrupted log continues bit-identically."""
        spec = _spec(tmp_path, kind="estimator", family="bjkst", workload="cold-keys")
        trees = list(iter_delta_trees(spec))
        _interrupted(spec, upto=2)
        checkpointer, report = Checkpointer.open(
            spec["directory"], lambda: build_target(spec)
        )
        assert report is not None and report.clean
        for tree in trees[2:]:
            checkpointer.ingest(**tree)
        checkpointer.snapshot()
        checkpointer.close()
        clean = run_clean(spec)
        assert checkpointer.target.to_bytes() == clean.to_bytes()
        recovered, report = recover(spec["directory"])
        assert report.clean
        assert recovered.to_bytes() == clean.to_bytes()


class TestRejectedBatch:
    """A batch with a bad item in the middle is refused whole: the live
    state does not move, and a later recovery equals the live state."""

    BATCHES = ([1, 2, 3], [4, 5, 6, UNIVERSE, 7], [8])

    def _check(self, directory, target, deltas):
        checkpointer = Checkpointer(target, str(directory))
        good, bad, last = (
            {"items": batch, "deltas": None if deltas is None else [deltas] * len(batch)}
            for batch in self.BATCHES
        )
        checkpointer.ingest(**good)
        before = target.to_bytes()
        with pytest.raises(ParameterError):
            checkpointer.ingest(**bad)
        assert target.to_bytes() == before
        checkpointer.ingest(**last)
        live = target.to_bytes()
        checkpointer.log.close()  # die without a final snapshot: recovery replays
        recovered, _ = recover(str(directory))
        assert recovered.to_bytes() == live

    @pytest.mark.parametrize("family", f0_algorithm_names())
    def test_f0_families(self, tmp_path, family):
        self._check(tmp_path, make_f0_estimator(family, UNIVERSE, EPS, seed=SEED), None)

    @pytest.mark.parametrize("family", l0_algorithm_names())
    def test_l0_families(self, tmp_path, family):
        target = make_l0_estimator(family, UNIVERSE, EPS, 1 << 8, seed=SEED)
        self._check(tmp_path, target, 1)


class TestDamageTolerance:
    def _interrupt(self, tmp_path, upto=5, snapshot_every=3):
        spec = _spec(
            tmp_path,
            kind="estimator",
            family="hyperloglog",
            workload="skew",
            snapshot_every=snapshot_every,
        )
        applied = _interrupted(spec, upto=upto)
        return spec, applied

    def test_torn_tail_is_truncated_and_quarantined(self, tmp_path):
        spec, applied = self._interrupt(tmp_path)
        with DurableLog(str(tmp_path)) as log:
            live = log.segment_paths()[-1][1]
        frame = encode_record(RECORD_KIND_DELTA, applied + 1, b"never finished")
        with open(live, "ab") as handle:
            handle.write(frame[: len(frame) // 2])
        target, report = recover(spec["directory"])
        assert not report.clean
        assert [fault for _, fault, _ in report.faults] == ["torn"]
        assert report.quarantined and ".quarantine" in report.quarantined[0]
        assert report.last_seq == applied
        assert target.to_bytes() == run_clean(spec, upto=applied).to_bytes()
        # The tail was truncated away: a second recovery is clean.
        target2, report2 = recover(spec["directory"])
        assert report2.clean
        assert target2.to_bytes() == target.to_bytes()

    def test_corrupt_record_stops_at_last_good(self, tmp_path):
        spec, applied = self._interrupt(tmp_path, upto=5, snapshot_every=None)
        with DurableLog(str(tmp_path)) as log:
            seg = log.segment_paths()[-1][1]
        scan = scan_segment(seg)
        victim = scan.records[2]  # corrupt the 3rd record's payload
        with open(seg, "r+b") as handle:
            handle.seek(victim.offset + 25 + len(victim.payload) // 2)
            byte = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([byte[0] ^ 0xFF]))
        target, report = recover(spec["directory"])
        assert [fault for _, fault, _ in report.faults] == ["corrupt"]
        assert "checksum mismatch" in report.faults[0][2]
        assert report.last_seq == victim.seq - 1
        # Everything from the bad frame on is unverifiable: it lands in
        # the quarantine file, not in the recovered state.
        assert report.quarantined
        assert target.to_bytes() == run_clean(spec, upto=victim.seq - 1).to_bytes()

    def test_damaged_snapshot_falls_back_to_older(self, tmp_path):
        spec, applied = self._interrupt(tmp_path, upto=7, snapshot_every=3)
        with DurableLog(str(tmp_path)) as log:
            snapshots = log.snapshot_paths()
        assert len(snapshots) >= 2
        newest_seq, newest_path = snapshots[-1]
        with open(newest_path, "r+b") as handle:
            handle.seek(30)
            handle.write(b"\xff\xff\xff\xff")
        target, report = recover(spec["directory"])
        assert report.snapshots_skipped == [newest_path]
        assert report.snapshot_seq < newest_seq
        assert report.last_seq == applied  # the suffix replay caught back up
        assert target.to_bytes() == run_clean(spec, upto=applied).to_bytes()

    def test_missing_segment_reports_gap(self, tmp_path):
        spec = _spec(
            tmp_path,
            kind="estimator",
            family="hyperloglog",
            workload="skew",
            snapshot_every=None,
        )
        checkpointer = Checkpointer(
            build_target(spec), spec["directory"], keep_snapshots=10
        )
        for index, tree in enumerate(iter_delta_trees(spec)):
            checkpointer.ingest(**tree)
            if index in (1, 3):
                checkpointer.snapshot()  # seals wal-1, wal-3
        checkpointer.snapshot()  # seals the suffix segment, opens an empty one
        checkpointer.log.close()
        with DurableLog(str(tmp_path)) as log:
            segments = log.segment_paths()
            snapshots = log.snapshot_paths()
        assert len(segments) >= 4
        # Drop every snapshot except the seq-0 one, then remove the second
        # segment: replay from seq 0 must stop at the hole, not skip it,
        # and everything past the hole must be quarantined, not applied.
        for _, path in snapshots[1:]:
            os.unlink(path)
        os.unlink(segments[1][1])
        target, report = recover(spec["directory"])
        assert "gap" in [fault for _, fault, _ in report.faults]
        assert report.quarantined  # the unreachable suffix was set aside
        expected_last = segments[1][0] - 1
        assert report.last_seq == expected_last
        assert target.to_bytes() == run_clean(spec, upto=expected_last).to_bytes()

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(PersistenceError, match="no usable snapshot"):
            recover(str(tmp_path))


class TestCompaction:
    def test_snapshots_and_segments_are_pruned(self, tmp_path):
        spec = _spec(tmp_path, kind="estimator", family="loglog", workload="skew")
        checkpointer = Checkpointer(
            build_target(spec), spec["directory"], snapshot_every=1, keep_snapshots=2
        )
        for tree in iter_delta_trees(spec):
            checkpointer.ingest(**tree)
        snapshots = checkpointer.log.snapshot_paths()
        segments = checkpointer.log.segment_paths()
        assert len(snapshots) == 2  # keep_snapshots bounds retention
        floor = snapshots[0][0]
        # Every retained segment is still needed by a retained snapshot.
        assert all(first_seq >= floor + 1 for first_seq, _ in segments[1:])
        checkpointer.close()
        target, report = recover(spec["directory"])
        assert report.clean
        assert target.to_bytes() == run_clean(spec).to_bytes()

    def test_snapshot_is_idempotent_at_a_seq(self, tmp_path):
        estimator = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        with Checkpointer(estimator, str(tmp_path)) as checkpointer:
            checkpointer.ingest(np.arange(64, dtype=np.uint64))
            first = checkpointer.snapshot()
            assert checkpointer.snapshot() == first


class TestFailStop:
    """A failed write stops the checkpointer; no acknowledged record is lost."""

    def _failing(self, monkeypatch, method, fail_at, code):
        """Make the ``fail_at``-th call of ``DurableLog.<method>`` raise."""
        calls = []
        original = getattr(DurableLog, method)

        def write(log, *args):
            calls.append(args)
            if len(calls) == fail_at:
                raise OSError(code, os.strerror(code))
            return original(log, *args)

        monkeypatch.setattr(DurableLog, method, write)
        return calls

    def _assert_stopped(self, checkpointer, trees, seq):
        assert checkpointer.seq == seq
        mutations = [
            lambda: checkpointer.ingest(**trees[seq + 1]),
            lambda: checkpointer.advance_epoch(),
            lambda: checkpointer.call("update_batch", [1]),
            checkpointer.snapshot,
        ]
        for mutation in mutations:
            with pytest.raises(PersistenceError, match="stopped after a failed write"):
                mutation()
        assert checkpointer.seq == seq

    @pytest.mark.parametrize("fail_at", [1, 2, 4])
    def test_failed_append(self, tmp_path, monkeypatch, fail_at):
        spec = _spec(tmp_path, kind="estimator", family="knw-paper", workload="skew")
        trees = list(iter_delta_trees(spec))
        calls = self._failing(monkeypatch, "append", fail_at, errno.ENOSPC)
        checkpointer = Checkpointer(
            build_target(spec), spec["directory"], snapshot_every=spec["snapshot_every"]
        )
        for tree in trees[: fail_at - 1]:
            checkpointer.ingest(**tree)
        with pytest.raises(PersistenceError) as raised:
            checkpointer.ingest(**trees[fail_at - 1])
        assert raised.value.__cause__.errno == errno.ENOSPC
        self._assert_stopped(checkpointer, trees, fail_at - 1)
        assert len(calls) == fail_at  # nothing reached the log after the failure
        checkpointer.close()
        target, report = recover(spec["directory"])
        assert report.clean
        assert report.last_seq == fail_at - 1
        assert target.to_bytes() == run_clean(spec, upto=fail_at - 1).to_bytes()

    def test_failed_snapshot(self, tmp_path, monkeypatch):
        spec = _spec(tmp_path, kind="estimator", family="hyperloglog", workload="skew")
        trees = list(iter_delta_trees(spec))
        # Call 1 is the seq-0 snapshot; call 2 is the automatic one after seq 3.
        self._failing(monkeypatch, "write_snapshot", 2, errno.EIO)
        checkpointer = Checkpointer(
            build_target(spec), spec["directory"], snapshot_every=spec["snapshot_every"]
        )
        for tree in trees[:2]:
            checkpointer.ingest(**tree)
        segments = checkpointer.log.segment_paths()
        with pytest.raises(PersistenceError) as raised:
            checkpointer.ingest(**trees[2])
        assert raised.value.__cause__.errno == errno.EIO
        # Record 3 was appended before the snapshot failed: it is acknowledged,
        # and the segments holding records 1-3 were not compacted away.
        self._assert_stopped(checkpointer, trees, 3)
        assert checkpointer.log.segment_paths() == segments
        checkpointer.close()
        target, report = recover(spec["directory"])
        assert report.clean
        assert (report.snapshot_seq, report.last_seq) == (0, 3)
        assert target.to_bytes() == run_clean(spec, upto=3).to_bytes()


class TestCrashInjection:
    """Subprocess SIGKILL at seed-stamped offsets; recovery is bit-identical."""

    def _cycle(self, spec):
        outcome = run_crash_cycle(spec)
        assert outcome.killed, "child was expected to die by SIGKILL"
        assert outcome.bit_identical, "recovery diverged for %r" % (spec,)
        assert outcome.ok

    @pytest.mark.parametrize("cycle", range(KILL_CYCLES))
    def test_estimator_byte_offset_kills(self, tmp_path, cycle):
        spec = _spec(tmp_path / ("run-%d" % cycle), kind="estimator",
                     family="hyperloglog", seed=cycle)
        # Exact framed size of the full delta log (what the child would
        # append if never killed) sizes the seed-stamped kill offsets.
        sizing = sum(
            len(encode_record(RECORD_KIND_DELTA, index + 1, serialize.dumps_tree(
                {"op": "ingest", "items": tree["items"],
                 "deltas": tree["deltas"], "keys": None, "ts": None})))
            for index, tree in enumerate(iter_delta_trees(spec))
        )
        at = kill_points(spec, KILL_CYCLES, sizing)[cycle]
        spec["kill"] = {"mode": "bytes", "at": at}
        self._cycle(spec)

    def test_windowed_record_kill_with_torn_tail(self, tmp_path):
        spec = _spec(tmp_path, kind="windowed", family="hyperloglog",
                     workload="bursty")
        spec["kill"] = {"mode": "records", "at": 3, "torn": True}
        outcome = run_crash_cycle(spec)
        assert outcome.killed and outcome.bit_identical
        assert [fault for _, fault, _ in outcome.report.faults] == ["torn"]
        assert outcome.report.quarantined

    def test_turnstile_record_kill(self, tmp_path):
        spec = _spec(tmp_path, kind="turnstile", family="knw-l0",
                     workload="churn")
        spec["kill"] = {"mode": "records", "at": 2}
        self._cycle(spec)

    def test_store_kill_and_no_kill_completion(self, tmp_path):
        spec = _spec(tmp_path / "killed", kind="store", family="hyperloglog",
                     workload="skew")
        spec["kill"] = {"mode": "records", "at": 2}
        self._cycle(spec)
        clean_spec = _spec(tmp_path / "clean", kind="store",
                           family="hyperloglog", workload="skew")
        outcome = run_crash_cycle(clean_spec)
        assert not outcome.killed
        assert outcome.bit_identical and outcome.ok
        assert outcome.applied_records == outcome.total_records


class TestRunnerPersistence:
    def test_f0_results_match_and_recover(self, tmp_path):
        stream = distinct_items_stream(UNIVERSE, 900, repetitions=2, seed=31)
        persisted = run_f0_by_name(
            "bjkst", stream, EPS, seed=SEED,
            checkpoint_positions=[600, 1200],
            batch_size=128, persist_dir=str(tmp_path),
        )
        reference = run_f0_by_name(
            "bjkst", stream, EPS, seed=SEED,
            checkpoint_positions=[600, 1200], batch_size=128,
        )
        assert persisted == reference
        target, report = recover(str(tmp_path))
        assert report.clean
        direct = make_f0_estimator("bjkst", UNIVERSE, EPS, seed=SEED)
        for start in range(0, len(stream), 128):
            direct.update_batch(stream.item_array()[start : start + 128])
        assert target.to_bytes() == direct.to_bytes()

    def test_l0_results_match(self, tmp_path):
        stream = insert_delete_stream(UNIVERSE, 500, 0.4, seed=33)
        persisted = run_l0_by_name(
            "ganguly", stream, EPS, seed=SEED,
            batch_size=200, persist_dir=str(tmp_path),
        )
        reference = run_l0_by_name(
            "ganguly", stream, EPS, seed=SEED, batch_size=200,
        )
        assert persisted == reference

    def test_workers_with_persist_dir_raises(self, tmp_path):
        stream = distinct_items_stream(UNIVERSE, 400, seed=35)
        with pytest.raises(ParameterError, match="persist_dir is incompatible"):
            run_f0_by_name(
                "hyperloglog", stream, EPS, seed=SEED,
                workers=2, persist_dir=str(tmp_path),
            )


class TestResultSpool:
    @pytest.fixture(scope="class", autouse=True)
    def _teardown_pool(self):
        yield
        shutdown_pool()

    def _plan(self, items, fault=None):
        return IngestPlan(
            axis="range",
            recipe="clone",
            discipline="merge-reduce",
            kind="items",
            shards=shard_items(items, 3),
            fault=fault,
            retries=0,
        )

    def test_crash_resume_is_bit_identical(self, tmp_path):
        items = np.random.RandomState(41).randint(
            0, UNIVERSE, size=3000
        ).astype(np.uint64)
        sequential = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        sequential.update_batch(items)
        # First attempt: shard 1 keeps failing, the coordinator "dies".
        broken = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        with pytest.raises(Exception):
            execute_plan(
                self._plan(items, fault={1: ShardFault("raise", failures=5)}),
                broken,
                workers=1,
                spool_dir=str(tmp_path),
            )
        # The spool survived with the two delivered shard results.
        resumed = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        execute_plan(
            self._plan(items), resumed, workers=1,
            spool_dir=str(tmp_path),
        )
        assert resumed.to_bytes() == sequential.to_bytes()
        # Success destroyed the spool: nothing resumable remains.
        leftovers = [
            name for name in os.listdir(str(tmp_path)) if name.startswith("wal-")
        ]
        assert leftovers == []

    def test_mismatched_plan_fails_fast(self, tmp_path):
        items = np.random.RandomState(43).randint(
            0, UNIVERSE, size=1200
        ).astype(np.uint64)
        target = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        with pytest.raises(Exception):
            execute_plan(
                self._plan(items, fault={0: ShardFault("raise", failures=5)}),
                target,
                workers=1,
                spool_dir=str(tmp_path),
            )
        other = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED + 1)
        with pytest.raises(PersistenceError, match="does not match this plan"):
            execute_plan(
                self._plan(items), other, workers=1,
                spool_dir=str(tmp_path),
            )


class TestMonitorPersistence:
    def _records(self):
        _, records = packet_trace(
            UNIVERSE, packets=1100, distinct_flows=150,
            scanner_destinations=120, seed=7,
        )
        return records

    def _monitor(self, **kwargs):
        return FlowCardinalityMonitor(
            universe_size=UNIVERSE, eps=EPS, window_packets=300,
            mergeable=True, track_active_flows=True, window_history=4,
            **kwargs,
        )

    def test_recover_on_construct_is_bit_identical(self, tmp_path):
        records = self._records()
        reference = self._monitor()
        ref_reports = reference.observe_batch(records)
        reference.observe_flow_events_batch(records[:10], [1] * 10)

        durable = self._monitor(persist_dir=str(tmp_path))
        assert durable.persistent and durable.last_recovery is None
        reports = durable.observe_batch(records)
        durable.observe_flow_events_batch(records[:10], [1] * 10)
        assert reports == ref_reports
        assert durable.to_bytes() == reference.to_bytes()

        # Die without the closing snapshot; reconstruct over the directory.
        durable._checkpointer.log.close()
        resumed = self._monitor(persist_dir=str(tmp_path))
        assert resumed.last_recovery is not None and resumed.last_recovery.clean
        assert resumed.to_bytes() == reference.to_bytes()
        assert resumed.reports == ref_reports

        # The recovered monitor keeps behaving identically.
        more = resumed.observe_batch(records[:400])
        ref_more = reference.observe_batch(records[:400])
        assert more == ref_more
        assert resumed.to_bytes() == reference.to_bytes()
        resumed.close()
        target, report = recover(str(tmp_path))
        assert report.clean
        assert target.to_bytes() == reference.to_bytes()

    def test_scalar_paths_route_through_the_wal(self, tmp_path):
        records = self._records()[:150]
        reference = self._monitor()
        with self._monitor(persist_dir=str(tmp_path)) as durable:
            for record in records:
                durable.observe(record)
                reference.observe_batch([record])
            durable.observe_flow_open(records[0])
            durable.observe_flow_close(records[1])
            reference.observe_flow_events_batch([records[0]], [1])
            reference.observe_flow_events_batch([records[1]], [-1])
            assert durable.to_bytes() == reference.to_bytes()
        # close() released the lock and left cleanly recoverable state.
        target, report = recover(str(tmp_path))
        assert report.clean
        assert target.to_bytes() == reference.to_bytes()

    def test_sharded_ingest_is_refused_when_persistent(self, tmp_path):
        with self._monitor(persist_dir=str(tmp_path)) as durable:
            with pytest.raises(ParameterError, match="incompatible with persist_dir"):
                durable.ingest_window_shards([self._records()[:50]])

    def test_wrong_object_type_in_directory(self, tmp_path):
        estimator = make_f0_estimator("hyperloglog", UNIVERSE, EPS, seed=SEED)
        Checkpointer(estimator, str(tmp_path)).close()
        with pytest.raises(PersistenceError, match="not a FlowCardinalityMonitor"):
            self._monitor(persist_dir=str(tmp_path))


class TestPoolObservability:
    def test_restarts_counter(self):
        shutdown_pool()
        before = pool_stats()["restarts"]
        get_pool(1)
        assert pool_stats()["restarts"] == before  # fresh build, not a restart
        reset_pool()
        assert pool_stats()["restarts"] == before + 1
        get_pool(1)
        get_pool(2)  # growth replaces the live pool
        assert pool_stats()["restarts"] == before + 2
        shutdown_pool()  # explicit teardown is not a restart
        assert pool_stats()["restarts"] == before + 2
        stats = pool_stats()
        assert set(stats) == {"alive", "size", "created", "restarts"}
        assert not stats["alive"]
