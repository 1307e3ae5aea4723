"""Snapshot + delta checkpointing and crash recovery over a DurableLog.

A :class:`Checkpointer` wraps any library object with ``to_bytes`` (a
bare estimator, a :class:`~repro.store.SketchStore`, a windowed ring, or
an app-level composite like the flow monitor) and gives every mutation
the same discipline:

1. encode the mutation as a canonical delta tree
   (``serialize.dumps_tree``),
2. decode it back and apply the *decoded* arguments to the in-memory
   target (so live ingestion and log replay run byte-for-byte the same
   code on byte-for-byte the same values — bit-identical recovery is
   then true by construction, not by careful bookkeeping),
3. durably append the delta record to the write-ahead log.

Applying before logging means a record that fails the target's own
validation never reaches the log, so replay can never hit a poison
record; the cost is that a crash between steps 2 and 3 loses exactly
that one unacknowledged batch — still a valid prefix state.  A failed
write (step 3 or a snapshot) is treated the same way, fail-stop: the
live target is then ahead of the log, so the checkpointer refuses every
later mutation instead of logging records recovery could never reach.
So is an apply that fails with anything but the validators' own
rejections (``ParameterError``, ``UpdateError``, which refuse a batch
before mutating anything): the target may hold part of an unlogged
record.

Snapshots (``to_bytes`` of the whole target) are written atomically,
sealing the current segment; compaction then deletes every segment that
no retained snapshot still needs.  :func:`recover` inverts the whole
scheme: newest usable snapshot, replay the suffix, quarantine damage,
report everything in a :class:`RecoveryReport`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from .. import serialize
from ..exceptions import (
    FormatVersionError,
    ParameterError,
    PersistenceError,
    SerializationError,
    UpdateError,
)
from .log import (
    RECORD_KIND_DELTA,
    RECORD_KIND_SNAPSHOT,
    DurableLog,
    scan_segment,
)

__all__ = ["Checkpointer", "RecoveryReport", "recover", "apply_delta"]


def apply_delta(target: Any, tree: dict) -> None:
    """Apply one decoded delta record to ``target``.

    This single dispatcher is used both by the live
    :meth:`Checkpointer.ingest` path and by :func:`recover` replay —
    sharing it is what makes recovery bit-identical rather than merely
    equivalent.  The record shape selects the target API:

    ========================  =====================================
    fields present             call
    ========================  =====================================
    ``ts`` and ``keys``        ``ingest_timestamped(ts, keys, items, deltas)``
    ``ts`` only                ``ingest_timestamped(ts, items[, deltas])``
    ``keys`` only              ``update_grouped(keys, items, deltas)``
    ``deltas`` only            ``update_batch(items, deltas)``
    ``items`` only             ``update_batch(items)``
    ``op == "advance"``        ``advance_epoch(count)``
    ``op == "call"``           whitelisted method (``WAL_METHODS``)
    ========================  =====================================
    """
    op = tree.get("op")
    if op == "ingest":
        items = tree.get("items")
        deltas = tree.get("deltas")
        keys = tree.get("keys")
        ts = tree.get("ts")
        if ts is not None and keys is not None:
            target.ingest_timestamped(ts, keys, items, deltas)
        elif ts is not None:
            if deltas is not None:
                target.ingest_timestamped(ts, items, deltas)
            else:
                target.ingest_timestamped(ts, items)
        elif keys is not None:
            target.update_grouped(keys, items, deltas)
        elif deltas is not None:
            target.update_batch(items, deltas)
        else:
            target.update_batch(items)
    elif op == "advance":
        target.advance_epoch(int(tree.get("count", 1)))
    elif op == "call":
        name = tree.get("name")
        allowed = getattr(type(target), "WAL_METHODS", ())
        if name not in allowed:
            raise PersistenceError(
                "log record calls %r, which %s does not whitelist in "
                "WAL_METHODS" % (name, type(target).__name__)
            )
        getattr(target, name)(*tree.get("args", ()))
    else:
        raise PersistenceError("unknown delta record op %r" % (op,))


@dataclass
class RecoveryReport:
    """What :func:`recover` found, applied, and had to drop.

    Damage never raises; it lands here.  ``clean`` is ``True`` only for
    a recovery that used the newest snapshot and replayed every logged
    record with nothing quarantined — the common no-crash restart.
    """

    directory: str
    snapshot_seq: int = 0
    snapshot_path: Optional[str] = None
    #: Snapshot files that existed but failed verification (newest-first
    #: fallback walked past them).
    snapshots_skipped: List[str] = field(default_factory=list)
    #: Delta records applied on top of the snapshot.
    replayed_records: int = 0
    #: Sequence number of the recovered state (snapshot seq if no deltas).
    last_seq: int = 0
    #: Segment files scanned during replay.
    segments_scanned: int = 0
    #: Per-file damage: ``(path, fault, detail)`` with fault ``"torn"``,
    #: ``"corrupt"``, or ``"gap"``.
    faults: List[Tuple[str, str, str]] = field(default_factory=list)
    #: Checksum-verified records that could NOT be applied because they
    #: follow damage or a sequence gap.
    dropped_records: int = 0
    #: Files holding the unapplied/damaged bytes, kept for post-mortems.
    quarantined: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (
            not self.faults
            and not self.snapshots_skipped
            and self.dropped_records == 0
        )

    def summary(self) -> str:
        state = "clean" if self.clean else "degraded"
        return (
            "%s recovery of %s: snapshot seq %d + %d replayed records "
            "(last seq %d); %d fault(s), %d dropped record(s), "
            "%d quarantined file(s)"
            % (
                state,
                self.directory,
                self.snapshot_seq,
                self.replayed_records,
                self.last_seq,
                len(self.faults),
                self.dropped_records,
                len(self.quarantined),
            )
        )


def _load_snapshot(log: DurableLog, report: RecoveryReport) -> Any:
    """Revive the newest usable snapshot, walking past damaged ones."""
    candidates = log.snapshot_paths()
    for seq, path in reversed(candidates):
        scan = scan_segment(path)
        if (
            scan.clean
            and len(scan.records) == 1
            and scan.records[0].kind == RECORD_KIND_SNAPSHOT
            and scan.records[0].seq == seq
        ):
            try:
                target = serialize.loads(scan.records[0].payload)
            except FormatVersionError as error:
                # Intact, but another build's format: not damage to walk past.
                raise PersistenceError(
                    "snapshot %r is in serialization format version %d; this "
                    "build reads only version %d" % (path, error.found, error.expected)
                ) from error
            except SerializationError:
                report.snapshots_skipped.append(path)
                continue
            report.snapshot_seq = seq
            report.snapshot_path = path
            report.last_seq = seq
            return target
        report.snapshots_skipped.append(path)
    raise PersistenceError(
        "no usable snapshot in %r (%d candidate(s), all damaged); "
        "nothing to recover" % (log.directory, len(candidates))
    )


def _replay_segments(log: DurableLog, target: Any, report: RecoveryReport) -> None:
    """Replay every applicable delta record, quarantining damage."""
    expected = report.snapshot_seq
    segments = log.segment_paths()
    stopped = False
    for index, (first_seq, path) in enumerate(segments):
        if stopped:
            # Once replay stops, nothing later can be applied: the seq
            # chain is broken.  Keep the bytes, but out of the way.
            tail_scan = scan_segment(path)
            report.dropped_records += len(tail_scan.records)
            report.quarantined.append(log.quarantine_file(path))
            continue
        scan = scan_segment(path)
        report.segments_scanned += 1
        for record in scan.records:
            if record.seq <= expected:
                continue  # predates the snapshot (not yet compacted)
            if record.seq != expected + 1 or record.kind != RECORD_KIND_DELTA:
                report.faults.append(
                    (path, "gap", "expected seq %d, found seq %d (kind %d)"
                     % (expected + 1, record.seq, record.kind))
                )
                report.dropped_records += sum(
                    1 for later in scan.records if later.seq >= record.seq
                )
                stopped = True
                break
            tree = serialize.loads_tree(record.payload)
            apply_delta(target, tree)
            expected = record.seq
            report.replayed_records += 1
        if scan.fault is not None:
            report.faults.append((path, scan.fault, scan.detail))
            quarantined = log.quarantine_tail(scan)
            if quarantined is not None:
                report.quarantined.append(quarantined)
            if scan.fault == "corrupt" or index < len(segments) - 1:
                # A corrupt record (or a tear that is not at the very end
                # of the log) means later records are unreachable.
                stopped = True
    report.last_seq = expected


def _recover_with_log(log: DurableLog) -> Tuple[Any, RecoveryReport]:
    report = RecoveryReport(directory=log.directory)
    target = _load_snapshot(log, report)
    _replay_segments(log, target, report)
    return target, report


def recover(directory: str, sync: bool = True) -> Tuple[Any, RecoveryReport]:
    """Rebuild the persisted object from ``directory``.

    Returns ``(target, report)`` where ``target.to_bytes()`` is
    bit-identical to the state at the last durably-acknowledged record,
    and ``report`` describes anything that had to be dropped.  Raises
    :class:`~repro.exceptions.PersistenceError` only when there is
    nothing usable at all (no intact snapshot), when the newest intact
    snapshot is in another serialization format version (the message
    names both versions), or when the directory is locked by a live
    writer — damaged data alone never raises.
    """
    with DurableLog(directory, sync=sync) as log:
        return _recover_with_log(log)


class Checkpointer:
    """Write-ahead logging + periodic snapshots for one target object.

    Use :meth:`Checkpointer.open` to transparently create-or-recover::

        ck, report = Checkpointer.open(path, lambda: make_f0_estimator(...))
        ck.ingest(items)             # applied to ck.target, then logged
        ck.snapshot()                # seal segment, write snapshot, compact
        ck.close()

    ``snapshot_every`` auto-snapshots after that many delta records;
    ``keep_snapshots`` retained snapshots (and the segments between
    them) bound how far back recovery can fall if the newest snapshot
    file is damaged.
    """

    def __init__(
        self,
        target: Any,
        directory: str,
        snapshot_every: Optional[int] = None,
        keep_snapshots: int = 2,
        sync: bool = True,
        _resume: Optional[Tuple[DurableLog, int]] = None,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise PersistenceError("snapshot_every must be a positive count")
        if keep_snapshots < 1:
            raise PersistenceError("keep_snapshots must be at least 1")
        self.target = target
        self.snapshot_every = snapshot_every
        self.keep_snapshots = keep_snapshots
        self._since_snapshot = 0
        #: The step ("write" or "apply") and the error that stopped this
        #: checkpointer, if any.
        self._failure: Optional[Tuple[str, Exception]] = None
        if _resume is not None:
            self._log, self._seq = _resume
            # A clean close() seals a snapshot and then leaves an empty
            # live segment at seq+1; drop such husks so the fresh
            # segment we open at the same sequence does not collide.
            for first_seq, path in self._log.segment_paths():
                if first_seq > self._seq and os.path.getsize(path) == 0:
                    self._log.remove(path)
            self._log.open_segment(self._seq + 1)
        else:
            self._log = DurableLog(directory, sync=sync)
            if self._log.segment_paths() or self._log.snapshot_paths():
                self._log.close()
                raise PersistenceError(
                    "directory %r already holds a durable log; use "
                    "Checkpointer.open() or recover() instead of "
                    "constructing over existing state" % directory
                )
            self._seq = 0
            # Seq 0 is the initial snapshot: recovery always has a floor
            # even if the process dies before the first explicit one.
            self._log.write_snapshot(0, self.target.to_bytes())
            self._log.open_segment(1)

    @classmethod
    def open(
        cls,
        directory: str,
        factory: Callable[[], Any],
        snapshot_every: Optional[int] = None,
        keep_snapshots: int = 2,
        sync: bool = True,
    ) -> Tuple["Checkpointer", Optional[RecoveryReport]]:
        """Create a fresh checkpointer, or recover and resume an existing one.

        ``factory`` builds the pristine target when ``directory`` holds
        no prior state; otherwise the target is recovered from disk and
        the factory is not called.  Returns ``(checkpointer, report)``
        with ``report`` ``None`` for the fresh case.
        """
        log = DurableLog(directory, sync=sync)
        if not log.snapshot_paths() and not log.segment_paths():
            log.close()
            return (
                cls(
                    factory(),
                    directory,
                    snapshot_every=snapshot_every,
                    keep_snapshots=keep_snapshots,
                    sync=sync,
                ),
                None,
            )
        try:
            target, report = _recover_with_log(log)
        except BaseException:
            log.close()
            raise
        checkpointer = cls(
            target,
            directory,
            snapshot_every=snapshot_every,
            keep_snapshots=keep_snapshots,
            sync=sync,
            _resume=(log, report.last_seq),
        )
        return checkpointer, report

    # -- introspection ------------------------------------------------------

    @property
    def seq(self) -> int:
        """Sequence number of the last durably-acknowledged record."""
        return self._seq

    @property
    def directory(self) -> str:
        return self._log.directory

    @property
    def log(self) -> DurableLog:
        return self._log

    @property
    def log_bytes(self) -> int:
        """Framed bytes appended to the WAL through this instance."""
        return self._log.bytes_appended

    # -- mutation API -------------------------------------------------------

    def ingest(self, items, deltas=None, keys=None, ts=None) -> int:
        """Apply and durably log one batched update; returns its seq.

        The argument combination picks the target API exactly as
        :func:`apply_delta` documents — bare/turnstile ``update_batch``,
        keyed ``update_grouped``, timestamped ``ingest_timestamped``.
        """
        return self._commit(
            {"op": "ingest", "items": items, "deltas": deltas, "keys": keys, "ts": ts}
        )

    def advance_epoch(self, count: int = 1) -> int:
        """Apply and durably log an explicit epoch roll (windowed targets)."""
        return self._commit({"op": "advance", "count": count})

    def call(self, name: str, *args) -> int:
        """Apply and durably log a whitelisted method call on the target.

        The target class must list ``name`` in its ``WAL_METHODS`` tuple;
        this is how composite consumers (e.g. the flow monitor) log
        operations richer than the canonical batch shapes.
        """
        return self._commit({"op": "call", "name": name, "args": list(args)})

    def _commit(self, tree: dict) -> int:
        self._check_usable()
        payload = serialize.dumps_tree(tree)
        # Apply the DECODED record, not the original arguments: replay
        # will see exactly these values, so live state and recovered
        # state run the same code on the same bytes.
        try:
            apply_delta(self.target, serialize.loads_tree(payload))
        except (ParameterError, UpdateError):
            raise  # refused whole: the target did not move
        except Exception as exc:
            self._failure = ("apply", exc)
            raise PersistenceError(
                "applying the record after seq %d to %r failed: %s; the target "
                "may hold part of it, so this checkpointer has stopped"
                % (self._seq, self.directory, exc)
            ) from exc
        seq = self._seq + 1
        self._durably(self._log.append, RECORD_KIND_DELTA, seq, payload)
        self._seq = seq
        self._since_snapshot += 1
        if self.snapshot_every is not None and self._since_snapshot >= self.snapshot_every:
            self.snapshot()
        return self._seq

    def _check_usable(self) -> None:
        if self._failure is not None:
            step, error = self._failure
            raise PersistenceError(
                "checkpointer for %r stopped after a failed %s at seq %d; "
                "recover() the directory to continue" % (self.directory, step, self._seq)
            ) from error

    def _durably(self, write: Callable[..., Any], *args: Any) -> Any:
        """Run one log write; a failure stops this checkpointer for good."""
        try:
            return write(*args)
        except Exception as exc:
            self._failure = ("write", exc)
            raise PersistenceError(
                "durable write to %r failed after seq %d: %s"
                % (self.directory, self._seq, exc)
            ) from exc

    # -- snapshots and compaction -------------------------------------------

    def snapshot(self) -> str:
        """Write a full snapshot, seal the segment, and compact.

        After this returns, recovery needs only the snapshot file (plus
        any records appended later); every segment no retained snapshot
        depends on is deleted.  Idempotent at a given seq: a second call
        with no intervening deltas returns the existing snapshot.
        """
        self._check_usable()
        if self._since_snapshot == 0:
            snapshots = self._log.snapshot_paths()
            if snapshots and snapshots[-1][0] == self._seq:
                return snapshots[-1][1]
        path = self._durably(self._write_snapshot, self.target.to_bytes())
        self._since_snapshot = 0
        return path

    def _write_snapshot(self, payload: bytes) -> str:
        path = self._log.write_snapshot(self._seq, payload)
        self._log.open_segment(self._seq + 1)
        self._compact()
        return path

    def _compact(self) -> None:
        snapshots = self._log.snapshot_paths()
        for _, stale in snapshots[: -self.keep_snapshots]:
            self._log.remove(stale)
        retained = snapshots[-self.keep_snapshots :]
        floor = retained[0][0] if retained else 0
        segments = self._log.segment_paths()
        # Segment i covers seqs [start_i, start_{i+1} - 1]; it is dead
        # once even the OLDEST retained snapshot already covers all of
        # it (so no fallback recovery path can need its records).
        for (start, path), (next_start, _) in zip(segments, segments[1:]):
            if path == self._log.live_segment:
                break
            if next_start <= floor + 1:
                self._log.remove(path)

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "Checkpointer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
