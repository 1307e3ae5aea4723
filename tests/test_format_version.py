"""Durable state written in another serialization format version says so.

A frame of another format version is intact data the running build
cannot read, not damage: ``recover()`` must not walk past such a
snapshot to "no usable snapshot", and a result spool must not surface a
bare ``SerializationError``.  Both raise ``PersistenceError`` naming the
version found and the version expected.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import serialize
from repro.durability import Checkpointer, DurableLog, recover
from repro.durability.log import RECORD_KIND_META
from repro.estimators.registry import make_f0_estimator
from repro.exceptions import PersistenceError
from repro.parallel import IngestPlan, execute_plan, shard_items
from repro.serialize import FORMAT_MAGIC, FORMAT_VERSION

UNIVERSE = 1 << 16
OLDER = FORMAT_VERSION - 1
MESSAGE = r"format version %d; this build reads only version %d" % (OLDER, FORMAT_VERSION)


def _sketch():
    return make_f0_estimator("hyperloglog", UNIVERSE, 0.1, seed=5)


def _framed_as(payload: bytes, version: int) -> bytes:
    """``payload`` with its frame's version byte replaced."""
    return payload[: len(FORMAT_MAGIC)] + bytes([version]) + payload[len(FORMAT_MAGIC) + 1 :]


def _older_log(directory: str) -> None:
    """A log whose CRC-valid snapshots all frame the older version."""
    with DurableLog(directory) as log:
        for seq in (0, 4):
            log.write_snapshot(seq, _framed_as(_sketch().to_bytes(), OLDER))
        log.open_segment(5)


def test_recover_names_both_versions(tmp_path):
    _older_log(str(tmp_path))
    with pytest.raises(PersistenceError, match=MESSAGE):
        recover(str(tmp_path))


def test_checkpointer_open_passes_it_on_without_the_factory(tmp_path):
    _older_log(str(tmp_path))
    built = []
    with pytest.raises(PersistenceError, match=MESSAGE):
        Checkpointer.open(str(tmp_path), lambda: built.append(_sketch()))
    assert built == []
    # The directory lock was released on the way out.
    with pytest.raises(PersistenceError, match=MESSAGE):
        recover(str(tmp_path))


def test_damaged_snapshots_are_still_walked_past(tmp_path):
    """Only an intact frame of another version stops recovery."""
    directory = str(tmp_path)
    with Checkpointer(_sketch(), directory) as checkpointer:
        checkpointer.ingest(np.arange(100, dtype=np.uint64))
        checkpointer.snapshot()
        live = checkpointer.target.to_bytes()
    with DurableLog(directory) as log:
        log.write_snapshot(9, b"not a frame")
    target, report = recover(directory)
    assert len(report.snapshots_skipped) == 1
    assert target.to_bytes() == live


def test_result_spool_names_both_versions(tmp_path):
    items = np.random.RandomState(7).randint(0, UNIVERSE, size=900).astype(np.uint64)
    plan = IngestPlan(
        axis="range",
        recipe="clone",
        discipline="merge-reduce",
        kind="items",
        shards=shard_items(items, 3),
        retries=0,
    )
    with DurableLog(str(tmp_path)) as log:
        log.open_segment(1)
        head = serialize.dumps_tree({"fingerprint": "0" * 64})
        log.append(RECORD_KIND_META, 1, _framed_as(head, OLDER))
    target = _sketch()
    before = target.to_bytes()
    with pytest.raises(PersistenceError, match=MESSAGE):
        execute_plan(plan, target, workers=1, spool_dir=str(tmp_path))
    assert target.to_bytes() == before
