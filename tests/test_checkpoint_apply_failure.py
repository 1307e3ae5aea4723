"""A failed apply stops a :class:`~repro.durability.Checkpointer`.

The validators' rejections (``ParameterError``, ``UpdateError``) refuse a
whole batch before the target moves, so the checkpointer stays usable.
Any other error from applying a record may leave the target holding part
of it, ahead of the log: the checkpointer must then refuse every later
mutation, as it does after a failed write, and ``recover()`` must give
the last acknowledged state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.durability import Checkpointer, recover
from repro.estimators.registry import make_l0_estimator
from repro.exceptions import ParameterError, PersistenceError, UpdateError
from repro.l0.knw_l0 import KNWHammingNormEstimator

UNIVERSE = 1 << 16


def _sketch():
    return make_l0_estimator("knw-l0", UNIVERSE, 0.2, 1 << 20, seed=5)


def _batch(start, stop):
    items = np.arange(start, stop, dtype=np.uint64)
    return items, np.where(items % 3 == 0, -1, 1).astype(np.int64)


def test_a_mutating_failure_stops_the_checkpointer(tmp_path, monkeypatch):
    checkpointer = Checkpointer(_sketch(), str(tmp_path), snapshot_every=3)
    target = checkpointer.target
    checkpointer.ingest(*_batch(0, 100))
    acknowledged = target.to_bytes()
    original = KNWHammingNormEstimator.update_batch
    armed = [True]

    def mutate_then_raise(sketch, items, deltas):
        if armed and armed.pop():
            original(sketch, items[: len(items) // 2], deltas[: len(deltas) // 2])
            raise RuntimeError("fault after a partial apply")
        return original(sketch, items, deltas)

    monkeypatch.setattr(KNWHammingNormEstimator, "update_batch", mutate_then_raise)
    with pytest.raises(PersistenceError, match="has stopped") as raised:
        checkpointer.ingest(*_batch(100, 200))
    assert isinstance(raised.value.__cause__, RuntimeError)
    assert target.to_bytes() != acknowledged  # the target moved, the log did not
    for mutation in (
        lambda: checkpointer.ingest(*_batch(200, 300)),
        lambda: checkpointer.call("update_batch", [1], [1]),
        checkpointer.snapshot,
    ):
        with pytest.raises(PersistenceError, match="stopped after a failed apply"):
            mutation()
    assert checkpointer.seq == 1
    checkpointer.close()
    recovered, report = recover(str(tmp_path))
    assert report.clean and report.last_seq == 1
    assert recovered.to_bytes() == acknowledged


def test_rejected_batches_leave_the_checkpointer_usable(tmp_path):
    checkpointer = Checkpointer(_sketch(), str(tmp_path))
    target = checkpointer.target
    checkpointer.ingest(*_batch(0, 100))
    before = target.to_bytes()
    items, deltas = _batch(100, 200)
    with pytest.raises(ParameterError):
        checkpointer.ingest(np.append(items, np.uint64(UNIVERSE)), np.append(deltas, 1))
    with pytest.raises(UpdateError):
        checkpointer.ingest(items, deltas[:-1])
    assert target.to_bytes() == before
    assert checkpointer.ingest(items, deltas) == 2
    live = target.to_bytes()
    checkpointer.log.close()  # no final snapshot: recovery replays both records
    recovered, report = recover(str(tmp_path))
    assert report.last_seq == 2
    assert recovered.to_bytes() == live
