"""Crash-safe persistence for sketches, stores, and windowed rings.

The durability subsystem turns any library object with ``to_bytes`` /
``from_bytes`` (every estimator, :class:`~repro.store.SketchStore`,
:class:`~repro.window.WindowedSketch`, ...) into state that survives a
``SIGKILL`` at an arbitrary byte offset:

* :class:`DurableLog` — a single-writer directory of checksummed,
  length-framed write-ahead-log segments plus atomically-written
  snapshot files.  Appends are ``write → flush → fsync``; whole-file
  writes (snapshots, sealed segments) are ``tmp → fsync → rename →
  directory fsync``.
* :class:`Checkpointer` — alternates full snapshots of a target with
  append-only delta records (batched ``(keys, items, deltas, ts)``
  updates), and compacts superseded segments after each snapshot.
* :func:`recover` — replays newest-usable-snapshot + log suffix into a
  fresh object whose ``to_bytes`` is bit-identical to the uninterrupted
  run.  Torn tails are truncated and quarantined, checksum failures stop
  replay at the last good record; both are *reported* through
  :class:`RecoveryReport`, never raised.
* :mod:`repro.durability.crashtest` — the deterministic SIGKILL
  injection harness that proves the above, batch by batch, against a
  clean same-seed run.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "Checkpointer": "checkpoint",
        "DurableLog": "log",
        "LogRecord": "log",
        "RecoveryReport": "checkpoint",
        "SegmentScan": "log",
        "RECORD_KIND_DELTA": "log",
        "RECORD_KIND_META": "log",
        "RECORD_KIND_SNAPSHOT": "log",
        "recover": "checkpoint",
    },
)
