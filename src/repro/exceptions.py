"""Exception hierarchy for the ``repro`` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so callers can catch everything the library may raise
with a single ``except`` clause while still being able to distinguish the
individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the ``repro`` library."""


class ParameterError(ReproError, ValueError):
    """An estimator or substrate was configured with invalid parameters.

    Examples include a relative-error target outside ``(0, 1)``, a universe
    size that is not a positive power of two where one is required, or a
    negative number of repetitions.
    """


class SketchFailure(ReproError, RuntimeError):
    """A randomized sketch hit its (low-probability) failure event.

    The KNW algorithm of Figure 3 explicitly outputs ``FAIL`` when the
    bit-packed counter storage would exceed its budget; that event is
    surfaced to callers as this exception.  The failure probability is
    bounded by the paper's analysis (at most 1/32 for the main algorithm).
    """


class UpdateError(ReproError, ValueError):
    """A stream update was outside the domain an estimator accepts.

    Raised, for instance, when an item identifier falls outside ``[0, n)``
    for a sketch built over a universe of size ``n``, or when a deletion is
    fed to an insertion-only estimator.
    """


class MergeError(ReproError, ValueError):
    """Two sketches could not be merged.

    Sketches are only mergeable when they were built with identical
    parameters *and* identical random seeds (so that their hash functions
    agree).  Anything else raises this exception rather than silently
    producing a meaningless combined sketch.
    """


class StreamFormatError(ReproError, ValueError):
    """A serialized stream or dataset description could not be parsed."""


class WorkerFailureError(ReproError, RuntimeError):
    """A sharded-ingestion shard kept failing past its retry budget.

    The plan executor (:mod:`repro.parallel.plan`) retries a shard whose
    worker raised or died, re-ingesting only that shard; when a shard
    exhausts its bounded retry budget — or the failure broke an executor
    the engine does not own and so cannot rebuild — the whole ingestion
    fails with this exception.  The ``__cause__`` chain carries the last
    underlying worker error.
    """


class PersistenceError(ReproError, RuntimeError):
    """The durable-log subsystem could not provide its guarantees.

    Raised when a :class:`repro.durability.DurableLog` directory is already
    held by another writer (single-writer advisory lock), when no usable
    snapshot survives in a directory being recovered, when a durable
    result spool does not match the plan being resumed, or when a log or
    spool was written in another serialization format version.  Note that
    *damaged data* (torn tails, checksum failures) does **not** raise —
    recovery quarantines it and reports through ``RecoveryReport``
    instead.
    """


class KernelBackendError(ReproError, RuntimeError):
    """A kernel backend could not be loaded or was explicitly refused.

    The vectorize layer dispatches its hot kernels through a backend seam
    (:mod:`repro.kernels`).  Selecting ``REPRO_KERNEL_BACKEND=auto`` (the
    default) degrades gracefully — a missing C toolchain just falls back
    to the NumPy reference backend with a one-time warning — but *forcing*
    a backend that cannot load (``REPRO_KERNEL_BACKEND=compiled`` on a
    machine without a C compiler, or ``set_backend("compiled")``) raises
    this exception rather than silently running slower than requested.
    The message names the missing prerequisite and the knobs to fix it.
    """


class SerializationError(ReproError, ValueError):
    """A sketch could not be serialized or deserialized.

    Raised when a sketch holds state outside the supported type set (a
    bug in the sketch, not the caller), when a byte payload fails the
    framing checks (bad magic, unsupported version, truncation), or when
    ``from_bytes`` is asked to revive a payload whose recorded class does
    not match the requested one.
    """


class FormatVersionError(SerializationError):
    """A framed payload was written in another serialization format version.

    Decoding raises this instead of a plain :class:`SerializationError`
    so that durable logs and result spools can tell a well-formed payload
    of another build from damage: ``found`` is the payload's version byte
    and ``expected`` the one version this build reads.
    """

    def __init__(self, found: int, expected: int) -> None:
        super().__init__(
            "unsupported serialization format version %d (expected %d)"
            % (found, expected)
        )
        self.found = found
        self.expected = expected
