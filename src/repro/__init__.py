"""repro: a reproduction of Kane--Nelson--Woodruff, "An Optimal Algorithm
for the Distinct Elements Problem" (PODS 2010).

The package implements the paper's optimal F0 (distinct elements) streaming
estimator, its L0 (Hamming norm) estimator for turnstile streams, every
substrate they rely on (hash families, bit-level data structures, the
balls-and-bins analysis quantities), the prior algorithms the paper's
Figure 1 compares against, and an experiment harness that regenerates the
paper's comparisons.

Quickstart (scalar streaming — the paper's one-item-per-update model)::

    from repro import KNWDistinctCounter

    counter = KNWDistinctCounter(universe_size=1 << 32, eps=0.05, seed=7)
    for packet in packets:
        counter.update(packet.flow_id)
    print(counter.estimate())

Quickstart (batch ingestion — the high-throughput pipeline).  Every
estimator also exposes ``update_batch(items)``, taking any integer
sequence (fastest with a NumPy integer array) and guaranteed to leave the
sketch in a state bit-identical to the scalar loop's, for any partition of
the stream into batches::

    import numpy as np
    from repro import KNWDistinctCounter

    counter = KNWDistinctCounter(universe_size=1 << 32, eps=0.05, seed=7)
    for chunk in np.array_split(identifiers, 64):
        counter.update_batch(chunk)
    print(counter.estimate())

The main entry points are:

* :class:`repro.core.knw.KNWDistinctCounter` — the paper's F0 estimator.
* :class:`repro.core.fast_knw.FastKNWDistinctCounter` — the O(1)-time variant.
* :class:`repro.l0.knw_l0.KNWHammingNormEstimator` — the L0 estimator.
* :func:`repro.estimators.registry.make_f0_estimator` — any Figure-1 algorithm by name.
* :class:`repro.estimators.base.CardinalityEstimator` — the estimator
  interface, including the ``update_batch`` equivalence contract.
* :mod:`repro.vectorize` — the NumPy substrate behind batch ingestion.
* :mod:`repro.serialize` — ``state_dict``/``to_bytes`` sketch transport
  (every estimator round-trips bit-identically).
* :mod:`repro.parallel` — sharded multi-process ingestion with
  merge-reduce through one entry point,
  ``parallel_ingest_into(target, items, deltas, keys=..., epochs=...,
  workers=8)``: the target's type picks the plan — F0 and linear L0
  sketches shard by range, keyed sketch stores by key, windowed rings
  by epoch.
* :mod:`repro.store` — the keyed sketch store: the state of N
  per-entity sketches as struct-of-arrays NumPy matrices, with
  ``update_grouped(keys, items)`` ingesting a whole keyed batch in one
  hash pass plus a sort/group scatter (``SketchStore.for_family(
  "hyperloglog", n, seed=7)``).
* :mod:`repro.window` — sliding-window distinct counting: a bounded
  ring of per-epoch sketches answering "distinct over the last ``k``
  epochs" by memoized merge-rollup (``WindowedSketch(sketch,
  retention=64)``; keyed variant ``WindowedSketchStore``; epoch-range
  sharding via ``parallel_ingest_into(ring, items, epochs=...)``).
* :mod:`repro.analysis.runner` — run any estimator over any stream, with
  optional ``batch_size`` for batched driving and ``workers`` for
  sharded multi-process ingestion.
* :mod:`repro.durability` — crash-safe persistence: a checksummed
  write-ahead log plus snapshot checkpointing for any sketch, store, or
  windowed ring (``Checkpointer``), with bit-identical ``recover()``
  verified by SIGKILL crash injection.
* :mod:`repro.apps` — query-optimiser, network-monitoring, and data-cleaning applications.

See ``README.md`` for the module-to-theorem map and ``docs/architecture.md``
for the class hierarchy and the batch-ingestion data flow.
"""

from ._version import __version__
from .core.fast_knw import FastKNWDistinctCounter
from .durability import Checkpointer, DurableLog, RecoveryReport, recover
from .core.knw import KNWDistinctCounter
from .core.rough_estimator import RoughEstimator
from .estimators.base import CardinalityEstimator, TurnstileEstimator
from .estimators.exact import ExactDistinctCounter, ExactHammingNorm
from .estimators.median import MedianEstimator, MedianTurnstileEstimator
from .estimators.registry import (
    f0_algorithm_names,
    l0_algorithm_names,
    make_f0_estimator,
    make_l0_estimator,
)
from .exceptions import (
    MergeError,
    ParameterError,
    PersistenceError,
    ReproError,
    SerializationError,
    SketchFailure,
    StreamFormatError,
    UpdateError,
)
from .l0.knw_l0 import KNWHammingNormEstimator
from .l0.rough_l0 import RoughL0Estimator
from .parallel import mergeable_f0_names, mergeable_l0_names, parallel_ingest_into
from .store import SketchArray, SketchStore, make_sketch_array, sketch_array_family_names
from .window import WindowedSketch, WindowedSketchStore

__all__ = [
    "__version__",
    "FastKNWDistinctCounter",
    "KNWDistinctCounter",
    "RoughEstimator",
    "CardinalityEstimator",
    "TurnstileEstimator",
    "ExactDistinctCounter",
    "ExactHammingNorm",
    "MedianEstimator",
    "MedianTurnstileEstimator",
    "f0_algorithm_names",
    "l0_algorithm_names",
    "make_f0_estimator",
    "make_l0_estimator",
    "Checkpointer",
    "DurableLog",
    "RecoveryReport",
    "recover",
    "MergeError",
    "ParameterError",
    "PersistenceError",
    "ReproError",
    "SerializationError",
    "SketchFailure",
    "StreamFormatError",
    "UpdateError",
    "KNWHammingNormEstimator",
    "RoughL0Estimator",
    "mergeable_f0_names",
    "mergeable_l0_names",
    "parallel_ingest_into",
    "SketchArray",
    "SketchStore",
    "make_sketch_array",
    "sketch_array_family_names",
    "WindowedSketch",
    "WindowedSketchStore",
]
