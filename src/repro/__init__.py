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

from ._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "__version__": "_version",
        "FastKNWDistinctCounter": "core.fast_knw",
        "KNWDistinctCounter": "core.knw",
        "RoughEstimator": "core.rough_estimator",
        "CardinalityEstimator": "estimators.base",
        "TurnstileEstimator": "estimators.base",
        "ExactDistinctCounter": "estimators.exact",
        "ExactHammingNorm": "estimators.exact",
        "MedianEstimator": "estimators.median",
        "MedianTurnstileEstimator": "estimators.median",
        "f0_algorithm_names": "estimators.registry",
        "l0_algorithm_names": "estimators.registry",
        "make_f0_estimator": "estimators.registry",
        "make_l0_estimator": "estimators.registry",
        "Checkpointer": "durability.checkpoint",
        "DurableLog": "durability.log",
        "RecoveryReport": "durability.checkpoint",
        "recover": "durability.checkpoint",
        "MergeError": "exceptions",
        "ParameterError": "exceptions",
        "PersistenceError": "exceptions",
        "ReproError": "exceptions",
        "SerializationError": "exceptions",
        "SketchFailure": "exceptions",
        "StreamFormatError": "exceptions",
        "UpdateError": "exceptions",
        "KNWHammingNormEstimator": "l0.knw_l0",
        "RoughL0Estimator": "l0.rough_l0",
        "mergeable_f0_names": "parallel.api",
        "mergeable_l0_names": "parallel.api",
        "parallel_ingest_into": "parallel.api",
        "SketchArray": "store.sketch_array",
        "SketchStore": "store.store",
        "make_sketch_array": "store.families",
        "sketch_array_family_names": "store.families",
        "WindowedSketch": "window.windowed",
        "WindowedSketchStore": "window.windowed",
    },
)
