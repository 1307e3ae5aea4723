"""Sliding-window distinct counting subsystem.

* :class:`~repro.window.windowed.WindowedSketch` — a bounded ring of
  per-epoch mergeable sketches answering "distinct over the last ``k``
  epochs" by memoized merge-rollup (one merge per query, amortized).
* :class:`~repro.window.windowed.WindowedSketchStore` — the keyed
  counterpart: one :class:`~repro.store.store.SketchStore` per epoch,
  merged key-wise for per-entity window queries.

Epoch-range sharding is :func:`repro.parallel.parallel_ingest_into`
with ``epochs=...`` on a ring target; timestamped workload generation
lives in :func:`repro.streams.generators.windowed_uniform_stream`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "WindowedSketch": "windowed",
        "WindowedSketchStore": "windowed",
        "epoch_runs": "windowed",
        "ingest_epoch_sketch": "windowed",
        "ingest_epoch_store": "windowed",
    },
)
