"""Keyed sketch-store subsystem: many homologous sketches, one sweep.

The paper's motivating applications key sketches by entity (per-column
NDV statistics, per-source fan-out); this package stores N such sketches
as struct-of-arrays NumPy state and ingests whole keyed batches through
one shared hash pass plus a sort/group scatter:

* :class:`~repro.store.sketch_array.SketchArray` — the row-addressed
  struct-of-arrays state, bit-identical per row to independent sketches.
* :mod:`repro.store.families` — HyperLogLog / LogLog register matrices,
  linear-counting bit-planes, the KNW rough-estimator counter tensor,
  and the object-backed fallback covering every registry estimator.
* :class:`~repro.store.store.SketchStore` — the growable key-to-row
  mapping with bulk reporting (``estimate_all``), key-wise merging
  (``merge_from``), and ``state_dict``/``to_bytes`` transport.

Sharding by key is :func:`repro.parallel.parallel_ingest_into` with
``keys=...`` on a store target.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "SketchArray": "sketch_array",
        "SketchStore": "store",
        "HyperLogLogSketchArray": "families",
        "LogLogSketchArray": "families",
        "LinearCountingSketchArray": "families",
        "RoughSketchArray": "families",
        "ObjectSketchArray": "families",
        "make_sketch_array": "families",
        "sketch_array_family_names": "families",
    },
)
