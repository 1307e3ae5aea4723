"""Key-addressed sketch collections: :class:`SketchStore`.

A :class:`SketchStore` maps arbitrary keys (column names, source
addresses, user ids, ...) to the rows of one
:class:`~repro.store.sketch_array.SketchArray` and grows as new keys
appear.  It is the subsystem the keyed applications sit on: "a sketch
per entity" becomes one store whose whole keyed batch ingests through
:meth:`update_grouped` — one shared hash pass, one sort/group scatter —
instead of one Python call per entity per item.

Stores serialize through the standard :mod:`repro.serialize` machinery
(``state_dict`` / ``to_bytes``), merge key-wise (:meth:`merge_from`),
and shard across processes by key through
:func:`repro.parallel.parallel_ingest_into`: because every key's
updates land in exactly one shard, merging worker stores back is exact
for max/OR families *and* for additive turnstile families alike.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..estimators.base import SerializableState
from ..exceptions import MergeError, ParameterError
from ..vectorize import np
from .families import make_sketch_array
from .sketch_array import SketchArray

__all__ = ["SketchStore"]


class SketchStore(SerializableState):
    """A growable, key-addressed collection of homologous sketches.

    Attributes:
        family: the underlying array's family name.
    """

    def __init__(self, array: SketchArray, keys: Iterable = ()) -> None:
        """Wrap ``array``, optionally pre-registering ``keys``.

        Args:
            array: the backing sketch array.  Rows it already holds must
                be covered by ``keys`` (a store addresses rows by key
                only): the first ``array.rows`` distinct keys name the
                existing rows in order, and any further keys grow fresh
                rows.
            keys: initial keys, mapped to rows in iteration order.
        """
        if not isinstance(array, SketchArray):
            raise ParameterError("SketchStore wraps a SketchArray")
        self._array = array
        self._keys: List = []
        self._key_to_row: Dict = {}
        for key in keys:
            if key not in self._key_to_row:
                self._key_to_row[key] = len(self._keys)
                self._keys.append(key)
        if array.rows > len(self._keys):
            raise ParameterError(
                "array holds %d rows but only %d keys were provided to "
                "name them" % (array.rows, len(self._keys))
            )
        if len(self._keys) > array.rows:
            array.grow(len(self._keys) - array.rows)

    @classmethod
    def for_family(
        cls,
        family: str,
        universe_size: int,
        keys: Iterable = (),
        eps: float = 0.05,
        seed: Optional[int] = None,
        **params,
    ) -> "SketchStore":
        """Build a store over :func:`repro.store.families.make_sketch_array`."""
        store = cls(
            make_sketch_array(
                family, universe_size, rows=0, eps=eps, seed=seed, **params
            )
        )
        store.add_keys(keys)
        return store

    # -- introspection ---------------------------------------------------------------

    @property
    def array(self) -> SketchArray:
        """The backing sketch array."""
        return self._array

    @property
    def family(self) -> str:
        return self._array.family

    @property
    def keys(self) -> List:
        """The tracked keys, in row order (insertion order)."""
        return list(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key) -> bool:
        return key in self._key_to_row

    def row_of(self, key) -> int:
        """Return the row index of ``key`` (which must be tracked)."""
        row = self._key_to_row.get(key)
        if row is None:
            raise ParameterError("unknown key %r" % (key,))
        return row

    # -- key management --------------------------------------------------------------

    def add_keys(self, keys: Iterable) -> None:
        """Register keys (duplicates and already-known keys are fine)."""
        fresh = []
        seen = self._key_to_row
        for key in keys:
            if key not in seen:
                seen[key] = len(self._keys) + len(fresh)
                fresh.append(key)
        if fresh:
            self._array.grow(len(fresh))
            self._keys.extend(fresh)

    def _rows_for(self, keys, length: int):
        """Map a per-update key batch to row indices, creating new keys.

        Integer key batches take the vectorized path: one ``np.unique``
        collapses the batch to its distinct keys, so the Python dict is
        consulted once per *distinct* key rather than once per update.
        """
        lookup = self._key_to_row
        arr = keys if isinstance(keys, np.ndarray) else np.asarray(keys)
        if arr.dtype.kind in ("i", "u") and arr.ndim == 1:
            if len(arr) != length:
                raise ParameterError(
                    "update_grouped needs one key per item"
                )
            unique, first_seen, inverse = np.unique(
                arr, return_index=True, return_inverse=True
            )
            unique_rows = np.empty(len(unique), dtype=np.int64)
            fresh = []
            for position, key in enumerate(unique.tolist()):
                row = lookup.get(key, -1)
                unique_rows[position] = row
                if row < 0:
                    fresh.append(position)
            if fresh:
                # Register new keys in first-occurrence order — exactly the
                # order the scalar update loop would discover them — so a
                # grouped batch and the equivalent update() loop build
                # bit-identical stores (same key -> row assignment).
                fresh.sort(key=lambda position: int(first_seen[position]))
                first = self._array.grow(len(fresh))
                for offset, position in enumerate(fresh):
                    key = int(unique[position])
                    row = first + offset
                    lookup[key] = row
                    unique_rows[position] = row
                    self._keys.append(key)
            return unique_rows[inverse]
        # Generic (string / mixed) keys: one dict lookup per update.
        materialised = list(keys) if not isinstance(keys, (list, tuple)) else keys
        if len(materialised) != length:
            raise ParameterError("update_grouped needs one key per item")
        rows = np.empty(len(materialised), dtype=np.int64)
        for position, key in enumerate(materialised):
            row = lookup.get(key)
            if row is None:
                self.add_keys((key,))
                row = lookup[key]
            rows[position] = row
        return rows

    # -- ingestion -------------------------------------------------------------------

    def update(self, key, item: int, delta: Optional[int] = None) -> None:
        """Apply one update to ``key``'s sketch (creating it on first use)."""
        row = self._key_to_row.get(key)
        if row is None:
            # Validate before registering, so a rejected update does not
            # leave a fresh empty sketch behind.
            self._array.validate_batch([item], None if delta is None else [delta])
            self.add_keys((key,))
            row = self._key_to_row[key]
        self._array.update(row, item, delta)

    def update_grouped(self, keys, items, deltas=None) -> None:
        """Ingest a keyed batch: item ``items[i]`` updates ``keys[i]``'s sketch.

        The batch is validated up front (all-or-nothing: a rejected batch
        registers no keys and mutates no state), new keys are registered
        in first-occurrence order (rows grown once for the whole batch),
        and the updates flow through the array's grouped vectorized sweep
        — bit-identical to looping :meth:`update` over the triples in
        order, at batch throughput.

        Args:
            keys: one key per item (integer ndarray for the fast path;
                any hashables otherwise).
            items: identifiers in ``[0, universe_size)``.
            deltas: signed deltas for turnstile families.
        """
        items, deltas = self._array.validate_batch(items, deltas)
        rows = self._rows_for(keys, len(items))
        self._array.ingest_validated(rows, items, deltas)

    def update_batch(self, key, items, deltas=None) -> None:
        """Bulk-ingest one key's updates (creating its sketch on first use).

        An empty batch is a complete no-op: like the equivalent
        :meth:`update` loop and :meth:`update_grouped` call, it registers
        no key, so all three ingestion paths build byte-identical stores.
        """
        items, deltas = self._array.validate_batch(items, deltas)
        if not len(items):
            return
        row = self._key_to_row.get(key)
        if row is None:
            self.add_keys((key,))
            row = self._key_to_row[key]
        self._array.ingest_validated(
            np.full(len(items), row, dtype=np.int64), items, deltas
        )

    # -- reporting -------------------------------------------------------------------

    def estimate(self, key) -> float:
        """Return ``key``'s current estimate."""
        return float(self._array.estimate_row(self.row_of(key)))

    def estimate_all(self) -> Dict:
        """Return every key's estimate from one bulk state sweep."""
        return dict(zip(self._keys, self._array.estimate_all()))

    def sketch(self, key):
        """Materialise ``key``'s sketch (see :meth:`SketchArray.export_row`)."""
        return self._array.export_row(self.row_of(key))

    def load_sketch(self, key, sketch) -> None:
        """Replace ``key``'s state with ``sketch``'s (inverse of :meth:`sketch`)."""
        self._array.import_row(self.row_of(key), sketch)

    def make_sketch(self):
        """Return a fresh empty sketch of the store's family."""
        return self._array.make_sketch()

    def space_bits(self) -> int:
        """Return the store's total state footprint in bits."""
        return self._array.space_bits()

    # -- merging / sharding ----------------------------------------------------------

    def merge_from(self, other: "SketchStore") -> None:
        """Merge another store key-wise (the store-level rollup).

        Keys present in both stores merge row-wise exactly as the
        corresponding independent sketches would; keys only in ``other``
        are adopted (grown as fresh rows, then merged — exact for max/OR
        unions and for additive turnstile merges alike).  Both stores
        must share family, parameters, and seed.
        """
        if not isinstance(other, SketchStore):
            raise MergeError("merge_from expects a SketchStore")
        self.add_keys(other._keys)
        my_rows = np.fromiter(
            (self._key_to_row[key] for key in other._keys),
            dtype=np.int64,
            count=len(other._keys),
        )
        other_rows = np.arange(len(other._keys), dtype=np.int64)
        self._array.merge_rows(other._array, my_rows, other_rows)

    def spawn_empty(self) -> "SketchStore":
        """Return an empty store with identical family, parameters, and seed."""
        return SketchStore(self._array.spawn_empty())

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "SketchStore(family=%r, keys=%d)" % (self.family, len(self._keys))
