"""Struct-of-arrays state for N homologous sketches: :class:`SketchArray`.

The paper's motivating applications key *many* sketches by entity —
per-column NDV statistics, per-source fan-out counters — and a dict of
sketch objects updates them one Python call at a time.  A
:class:`SketchArray` stores the state of ``rows`` sketches of one family
(same parameters, same seed-derived hash functions) as contiguous NumPy
arrays instead: registers become an ``(N, m)`` matrix, bitmaps become
``(N, bytes)`` bit-planes, and :meth:`update_grouped` ingests a whole
keyed batch with **one** shared hash pass plus a sort/group scatter
(:func:`repro.vectorize.grouped_max_scatter`), so every touched sketch
updates inside the same vectorized sweep.

The binding contract, mirroring the ``update_batch`` equivalence
contract of :class:`repro.estimators.base.CardinalityEstimator`:

* **Row equivalence** — after any interleaving of :meth:`update` and
  :meth:`update_grouped` calls, every row is *bit-identical* (every
  state word) to an independent sketch of the family constructed with
  the array's seed and fed that row's updates in order.
  :meth:`export_row` materialises that independent sketch on demand and
  ``tests/test_sketch_store.py`` enforces the equivalence.
* **Validation** — a grouped batch is validated before any state is
  mutated (row range, item universe, aligned lengths), so a rejected
  batch leaves the array untouched.
* **Homology** — all rows share one seed-derived hash bundle.  This is
  what the consuming applications already did (every column sketch of a
  :class:`~repro.apps.query_optimizer.ColumnStatisticsCollector` shares
  a seed so columns stay mergeable), and it is what makes one hash pass
  per batch possible.

Concrete families live in :mod:`repro.store.families`; the key-addressed
wrapper is :class:`repro.store.store.SketchStore`.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

from ..estimators.base import SerializableState
from ..exceptions import MergeError, ParameterError, UpdateError
from ..vectorize import as_delta_array, as_key_array, np

__all__ = ["SketchArray"]


class SketchArray(SerializableState, abc.ABC):
    """State of ``rows`` homologous sketches laid out struct-of-arrays.

    Attributes:
        family: registry name of the sketch family.
        universe_size: the shared identifier universe ``n``.
        seed: the shared seed every row's hash functions derive from.
    """

    #: Registry name, overridden by subclasses.
    family: str = "sketch-array"

    #: Whether rows are turnstile (L0) sketches taking signed deltas.
    turnstile: bool = False

    def __init__(self, universe_size: int, rows: int, seed: Optional[int]) -> None:
        """Initialise the shared fields (subclasses allocate the state).

        Args:
            universe_size: the identifier universe (at least 2).
            rows: initial number of sketches; must be non-negative.
            seed: the shared seed.  Required: homologous rows exist to be
                compared, merged, and sharded, all of which need
                seed-determined hash functions.
        """
        if universe_size < 2:
            raise ParameterError("universe_size must be at least 2")
        if rows < 0:
            raise ParameterError("rows must be non-negative")
        if seed is None:
            raise ParameterError(
                "%s requires an explicit seed: every row shares the "
                "seed-derived hash functions" % type(self).__name__
            )
        self.universe_size = universe_size
        self.seed = seed
        self._rows = rows

    # -- geometry -------------------------------------------------------------------

    @property
    def rows(self) -> int:
        """The number of sketches currently stored."""
        return self._rows

    def __len__(self) -> int:
        return self._rows

    def grow(self, count: int) -> int:
        """Append ``count`` fresh (empty) rows; return the first new row index.

        Growth is amortised: the backing arrays over-allocate
        geometrically, so discovering keys one batch at a time stays
        linear overall.
        """
        if count < 0:
            raise ParameterError("cannot grow by a negative row count")
        first = self._rows
        if count:
            self._reserve(self._rows + count)
            self._rows += count
        return first

    @abc.abstractmethod
    def _reserve(self, rows: int) -> None:
        """Ensure the backing storage can hold ``rows`` rows."""

    # -- ingestion ------------------------------------------------------------------

    def update(self, row: int, item: int, delta: Optional[int] = None) -> None:
        """Apply one update to one row, exactly like the row's own sketch.

        Args:
            row: the target sketch's row index.
            item: identifier in ``[0, universe_size)``.
            delta: signed frequency delta; required for turnstile
                families, forbidden otherwise.
        """
        self._check_row(row)
        if self.turnstile:
            if delta is None:
                raise UpdateError(
                    "%s rows are turnstile sketches; pass a delta" % self.family
                )
            self._update_scalar(row, item, int(delta))
        else:
            if delta is not None:
                raise UpdateError(
                    "%s rows are insertion-only sketches; deltas are not "
                    "accepted" % self.family
                )
            self._update_scalar(row, item, None)

    def validate_batch(self, items, deltas=None):
        """Validate a batch without touching any state.

        The all-or-nothing half of the grouped contract, callable on its
        own so the key-addressed store can validate *before* registering
        a batch's new keys: item dtypes and universe range
        (:func:`repro.vectorize.as_key_array`), delta dtypes and
        alignment for turnstile families, delta absence for
        insertion-only families.

        Returns:
            ``(items, deltas)`` as validated arrays (``deltas`` stays
            ``None`` for insertion-only families).
        """
        keys = as_key_array(items, self.universe_size)
        if self.turnstile:
            if deltas is None:
                raise UpdateError(
                    "%s rows are turnstile sketches; pass deltas" % self.family
                )
            deltas = as_delta_array(deltas, expected_length=len(keys))
        elif deltas is not None:
            raise UpdateError(
                "%s rows are insertion-only sketches; deltas are not "
                "accepted" % self.family
            )
        return keys, deltas

    def update_grouped(self, rows, items, deltas=None) -> None:
        """Apply a keyed batch: item ``items[i]`` goes to row ``rows[i]``.

        One shared hash pass over the whole batch plus a sort/group
        scatter updates every touched row inside the same vectorized
        sweep — bit-identical to looping :meth:`update` over the pairs
        in order.  The whole batch is validated before any state is
        mutated; an empty batch is a no-op.

        Args:
            rows: integer sequence/ndarray of row indices, one per item.
            items: identifier sequence/ndarray (values in
                ``[0, universe_size)``).
            deltas: signed deltas, required for turnstile families and
                forbidden otherwise.
        """
        keys, deltas = self.validate_batch(items, deltas)
        rows = self._as_row_array(rows, len(keys))
        self.ingest_validated(rows, keys, deltas)

    def ingest_validated(self, rows, keys, deltas) -> None:
        """Grouped ingest for arrays :meth:`validate_batch` already vetted.

        The key-addressed store's entry point: it validates the batch
        once up front (before registering new keys), maps keys to rows —
        which are then in range by construction — and hands the arrays
        straight to the family sweep, so the benchmarked hot path pays a
        single validation pass.
        """
        if len(keys) == 0:
            return
        self._update_grouped(rows, keys, deltas)

    def update_row_batch(self, row: int, items, deltas=None) -> None:
        """Bulk-ingest one row: ``update_batch`` semantics for a single sketch."""
        self._check_row(row)
        keys, deltas = self.validate_batch(items, deltas)
        if keys.size == 0:
            return
        rows = np.full(len(keys), row, dtype=np.int64)
        self._update_grouped(rows, keys, deltas)

    @abc.abstractmethod
    def _update_scalar(self, row: int, item: int, delta: Optional[int]) -> None:
        """Family scalar update for a validated row."""

    @abc.abstractmethod
    def _update_grouped(self, rows, keys, deltas) -> None:
        """Family grouped update for validated row/key arrays."""

    # -- reporting ------------------------------------------------------------------

    @abc.abstractmethod
    def estimate_all(self) -> List[float]:
        """Return every row's current estimate, in row order, in one sweep."""

    def estimate_row(self, row: int) -> float:
        """Return one row's estimate (same value its exported sketch reports)."""
        self._check_row(row)
        return self._estimate_row(row)

    @abc.abstractmethod
    def _estimate_row(self, row: int) -> float:
        """Family estimate for a validated row."""

    # -- row materialisation --------------------------------------------------------

    @abc.abstractmethod
    def export_row(self, row: int):
        """Materialise row ``row`` as an independent sketch of the family.

        The result is bit-identical — equal ``state_dict()`` — to a
        sketch constructed with the array's parameters and seed and fed
        the row's updates directly.  For the struct-of-arrays families
        this builds a fresh object (mutating it does not touch the
        array); the object-backed fallback returns the live row sketch.
        """

    @abc.abstractmethod
    def import_row(self, row: int, sketch) -> None:
        """Replace row ``row``'s state with ``sketch``'s state.

        The inverse of :meth:`export_row`: ``sketch`` must be a
        same-parameter, same-seed sketch of the family (e.g. an exported
        row that was driven further through the sharded ingestion
        engine).
        """

    @abc.abstractmethod
    def make_sketch(self):
        """Return a fresh empty sketch of the family (the row template)."""

    # -- merging --------------------------------------------------------------------

    def merge_rows(self, other: "SketchArray", my_rows, other_rows) -> None:
        """Merge ``other``'s rows into this array's rows, pairwise.

        ``other`` must be a compatible array (same family, parameters,
        and seed); row ``other_rows[i]`` merges into ``my_rows[i]``
        exactly as the corresponding independent sketches would merge.
        Freshly grown (empty) rows merge as adoption — max/OR unions and
        additive turnstile merges both treat the zero state as identity.
        """
        self._check_merge_compatible(other)
        my_rows = self._as_row_array(my_rows, None)
        other_rows = other._as_row_array(other_rows, None)
        if len(my_rows) != len(other_rows):
            raise MergeError("merge_rows needs aligned row index arrays")
        if len(my_rows) == 0:
            return
        self._merge_rows(other, my_rows, other_rows)

    @abc.abstractmethod
    def _merge_rows(self, other: "SketchArray", my_rows, other_rows) -> None:
        """Family merge for validated, aligned row arrays."""

    def _check_merge_compatible(self, other: "SketchArray") -> None:
        if type(other) is not type(self):
            raise MergeError(
                "cannot merge %s with %s"
                % (type(self).__name__, type(other).__name__)
            )
        if (
            other.universe_size != self.universe_size
            or other.seed != self.seed
            or not self._same_parameters(other)
        ):
            raise MergeError(
                "%s arrays must share parameters and seed to merge" % self.family
            )

    @abc.abstractmethod
    def _same_parameters(self, other: "SketchArray") -> bool:
        """Whether ``other`` (same class) was built with equal parameters."""

    @abc.abstractmethod
    def spawn_empty(self) -> "SketchArray":
        """Return a fresh zero-row array with identical parameters and seed.

        The template the sharded keyed-ingestion engine ships to worker
        processes (:func:`repro.parallel.parallel_ingest_into`).
        """

    # -- space ----------------------------------------------------------------------

    @abc.abstractmethod
    def space_bits(self) -> int:
        """Return the total state footprint in bits (all rows, shared hashes once)."""

    # -- helpers --------------------------------------------------------------------

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self._rows:
            raise ParameterError("row %d outside [0, %d)" % (row, self._rows))

    def _as_row_array(self, rows, expected_length: Optional[int]):
        """Validate a row-index batch: integer dtype, in range, aligned."""
        if isinstance(rows, np.ndarray) and rows.dtype == np.int64:
            values = rows
        else:
            values = np.asarray(rows)
            if values.size and values.dtype.kind not in ("i", "u"):
                raise ParameterError("row indices must be integers")
            values = values.astype(np.int64, copy=False).reshape(-1)
        if expected_length is not None and len(values) != expected_length:
            raise UpdateError("update_grouped needs one row index per item")
        if values.size:
            low = int(values.min())
            high = int(values.max())
            if low < 0 or high >= self._rows:
                bad = low if low < 0 else high
                raise ParameterError(
                    "row %d outside [0, %d)" % (bad, self._rows)
                )
        return values

    @staticmethod
    def _capacity_for(rows: int) -> int:
        """Backing capacity for ``rows`` rows: the next power of two, >= 16.

        Geometric over-allocation keeps repeated single-key growth linear
        overall.  The capacity is a *deterministic function of the row
        count* rather than of the growth history, so two stores holding
        the same keys serialize byte-identically no matter how their
        batches were sliced (family constructors and :meth:`_grow_matrix`
        both use this rule).
        """
        if rows == 0:
            return 0
        return max(16, 1 << max(rows - 1, 1).bit_length())

    def _grow_matrix(self, matrix, rows: int):
        """Return ``matrix`` re-allocated to at least ``rows`` leading entries.

        Existing rows are preserved; new rows are zero.
        """
        capacity = matrix.shape[0]
        if rows <= capacity:
            return matrix
        grown = np.zeros(
            (self._capacity_for(rows),) + matrix.shape[1:], dtype=matrix.dtype
        )
        grown[:capacity] = matrix
        return grown

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "%s(family=%r, rows=%d, universe_size=%d)" % (
            type(self).__name__,
            self.family,
            self._rows,
            self.universe_size,
        )


def as_sequence(values) -> Sequence:
    """Return ``values`` as a sequence (materialising iterators once)."""
    if isinstance(values, (list, tuple)):
        return values
    if isinstance(values, np.ndarray):
        return values
    return list(values)
