"""Distinct-value (NDV) statistics for query optimisation.

The paper's first motivating application (Selinger et al., Finkelstein et
al.): a query optimiser needs the number of distinct values per column to
estimate selectivities and choose join orders, but a full scan per column
per statistics refresh is too expensive — a one-pass sketch per column is
the standard fix.

:class:`ColumnStatisticsCollector` keeps its per-column sketches in a
keyed :class:`~repro.store.store.SketchStore` (column name -> sketch
row), ingests either row batches or whole column scans through the
vectorized batch pipeline, and answers the two questions an optimiser
asks:

* the estimated NDV of each column (for selectivity ``1/NDV``);
* the estimated NDV of the *union* of two columns' value sets (via sketch
  merging), from which the classic distinct-value join-size estimate
  ``|R| * |S| / max(NDV_R, NDV_S)`` is derived.

All column sketches share one seed (that is what makes union NDV work),
which is exactly the store's homologous-rows model: with a
struct-of-arrays family (``family="hyperloglog"``, ...) the whole
statistics state is a couple of NumPy matrices and a multi-column refresh
is one grouped sweep; the default ``family="knw"`` keeps the paper's own
estimator per column through the store's object-backed rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..core.knw import KNWDistinctCounter
from ..exceptions import ParameterError
from ..parallel import parallel_ingest_into
from ..store import ObjectSketchArray, SketchStore

__all__ = ["ColumnStatisticsCollector", "JoinEstimate"]


@dataclass
class JoinEstimate:
    """An equi-join size estimate derived from column NDV statistics.

    Attributes:
        left_rows: row count of the left relation.
        right_rows: row count of the right relation.
        left_ndv: estimated distinct values of the left join key.
        right_ndv: estimated distinct values of the right join key.
        estimated_rows: the classic ``|R| |S| / max(NDV_R, NDV_S)`` estimate.
    """

    left_rows: int
    right_rows: int
    left_ndv: float
    right_ndv: float
    estimated_rows: float


class ColumnStatisticsCollector:
    """One-pass NDV statistics over the columns of a table.

    Attributes:
        universe_size: size of the value universe shared by the columns.
        eps: relative-error target of the per-column sketches.
        family: the sketch family backing the column store.
    """

    def __init__(
        self,
        columns: Sequence[str],
        universe_size: int,
        eps: float = 0.05,
        seed: int = 1,
        family: str = "knw",
    ) -> None:
        """Create a collector.

        Args:
            columns: column names.
            universe_size: size of the (encoded) value universe.
            eps: relative-error target.
            seed: base seed; every column uses the *same* seed so that the
                per-column sketches are mergeable (needed for union NDV).
            family: sketch family for the column store.  ``"knw"`` (the
                default) keeps the paper's estimator per column; any
                struct-of-arrays store family
                (:func:`repro.store.families.sketch_array_family_names`)
                or registry name works, as long as it supports merging
                when :meth:`union_ndv` is needed.
        """
        if not columns:
            raise ParameterError("at least one column is required")
        if len(set(columns)) != len(columns):
            raise ParameterError("column names must be unique")
        self.universe_size = universe_size
        self.eps = eps
        self.family = family
        self._seed = seed
        self._row_counts: Dict[str, int] = {name: 0 for name in columns}
        if family == "knw":
            # Figure 2's polynomial rough-estimator family (the paper's
            # 8-approximation); per-partition sharded ingest and union-NDV
            # merging are bit-identical to serial single-sketch ingestion.
            self._store = SketchStore(
                ObjectSketchArray(
                    KNWDistinctCounter(
                        universe_size,
                        eps=eps,
                        seed=seed,
                        rough_uniform_family=False,
                    )
                ),
                keys=columns,
            )
        else:
            self._store = SketchStore.for_family(
                family, universe_size, keys=columns, eps=eps, seed=seed
            )

    @property
    def columns(self) -> Sequence[str]:
        """The column names being tracked."""
        return self._store.keys

    @property
    def store(self) -> SketchStore:
        """The keyed sketch store holding the per-column state."""
        return self._store

    def _require_column(self, column: str) -> None:
        if column not in self._store:
            raise ParameterError("unknown column %r" % column)

    def ingest_row(self, row: Dict[str, Optional[int]]) -> None:
        """Ingest one row: a mapping from column name to encoded value.

        ``None`` values (SQL NULLs) are skipped, matching how real systems
        compute NDV statistics.
        """
        for column, value in row.items():
            self._require_column(column)
            if value is None:
                continue
            self._store.update(column, value)
            self._row_counts[column] += 1

    def ingest_column(self, column: str, values: Sequence[Optional[int]]) -> None:
        """Bulk-ingest one column's values.

        The column form is the statistics-refresh hot path (a full column
        scan per refresh), so non-null values are ingested through the
        store's vectorized batch path; ``None`` values (SQL NULLs) are
        skipped exactly as in :meth:`ingest_row`.
        """
        self._require_column(column)
        non_null = [value for value in values if value is not None]
        if not non_null:
            return
        # The plain list goes straight to the batch path: its validation
        # turns negatives / non-integers into the same ParameterError
        # the scalar path raises, instead of a dtype-conversion error.
        self._store.update_batch(column, non_null)
        self._row_counts[column] += len(non_null)

    def ingest_column_partitions(
        self,
        column: str,
        partitions: Sequence[Sequence[Optional[int]]],
        workers: Optional[int] = None,
    ) -> None:
        """Bulk-ingest one column stored as several partitions, in parallel.

        The statistics-refresh shape of a partitioned table: the
        partitions' values are re-sharded by range, each shard is
        ingested by a worker process (drawn from the engine's persistent
        pool, so repeated refreshes pay pool startup once) into a clone
        of the column's (mergeable, same-seed) sketch, and the results
        merge-reduce back — see :mod:`repro.parallel`.  Equivalent to
        calling :meth:`ingest_column` on the concatenation; ``None``
        values (SQL NULLs) are skipped.

        Args:
            column: the column name.
            partitions: one value sequence per table partition.
            workers: worker processes (defaults to the CPUs the process
                may use — see :func:`repro.parallel.default_workers`).
        """
        self._require_column(column)
        values = [
            value
            for partition in partitions
            for value in partition
            if value is not None
        ]
        sketch = self._store.sketch(column)
        parallel_ingest_into(sketch, values, workers=workers)
        # Object-backed rows are the live sketches (write-back is a no-op
        # reassignment); struct-of-arrays rows import the driven state.
        self._store.load_sketch(column, sketch)
        self._row_counts[column] += len(values)

    def ndv(self, column: str) -> float:
        """Return the estimated number of distinct values of ``column``."""
        self._require_column(column)
        return self._store.estimate(column)

    def all_ndv(self) -> Dict[str, float]:
        """Return every column's estimated NDV from one bulk state sweep."""
        return self._store.estimate_all()

    def selectivity(self, column: str) -> float:
        """Return the classic equality-predicate selectivity ``1 / NDV``."""
        ndv = max(self.ndv(column), 1.0)
        return 1.0 / ndv

    def union_ndv(self, first: str, second: str) -> float:
        """Return the estimated NDV of the union of two columns' value sets.

        Implemented by merging copies of the two (same-seed) sketches, which
        is exactly the distributed-union use case of mergeable sketches.
        """
        if first not in self._store or second not in self._store:
            raise ParameterError("unknown column in union_ndv")
        merged = self._store.make_sketch()
        merged.merge(self._store.sketch(first))
        merged.merge(self._store.sketch(second))
        return merged.estimate()

    def join_estimate(self, left: str, right: str) -> JoinEstimate:
        """Return the distinct-value equi-join size estimate for two key columns."""
        left_ndv = self.ndv(left)
        right_ndv = self.ndv(right)
        left_rows = self._row_counts[left]
        right_rows = self._row_counts[right]
        denominator = max(left_ndv, right_ndv, 1.0)
        return JoinEstimate(
            left_rows=left_rows,
            right_rows=right_rows,
            left_ndv=left_ndv,
            right_ndv=right_ndv,
            estimated_rows=left_rows * right_rows / denominator,
        )

    def space_bits(self) -> int:
        """Return the total statistics footprint in bits (all column sketches)."""
        return self._store.space_bits()
