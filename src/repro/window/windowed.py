"""Sliding-window distinct counting: rings of per-epoch mergeable sketches.

The paper's motivating monitoring applications (port-scan and worm
detection a la Estan et al.) are inherently *windowed*: an operator asks
"how many distinct sources in the last ``k`` windows", not "since
process start".  A :class:`WindowedSketch` answers exactly that by
keeping a bounded ring of per-epoch sketches — one sketch of a single
mergeable family per time bucket — and serving window queries by
*merge-rollup* over the newest ``k`` epochs instead of re-ingesting any
raw data:

* **Exactness.**  For max/OR families (HyperLogLog registers, linear
  counting bitmaps, KMV bottom-k sets, ...) the merge of the per-epoch
  sketches is *bit-identical* to one same-seed sketch fed exactly the
  window's updates, because the per-counter reductions are idempotent
  and order-insensitive.  For the additive turnstile (L0) families the
  same holds because the sketches are linear: counters are sums of
  deltas modulo fixed primes, and a window's sum splits over its epochs.
  Both hold for every mergeable family, because their hash functions
  are fixed by the seed.
* **Cost.**  Suffix merges over the closed epochs are memoized per
  epoch, so answering every window width ``k = 1..retention`` costs
  O(retention) merges per epoch in total — one merge per query,
  amortized, instead of ``k`` merges (let alone a full re-ingest) per
  query.

:class:`WindowedSketchStore` is the keyed counterpart: each epoch is a
whole :class:`~repro.store.store.SketchStore` row set, merged key-wise
(:meth:`~repro.store.store.SketchStore.merge_from`) for window queries
— "distinct destinations per source over the last ``k`` windows" as one
rollup.

Both ring types serialize through the standard :mod:`repro.serialize`
machinery (``state_dict`` / ``to_bytes``) and shard across processes by
*epoch range* via :func:`repro.parallel.parallel_ingest_into` (with
``epochs=...``): epochs never span shards, so the merge-back (in fact,
wholesale adoption of each worker's epoch sketches) is exact for every
family.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Tuple

from .. import serialize
from ..estimators.base import (
    CardinalityEstimator,
    SerializableState,
    TurnstileEstimator,
    universe_bound,
)
from ..exceptions import MergeError, ParameterError, UpdateError
from ..store.store import SketchStore
from ..vectorize import as_delta_array, as_key_array, np

__all__ = [
    "WindowedSketch",
    "WindowedSketchStore",
    "epoch_runs",
    "ingest_epoch_sketch",
    "ingest_epoch_store",
]


def epoch_runs(epochs, expected_length: Optional[int] = None) -> List[Tuple[int, int, int]]:
    """Split a non-decreasing epoch column into runs of equal epoch.

    Args:
        epochs: per-update epoch numbers (integer sequence or ndarray),
            non-decreasing — timestamped streams arrive in time order.
        expected_length: when given, the epoch column must have exactly
            this many entries (one per update).

    Returns:
        ``(epoch, start, stop)`` triples, one per distinct epoch value,
        in stream order; ``[start, stop)`` indexes the update arrays.
    """
    values = epochs if isinstance(epochs, np.ndarray) else np.asarray(epochs)
    if values.ndim != 1:
        raise ParameterError("epoch values must form a one-dimensional sequence")
    if values.size and values.dtype.kind not in ("i", "u"):
        raise ParameterError("epoch values must be integers")
    values = values.astype(np.int64, copy=False)
    if expected_length is not None and len(values) != expected_length:
        raise ParameterError("windowed ingestion needs one epoch per update")
    if values.size == 0:
        return []
    steps = np.diff(values)
    if bool((steps < 0).any()):
        raise ParameterError("epoch values must be non-decreasing")
    boundaries = np.flatnonzero(steps) + 1
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
    stops = np.concatenate((boundaries, np.asarray([len(values)], dtype=np.int64)))
    return [
        (int(values[start]), int(start), int(stop))
        for start, stop in zip(starts.tolist(), stops.tolist())
    ]


def _check_batch_size(batch_size: Optional[int]) -> None:
    if batch_size is not None and batch_size <= 0:
        raise ParameterError("batch_size must be positive")


def _feed_epoch(sketch, items, deltas, batch_size: Optional[int], turnstile: bool) -> None:
    """Drive one epoch's updates into ``sketch`` via ``update_batch`` chunks.

    The single chunking policy shared by sequential timestamped ingestion
    and the sharded worker bodies, so both build bit-identical epoch
    sketches (``batch_size=None`` means one batch for the whole run).
    """
    _check_batch_size(batch_size)
    total = len(items)
    step = batch_size if batch_size is not None else max(total, 1)
    for start in range(0, total, step):
        stop = start + step
        if turnstile:
            sketch.update_batch(items[start:stop], deltas[start:stop])
        else:
            sketch.update_batch(items[start:stop])


def _feed_epoch_store(store, keys, items, deltas, batch_size: Optional[int]) -> None:
    """The keyed counterpart of :func:`_feed_epoch`: grouped chunk driving."""
    _check_batch_size(batch_size)
    total = len(items)
    step = batch_size if batch_size is not None else max(total, 1)
    for start in range(0, total, step):
        stop = start + step
        store.update_grouped(
            keys[start:stop],
            items[start:stop],
            None if deltas is None else deltas[start:stop],
        )


def ingest_epoch_sketch(template_blob: bytes, items, deltas, batch_size, turnstile):
    """Build one epoch sketch from an empty-template blob (worker primitive).

    Revives the ring's epoch template and feeds it one epoch's updates
    through :func:`_feed_epoch` — exactly what sequential timestamped
    ingestion does to its open epoch, so an epoch built by a shard worker
    is byte-identical to the sequentially built one.
    """
    sketch = serialize.loads(template_blob)
    _feed_epoch(sketch, items, deltas, batch_size, turnstile)
    return sketch


def ingest_epoch_store(template_blob: bytes, keys, items, deltas, batch_size):
    """Keyed worker primitive: one epoch's keyed batch into a fresh store."""
    store = serialize.loads(template_blob)
    _feed_epoch_store(store, keys, items, deltas, batch_size)
    return store


#: Per-ring memo of the closed-epoch suffix rollups, keyed weakly by the
#: ring so the cache is never serialized (two rings in equal state must
#: serialize byte-identically whether or not they have been queried) and
#: dies with the ring.  Entries self-invalidate when the ring's closed
#: list is replaced (``load_state_dict``) or the epoch advances.
_ROLLUP_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class _EpochRing(SerializableState):
    """Shared ring machinery behind the two windowed types.

    State is the open (current) epoch, the closed epochs oldest-to-newest
    (at most ``retention - 1`` of them), the serialized empty epoch
    template every fresh epoch is revived from, and the absolute index of
    the open epoch.  Subclasses provide the family-specific merge.

    Attributes:
        retention: maximum number of epochs retained, counting the open
            one; older epochs are evicted as the ring advances.
    """

    def __init__(self, template, retention: int) -> None:
        if retention < 1:
            raise ParameterError("retention must be at least 1")
        self.retention = retention
        self._epoch_index = 0
        self._open = template
        self._open_dirty = False
        self._closed: List = []
        self._template_blob = template.to_bytes()

    # -- geometry -------------------------------------------------------------------

    @property
    def epoch_index(self) -> int:
        """Absolute index of the open epoch (epoch 0 opens at construction)."""
        return self._epoch_index

    @property
    def retained_epochs(self) -> int:
        """The number of epochs currently retained, counting the open one."""
        return len(self._closed) + 1

    @property
    def current(self):
        """The open epoch's live sketch/store (advanced integrations only)."""
        return self._open

    @property
    def template_bytes(self) -> bytes:
        """The serialized empty epoch template (the sharding engine ships it)."""
        return self._template_blob

    # -- epoch lifecycle ------------------------------------------------------------

    def advance_epoch(self, count: int = 1) -> None:
        """Close the open epoch ``count`` times, evicting beyond ``retention``.

        Each step files the open epoch as the newest closed epoch, drops
        the oldest epochs until at most ``retention - 1`` closed ones
        remain, and opens a fresh epoch revived from the template.  An
        epoch that saw zero updates closes as an empty sketch — windows
        spanning it are unaffected, exactly as merging an empty sketch
        is a no-op.
        """
        if count < 1:
            raise ParameterError("advance_epoch needs a positive epoch count")
        for _ in range(count):
            self._closed.append(self._open)
            while len(self._closed) > self.retention - 1:
                self._closed.pop(0)
            self._open = self._fresh()
            self._open_dirty = False
            self._epoch_index += 1

    def _fresh(self):
        return serialize.loads(self._template_blob)

    def _check_forward(self, epoch: int) -> None:
        if epoch < self._epoch_index:
            raise ParameterError(
                "epoch %d precedes the open epoch %d; windowed ingestion "
                "only moves forward" % (epoch, self._epoch_index)
            )

    @staticmethod
    def _clone(obj):
        return serialize.loads(obj.to_bytes())

    def _merge(self, target, source) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- window rollups -------------------------------------------------------------

    def _rollups(self, depth: int) -> List:
        """Return the memoized suffix rollups, extended to ``depth`` entries.

        ``rollups[i]`` is the merge of the ``i + 1`` newest *closed*
        epochs.  The list is built incrementally (one clone plus one
        merge per new entry) and cached until the ring's closed set
        changes, so serving every window width each epoch costs one
        merge per width, amortized.
        """
        entry = _ROLLUP_CACHE.get(self)
        if (
            entry is None
            or entry["closed"] is not self._closed
            or entry["epoch"] != self._epoch_index
            or entry["count"] != len(self._closed)
        ):
            entry = {
                "closed": self._closed,
                "epoch": self._epoch_index,
                "count": len(self._closed),
                "rollups": [],
            }
            _ROLLUP_CACHE[self] = entry
        rollups = entry["rollups"]
        while len(rollups) < depth:
            position = len(rollups)
            epoch_state = self._closed[-(position + 1)]
            if position == 0:
                rollups.append(self._clone(epoch_state))
            else:
                merged = self._clone(rollups[position - 1])
                self._merge(merged, epoch_state)
                rollups.append(merged)
        return rollups

    def _check_window(self, k: int) -> None:
        if k < 1:
            raise ParameterError("window width must be at least 1 epoch")
        if k > self.retained_epochs:
            raise ParameterError(
                "window of %d epochs exceeds the %d retained (retention=%d)"
                % (k, self.retained_epochs, self.retention)
            )

    def _window_state(self, k: int):
        """Materialise the merge of the newest ``k`` epochs (open included)."""
        self._check_window(k)
        if k == 1:
            return self._clone(self._open)
        merged = self._clone(self._rollups(k - 1)[k - 2])
        self._merge(merged, self._open)
        return merged

    # -- sharded merge-back ---------------------------------------------------------

    def load_epoch_sketches(self, pairs: Iterable[Tuple[int, object]]) -> None:
        """Absorb externally built epoch states, in epoch order.

        The merge-back half of epoch-range sharding
        (:func:`repro.parallel.parallel_ingest_into`): each pair is
        ``(absolute_epoch, state)`` where ``state`` was built from this
        ring's empty epoch template and fed that epoch's updates.  The
        ring advances through any intervening empty epochs; a *pristine*
        open epoch adopts the shipped state wholesale (bit-identical for
        every family, since the worker did to its template clone exactly
        what sequential ingestion would have done to the open epoch),
        while an open epoch that already holds state merges it in.
        """
        for epoch, state in pairs:
            epoch = int(epoch)
            self._check_forward(epoch)
            if epoch > self._epoch_index:
                self.advance_epoch(epoch - self._epoch_index)
            if type(state) is not type(self._open):
                raise MergeError(
                    "epoch state is a %s, expected %s"
                    % (type(state).__name__, type(self._open).__name__)
                )
            if self._open_pristine():
                self._open = state
            else:
                self._merge(self._open, state)
            self._open_dirty = True

    def _open_pristine(self) -> bool:
        """Whether the open epoch is still exactly the revived template.

        The dirty flag is the fast path, but it can be bypassed by
        mutating the sketch behind :attr:`current` directly (the
        documented advanced-integration escape hatch), so a clean flag is
        confirmed against the template bytes before the adopt branch of
        :meth:`load_epoch_sketches` may replace the open epoch.
        """
        return not self._open_dirty and self._open.to_bytes() == self._template_blob

    # -- space ----------------------------------------------------------------------

    def space_bits(self) -> int:
        """Total footprint of all retained epochs in bits."""
        return self._open.space_bits() + sum(
            epoch.space_bits() for epoch in self._closed
        )


class WindowedSketch(_EpochRing):
    """A sliding-window distinct counter: one mergeable sketch per epoch.

    Wraps a *freshly constructed* estimator (it becomes the open epoch
    and its serialized form becomes the template every later epoch is
    revived from, so all epochs share the seed-derived hash functions).
    Updates land in the open epoch; :meth:`advance_epoch` closes it; and
    :meth:`estimate_window` answers "distinct over the last ``k``
    epochs" by memoized merge-rollup.

    Window queries of width > 1 need the family to support ``merge``
    (every registry family except the fast-variant KNW sketch does);
    width-1 queries and plain ingestion work for any family.

    Attributes:
        retention: maximum epochs retained, counting the open one.
        turnstile: whether the family takes signed ``(item, delta)``
            updates (L0) rather than bare items (F0).
    """

    def __init__(self, template, retention: int) -> None:
        """Wrap ``template`` as the open epoch of a fresh ring.

        Args:
            template: a freshly constructed estimator of any registry
                family — :class:`~repro.estimators.base
                .CardinalityEstimator` (F0) or :class:`~repro.estimators
                .base.TurnstileEstimator` (L0).  Pass it empty: any
                pre-ingested state would be replicated into every epoch.
            retention: maximum number of epochs retained (>= 1).
        """
        if isinstance(template, TurnstileEstimator):
            self.turnstile = True
        elif isinstance(template, CardinalityEstimator):
            self.turnstile = False
        else:
            raise ParameterError(
                "WindowedSketch wraps a CardinalityEstimator or "
                "TurnstileEstimator; got %s" % type(template).__name__
            )
        super().__init__(template, retention)

    def _merge(self, target, source) -> None:
        target.merge(source)

    # -- ingestion ------------------------------------------------------------------

    def update(self, item: int, delta: Optional[int] = None) -> None:
        """Apply one update to the open epoch's sketch."""
        if self.turnstile:
            if delta is None:
                raise UpdateError("turnstile windowed sketch updates need a delta")
            self._open.update(int(item), int(delta))
        else:
            if delta is not None:
                raise UpdateError(
                    "insertion-only windowed sketch updates take no delta"
                )
            self._open.update(int(item))
        self._open_dirty = True

    def update_batch(self, items, deltas=None) -> None:
        """Bulk-ingest a chunk of updates into the open epoch's sketch."""
        if self.turnstile:
            if deltas is None:
                raise UpdateError("turnstile windowed sketch batches need deltas")
            self._open.update_batch(items, deltas)
        else:
            if deltas is not None:
                raise UpdateError(
                    "insertion-only windowed sketch batches take no deltas"
                )
            self._open.update_batch(items)
        if len(items):
            self._open_dirty = True

    def merge_current(self, sketch) -> None:
        """Merge a same-family sketch into the open epoch."""
        if type(sketch) is not type(self._open):
            raise MergeError(
                "cannot merge a %s into a windowed ring of %s"
                % (type(sketch).__name__, type(self._open).__name__)
            )
        self._open.merge(sketch)
        self._open_dirty = True

    def ingest_timestamped(
        self, epochs, items, deltas=None, batch_size: Optional[int] = None
    ) -> None:
        """Ingest a timestamped stream: update ``i`` lands in epoch ``epochs[i]``.

        Epochs must be non-decreasing and not precede the open epoch;
        the ring advances through them (closing empty epochs for gaps)
        and feeds each run through the shared chunking policy, so a
        sharded ingest of the same stream
        (:func:`repro.parallel.parallel_ingest_into`) builds
        byte-identical epochs.  The whole call is validated first
        (:meth:`validate_timestamped`): a rejected call leaves the ring
        untouched.

        Args:
            epochs: one non-decreasing epoch number per update.
            items: identifiers, aligned with ``epochs``.
            deltas: signed deltas (turnstile families only).
            batch_size: ``update_batch`` chunk length within each epoch
                run (``None`` = one batch per run).
        """
        runs, items, deltas = self.validate_timestamped(epochs, items, deltas)
        _check_batch_size(batch_size)
        for epoch, start, stop in runs:
            if epoch > self._epoch_index:
                self.advance_epoch(epoch - self._epoch_index)
            _feed_epoch(
                self._open,
                items[start:stop],
                None if deltas is None else deltas[start:stop],
                batch_size,
                self.turnstile,
            )
            self._open_dirty = True

    def validate_timestamped(self, epochs, items, deltas=None):
        """Check a whole :meth:`ingest_timestamped` call; change nothing.

        Checks the epoch runs, turnstile ↔ deltas, the delta length, the
        open epoch, and the items and deltas against the open sketch, and
        raises what the sequential feed would raise.

        Returns:
            ``(runs, items, deltas)``: the :func:`epoch_runs` triples and
            the validated item and delta arrays.
        """
        runs = epoch_runs(epochs, expected_length=len(items))
        if self.turnstile:
            if deltas is None:
                raise UpdateError("turnstile windowed ingestion needs deltas")
            if len(deltas) != len(items):
                raise UpdateError("windowed ingestion needs one delta per item")
        elif deltas is not None:
            raise UpdateError("insertion-only windowed ingestion takes no deltas")
        if runs:
            self._check_forward(runs[0][0])
        items = as_key_array(items, universe_bound(self._open))
        if deltas is not None:
            deltas = as_delta_array(deltas, len(items))
        return runs, items, deltas

    # -- reporting ------------------------------------------------------------------

    def estimate_current(self) -> float:
        """Return the open epoch's estimate (window width 1)."""
        return float(self._open.estimate())

    def estimate_window(self, k: int) -> float:
        """Estimate the distinct count over the newest ``k`` epochs.

        The window always includes the open epoch; ``k == 1`` is the open
        epoch alone.  Costs one merge (amortized) thanks to the memoized
        closed-epoch rollups.
        """
        self._check_window(k)
        if k == 1:
            return float(self._open.estimate())  # no clone for the open epoch
        return float(self._window_state(k).estimate())

    def estimate_all_windows(self) -> List[float]:
        """Return the estimate of every retained window width, 1..retained."""
        return [self.estimate_window(k) for k in range(1, self.retained_epochs + 1)]

    def window_sketch(self, k: int):
        """Materialise the merged sketch of the newest ``k`` epochs.

        For shard-deterministic mergeable families the result is
        bit-identical (equal ``state_dict()``) to a fresh same-seed
        sketch fed exactly the window's updates.
        """
        return self._window_state(k)

    def make_sketch(self):
        """Return a fresh empty sketch revived from the epoch template."""
        return self._fresh()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "WindowedSketch(%s, epoch=%d, retained=%d/%d)" % (
            type(self._open).__name__,
            self._epoch_index,
            self.retained_epochs,
            self.retention,
        )


class WindowedSketchStore(_EpochRing):
    """A sliding-window *keyed* sketch collection: one store per epoch.

    The keyed counterpart of :class:`WindowedSketch`: each epoch holds a
    whole :class:`~repro.store.store.SketchStore` (a sketch per entity),
    window queries merge the newest ``k`` epoch stores key-wise, and the
    answer is "each entity's distinct count over the last ``k`` epochs"
    — exact per the same per-family rollup argument.
    """

    def __init__(self, store: SketchStore, retention: int) -> None:
        """Wrap a freshly constructed (empty) store as the open epoch.

        Args:
            store: the epoch-store template; its family, parameters, and
                seed are shared by every epoch.  Pass it empty.
            retention: maximum number of epochs retained (>= 1).
        """
        if not isinstance(store, SketchStore):
            raise ParameterError("WindowedSketchStore wraps a SketchStore")
        super().__init__(store, retention)

    def _merge(self, target, source) -> None:
        target.merge_from(source)

    @property
    def turnstile(self) -> bool:
        """Whether the epoch stores take signed deltas (turnstile family)."""
        return bool(self._open.array.turnstile)

    @property
    def family(self) -> str:
        return self._open.family

    # -- ingestion ------------------------------------------------------------------

    def update(self, key, item: int, delta: Optional[int] = None) -> None:
        """Apply one keyed update to the open epoch's store."""
        self._open.update(key, item, delta)
        self._open_dirty = True

    def update_batch(self, key, items, deltas=None) -> None:
        """Bulk-ingest one key's updates into the open epoch's store."""
        self._open.update_batch(key, items, deltas)
        if len(items):
            self._open_dirty = True

    def update_grouped(self, keys, items, deltas=None) -> None:
        """Ingest a keyed batch into the open epoch's store (grouped sweep)."""
        self._open.update_grouped(keys, items, deltas)
        if len(items):
            self._open_dirty = True

    def merge_current(self, store: SketchStore) -> None:
        """Merge a compatible store into the open epoch, key-wise."""
        self._open.merge_from(store)
        self._open_dirty = True

    def ingest_timestamped(
        self, epochs, keys, items, deltas=None, batch_size: Optional[int] = None
    ) -> None:
        """Ingest a timestamped keyed stream (see
        :meth:`WindowedSketch.ingest_timestamped`; adds the key column)."""
        runs, items, deltas = self.validate_timestamped(epochs, keys, items, deltas)
        _check_batch_size(batch_size)
        for epoch, start, stop in runs:
            if epoch > self._epoch_index:
                self.advance_epoch(epoch - self._epoch_index)
            _feed_epoch_store(
                self._open,
                keys[start:stop],
                items[start:stop],
                None if deltas is None else deltas[start:stop],
                batch_size,
            )
            self._open_dirty = True

    def validate_timestamped(self, epochs, keys, items, deltas=None):
        """Check a whole keyed :meth:`ingest_timestamped` call; change nothing.

        The keyed counterpart of :meth:`WindowedSketch.validate_timestamped`:
        the key and delta lengths, the open epoch, then the items and
        deltas against the open store (``validate_batch``).
        """
        runs = epoch_runs(epochs, expected_length=len(items))
        if len(keys) != len(items):
            raise ParameterError("windowed keyed ingestion needs one key per item")
        if deltas is not None and len(deltas) != len(items):
            raise ParameterError("windowed keyed ingestion needs one delta per item")
        if runs:
            self._check_forward(runs[0][0])
        items, deltas = self._open.array.validate_batch(items, deltas)
        return runs, items, deltas

    # -- reporting ------------------------------------------------------------------

    def estimate_current(self) -> Dict:
        """Return every open-epoch key's estimate (window width 1)."""
        return self._open.estimate_all()

    def estimate_window(self, k: int) -> Dict:
        """Return each key's estimate over the newest ``k`` epochs.

        Keys are the union of the keys seen in any of the window's
        epochs (a key idle in recent epochs still reports the distinct
        count of its older in-window activity).
        """
        self._check_window(k)
        if k == 1:
            return self._open.estimate_all()
        return self._window_state(k).estimate_all()

    def estimate_key_window(self, key, k: int) -> float:
        """Return one key's distinct-count estimate over the newest ``k`` epochs."""
        self._check_window(k)
        if k == 1:
            return self._open.estimate(key)
        return self._window_state(k).estimate(key)

    def window_store(self, k: int) -> SketchStore:
        """Materialise the key-wise merge of the newest ``k`` epoch stores."""
        return self._window_state(k)

    def make_store(self) -> SketchStore:
        """Return a fresh empty store revived from the epoch template."""
        return self._fresh()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "WindowedSketchStore(family=%r, epoch=%d, retained=%d/%d)" % (
            self._open.family,
            self._epoch_index,
            self.retained_epochs,
            self.retention,
        )
