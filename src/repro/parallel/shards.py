"""Shard-axis partitioners: range, key, and epoch sharding.

These are the ``axis`` half of an :class:`~repro.parallel.plan
.IngestPlan`: pure functions that turn one logical stream into
independent shard payloads, one per prospective worker.  Contiguity
matters only for human inspection — every merge discipline in the
library is insensitive to which worker got which slice — but contiguous
slices of cached NumPy arrays are views, so sharding never copies the
stream.

* :func:`shard_items` — ``range`` axis over an insertion-only item
  stream.
* :func:`shard_updates` — ``range`` axis over a turnstile
  ``(items, deltas)`` stream.
* :func:`shard_keyed_updates` — ``key`` axis: every key's updates land
  in exactly one shard (sorted-key-rank round-robin), so key-wise
  merge-back is exact for idempotent and additive families alike.
* :func:`shard_epoch_slices` — ``epoch`` axis: whole epochs go to one
  shard each, so the coordinator can adopt worker-built epoch sketches
  wholesale.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple, Union

from ..exceptions import ParameterError
from ..streams.model import MaterializedStream
from ..vectorize import np

__all__ = [
    "shard_items",
    "shard_updates",
    "shard_keyed_updates",
    "shard_epoch_slices",
]

ItemSource = Union[MaterializedStream, Sequence[int], "np.ndarray"]

UpdateShard = Tuple[Any, Any]

KeyedShard = Tuple[Any, Any, Any]


def _as_items(source: ItemSource):
    """Return the item identifiers of ``source`` as an array (or sequence)."""
    if isinstance(source, MaterializedStream):
        if not source.is_insertion_only():
            raise ParameterError(
                "item sharding is defined for insertion-only streams; "
                "use shard_updates for turnstile streams"
            )
        return source.item_array()
    if not isinstance(source, np.ndarray):
        return np.asarray(source)
    return source


def shard_items(items: ItemSource, shards: int) -> List[Any]:
    """Partition a stream's items into ``shards`` contiguous slices.

    Trailing shards may be one item shorter; with fewer items than
    shards, the surplus shards are empty.

    Args:
        items: a materialized insertion-only stream, or the identifiers
            themselves (sequence or ndarray).
        shards: positive shard count.
    """
    if shards <= 0:
        raise ParameterError("shard count must be positive")
    data = _as_items(items)
    total = len(data)
    base, surplus = divmod(total, shards)
    slices: List[Any] = []
    start = 0
    for index in range(shards):
        length = base + (1 if index < surplus else 0)
        slices.append(data[start : start + length])
        start += length
    return slices


def _as_update_arrays(source) -> UpdateShard:
    """Return ``(items, deltas)`` arrays for a turnstile source."""
    if isinstance(source, MaterializedStream):
        return source.item_array(), source.delta_array()
    items, deltas = source
    if not isinstance(items, np.ndarray):
        items = np.asarray(items)
    if not isinstance(deltas, np.ndarray):
        deltas = np.asarray(deltas)
    if len(items) != len(deltas):
        raise ParameterError("turnstile sources need as many deltas as items")
    return items, deltas


def shard_updates(source, shards: int) -> List[UpdateShard]:
    """Partition a turnstile stream into ``shards`` contiguous update slices.

    The L0 counterpart of :func:`shard_items`: each shard is an
    ``(items, deltas)`` pair of aligned slices (NumPy views — sharding
    never copies the stream).

    Args:
        source: a materialized stream, or an ``(items, deltas)`` pair of
            aligned integer sequences/arrays.
        shards: positive shard count.
    """
    if shards <= 0:
        raise ParameterError("shard count must be positive")
    items, deltas = _as_update_arrays(source)
    total = len(items)
    base, surplus = divmod(total, shards)
    slices: List[UpdateShard] = []
    start = 0
    for index in range(shards):
        length = base + (1 if index < surplus else 0)
        slices.append(
            (items[start : start + length], deltas[start : start + length])
        )
        start += length
    return slices


def shard_keyed_updates(keys, items, deltas=None, shards: int = 1) -> List[KeyedShard]:
    """Partition a keyed batch so each key lands in exactly one shard.

    Keys are assigned to shards by sorted-key-rank ranges (``np.unique``
    rank modulo ``shards``), which balances shard sizes under skewed key
    distributions better than hashing raw key values; each shard keeps
    its updates in stream order.

    Args:
        keys: per-update integer keys (sequence or ndarray).
        items: per-update identifiers, aligned with ``keys``.
        deltas: optional signed deltas (turnstile stores).
        shards: positive shard count.

    Returns:
        ``shards`` triples ``(keys, items, deltas)`` (``deltas`` is
        ``None`` throughout when not supplied); some may be empty.
    """
    if shards <= 0:
        raise ParameterError("shard count must be positive")
    key_array = np.asarray(keys)
    item_array = items if isinstance(items, np.ndarray) else np.asarray(items)
    if len(key_array) != len(item_array):
        raise ParameterError("keyed sharding needs one key per item")
    delta_array = None
    if deltas is not None:
        delta_array = deltas if isinstance(deltas, np.ndarray) else np.asarray(deltas)
        if len(delta_array) != len(item_array):
            raise ParameterError("keyed sharding needs one delta per item")
    if len(key_array) == 0:
        empty_deltas = None if delta_array is None else delta_array[:0]
        return [
            (key_array[:0], item_array[:0], empty_deltas) for _ in range(shards)
        ]
    _, inverse = np.unique(key_array, return_inverse=True)
    assignment = inverse % shards
    result: List[KeyedShard] = []
    for shard in range(shards):
        mask = assignment == shard
        result.append(
            (
                key_array[mask],
                item_array[mask],
                None if delta_array is None else delta_array[mask],
            )
        )
    return result


def shard_epoch_slices(epochs, shards: int) -> List[Tuple[int, int]]:
    """Partition a timestamped stream into epoch-aligned index ranges.

    The windowed counterpart of :func:`shard_items`: the distinct epochs
    are split into ``shards`` contiguous groups (so no epoch ever spans
    two shards) and each group maps back to one contiguous ``(start,
    stop)`` range of update indices.  With fewer epochs than shards the
    surplus ranges are empty.

    Args:
        epochs: per-update epoch numbers, non-decreasing.
        shards: positive shard count.
    """
    from ..window.windowed import epoch_runs

    if shards <= 0:
        raise ParameterError("shard count must be positive")
    runs = epoch_runs(epochs)
    ranges: List[Tuple[int, int]] = []
    if not runs:
        return [(0, 0)] * shards
    groups = np.array_split(np.arange(len(runs)), shards)
    for group in groups:
        if len(group) == 0:
            ranges.append((0, 0))
        else:
            ranges.append((runs[int(group[0])][1], runs[int(group[-1])][2]))
    return ranges
