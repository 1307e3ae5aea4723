"""Insertion-only workload generators.

The evaluation needs streams whose distinct-count and duplication structure
can be controlled precisely:

* ``uniform_random_stream`` — each update is a uniform item; duplication is
  whatever the birthday structure produces.
* ``distinct_items_stream`` — exactly ``distinct`` items, each appearing a
  configurable number of times, in random order (the workhorse for accuracy
  benchmarks, since the ground truth is chosen rather than observed).
* ``zipf_stream`` — heavy-tailed repetition, the classic database/network
  skew model.
* ``sequential_stream`` — items ``0, 1, 2, ...`` in order (an adversarial
  case for schemes that subsample on raw identifiers rather than hashes).
* ``low_bits_adversarial_stream`` — identifiers chosen so their low-order
  bits are maximally non-uniform, stressing the ``lsb``-based subsampling.
* ``growing_then_repeating_stream`` — F0 grows and then plateaus, the shape
  that exercises RoughEstimator's "correct at all times" guarantee.

Every generator returns a :class:`repro.streams.model.MaterializedStream`
and takes an explicit ``seed`` so experiments are reproducible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import ParameterError
from ..hashing.bitops import reverse_bits
from ..vectorize import np
from .model import MaterializedStream, Update

__all__ = [
    "uniform_random_stream",
    "distinct_items_stream",
    "zipf_stream",
    "sequential_stream",
    "low_bits_adversarial_stream",
    "growing_then_repeating_stream",
    "duplicated_union_streams",
    "iter_item_chunks",
    "KeyedWorkload",
    "WindowedWorkload",
    "windowed_uniform_stream",
    "keyed_uniform_stream",
]


def iter_item_chunks(items: Iterable[int], chunk_size: int) -> Iterator["object"]:
    """Yield identifiers from any (possibly unbounded) source in chunks.

    The batch-ingestion counterpart of feeding an iterator item by item:
    each yielded chunk is a ``uint64`` NumPy array of up to ``chunk_size``
    identifiers, ready for ``update_batch``.  Materialised streams should
    prefer :meth:`repro.streams.model.MaterializedStream.iter_item_batches`
    (zero-copy views); this helper exists for live sources — sockets,
    generators, database cursors — where only a bounded window may be
    buffered at a time.

    Args:
        items: any iterable of non-negative integers.
        chunk_size: positive maximum chunk length.
    """
    if chunk_size <= 0:
        raise ParameterError("chunk_size must be positive")
    iterator = iter(items)
    while True:
        window = list(itertools.islice(iterator, chunk_size))
        if not window:
            return
        yield np.asarray(window, dtype=np.uint64)


def _check_universe(universe_size: int) -> None:
    if universe_size <= 0:
        raise ParameterError("universe_size must be positive")


def uniform_random_stream(
    universe_size: int,
    length: int,
    seed: Optional[int] = None,
    name: str = "uniform",
) -> MaterializedStream:
    """Return a stream of ``length`` uniform draws from ``[0, universe_size)``."""
    _check_universe(universe_size)
    if length < 0:
        raise ParameterError("length must be non-negative")
    rng = random.Random(seed)
    updates = [Update(rng.randrange(universe_size), 1) for _ in range(length)]
    return MaterializedStream(updates, universe_size, name=name)


def distinct_items_stream(
    universe_size: int,
    distinct: int,
    repetitions: int = 1,
    seed: Optional[int] = None,
    shuffle: bool = True,
    name: str = "distinct",
) -> MaterializedStream:
    """Return a stream containing exactly ``distinct`` distinct items.

    Args:
        universe_size: size of the identifier universe.
        distinct: exact number of distinct identifiers (the ground-truth F0).
        repetitions: how many times each identifier appears.
        seed: RNG seed for identifier selection and shuffling.
        shuffle: when False, all copies of an item appear consecutively.
        name: label for reports.
    """
    _check_universe(universe_size)
    if not 0 <= distinct <= universe_size:
        raise ParameterError("distinct must lie in [0, universe_size]")
    if repetitions <= 0:
        raise ParameterError("repetitions must be positive")
    rng = random.Random(seed)
    identifiers = rng.sample(range(universe_size), distinct)
    items: List[int] = []
    for identifier in identifiers:
        items.extend([identifier] * repetitions)
    if shuffle:
        rng.shuffle(items)
    return MaterializedStream([Update(item, 1) for item in items], universe_size, name=name)


def zipf_stream(
    universe_size: int,
    length: int,
    skew: float = 1.1,
    seed: Optional[int] = None,
    name: str = "zipf",
) -> MaterializedStream:
    """Return a stream whose item frequencies follow a Zipf distribution.

    The rank-r item has probability proportional to ``r^-skew``; ranks are
    mapped to random identifiers so the heavy items do not have special
    low-order-bit structure.

    Args:
        universe_size: size of the identifier universe.
        length: number of updates.
        skew: Zipf exponent; must be positive.
        seed: RNG seed.
        name: label for reports.
    """
    _check_universe(universe_size)
    if length < 0:
        raise ParameterError("length must be non-negative")
    if skew <= 0:
        raise ParameterError("skew must be positive")
    rng = random.Random(seed)
    support = min(universe_size, max(length, 1))
    weights = [1.0 / ((rank + 1) ** skew) for rank in range(support)]
    total = sum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    identifiers = rng.sample(range(universe_size), support)

    def draw() -> int:
        u = rng.random()
        lo, hi = 0, support - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return identifiers[lo]

    updates = [Update(draw(), 1) for _ in range(length)]
    return MaterializedStream(updates, universe_size, name=name)


def sequential_stream(
    universe_size: int,
    distinct: int,
    name: str = "sequential",
) -> MaterializedStream:
    """Return the stream ``0, 1, ..., distinct-1`` (each item exactly once)."""
    _check_universe(universe_size)
    if not 0 <= distinct <= universe_size:
        raise ParameterError("distinct must lie in [0, universe_size]")
    updates = [Update(item, 1) for item in range(distinct)]
    return MaterializedStream(updates, universe_size, name=name)


def low_bits_adversarial_stream(
    universe_size: int,
    distinct: int,
    name: str = "lowbits-adversarial",
) -> MaterializedStream:
    """Return a stream of identifiers with adversarial low-order-bit structure.

    Identifiers are bit-reversed counters, so their *low* bits change as
    slowly as a counter's *high* bits.  Estimators that subsample on the raw
    identifier (rather than on a hash of it) are badly fooled by this
    workload; the KNW algorithms hash first, so their accuracy should be
    unaffected — which is exactly what the adversarial benchmark checks.
    """
    _check_universe(universe_size)
    if universe_size & (universe_size - 1):
        raise ParameterError("low_bits_adversarial_stream requires a power-of-two universe")
    if not 0 <= distinct <= universe_size:
        raise ParameterError("distinct must lie in [0, universe_size]")
    width = max(universe_size.bit_length() - 1, 1)
    updates = [Update(reverse_bits(item, width), 1) for item in range(distinct)]
    return MaterializedStream(updates, universe_size, name=name)


def growing_then_repeating_stream(
    universe_size: int,
    distinct: int,
    repeat_length: int,
    seed: Optional[int] = None,
    name: str = "grow-then-repeat",
) -> MaterializedStream:
    """Return a stream whose F0 grows to ``distinct`` and then stays flat.

    The first phase introduces ``distinct`` new identifiers; the second
    phase re-draws ``repeat_length`` updates uniformly from the already-seen
    identifiers.  RoughEstimator must remain a constant-factor
    approximation at *every* point of both phases (Theorem 1), so this is
    the canonical workload for experiment E5.
    """
    _check_universe(universe_size)
    if not 0 < distinct <= universe_size:
        raise ParameterError("distinct must lie in (0, universe_size]")
    if repeat_length < 0:
        raise ParameterError("repeat_length must be non-negative")
    rng = random.Random(seed)
    identifiers = rng.sample(range(universe_size), distinct)
    items = list(identifiers)
    items.extend(rng.choice(identifiers) for _ in range(repeat_length))
    return MaterializedStream([Update(item, 1) for item in items], universe_size, name=name)


@dataclass
class KeyedWorkload:
    """A keyed workload: aligned per-update (key, item[, delta]) arrays.

    The input shape of the keyed sketch store
    (:class:`repro.store.store.SketchStore`): update ``i`` applies item
    ``items[i]`` to the sketch of entity ``keys[i]``.  Without ``deltas``
    the workload is insertion-only and ground truth is the exact per-key
    distinct count (F0); with ``deltas`` it is a turnstile workload and
    ground truth is the exact per-key support size (L0).

    Attributes:
        universe_size: the identifier universe the items live in.
        keys: integer ndarray of per-update entity keys.
        items: ``uint64`` ndarray of per-update identifiers.
        deltas: optional ``int64`` ndarray of signed deltas (turnstile
            workloads); ``None`` for insertion-only workloads.
        name: label for reports.
    """

    universe_size: int
    keys: "object"
    items: "object"
    deltas: Optional["object"] = None
    name: str = "keyed"
    _truth: Optional[Dict[int, int]] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def key_count(self) -> int:
        """The number of distinct keys in the workload."""
        return len(self.ground_truth())

    def iter_grouped_batches(self, batch_size: int) -> Iterator[Tuple]:
        """Yield aligned ``(keys, items)`` chunks of up to ``batch_size`` updates.

        Insertion-only workloads only (the historical two-tuple shape);
        turnstile workloads iterate :meth:`iter_grouped_update_batches`.
        """
        if batch_size <= 0:
            raise ParameterError("batch_size must be positive")
        if self.deltas is not None:
            raise ParameterError(
                "turnstile keyed workloads carry deltas; iterate "
                "iter_grouped_update_batches instead"
            )
        for start in range(0, len(self.items), batch_size):
            stop = start + batch_size
            yield self.keys[start:stop], self.items[start:stop]

    def iter_grouped_update_batches(self, batch_size: int) -> Iterator[Tuple]:
        """Yield aligned ``(keys, items, deltas)`` chunks of up to ``batch_size``.

        The turnstile counterpart of :meth:`iter_grouped_batches`; the
        ``deltas`` member of each triple is ``None`` for insertion-only
        workloads, matching the optional third argument of
        :meth:`repro.store.store.SketchStore.update_grouped`.
        """
        if batch_size <= 0:
            raise ParameterError("batch_size must be positive")
        for start in range(0, len(self.items), batch_size):
            stop = start + batch_size
            yield (
                self.keys[start:stop],
                self.items[start:stop],
                None if self.deltas is None else self.deltas[start:stop],
            )

    def ground_truth(self) -> Dict[int, int]:
        """Return the exact per-key distinct/support counts (computed once)."""
        if self._truth is None:
            pairs = np.stack(
                (
                    np.asarray(self.keys, dtype=np.int64),
                    np.asarray(self.items, dtype=np.int64),
                ),
                axis=1,
            )
            if self.deltas is None:
                distinct = np.unique(pairs, axis=0)
                touched, counts = np.unique(distinct[:, 0], return_counts=True)
            else:
                # Exact per-key L0: net delta per (key, item) pair, then
                # count the pairs whose net frequency is non-zero.
                distinct, inverse = np.unique(pairs, axis=0, return_inverse=True)
                net = np.zeros(len(distinct), dtype=np.int64)
                np.add.at(
                    net,
                    inverse.reshape(-1),
                    np.asarray(self.deltas, dtype=np.int64),
                )
                surviving = distinct[net != 0]
                touched, counts = np.unique(surviving[:, 0], return_counts=True)
                self._truth = dict(
                    zip(touched.tolist(), (int(c) for c in counts.tolist()))
                )
                # Keys whose support cancelled entirely still count as
                # observed entities with L0 = 0.
                for key in np.unique(pairs[:, 0]).tolist():
                    self._truth.setdefault(int(key), 0)
                return self._truth
            self._truth = dict(
                zip(touched.tolist(), (int(c) for c in counts.tolist()))
            )
        return self._truth


def keyed_uniform_stream(
    universe_size: int,
    key_count: int,
    length: int,
    distinct_per_key: Optional[int] = None,
    seed: Optional[int] = None,
    name: str = "keyed-uniform",
) -> KeyedWorkload:
    """Return a keyed workload of ``length`` updates over ``key_count`` entities.

    Every update picks a uniform key; its item is uniform over the key's
    own value pool (``distinct_per_key`` identifiers deterministically
    derived from the key) when a pool size is given, or over the whole
    universe otherwise.  This is the per-entity shape of the motivating
    applications — many sketches, each seeing a modest stream — at a
    controllable duplication level.

    Args:
        universe_size: size of the identifier universe.
        key_count: number of distinct entity keys (``0 .. key_count-1``
            are all possible; keys the RNG never draws stay absent).
        length: total number of keyed updates.
        distinct_per_key: optional per-key value-pool size (bounds each
            key's exact distinct count).
        seed: RNG seed.
        name: label for reports.
    """
    _check_universe(universe_size)
    if key_count <= 0:
        raise ParameterError("key_count must be positive")
    if length < 0:
        raise ParameterError("length must be non-negative")
    if distinct_per_key is not None and distinct_per_key <= 0:
        raise ParameterError("distinct_per_key must be positive")
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, key_count, size=length, dtype=np.int64)
    if distinct_per_key is None:
        items = rng.integers(0, universe_size, size=length, dtype=np.uint64)
    else:
        draws = rng.integers(0, distinct_per_key, size=length, dtype=np.uint64)
        items = (
            keys.astype(np.uint64) * np.uint64(distinct_per_key) + draws
        ) % np.uint64(universe_size)
    return KeyedWorkload(universe_size, keys, items, name=name)


@dataclass
class WindowedWorkload:
    """A timestamped workload: aligned per-update (epoch, item[, delta]) arrays.

    The input shape of the sliding-window layer
    (:class:`repro.window.windowed.WindowedSketch`): update ``i`` lands
    in epoch ``epochs[i]`` (non-decreasing — streams arrive in time
    order).  Ground truth is the exact distinct count over any suffix of
    epochs, i.e. the answer to "how many distinct identifiers in the
    last ``k`` windows".

    Attributes:
        universe_size: the identifier universe the items live in.
        epochs: non-decreasing ``int64`` ndarray of per-update epochs.
        items: ``uint64`` ndarray of per-update identifiers.
        deltas: optional ``int64`` ndarray of signed deltas (turnstile
            workloads); ``None`` for insertion-only workloads.
        name: label for reports.
    """

    universe_size: int
    epochs: "object"
    items: "object"
    deltas: Optional["object"] = None
    name: str = "windowed"

    def __len__(self) -> int:
        return len(self.items)

    @property
    def epoch_count(self) -> int:
        """Number of epochs spanned, first to last (gaps included)."""
        if len(self.items) == 0:
            return 0
        return int(self.epochs[-1]) - int(self.epochs[0]) + 1

    def window_slice(self, k: int) -> Tuple["object", "object", Optional["object"]]:
        """Return the raw updates of the newest ``k`` epochs.

        Args:
            k: window width in epochs, counting back from the final
                (most recent) epoch.

        Returns:
            ``(epochs, items, deltas)`` array views over the window.
        """
        if k < 1:
            raise ParameterError("window width must be at least 1 epoch")
        if len(self.items) == 0:
            return self.epochs[:0], self.items[:0], None if self.deltas is None else self.deltas[:0]
        first = int(self.epochs[-1]) - k + 1
        start = int(np.searchsorted(self.epochs, first, side="left"))
        return (
            self.epochs[start:],
            self.items[start:],
            None if self.deltas is None else self.deltas[start:],
        )

    def ground_truth_window(self, k: int) -> int:
        """Exact distinct count (F0) / non-zero count (L0) of the last ``k`` epochs."""
        _, items, deltas = self.window_slice(k)
        if deltas is None:
            return int(len(np.unique(items)))
        totals: Dict[int, int] = {}
        for item, delta in zip(items.tolist(), deltas.tolist()):
            totals[item] = totals.get(item, 0) + delta
        return sum(1 for value in totals.values() if value != 0)

    def ground_truth_all_windows(self) -> List[int]:
        """Exact window answers for every width 1..epoch_count."""
        return [
            self.ground_truth_window(k) for k in range(1, self.epoch_count + 1)
        ]


def windowed_uniform_stream(
    universe_size: int,
    epochs: int,
    updates_per_epoch: int,
    distinct_per_epoch: Optional[int] = None,
    seed: Optional[int] = None,
    name: str = "windowed-uniform",
) -> WindowedWorkload:
    """Return a timestamped workload of ``epochs`` equal-sized epochs.

    Each epoch draws its items uniformly — over the whole universe, or
    over an epoch-local pool of ``distinct_per_epoch`` identifiers
    (deterministically derived from the epoch number) when a pool size
    is given, so consecutive windows genuinely differ and the windowed
    ground truth exercises the rollup.

    Args:
        universe_size: size of the identifier universe.
        epochs: number of epochs (time buckets).
        updates_per_epoch: updates drawn per epoch.
        distinct_per_epoch: optional per-epoch value-pool size.
        seed: RNG seed.
        name: label for reports.
    """
    _check_universe(universe_size)
    if epochs <= 0:
        raise ParameterError("epochs must be positive")
    if updates_per_epoch < 0:
        raise ParameterError("updates_per_epoch must be non-negative")
    if distinct_per_epoch is not None and distinct_per_epoch <= 0:
        raise ParameterError("distinct_per_epoch must be positive")
    rng = np.random.default_rng(seed)
    length = epochs * updates_per_epoch
    epoch_column = np.repeat(np.arange(epochs, dtype=np.int64), updates_per_epoch)
    if distinct_per_epoch is None:
        items = rng.integers(0, universe_size, size=length, dtype=np.uint64)
    else:
        draws = rng.integers(0, distinct_per_epoch, size=length, dtype=np.uint64)
        items = (
            epoch_column.astype(np.uint64) * np.uint64(distinct_per_epoch) + draws
        ) % np.uint64(universe_size)
    return WindowedWorkload(universe_size, epoch_column, items, name=name)


def duplicated_union_streams(
    universe_size: int,
    distinct: int,
    overlap_fraction: float,
    seed: Optional[int] = None,
) -> Sequence[MaterializedStream]:
    """Return two streams whose identifier sets overlap by a chosen fraction.

    Used by the merge/union tests and the query-optimizer example: the union
    of the two streams has ``distinct * (2 - overlap_fraction)`` distinct
    identifiers, and a pair of mergeable sketches must estimate that union
    without double-counting the overlap.

    Args:
        universe_size: size of the identifier universe.
        distinct: number of distinct identifiers in each stream.
        overlap_fraction: fraction (in [0, 1]) of identifiers shared.
        seed: RNG seed.

    Returns:
        A pair of insertion-only streams.
    """
    _check_universe(universe_size)
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ParameterError("overlap_fraction must lie in [0, 1]")
    shared = int(round(distinct * overlap_fraction))
    needed = 2 * distinct - shared
    if needed > universe_size:
        raise ParameterError("universe too small for the requested overlap structure")
    rng = random.Random(seed)
    identifiers = rng.sample(range(universe_size), needed)
    shared_ids = identifiers[:shared]
    first_only = identifiers[shared: shared + (distinct - shared)]
    second_only = identifiers[shared + (distinct - shared):]
    first_items = shared_ids + first_only
    second_items = shared_ids + second_only
    rng.shuffle(first_items)
    rng.shuffle(second_items)
    first = MaterializedStream(
        [Update(item, 1) for item in first_items], universe_size, name="union-left"
    )
    second = MaterializedStream(
        [Update(item, 1) for item in second_items], universe_size, name="union-right"
    )
    return (first, second)
