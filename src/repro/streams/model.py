"""Stream model: items, updates, and replayable streams.

The paper works with two stream models:

* **Insertion-only (cash-register)**: a stream ``i_1, ..., i_m`` of item
  identifiers in ``[n]``; the quantity of interest is
  ``F0 = |{i_1, ..., i_m}|``.
* **Turnstile**: a stream of updates ``(i, v)`` with ``v`` possibly
  negative, acting on a frequency vector ``x`` by ``x_i += v``; the
  quantity of interest is ``L0 = |{i : x_i != 0}|``.

This module defines the small value types for both models plus
:class:`MaterializedStream`, a replayable stream that also knows its exact
ground truth (``F0(t)`` / ``L0(t)`` at requested checkpoints), which the
experiment harness and the tests use to score estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import ParameterError, StreamFormatError
from ..vectorize import np

__all__ = [
    "Update",
    "MaterializedStream",
    "exact_f0",
    "exact_l0",
    "frequency_vector",
]


@dataclass(frozen=True)
class Update:
    """A single turnstile update ``x_item += delta``.

    In the insertion-only model every update has ``delta == 1``.

    Attributes:
        item: the item identifier, an integer in ``[0, n)``.
        delta: the signed change to the item's frequency.
    """

    item: int
    delta: int = 1

    def __post_init__(self) -> None:
        if self.item < 0:
            raise ParameterError("item identifiers must be non-negative")
        if self.delta == 0:
            raise ParameterError("zero-delta updates are not part of the model")


def exact_f0(items: Iterable[int]) -> int:
    """Return the exact number of distinct items in an insertion-only stream."""
    return len(set(items))


def frequency_vector(updates: Iterable[Update]) -> Dict[int, int]:
    """Return the non-zero entries of the frequency vector after ``updates``."""
    frequencies: Dict[int, int] = {}
    for update in updates:
        new_value = frequencies.get(update.item, 0) + update.delta
        if new_value == 0:
            frequencies.pop(update.item, None)
        else:
            frequencies[update.item] = new_value
    return frequencies


def exact_l0(updates: Iterable[Update]) -> int:
    """Return the exact Hamming norm (number of non-zero frequencies)."""
    return len(frequency_vector(updates))


class MaterializedStream:
    """A fully materialised, replayable stream with ground-truth tracking.

    The stream is a sequence of :class:`Update` values.  For insertion-only
    workloads every delta is ``+1`` and ``ground_truth`` equals F0; for
    turnstile workloads it equals L0.

    Attributes:
        universe_size: the ``n`` of the model — all items lie in ``[0, n)``.
        name: a short human-readable label used by the benchmark tables.
    """

    def __init__(
        self,
        updates: Sequence[Update],
        universe_size: int,
        name: str = "stream",
    ) -> None:
        """Wrap a sequence of updates.

        Args:
            updates: the stream contents, in order.
            universe_size: size of the identifier universe; every update's
                item must lie in ``[0, universe_size)``.
            name: label for reports.
        """
        if universe_size <= 0:
            raise ParameterError("universe_size must be positive")
        self.universe_size = universe_size
        self.name = name
        self._updates: List[Update] = list(updates)
        for update in self._updates:
            if update.item >= universe_size:
                raise StreamFormatError(
                    "item %d outside universe [0, %d)" % (update.item, universe_size)
                )

    # -- basic container behaviour ------------------------------------------------

    def __len__(self) -> int:
        return len(self._updates)

    def __iter__(self) -> Iterator[Update]:
        return iter(self._updates)

    def __getitem__(self, index: int) -> Update:
        return self._updates[index]

    @property
    def updates(self) -> Sequence[Update]:
        """The underlying update sequence (read-only view by convention)."""
        return self._updates

    def items(self) -> Iterator[int]:
        """Yield just the item identifiers (useful for insertion-only sketches)."""
        for update in self._updates:
            yield update.item

    def item_array(self):
        """Return the item identifiers as a ``uint64`` NumPy array (cached).

        This is the zero-copy input to the vectorized ``update_batch``
        paths; slicing it (as :meth:`iter_item_batches` does) creates views,
        so replaying a stream in batches does not copy the stream.  Falls
        back to a plain list when NumPy is unavailable.
        """
        cached = getattr(self, "_item_array", None)
        if cached is None:
            cached = np.fromiter(
                (update.item for update in self._updates),
                dtype=np.uint64,
                count=len(self._updates),
            )
            self._item_array = cached
        return cached

    def delta_array(self):
        """Return the update deltas as an ``int64`` NumPy array (cached)."""
        cached = getattr(self, "_delta_array", None)
        if cached is None:
            cached = np.fromiter(
                (update.delta for update in self._updates),
                dtype=np.int64,
                count=len(self._updates),
            )
            self._delta_array = cached
        return cached

    def iter_item_batches(self, batch_size: int) -> Iterator["object"]:
        """Yield the item identifiers in chunks of ``batch_size``.

        Each chunk is a NumPy array view over :meth:`item_array` (no
        copying); the final chunk may be shorter.  This is the canonical
        way to drive an estimator's ``update_batch`` over a materialised
        stream.

        Args:
            batch_size: positive chunk length.
        """
        if batch_size <= 0:
            raise ParameterError("batch_size must be positive")
        items = self.item_array()
        for start in range(0, len(self._updates), batch_size):
            yield items[start : start + batch_size]

    def iter_update_batches(
        self, batch_size: int
    ) -> Iterator[Tuple["object", "object"]]:
        """Yield ``(items, deltas)`` chunks of ``batch_size`` updates.

        The turnstile counterpart of :meth:`iter_item_batches`: each pair
        is a view over :meth:`item_array` / :meth:`delta_array` (no
        copying), sized for :meth:`TurnstileEstimator.update_batch
        <repro.estimators.base.TurnstileEstimator.update_batch>`.  The
        final pair may be shorter.

        Args:
            batch_size: positive chunk length.
        """
        if batch_size <= 0:
            raise ParameterError("batch_size must be positive")
        items = self.item_array()
        deltas = self.delta_array()
        for start in range(0, len(self._updates), batch_size):
            yield items[start : start + batch_size], deltas[start : start + batch_size]

    def is_insertion_only(self) -> bool:
        """Return True when every update has ``delta == +1`` (cached).

        The answer is computed once — vectorized over the cached
        :meth:`delta_array` — and memoized, so hot callers that gate on
        the stream model per ingest (the sharded engine checks it for
        every :func:`repro.parallel.parallel_ingest_into` call) stop
        paying an O(n) Python walk over the ``Update`` objects each time.
        """
        cached = getattr(self, "_insertion_only", None)
        if cached is None:
            cached = bool((self.delta_array() == 1).all())
            self._insertion_only = cached
        return cached

    # -- ground truth ---------------------------------------------------------------

    def ground_truth(self) -> int:
        """Return the exact F0 (insertion-only) or L0 (turnstile) of the full stream."""
        return exact_l0(self._updates)

    def ground_truth_at(self, positions: Sequence[int]) -> List[int]:
        """Return the exact F0/L0 after each prefix length in ``positions``.

        Args:
            positions: non-decreasing prefix lengths in ``[0, len(stream)]``.

        Returns:
            One ground-truth value per requested position.
        """
        for first, second in zip(positions, positions[1:]):
            if second < first:
                raise ParameterError("checkpoint positions must be non-decreasing")
        if positions and (positions[0] < 0 or positions[-1] > len(self._updates)):
            raise ParameterError("checkpoint positions out of range")
        results: List[int] = []
        frequencies: Dict[int, int] = {}
        cursor = 0
        for position in positions:
            while cursor < position:
                update = self._updates[cursor]
                new_value = frequencies.get(update.item, 0) + update.delta
                if new_value == 0:
                    frequencies.pop(update.item, None)
                else:
                    frequencies[update.item] = new_value
                cursor += 1
            results.append(len(frequencies))
        return results

    def prefix(self, length: int, name: Optional[str] = None) -> "MaterializedStream":
        """Return a new stream consisting of the first ``length`` updates."""
        if not 0 <= length <= len(self._updates):
            raise ParameterError("prefix length out of range")
        return MaterializedStream(
            self._updates[:length],
            self.universe_size,
            name=name or ("%s[:%d]" % (self.name, length)),
        )

    def concat(self, other: "MaterializedStream", name: Optional[str] = None) -> "MaterializedStream":
        """Return the concatenation of two streams over the same universe.

        Concatenation models taking the union of two observation points
        (e.g. two routers); mergeable sketches processed separately over the
        two halves must agree with a single sketch over the concatenation.
        """
        if other.universe_size != self.universe_size:
            raise ParameterError("cannot concatenate streams over different universes")
        return MaterializedStream(
            list(self._updates) + list(other._updates),
            self.universe_size,
            name=name or ("%s+%s" % (self.name, other.name)),
        )

    def checkpoints(self, count: int) -> List[int]:
        """Return up to ``count`` evenly spaced prefix lengths ending at the full length.

        Duplicate positions are dropped (requesting more checkpoints than
        the stream has updates would otherwise repeat prefixes, making
        the runner evaluate and record the same checkpoint several
        times); the final full-length checkpoint is always present.
        """
        if count <= 0:
            raise ParameterError("checkpoint count must be positive")
        total = len(self._updates)
        if count == 1 or total == 0:
            return [total]
        positions: List[int] = []
        for index in range(count):
            position = round(total * (index + 1) / count)
            if not positions or position != positions[-1]:
                positions.append(position)
        return positions

    def max_update_magnitude(self) -> int:
        """Return ``M``, the largest absolute update value (1 for insertion-only)."""
        return max((abs(update.delta) for update in self._updates), default=1)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            "MaterializedStream(name=%r, length=%d, universe_size=%d)"
            % (self.name, len(self._updates), self.universe_size)
        )


def stream_from_items(
    items: Iterable[int], universe_size: int, name: str = "stream"
) -> MaterializedStream:
    """Build an insertion-only stream from raw item identifiers."""
    return MaterializedStream(
        [Update(item, 1) for item in items], universe_size, name=name
    )
