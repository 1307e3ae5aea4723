"""Abstract interfaces shared by every cardinality estimator in the library.

Two estimator families exist, mirroring the paper's two problems:

* :class:`CardinalityEstimator` — insertion-only F0 estimation: the sketch
  sees item identifiers and estimates the number of distinct identifiers.
* :class:`TurnstileEstimator` — L0 (Hamming norm) estimation: the sketch
  sees signed updates ``(i, v)`` and estimates the number of coordinates
  with non-zero frequency.

Both expose ``estimate()`` which may be called at any time mid-stream
(the paper's "reporting" operation) and ``space_bits()`` for the word-RAM
space accounting used by the Figure-1 benchmark.  Insertion-only sketches
additionally support ``merge`` when two sketches share parameters and
seeds, which the union-of-streams application relies on.

Ingestion comes in two granularities:

* ``update(item)`` — the paper's per-item streaming operation;
* ``update_batch(items)`` — bulk ingestion of a chunk of items.  The
  contract is *exact equivalence*: feeding a stream through any sequence
  of batches must leave the sketch in the same state (and produce the
  same estimates) as the per-item loop, so batching is purely a
  throughput optimisation.  The base implementation is the loop; the hot
  estimators override it with NumPy-vectorized paths (see
  :mod:`repro.vectorize`).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Iterable, Optional, Sequence, Union

from .. import serialize
from ..exceptions import MergeError, SerializationError, UpdateError
from ..streams.model import MaterializedStream, Update
from ..vectorize import as_delta_array, as_key_array

__all__ = [
    "SerializableState",
    "CardinalityEstimator",
    "TurnstileEstimator",
    "describe_estimator",
    "universe_bound",
]

#: The types accepted by ``update_batch``: any integer sequence, including
#: a NumPy integer ndarray (the zero-copy fast path for vectorized
#: overrides).
ItemBatch = Union[Sequence[int], "object"]


def universe_bound(estimator) -> Optional[int]:
    """An estimator's universe size; amplification wrappers carry their copies'."""
    copies = getattr(estimator, "copies", None)
    if copies:
        estimator = copies[0]
    return getattr(estimator, "universe_size", None)


class SerializableState:
    """Serialization surface shared by every sketch in the library.

    Four methods, with torch-like semantics:

    * :meth:`state_dict` / :meth:`load_state_dict` — capture and restore
      the complete sketch state as a plain-value tree.  ``load`` expects
      an instance of the *same class* (construct it with any valid
      parameters, then load); all fields — including nested hash
      families, packed bit buffers, and shared RNGs with their exact
      aliasing structure — are replaced by the captured ones, so the
      restored sketch is bit-identical: equal ``state_dict()``, equal
      estimates, and equal behaviour under further ingestion.
    * :meth:`to_bytes` / :meth:`from_bytes` — the framed wire form of the
      same snapshot (see :mod:`repro.serialize` for the format), used by
      the sharded ingestion engine (:mod:`repro.parallel`) to transport
      worker sketches to the merge coordinator.
    """

    def state_dict(self) -> Dict[str, Any]:
        """Return a plain-value snapshot of the complete sketch state."""
        return serialize.snapshot(self)

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot into this instance (in place)."""
        serialize.restore(self, state)

    def to_bytes(self) -> bytes:
        """Serialize the sketch to framed bytes (see :mod:`repro.serialize`)."""
        return serialize.dumps(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SerializableState":
        """Revive a sketch serialized with :meth:`to_bytes`.

        The payload's recorded class must be ``cls`` or a subclass; call
        this on the class you expect (or on a base class to accept any
        estimator of that family).
        """
        revived = serialize.loads(data)
        if not isinstance(revived, cls):
            raise SerializationError(
                "payload contains a %s, not a %s"
                % (type(revived).__name__, cls.__name__)
            )
        return revived


class CardinalityEstimator(SerializableState, abc.ABC):
    """Base class for insertion-only distinct-elements (F0) estimators."""

    #: Human-readable algorithm name, overridden by subclasses.
    name: str = "cardinality-estimator"

    #: Whether the analysis of this estimator assumes a random oracle
    #: (a truly random hash function).  Mirrors the "Notes" column of the
    #: paper's Figure 1 and is surfaced in the comparison tables.
    requires_random_oracle: bool = False

    @abc.abstractmethod
    def update(self, item: int) -> None:
        """Process one stream item (an identifier in ``[0, n)``)."""

    @abc.abstractmethod
    def estimate(self) -> float:
        """Return the current estimate of the number of distinct items."""

    @abc.abstractmethod
    def space_bits(self) -> int:
        """Return the sketch size in bits under word-RAM accounting."""

    # -- optional capabilities -----------------------------------------------------

    def merge(self, other: "CardinalityEstimator") -> None:
        """Merge another sketch of the same type/parameters/seed into this one.

        Subclasses that support merging override this; the default refuses.
        """
        raise MergeError("%s does not support merging" % type(self).__name__)

    # -- batch ingestion ------------------------------------------------------------

    def update_batch(self, items: ItemBatch) -> None:
        """Process a chunk of stream items, equivalently to an ``update`` loop.

        Semantics (binding for every override):

        * **Equivalence** — after ``update_batch(items)`` the sketch state
          and all subsequent ``estimate()`` results are identical to
          ``for x in items: update(x)``.  Splitting a stream into batches
          of any sizes never changes the outcome; batching is purely a
          throughput optimisation.
        * **Order sensitivity** — items are logically applied in order.
          Most sketches are order-insensitive (their per-counter reduction
          is a max/OR/bottom-k), but order-dependent tie-breaking (e.g.
          a lazily drawn hash family drawing values at first occurrence)
          follows first-occurrence order within the batch.
        * **Dtype** — ``items`` may be any integer sequence; vectorized
          overrides accept (and are fastest with) a NumPy integer array,
          converted once to ``uint64``.  Identifiers must lie in
          ``[0, universe_size)``.  The whole batch is validated before
          any state is mutated, so a rejected batch leaves the sketch
          untouched.
        * **Known deviation** — the KNW Figure 3 sketch evaluates its
          space-budget FAIL test once per ingested chunk (after
          rebasing) rather than after every item; a stream whose budget
          only *transiently* exceeds the threshold at a stale base can
          latch FAIL under the scalar loop but not under batching.  See
          :meth:`repro.core.knw.KNWFigure3Sketch.update_batch`.  All
          other state is bit-identical.
        * **Merging** — batch ingestion composes with :meth:`merge`
          exactly like scalar ingestion: same-seed sketches fed disjoint
          batches and then merged agree with one sketch fed the
          concatenation, whenever the estimator supports merging at all.

        The base implementation validates the batch with
        :func:`~repro.vectorize.as_key_array`, then runs the plain loop
        (correct for every subclass); hot estimators override it with
        vectorized paths.
        """
        for item in as_key_array(items, universe_bound(self)).tolist():
            self.update(item)

    # -- convenience ----------------------------------------------------------------

    def update_many(self, items: Iterable[int]) -> None:
        """Feed every identifier from an iterable to :meth:`update`.

        Unlike :meth:`update_batch` this accepts lazy iterables and never
        materialises them; use it for unbounded sources, and
        :meth:`update_batch` for chunked high-throughput ingestion.
        """
        for item in items:
            self.update(item)

    def process_stream(
        self,
        stream: MaterializedStream,
        batch_size: Optional[int] = None,
    ) -> float:
        """Feed an entire insertion-only stream and return the final estimate.

        Args:
            stream: the insertion-only stream to ingest.
            batch_size: when given, ingest via :meth:`update_batch` in
                chunks of this many items (the vectorized fast path);
                when ``None``, use the per-item loop.

        Raises:
            UpdateError: if the stream contains deletions.
        """
        if batch_size is not None:
            if not stream.is_insertion_only():
                raise UpdateError(
                    "insertion-only estimator %s received a turnstile stream"
                    % self.name
                )
            for chunk in stream.iter_item_batches(batch_size):
                self.update_batch(chunk)
            return self.estimate()
        for update in stream:
            if update.delta != 1:
                raise UpdateError(
                    "insertion-only estimator %s received delta %d"
                    % (self.name, update.delta)
                )
            self.update(update.item)
        return self.estimate()


class TurnstileEstimator(SerializableState, abc.ABC):
    """Base class for turnstile L0 (Hamming norm) estimators."""

    #: Human-readable algorithm name, overridden by subclasses.
    name: str = "turnstile-estimator"

    #: Whether the estimator requires all frequencies to stay non-negative
    #: (true for Ganguly's algorithm, false for KNW's).
    requires_nonnegative_frequencies: bool = False

    @abc.abstractmethod
    def update(self, item: int, delta: int) -> None:
        """Apply the update ``x_item += delta``."""

    @abc.abstractmethod
    def estimate(self) -> float:
        """Return the current estimate of ``|{i : x_i != 0}|``."""

    @abc.abstractmethod
    def space_bits(self) -> int:
        """Return the sketch size in bits under word-RAM accounting."""

    # -- optional capabilities -----------------------------------------------------

    def merge(self, other: "TurnstileEstimator") -> None:
        """Merge another sketch of the same type/parameters/seed into this one.

        Linear turnstile sketches (all of the library's L0 estimators)
        override this with counter-wise modular addition; the default
        refuses.  Merging two same-seed sketches fed disjoint streams is
        bit-identical to one sketch fed the concatenation, which is what
        the sharded ingestion engine (:mod:`repro.parallel`) relies on.
        """
        raise MergeError("%s does not support merging" % type(self).__name__)

    def clear(self) -> None:
        """Reset all accumulated counters, keeping the hash randomness.

        After ``clear()`` the sketch is bit-identical to a freshly
        constructed instance with the same parameters and seed.  Because
        turnstile merges are *additive* (not idempotent like the F0
        max/OR merges), the sharded ingestion engine clears each worker's
        clone before feeding it its shard — otherwise a mid-stream
        coordinator's prior state would be counted once per shard.
        Subclasses with mergeable state override this; the default
        refuses.
        """
        raise MergeError("%s does not support clearing" % type(self).__name__)

    # -- batch ingestion ------------------------------------------------------------

    def update_batch(self, items: ItemBatch, deltas: ItemBatch) -> None:
        """Apply a chunk of signed updates ``x_items[i] += deltas[i]``.

        Same contract as
        :meth:`CardinalityEstimator.update_batch` — exact equivalence with
        the per-update loop, order-sensitive application, integer
        sequences or NumPy arrays for both ``items`` and ``deltas``.  The
        library's L0 sketches are linear (every counter is a sum of
        deltas modulo a fixed prime), so their vectorized overrides are
        bit-identical to the scalar loop in every state word: hashes
        evaluate once over the whole chunk and each touched counter pays
        one exact modular fold of its chunk total (see
        :meth:`repro.l0.knw_l0.KNWHammingNormEstimator.update_batch`).
        The whole batch is validated (:func:`~repro.vectorize.as_key_array`
        and :func:`~repro.vectorize.as_delta_array`) before any state is
        mutated, here and in every override.
        """
        keys = as_key_array(items, universe_bound(self))
        values = as_delta_array(deltas, expected_length=len(keys))
        for item, delta in zip(keys.tolist(), values.tolist()):
            self.update(item, delta)

    # -- convenience ----------------------------------------------------------------

    def apply(self, update: Update) -> None:
        """Apply one :class:`repro.streams.model.Update`."""
        self.update(update.item, update.delta)

    def process_stream(
        self,
        stream: MaterializedStream,
        batch_size: Optional[int] = None,
    ) -> float:
        """Feed an entire turnstile stream and return the final estimate.

        Args:
            stream: the turnstile stream to ingest.
            batch_size: when given, ingest via :meth:`update_batch` in
                chunks of this many updates (mirroring
                :meth:`CardinalityEstimator.process_stream`, so turnstile
                callers can be written against the batch API uniformly);
                when ``None``, use the per-update loop.
        """
        if batch_size is not None:
            for items, deltas in stream.iter_update_batches(batch_size):
                self.update_batch(items, deltas)
            return self.estimate()
        for update in stream:
            self.update(update.item, update.delta)
        return self.estimate()


def describe_estimator(estimator: object) -> str:
    """Return a one-line description of an estimator for reports.

    Includes the class name, the declared algorithm name, the current space
    in bits, and whether the analysis assumes a random oracle.
    """
    name = getattr(estimator, "name", type(estimator).__name__)
    space: Optional[int]
    try:
        space = estimator.space_bits()  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - defensive; all estimators implement it
        space = None
    oracle = getattr(estimator, "requires_random_oracle", False)
    pieces = [str(name)]
    if space is not None:
        pieces.append("%d bits" % space)
    if oracle:
        pieces.append("random-oracle model")
    return ", ".join(pieces)
