"""Fixed-width packed counter arrays.

Several components need an array of small counters whose width is known in
advance: RoughEstimator keeps ``K_RE`` counters of ``O(log log n)`` bits
each (they store lsb levels, which never exceed ``log n``), LogLog and
HyperLogLog keep registers of ``log log n`` bits, and the L0 small-case
recovery keeps counters modulo a small prime.  Packing them at their true
width is what makes the paper's ``O(K_RE log log n) = O(log n)`` accounting
real, so this module provides a packed array that charges exactly
``length * width`` bits.

Values are stored inside a Python integer used as a bit buffer; get/set
touch O(1) words of that buffer in the word-RAM model.
"""

from __future__ import annotations

from typing import Iterable, List

from ..exceptions import ParameterError
from ..vectorize import grouped_max_scatter, np, require_numpy

__all__ = ["PackedCounterArray"]

#: Counter width beyond which the vectorized bulk paths would overflow a
#: ``uint64`` lane; wider arrays (none exist in the library — widths here
#: are ``O(log log n)``) fall back to the scalar loops.
_WORD_WIDTH_LIMIT = 63


class PackedCounterArray:
    """An array of ``length`` unsigned counters of ``width`` bits each.

    Attributes:
        length: number of counters.
        width: bits per counter.
    """

    __slots__ = ("length", "width", "_mask", "_buffer")

    def __init__(self, length: int, width: int, initial_value: int = 0) -> None:
        """Create the array with every counter equal to ``initial_value``.

        Args:
            length: number of counters; must be positive.
            width: bits per counter; must be positive.
            initial_value: starting value; must fit in ``width`` bits.
        """
        if length <= 0:
            raise ParameterError("PackedCounterArray length must be positive")
        if width <= 0:
            raise ParameterError("PackedCounterArray width must be positive")
        self.length = length
        self.width = width
        self._mask = (1 << width) - 1
        if not 0 <= initial_value <= self._mask:
            raise ParameterError(
                "initial value %d does not fit in %d bits" % (initial_value, width)
            )
        self._buffer = 0
        if initial_value:
            pattern = initial_value
            for index in range(length):
                self._buffer |= pattern << (index * width)

    def get(self, index: int) -> int:
        """Return counter ``index``."""
        self._check_index(index)
        return (self._buffer >> (index * self.width)) & self._mask

    def set(self, index: int, value: int) -> None:
        """Set counter ``index`` to ``value`` (must fit in ``width`` bits)."""
        self._check_index(index)
        if not 0 <= value <= self._mask:
            raise ParameterError(
                "value %d does not fit in %d bits" % (value, self.width)
            )
        shift = index * self.width
        self._buffer &= ~(self._mask << shift)
        self._buffer |= value << shift

    def maximize(self, index: int, value: int) -> int:
        """Set counter ``index`` to ``max(current, value)`` and return the result.

        This is the single operation RoughEstimator and the register-based
        baselines perform per update, so it is provided as a primitive.
        """
        current = self.get(index)
        if value > current:
            self.set(index, value)
            return value
        return current

    def maximize_many(self, indices, values) -> None:
        """Apply ``counter[i] = max(counter[i], v)`` for a whole batch at once.

        This is the bulk form of :meth:`maximize` used by the vectorized
        ``update_batch`` paths (HyperLogLog/LogLog registers, RoughEstimator
        counters): the pairs are scattered with
        :func:`repro.vectorize.grouped_max_scatter` straight into a copy of
        one bulk :meth:`to_numpy` read, and — when anything actually grew —
        the whole buffer is re-packed in one vectorized pass instead of one
        Python big-int rewrite per touched counter.  The final state is
        identical to calling :meth:`maximize` per pair in any order
        (maximum is commutative and associative).

        Args:
            indices: integer ndarray of counter indices (already validated
                by the caller's hashing, as in the scalar paths).
            values: integer ndarray of candidate values; must fit in
                ``width`` bits.
        """
        require_numpy("PackedCounterArray.maximize_many")
        if len(indices) == 0:
            return
        indices = np.asarray(indices, dtype=np.int64)
        if self.width > _WORD_WIDTH_LIMIT:  # pragma: no cover - no current user
            for index, value in zip(indices.tolist(), np.asarray(values).tolist()):
                self.maximize(index, value)
            return
        if int(indices.min()) < 0 or int(indices.max()) >= self.length:
            bad = int(indices.min() if indices.min() < 0 else indices.max())
            raise ParameterError(
                "index %d outside [0, %d)" % (bad, self.length)
            )
        current = self.to_numpy().astype(np.int64)
        grown = current.copy()
        grouped_max_scatter(grown, indices, np.asarray(values, dtype=np.int64))
        if np.array_equal(grown, current):
            return
        peak = int(grown.max())
        if peak > self._mask:
            raise ParameterError(
                "value %d does not fit in %d bits" % (peak, self.width)
            )
        self._buffer = self._pack(grown.astype(np.uint64))

    def fill(self, value: int) -> None:
        """Set every counter to ``value``."""
        if not 0 <= value <= self._mask:
            raise ParameterError(
                "value %d does not fit in %d bits" % (value, self.width)
            )
        self._buffer = 0
        if value:
            for index in range(self.length):
                self._buffer |= value << (index * self.width)

    def count_at_least(self, threshold: int) -> int:
        """Return how many counters are >= ``threshold``.

        RoughEstimator's estimator needs ``T_r = |{i : C_i >= r}|``; this is
        the bulk form of that query, answered from one :meth:`to_numpy`
        read instead of ``length`` packed-buffer extractions.
        """
        if threshold <= 0:
            return self.length
        if threshold > self._mask:
            return 0
        if np is not None and self.width <= _WORD_WIDTH_LIMIT:
            return int(np.count_nonzero(self.to_numpy() >= np.uint64(threshold)))
        return sum(1 for index in range(self.length) if self.get(index) >= threshold)

    def to_numpy(self):
        """Return all counters as a ``uint64`` ndarray in one bulk read.

        The whole buffer is decoded with one ``np.unpackbits`` pass and a
        width-strided recombination, so reading ``length`` counters costs
        O(length * width / 64) vector work rather than ``length`` Python
        big-int shifts.  This is the read primitive behind
        :meth:`maximize_many`, :meth:`count_at_least`, and the register
        scans in the LogLog/HyperLogLog estimators.
        """
        require_numpy("PackedCounterArray.to_numpy")
        if self.width > _WORD_WIDTH_LIMIT:  # pragma: no cover - no current user
            out = np.empty(self.length, dtype=object)
            out[:] = self.to_list()
            return out
        total_bits = self.length * self.width
        raw = self._buffer.to_bytes((total_bits + 7) // 8, "little")
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8), count=total_bits, bitorder="little"
        )
        weights = np.left_shift(
            np.uint64(1), np.arange(self.width, dtype=np.uint64)
        )
        return (
            bits.reshape(self.length, self.width).astype(np.uint64) * weights
        ).sum(axis=1, dtype=np.uint64)

    def _pack(self, values) -> int:
        """Re-encode a full ``uint64`` value array into the bit buffer."""
        bits = (
            (values[:, None] >> np.arange(self.width, dtype=np.uint64))
            & np.uint64(1)
        ).astype(np.uint8)
        packed = np.packbits(bits.reshape(-1), bitorder="little")
        return int.from_bytes(packed.tobytes(), "little")

    def to_list(self) -> List[int]:
        """Return the counters as a plain list (mainly for tests)."""
        return [self.get(index) for index in range(self.length)]

    @classmethod
    def from_values(cls, values: Iterable[int], width: int) -> "PackedCounterArray":
        """Build a packed array holding ``values`` at the given width."""
        materialised = list(values)
        array = cls(len(materialised), width)
        for index, value in enumerate(materialised):
            array.set(index, value)
        return array

    @classmethod
    def from_numpy(cls, values, width: int) -> "PackedCounterArray":
        """Build a packed array from an integer ndarray in one bulk pass.

        The inverse of :meth:`to_numpy`: the whole buffer is re-encoded
        with one vectorized ``np.packbits`` pass instead of ``length``
        Python big-int writes.  The keyed sketch store uses this to
        materialise a single row of a register matrix as the packed
        array an independent sketch would hold — bit-identical buffer
        included.

        Args:
            values: 1-D integer ndarray (any integer dtype); every value
                must fit in ``width`` bits.
            width: bits per counter.
        """
        require_numpy("PackedCounterArray.from_numpy")
        values = np.asarray(values)
        if values.ndim != 1 or values.size == 0:
            raise ParameterError("from_numpy needs a non-empty 1-D array")
        array = cls(int(values.shape[0]), width)
        if width > _WORD_WIDTH_LIMIT:  # pragma: no cover - no current user
            for index, value in enumerate(values.tolist()):
                array.set(index, int(value))
            return array
        as_words = values.astype(np.uint64)
        peak = int(as_words.max())
        if peak > array._mask:
            raise ParameterError(
                "value %d does not fit in %d bits" % (peak, width)
            )
        array._buffer = array._pack(as_words)
        return array

    def space_bits(self) -> int:
        """Return the space cost: ``length * width`` bits."""
        return self.length * self.width

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.length:
            raise ParameterError(
                "index %d outside [0, %d)" % (index, self.length)
            )

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "PackedCounterArray(length=%d, width=%d)" % (self.length, self.width)
