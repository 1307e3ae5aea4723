"""Packed bitvector.

Used by the small-F0 subroutine of Section 3.3 (the ``2K`` bits
``B_1 ... B_{K'}``), by the Estan-style linear-counting baseline, and as
the row storage of :class:`repro.bitstructs.bitmatrix.BitMatrix`.

The implementation packs bits into a Python ``bytearray`` so that the
declared space cost (``length`` bits, rounded up to bytes) matches what a
word-RAM implementation would use, and all operations touch a constant
number of bytes per call.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..exceptions import ParameterError
from ..vectorize import grouped_or_scatter, np

__all__ = ["BitVector"]


class BitVector:
    """A fixed-length array of bits with O(1) get/set.

    Attributes:
        length: the number of bits in the vector.
    """

    __slots__ = ("length", "_bytes", "_ones")

    def __init__(self, length: int) -> None:
        """Create an all-zero bitvector of ``length`` bits.

        Args:
            length: number of bits; must be positive.
        """
        if length <= 0:
            raise ParameterError("BitVector length must be positive")
        self.length = length
        self._bytes = bytearray((length + 7) // 8)
        self._ones = 0

    def get(self, index: int) -> int:
        """Return bit ``index`` (0 or 1)."""
        self._check_index(index)
        return (self._bytes[index >> 3] >> (index & 7)) & 1

    def set(self, index: int, value: int = 1) -> None:
        """Set bit ``index`` to ``value`` (0 or 1)."""
        self._check_index(index)
        if value not in (0, 1):
            raise ParameterError("bit value must be 0 or 1")
        byte_index = index >> 3
        mask = 1 << (index & 7)
        current = (self._bytes[byte_index] & mask) != 0
        if value and not current:
            self._bytes[byte_index] |= mask
            self._ones += 1
        elif not value and current:
            self._bytes[byte_index] &= ~mask & 0xFF
            self._ones -= 1

    def set_many(self, indices) -> None:
        """Set every bit named in ``indices`` (bulk form of :meth:`set`).

        The batch-ingestion paths (linear counting, Flajolet--Martin
        bitmaps, the small-F0 bitvector) reduce a whole chunk of items to
        bit positions at once; the bits are OR-scattered into the byte
        buffer in one vectorized pass and the ones count is recomputed
        with one popcount, so the Python-level work no longer scales with
        the number of touched bits.

        Args:
            indices: a NumPy array or any integer sequence of bit
                positions; the whole batch is range-validated up front,
                like :meth:`set` validates per position.
        """
        positions = np.asarray(indices, dtype=np.int64).reshape(-1)
        if positions.size == 0:
            return
        if int(positions.min()) < 0 or int(positions.max()) >= self.length:
            bad = int(positions.min() if positions.min() < 0 else positions.max())
            raise ParameterError(
                "bit index %d outside [0, %d)" % (bad, self.length)
            )
        masks = (1 << (positions & np.int64(7))).astype(np.uint8)
        grouped_or_scatter(self.byte_view(), positions >> np.int64(3), masks)
        self.recount()

    def byte_view(self):
        """A writable zero-copy ``uint8`` view of the storage.

        Bit ``i`` is bit ``i & 7`` of byte ``i >> 3``.  A kernel that sets
        bits through the view leaves :meth:`count_ones` stale until
        :meth:`recount`.
        """
        return np.frombuffer(self._bytes, dtype=np.uint8)

    def recount(self) -> None:
        """Recompute the ones count from the storage, with one popcount pass."""
        self._ones = int(np.unpackbits(self.byte_view()).sum())

    def to_numpy(self):
        """Return all bits as a ``uint8`` 0/1 ndarray in one bulk read.

        The bulk counterpart of :meth:`get`, decoded with a single
        ``np.unpackbits`` pass; the query-side batch paths use it to scan
        a bitmap without ``length`` Python calls.
        """
        return np.unpackbits(
            np.frombuffer(bytes(self._bytes), dtype=np.uint8),
            count=self.length,
            bitorder="little",
        )

    def clear(self) -> None:
        """Reset every bit to zero."""
        for i in range(len(self._bytes)):
            self._bytes[i] = 0
        self._ones = 0

    def count_ones(self) -> int:
        """Return the number of set bits (maintained incrementally, O(1))."""
        return self._ones

    def count_zeros(self) -> int:
        """Return the number of clear bits."""
        return self.length - self._ones

    def union_update(self, other: "BitVector") -> None:
        """OR another bitvector of the same length into this one.

        This is the merge operation for bitmap sketches (two linear-counting
        or small-F0 structures built with the same hash functions combine by
        bitwise OR).
        """
        if not isinstance(other, BitVector):
            raise ParameterError("union_update expects a BitVector")
        if other.length != self.length:
            raise ParameterError("cannot union BitVectors of different lengths")
        merged = np.frombuffer(bytes(self._bytes), dtype=np.uint8) | np.frombuffer(
            bytes(other._bytes), dtype=np.uint8
        )
        self._bytes = bytearray(merged.tobytes())
        self.recount()

    def iter_ones(self) -> Iterator[int]:
        """Yield the indices of the set bits in increasing order."""
        for index in range(self.length):
            if self.get(index):
                yield index

    def to_list(self) -> list:
        """Return the bits as a list of 0/1 integers (mainly for tests)."""
        return [self.get(i) for i in range(self.length)]

    @classmethod
    def from_buffer(cls, data, length: int) -> "BitVector":
        """Build a bitvector adopting a raw little-endian byte buffer.

        The inverse of reading ``_bytes``: ``data`` uses the same layout
        as the vector's own storage (bit ``i`` is bit ``i & 7`` of byte
        ``i >> 3``), and the ones count is recomputed with one popcount
        pass.  The keyed sketch store uses this to materialise one row of
        a bit-plane matrix as the :class:`BitVector` an independent
        bitmap sketch would hold.

        Args:
            data: bytes-like buffer of exactly ``ceil(length / 8)`` bytes;
                bits at positions >= ``length`` must be zero.
            length: number of bits; must be positive.
        """
        vector = cls(length)
        raw = bytes(data)
        if len(raw) != len(vector._bytes):
            raise ParameterError(
                "buffer holds %d bytes, expected %d for %d bits"
                % (len(raw), len(vector._bytes), length)
            )
        spare = len(raw) * 8 - length
        if spare and raw[-1] >> (8 - spare):
            raise ParameterError("buffer sets bits beyond the vector length")
        vector._bytes = bytearray(raw)
        vector.recount()
        return vector

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        """Build a bitvector from an iterable of 0/1 values."""
        values = list(bits)
        if not values:
            raise ParameterError("cannot build an empty BitVector")
        vector = cls(len(values))
        for index, value in enumerate(values):
            if value:
                vector.set(index, 1)
        return vector

    def space_bits(self) -> int:
        """Return the space cost: one bit per position."""
        return self.length

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.length:
            raise ParameterError(
                "bit index %d outside [0, %d)" % (index, self.length)
            )

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "BitVector(length=%d, ones=%d)" % (self.length, self._ones)
