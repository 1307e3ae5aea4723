"""Word-level bit operations used throughout the KNW algorithms.

The paper relies on two machine-word primitives (its Theorem 5, citing
Brodnik and Fredman--Willard): computing the *least* and *most* significant
set bit of a word in constant time.  Python integers are arbitrary
precision, so "constant time" is a modelling statement rather than a
hardware guarantee here; this module nevertheless implements the classic
word-RAM techniques (de Bruijn multiplication for ``lsb`` and a
byte-lookup-table ladder for ``msb``) so that the *algorithmic structure*
of the paper's constant-time claims is preserved, and so the operation
count per stream update does not depend on ``n`` or ``eps``.

Conventions (matching Section 1.2 of the paper):

* ``lsb(x)`` is the 0-based index of the least significant set bit of a
  non-negative integer ``x``.  The paper defines ``lsb(0) = log(n)``; since
  this module is universe-agnostic the caller supplies that sentinel via
  the ``zero_value`` argument (the estimators pass ``log2(n)``).
* ``msb(x)`` is the 0-based index of the most significant set bit, i.e.
  ``floor(log2(x))`` for ``x > 0``.
"""

from __future__ import annotations

from ..exceptions import ParameterError
from ..vectorize import lsb64_batch, np

__all__ = [
    "WORD_SIZE",
    "lsb",
    "msb",
    "lsb64",
    "msb64",
    "lsb_batch",
    "rho_batch",
    "ceil_log2",
    "floor_log2",
    "is_power_of_two",
    "reverse_bits",
    "popcount",
]

#: Machine-word size assumed by the word-RAM model of the paper.  The paper
#: assumes a word of Omega(log(n m M)) bits; 64 covers every configuration
#: this library instantiates.
WORD_SIZE = 64

_WORD_MASK = (1 << WORD_SIZE) - 1

# --------------------------------------------------------------------------
# de Bruijn sequence based least-significant-bit computation (Brodnik-style).
# --------------------------------------------------------------------------
# A 64-bit de Bruijn sequence B(2, 6): every 6-bit window of the cyclic
# sequence is distinct, so ``(x & -x) * _DEBRUIJN64 >> 58`` indexes uniquely
# into a 64-entry table keyed by the position of the isolated low bit.
_DEBRUIJN64 = 0x03F79D71B4CB0A89

_DEBRUIJN64_TABLE = [0] * 64
for _i in range(64):
    _DEBRUIJN64_TABLE[((1 << _i) * _DEBRUIJN64 & _WORD_MASK) >> 58] = _i

# --------------------------------------------------------------------------
# Byte-lookup ladder for most-significant-bit computation.
# --------------------------------------------------------------------------
_MSB_BYTE_TABLE = [0] * 256
for _i in range(1, 256):
    _MSB_BYTE_TABLE[_i] = 1 + _MSB_BYTE_TABLE[_i >> 1]
# _MSB_BYTE_TABLE[b] is now 1 + floor(log2(b)) for b >= 1, 0 for b == 0.


def lsb64(x: int) -> int:
    """Return the index of the least significant set bit of a 64-bit word.

    Implements the de Bruijn multiplication technique in the spirit of
    Brodnik's constant-time lsb computation (paper Theorem 5).

    Args:
        x: an integer with ``0 < x < 2**64``.

    Raises:
        ParameterError: if ``x`` is zero or does not fit in 64 bits.
    """
    if x <= 0:
        raise ParameterError("lsb64 requires a positive integer")
    if x > _WORD_MASK:
        raise ParameterError("lsb64 operand does not fit in a 64-bit word")
    isolated = x & -x
    return _DEBRUIJN64_TABLE[(isolated * _DEBRUIJN64 & _WORD_MASK) >> 58]


def msb64(x: int) -> int:
    """Return the index of the most significant set bit of a 64-bit word.

    Uses a constant number of byte-table lookups (the Fredman--Willard
    style word-RAM technique referenced by the paper's Theorem 5).

    Args:
        x: an integer with ``0 < x < 2**64``.

    Raises:
        ParameterError: if ``x`` is zero or does not fit in 64 bits.
    """
    if x <= 0:
        raise ParameterError("msb64 requires a positive integer")
    if x > _WORD_MASK:
        raise ParameterError("msb64 operand does not fit in a 64-bit word")
    result = 0
    shifted = x
    # A constant (8) number of iterations: examine one byte at a time from
    # the top.  Each iteration is O(1); the loop length never depends on x.
    for byte_index in range(7, -1, -1):
        byte = (shifted >> (8 * byte_index)) & 0xFF
        if byte:
            result = 8 * byte_index + _MSB_BYTE_TABLE[byte] - 1
            break
    return result


def lsb(x: int, zero_value: int | None = None) -> int:
    """Return the 0-based index of the least significant set bit of ``x``.

    This is the general-width version used by the estimators: item
    identifiers hashed into ``[0, n)`` always fit in a word for the
    configurations this library supports, but the function remains correct
    for arbitrarily large Python integers.

    Args:
        x: a non-negative integer.
        zero_value: value to return when ``x == 0``.  The paper defines
            ``lsb(0) = log(n)``; estimators pass their ``log2(n)``.  When
            ``None`` (the default) a zero input raises ``ParameterError``.

    Returns:
        The index of the lowest set bit, or ``zero_value`` for ``x == 0``.
    """
    if x < 0:
        raise ParameterError("lsb is defined for non-negative integers only")
    if x == 0:
        if zero_value is None:
            raise ParameterError("lsb(0) requires an explicit zero_value")
        return zero_value
    if x <= _WORD_MASK:
        return lsb64(x)
    return (x & -x).bit_length() - 1


def msb(x: int) -> int:
    """Return the 0-based index of the most significant set bit of ``x``.

    Equivalent to ``floor(log2(x))`` for positive ``x``.
    """
    if x <= 0:
        raise ParameterError("msb requires a positive integer")
    if x <= _WORD_MASK:
        return msb64(x)
    return x.bit_length() - 1


def lsb_batch(values, zero_value: int):
    """Vectorized :func:`lsb` over a ``uint64`` NumPy array.

    This is the batch-ingestion counterpart of the per-item ``lsb``: one
    de Bruijn multiplication and one table gather for the whole array,
    instead of one Python call per item.  Inputs must fit in 64-bit words
    (every hash range the estimators subsample on does).

    Args:
        values: ``uint64`` ndarray of hash values (an object-dtype array
            of Python ints — hashes over universes beyond ``2^61`` — is
            handled exactly via the scalar ``lsb``).
        zero_value: value assigned to zero entries (the paper's
            ``lsb(0) = log n`` sentinel; estimators pass ``log2(n)``).

    Returns:
        An ``int64`` ndarray of bit indices.
    """
    if values.dtype == object:
        return np.array(
            [lsb(int(value), zero_value=zero_value) for value in values.tolist()],
            dtype=np.int64,
        )
    return lsb64_batch(values, zero_value)


def rho_batch(values, zero_value: int):
    """Vectorized ``rho`` (1 + lsb) used by the register-based baselines.

    LogLog/HyperLogLog record ``rho = lsb + 1`` per item; providing the
    fused form keeps their ``update_batch`` overrides one-liners.
    """
    return lsb_batch(values, zero_value) + np.int64(1)


def floor_log2(x: int) -> int:
    """Return ``floor(log2(x))`` for a positive integer ``x``."""
    return msb(x)


def ceil_log2(x: int) -> int:
    """Return ``ceil(log2(x))`` for a positive integer ``x``.

    The paper's update step needs ``ceil(log(C + 2))`` to account for the
    bit-length of packed counters; that is a most-significant-bit
    computation, which is why this helper lives beside :func:`msb`.
    """
    if x <= 0:
        raise ParameterError("ceil_log2 requires a positive integer")
    below = msb(x)
    return below if x == (1 << below) else below + 1


def is_power_of_two(x: int) -> bool:
    """Return True when ``x`` is a positive power of two."""
    return x > 0 and (x & (x - 1)) == 0


def reverse_bits(x: int, width: int) -> int:
    """Return ``x`` with its lowest ``width`` bits reversed.

    Used by workload generators to produce streams whose identifiers have
    adversarial low-order-bit structure (stressing the ``lsb`` subsampling).
    """
    if x < 0:
        raise ParameterError("reverse_bits requires a non-negative integer")
    if width <= 0:
        raise ParameterError("reverse_bits requires a positive width")
    if x >= (1 << width):
        raise ParameterError("reverse_bits operand does not fit in width bits")
    result = 0
    for _ in range(width):
        result = (result << 1) | (x & 1)
        x >>= 1
    return result


def popcount(x: int) -> int:
    """Return the number of set bits in ``x`` (population count)."""
    if x < 0:
        raise ParameterError("popcount requires a non-negative integer")
    return bin(x).count("1")
