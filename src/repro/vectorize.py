"""NumPy substrate and kernel-dispatch seam for the batch-ingestion pipeline.

Every estimator exposes ``update_batch(items)`` (see
:class:`repro.estimators.base.CardinalityEstimator`); the vectorized
overrides all reduce to the same handful of primitives, which this module
exposes:

* converting an arbitrary integer sequence into a validated ``uint64``
  key array (:func:`as_key_array`) and signed deltas into a validated
  turnstile array (:func:`as_delta_array`) — plain NumPy, no dispatch;
* the *hot kernels* — exact batched modular arithmetic for the
  Carter--Wegman families (:func:`mulmod`, :func:`affine_mod`,
  :func:`mod_range`, and the fused :func:`affine_mod_range` /
  :func:`kwise_mod_range` chains), the grouped scatter reductions
  (:func:`grouped_max_scatter`, :func:`grouped_or_scatter`), the
  vectorized de Bruijn :func:`lsb64_batch`, and each paper structure's
  whole per-key chain, hashes to counters: a KNW F0 structure's counter
  maximum (:func:`hashed_max_scatter`), and ``knw-l0``'s Lemma 8 bucket
  arrays (:func:`hashed_residue_scatter`) and Lemma 6 fingerprints
  (:func:`hashed_fingerprint_scatter`).

The hot kernels are thin dispatchers: each call routes to the active
backend in :mod:`repro.kernels` (``REPRO_KERNEL_BACKEND=numpy|compiled|
auto``, or :func:`repro.kernels.set_backend`).  The NumPy backend
(:mod:`repro.kernels.numpy_backend`) is the always-available reference;
the compiled backend fuses each chain into a single C pass.  Backends are
resolved lazily on the first kernel call, so importing this module never
triggers a compile.

All routines here are *exact* — batch ingestion must produce bit-identical
sketch state to the scalar loop (``tests/test_batch_equivalence.py``), and
every backend must produce bit-identical output to the NumPy reference on
every state word, so no primitive is allowed to trade correctness for
speed.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .exceptions import ParameterError
from . import kernels as _kernels

__all__ = [
    "np",
    "as_key_array",
    "as_delta_array",
    "residues_mod",
    "mulmod",
    "affine_mod",
    "mod_range",
    "affine_mod_range",
    "kwise_mod_range",
    "mulmod_arrays",
    "lsb64_batch",
    "group_slices",
    "grouped_max_scatter",
    "grouped_or_scatter",
    "hashed_max_scatter",
    "hashed_residue_scatter",
    "hashed_fingerprint_scatter",
]


def counter_dtype(peak: int, signed: bool = False):
    """The narrowest integer dtype holding every counter value up to ``peak``.

    Fixed-width counter arrays (registers, Figure 2/3 counters, store
    rows) keep one such lane per counter: a byte while ``peak`` fits one,
    then two.  The signed form also holds Figure 3's empty marker ``-1``.
    """
    for dtype in (np.int8, np.int16, np.int32) if signed else (np.uint8, np.uint16, np.uint32):
        if peak <= np.iinfo(dtype).max:
            return dtype
    return np.int64 if signed else np.uint64


# --------------------------------------------------------------------------
# Batch-input validation (plain NumPy, not backend-dispatched).
# --------------------------------------------------------------------------


def as_key_array(
    items: Union[Sequence[int], "np.ndarray"],
    universe_size: Optional[int] = None,
) -> "np.ndarray":
    """Convert a batch of item identifiers to a validated ``uint64`` array.

    This is the single entry point for batch-input validation: every
    ``update_batch`` override funnels its ``items`` through here, so dtype
    handling and range checking are uniform across estimators.

    Args:
        items: any integer sequence or ndarray.  Identifiers must be
            non-negative and, like the scalar API, fit the word-RAM model's
            64-bit words.
        universe_size: when given, every identifier must lie in
            ``[0, universe_size)`` — the same check the scalar ``update``
            performs per item, applied once to the whole batch *before* any
            state is mutated (batch validation is all-or-nothing).

    Returns:
        A ``uint64`` ndarray (zero-copy when ``items`` already is one).
        Inputs with identifiers beyond 64 bits — object-dtype arrays, or
        sequences of large Python ints for universes past ``2^64`` — are
        validated and returned as object arrays, which every
        ``hash_batch`` accepts (exact, slower).

    Raises:
        ParameterError: on negative or out-of-universe identifiers.
    """
    if isinstance(items, np.ndarray):
        if items.dtype == np.uint64:
            keys = items
        elif items.dtype == object:
            keys = items
        else:
            if items.dtype.kind not in ("i", "u"):
                raise ParameterError("batch items must be integers")
            if items.size and items.dtype.kind == "i" and int(items.min()) < 0:
                raise ParameterError("item identifiers must be non-negative")
            keys = items.astype(np.uint64)
    else:
        try:
            # Infer the dtype first so a float anywhere in the sequence is
            # *rejected*, not silently truncated by a uint64 cast, and so
            # negative Python ints stay signed instead of wrapping.
            inferred = np.asarray(items)
        except (TypeError, ValueError, OverflowError) as exc:
            if universe_size is not None and universe_size > (1 << 64):
                # Giant universes: keep exact Python ints in an object array.
                keys = np.empty(len(items), dtype=object)
                keys[:] = list(items)
            else:
                raise ParameterError(
                    "batch items must be non-negative integers"
                ) from exc
        else:
            if inferred.size == 0:
                # Empty sequences infer as float64; they are trivially valid.
                keys = inferred.astype(np.uint64)
            elif inferred.dtype == object:
                keys = inferred
            elif inferred.dtype.kind == "i":
                if int(inferred.min()) < 0:
                    raise ParameterError("item identifiers must be non-negative")
                keys = inferred.astype(np.uint64)
            elif inferred.dtype.kind in ("u", "b"):
                keys = inferred.astype(np.uint64)
            elif inferred.dtype.kind == "f" and all(isinstance(v, int) for v in items):
                # NumPy promotes an int64-range int beside a uint64-range
                # one (1 and 2^63) to float; such ids are still words.
                if min(items) < 0:
                    raise ParameterError("item identifiers must be non-negative")
                keys = np.asarray(items, dtype=np.uint64)
            else:
                raise ParameterError("batch items must be integers")
    if keys.ndim != 1:
        keys = keys.reshape(-1)
    if keys.dtype == object and keys.size:
        for key in keys.tolist():
            if not isinstance(key, int) or key < 0:
                raise ParameterError("batch items must be non-negative integers")
    if universe_size is not None and keys.size:
        top = int(keys.max())
        if top >= universe_size:
            raise ParameterError(
                "item %d outside universe [0, %d)" % (top, universe_size)
            )
    return keys


def as_delta_array(
    deltas: Union[Sequence[int], "np.ndarray"],
    expected_length: Optional[int] = None,
) -> "np.ndarray":
    """Convert a batch of signed turnstile deltas to a validated array.

    The turnstile counterpart of :func:`as_key_array`: every
    ``update_batch(items, deltas)`` override funnels its ``deltas``
    through here so dtype handling and the length check are uniform.

    Args:
        deltas: any integer sequence or ndarray; values may be negative.
        expected_length: when given, the batch must have exactly this many
            deltas (one per item) — the same check the base-class loop
            performs, applied before any state is mutated.

    Returns:
        An ``int64`` ndarray, or an object array of exact Python ints when
        some delta does not fit a signed 64-bit word.

    Raises:
        UpdateError: on a length mismatch.
        ParameterError: on non-integer deltas.
    """
    from .exceptions import UpdateError

    if not isinstance(deltas, np.ndarray):
        # Let NumPy infer the dtype first: a float anywhere in the
        # sequence must *raise*, not silently truncate (an int64 cast
        # would turn delta 2.7 into 2 and break batch/scalar
        # equivalence); oversized Python ints infer as object.  NumPy
        # promotes an int64-range int beside a uint64-range one (1 and
        # 2^63) to float, so such sequences are kept exact as objects.
        sequence = deltas
        deltas = np.asarray(sequence)
        if deltas.dtype.kind == "f" and all(isinstance(v, int) for v in sequence):
            deltas = np.asarray(sequence, dtype=object)
    if deltas.size == 0:
        values = deltas.reshape(-1).astype(np.int64)
    elif deltas.dtype == np.int64 or deltas.dtype == object:
        values = deltas
    elif deltas.dtype.kind in ("i", "b"):
        values = deltas.astype(np.int64)
    elif deltas.dtype.kind == "u":
        if deltas.size and int(deltas.max()) > (1 << 63) - 1:
            values = _to_object_array(deltas)
        else:
            values = deltas.astype(np.int64)
    else:
        raise ParameterError("batch deltas must be integers")
    if values.dtype == object:
        for value in values.tolist():
            if not isinstance(value, int):
                raise ParameterError("batch deltas must be integers")
    if values.ndim != 1:
        values = values.reshape(-1)
    if expected_length is not None and len(values) != expected_length:
        raise UpdateError("update_batch requires as many deltas as items")
    return values


def _to_object_array(values: "np.ndarray") -> "np.ndarray":
    """Convert a numeric ndarray to an object array of Python ints."""
    if values.dtype == object:
        return values
    out = np.empty(values.shape, dtype=object)
    out[:] = [int(v) for v in values.tolist()]
    return out


def residues_mod(deltas: "np.ndarray", prime: int) -> "np.ndarray":
    """Return ``deltas % prime`` as non-negative residues, exactly.

    A NumPy helper (not a dispatched kernel); see
    :func:`repro.kernels.numpy_backend.residues_mod`.
    """
    from .kernels import numpy_backend

    return numpy_backend.residues_mod(deltas, prime)


# --------------------------------------------------------------------------
# Hot kernels: thin dispatchers into the active repro.kernels backend.
#
# Contract (enforced by tests/test_kernels.py and the load-time self-test
# of the compiled backend): every backend returns bit-identical values
# *and dtypes* to repro.kernels.numpy_backend, which holds the reference
# implementations and the full per-kernel documentation.
# --------------------------------------------------------------------------


def mulmod(
    multiplier: int,
    keys: "np.ndarray",
    prime: int,
    key_bound: int,
) -> "np.ndarray":
    """Return ``(multiplier * keys) % prime`` exactly, elementwise.

    Args:
        multiplier: a scalar in ``[0, prime)``.
        keys: ``uint64`` (or object) array with values in ``[0, key_bound)``.
        prime: the field modulus.
        key_bound: exclusive upper bound on the key values; selects the
            fastest exact strategy.

    Returns:
        A ``uint64`` array when the arithmetic fits in words, otherwise an
        object array of Python integers.
    """
    return _kernels.active().mulmod(multiplier, keys, prime, key_bound)


def affine_mod(
    multiplier: int,
    offset: int,
    keys: "np.ndarray",
    prime: int,
    key_bound: int,
) -> "np.ndarray":
    """Return ``(multiplier * keys + offset) % prime`` exactly, elementwise."""
    return _kernels.active().affine_mod(multiplier, offset, keys, prime, key_bound)


def mod_range(values: "np.ndarray", range_size: int) -> "np.ndarray":
    """Reduce hash values modulo an output range, cheaply where possible.

    Power-of-two ranges become a mask (the common case for the estimators'
    bin counts and the cubed spreading domains); ranges at least ``2^64``
    leave 64-bit values untouched; everything else pays one division pass.
    """
    return _kernels.active().mod_range(values, range_size)


def affine_mod_range(
    multiplier: int,
    offset: int,
    keys: "np.ndarray",
    prime: int,
    key_bound: int,
    range_size: int,
) -> "np.ndarray":
    """The full Carter--Wegman chain ``((a*k + b) % p) % v``, elementwise.

    The whole :meth:`repro.hashing.universal.PairwiseHash.hash_batch_validated`
    evaluation as one seam kernel, so compiled backends fuse the hash →
    range chain into a single pass instead of materializing the field
    values in between.
    """
    return _kernels.active().affine_mod_range(
        multiplier, offset, keys, prime, key_bound, range_size
    )


def kwise_mod_range(
    coefficients,
    keys: "np.ndarray",
    prime: int,
    key_bound: int,
    range_size: int,
) -> "np.ndarray":
    """Evaluate a Carter--Wegman polynomial on a whole key array, reduced.

    The whole :meth:`repro.hashing.kwise.KWiseHash.hash_batch_validated`
    chain — Horner's rule over ``k`` coefficients (low degree first, all in
    ``[0, prime)``) followed by one range reduction — as one seam kernel,
    so compiled backends fuse all ``k`` field operations into a single
    pass per key.
    """
    return _kernels.active().kwise_mod_range(
        coefficients, keys, prime, key_bound, range_size
    )


def mulmod_arrays(
    left: "np.ndarray",
    right: "np.ndarray",
    prime: int,
    right_bound: int,
) -> "np.ndarray":
    """Return ``(left * right) % prime`` exactly for two arrays.

    ``left`` may hold any values in ``[0, prime)``; ``right`` values must lie
    in ``[0, right_bound)``.  Used by the Horner evaluation of the k-wise
    polynomial families, where the accumulator is a full field element but
    the evaluation point is bounded by the hash's key domain.
    """
    return _kernels.active().mulmod_arrays(left, right, prime, right_bound)


def group_slices(indices: "np.ndarray"):
    """Sort a batch by group index and return the per-group structure.

    A NumPy helper (not a dispatched kernel): one stable argsort brings
    equal indices together, and the run boundaries identify each touched
    group exactly once.  See
    :func:`repro.kernels.numpy_backend.group_slices`.
    """
    from .kernels import numpy_backend

    return numpy_backend.group_slices(indices)


def grouped_max_scatter(
    target: "np.ndarray", indices: "np.ndarray", values: "np.ndarray"
) -> None:
    """Apply ``target[i] = max(target[i], v)`` for a whole batch, grouped.

    The bulk register/counter reduction behind ``update_grouped``.
    Identical to applying the pairs one at a time in any order — maximum
    is commutative, associative, and idempotent.

    Args:
        target: 1-D integer ndarray, mutated in place.
        indices: positions into ``target`` (already range-validated by
            the caller's hashing); duplicates reduce together.
        values: candidate values; must fit ``target``'s dtype (callers
            cap them at the counter width, as the scalar paths do).
    """
    return _kernels.active().grouped_max_scatter(target, indices, values)


def grouped_or_scatter(
    target: "np.ndarray", indices: "np.ndarray", masks: "np.ndarray"
) -> None:
    """Apply ``target[i] |= mask`` for a whole batch, grouped.

    The bitmap counterpart of :func:`grouped_max_scatter` (OR is likewise
    commutative, associative, and idempotent), used by the bit-plane
    sketch arrays to set many bits across many bitmaps in one pass.

    Args:
        target: 1-D ``uint8`` byte buffer, mutated in place.
        indices: byte positions into ``target``; duplicates OR together.
        masks: per-entry ``uint8`` bit masks.
    """
    return _kernels.active().grouped_or_scatter(target, indices, masks)


def hashed_max_scatter(
    target: "np.ndarray",
    keys: "np.ndarray",
    h1,
    h2,
    h3,
    offset: int,
    floor: int,
    level_limit: int,
    bits: "Optional[np.ndarray]" = None,
) -> None:
    """One KNW structure's update for a whole batch, in one kernel call.

    With ``level = lsb(h1(x))`` (``level_limit`` when ``h1(x) = 0``) and
    ``bin = h3(h2(x))``, apply ``target[bin mod m] = max(target[bin mod m],
    max(level + offset, floor))`` for every key, and set bit ``bin`` of
    ``bits`` when given: Figure 3's counters with the small-F0 bits
    (``offset = -b``, ``floor = -1``), or one copy of Figure 2's
    (``offset = +1``).  Identical to the hashes' batch forms followed by
    the grouped scatters, which is the reference; a compiled backend
    evaluates the chain per key with no intermediate arrays.

    Args:
        target: 1-D integer ndarray, mutated in place.
        keys: validated keys.
        h1, h2, h3: the level hash, the spreading hash and the bin hash.
        offset, floor: as above.
        level_limit: ``lsb(0)``, the paper's ``log n``.
        bits: optional ``uint8`` buffer of at least ``h3``'s range in bits.
    """
    return _kernels.active().hashed_max_scatter(
        target, keys, h1, h2, h3, offset, floor, level_limit, bits
    )


def hashed_residue_scatter(
    counters: "np.ndarray",
    counts: "np.ndarray",
    keys: "np.ndarray",
    deltas: "np.ndarray",
    splitter,
    hashes,
    primes,
    level_limit: int,
) -> None:
    """Lemma 8 bucket arrays' update for a whole turnstile call, in one kernel call.

    ``counters`` (shape ``(rows, trials, buckets)``) holds ``rows``
    structures sharing the trial ``hashes``, row ``r`` counting modulo
    ``primes[r]``.  An update ``(x, d)`` lands in row
    ``min(lsb(splitter(x)), rows - 1)`` (``lsb(0) = level_limit``; row 0
    without a splitter) and adds ``d`` to bucket ``hashes[t](x)`` of each
    trial ``t``: ``SmallL0Recovery`` is one row, ``RoughL0Estimator`` one
    per level.  ``counts`` (``int64``, one per (row, trial)) is kept equal
    to each bucket array's number of nonzero counters.  Identical to the
    scalar loop, since modular addition commutes; a compiled backend runs
    each update's chain in one pass.

    Args:
        counters: residue counters, mutated in place.
        counts: ``int64`` nonzero counts, ``rows * trials`` of them, which
            must be the counters' on entry; updated in place.
        keys: validated keys.
        deltas: validated deltas, one per key.
        splitter: the level hash, or ``None``.
        hashes: one pairwise hash per trial.
        primes: one modulus per row.
        level_limit: ``lsb(0)``, the paper's ``log n``.
    """
    return _kernels.active().hashed_residue_scatter(
        counters, counts, keys, deltas, splitter, hashes, primes, level_limit
    )


def hashed_fingerprint_scatter(
    keys: "np.ndarray",
    deltas: "np.ndarray",
    h1,
    h2,
    h3,
    level_limit: int,
    structures,
) -> None:
    """Lemma 6 fingerprint structures' update for a whole turnstile call.

    The structures share ``h1``, ``h2`` and ``h3``, hashed once per key.
    With ``s = h2(x)``, an update ``(x, d)`` adds ``d * weights[h4(s mod
    U4)]`` modulo ``prime`` into cell ``(min(lsb(h1(x)), rows - 1), h3(s)
    mod columns)`` of each structure, for ``U4 = h4.universe_size`` and
    ``lsb(0) = level_limit`` (a one-row structure takes every update in
    row 0): KNW's subsampled matrix and its unsampled ``2K`` row.  Each
    structure's ``counts`` (``int64``, one per row) is kept equal to its
    rows' numbers of nonzero cells.  Identical to the scalar loop; a
    compiled backend runs each update's chain in one pass, and hands a
    structure it cannot update exactly to the reference alone.

    Args:
        keys: validated keys.
        deltas: validated deltas, one per key.
        h1, h2, h3: the level, spreading and column hashes.
        level_limit: ``lsb(0)``, the paper's ``log n``.
        structures: ``(cells, counts, h4, weights, prime)`` tuples: the
            ``(rows, columns)`` counters over ``F_prime`` (mutated in
            place), their ``int64`` nonzero counts (which must be the
            cells' on entry; updated in place), the weight hash, the
            weight vector ``u`` (``uint64`` below ``2^63``, object above)
            and the modulus ``p``.
    """
    return _kernels.active().hashed_fingerprint_scatter(
        keys, deltas, h1, h2, h3, level_limit, structures
    )


def lsb64_batch(values: "np.ndarray", zero_value: int) -> "np.ndarray":
    """Vectorized least-significant-set-bit of 64-bit words.

    The de Bruijn multiplication of :func:`repro.hashing.bitops.lsb64`
    applied to a whole ``uint64`` array; entries equal to zero map to
    ``zero_value`` (the paper's ``lsb(0) = log n`` convention).

    Args:
        values: ``uint64`` array.
        zero_value: result assigned to zero entries.

    Returns:
        An ``int64`` array of bit indices (or ``zero_value``).
    """
    return _kernels.active().lsb64_batch(values, zero_value)
