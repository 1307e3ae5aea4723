"""The NumPy reference kernel backend.

This module holds the exact array implementations of every kernel behind
the :mod:`repro.vectorize` seam — the code that bought the original
10--100x over scalar Python (PRs 1/3/4).  It is always available whenever
numpy is installed, it defines the bit-identical contract every other
backend must match, and it is what the compiled backend delegates to for
inputs outside its word-sized domain (object dtypes, moduli at or beyond
``2^63``).

The module itself *is* the backend object: :func:`repro.kernels.load_backend`
returns it directly, so the kernel functions are plain module-level
functions with no dispatch indirection of their own.
"""

from __future__ import annotations

import numpy as np

#: Registry name under which this module is exposed as a backend.
name = "numpy"

_MASK64 = (1 << 64) - 1
_MERSENNE_EXPONENTS = {(1 << 31) - 1: 31, (1 << 61) - 1: 61}

_DEBRUIJN64 = np.uint64(0x03F79D71B4CB0A89)
_DEBRUIJN64_TABLE = np.zeros(64, dtype=np.int64)
for _i in range(64):
    _DEBRUIJN64_TABLE[((1 << _i) * 0x03F79D71B4CB0A89 & _MASK64) >> 58] = _i


def describe() -> dict:
    """Structured diagnostics for :func:`repro.kernels.kernel_backend_info`."""
    return {"name": name, "numpy": np.__version__}


# --------------------------------------------------------------------------
# Shared helpers.
# --------------------------------------------------------------------------


def _reduce_in_place(values: "np.ndarray", prime: int, rounds: int = 1) -> "np.ndarray":
    """Conditionally subtract ``prime`` from ``values`` (owned buffer), in place.

    Branch-free: for ``values < 2p`` (with ``p < 2^63``), ``values - p``
    wraps past ``2^63`` exactly when ``values < p``, so the elementwise
    minimum of the two is the reduced representative.  This outperforms a
    masked subtract by a wide margin on large arrays.
    """
    p = np.uint64(prime)
    for _ in range(rounds):
        np.minimum(values, values - p, out=values)
    return values


def _mersenne_fold(
    values: "np.ndarray", exponent: int, prime: int, bound_bits: int = 64
) -> "np.ndarray":
    """Reduce ``values < 2^bound_bits`` modulo the Mersenne prime ``2^exponent - 1``.

    Uses ``2^exponent = 1 (mod p)``: repeatedly add the high part to the low
    part (each round shrinks the bound to ``max(exponent, bound - exponent)
    + 1`` bits), then subtract ``p`` the provably required number of times —
    division-free, which is what makes the Mersenne moduli the batch fast
    path.  The caller must own ``values`` (every call site passes a fresh
    product array); it may be reduced in place.
    """
    if bound_bits < exponent:
        return values  # already strictly below p
    if bound_bits == exponent:
        return _reduce_in_place(values, prime)  # at most the value p itself
    mask = np.uint64(prime)
    e = np.uint64(exponent)
    # After each fold, folded <= (2^e - 1) + (2^h - 1) where h is the bit
    # width of the (pre-fold) high part; refold while the high part alone
    # can exceed p, then subtract p once (twice in the h == e edge case,
    # where folded can reach exactly 2p).
    high_bits = bound_bits - exponent
    folded = (values & mask) + (values >> e)
    while high_bits > exponent:
        high_bits = max(exponent, high_bits) + 1 - exponent
        folded = (folded & mask) + (folded >> e)
    return _reduce_in_place(folded, prime, rounds=2 if high_bits >= exponent else 1)


def _mersenne_rotate(values: "np.ndarray", shift: int, exponent: int, prime: int) -> "np.ndarray":
    """Return ``values * 2^shift mod (2^exponent - 1)`` for ``values < 2^exponent``.

    Multiplying by a power of two modulo a Mersenne prime is a bit rotation
    within the ``exponent``-bit word; both halves stay below ``2^exponent``
    so the computation never overflows ``uint64`` and one conditional
    subtract restores ``[0, p)``.  ``values`` must be caller-owned.
    """
    shift %= exponent
    if shift == 0:
        return _reduce_in_place(values, prime)
    rotated = (values & np.uint64((1 << (exponent - shift)) - 1)) << np.uint64(shift)
    rotated += values >> np.uint64(exponent - shift)
    return _reduce_in_place(rotated, prime)


def _to_object_array(values: "np.ndarray") -> "np.ndarray":
    """Convert a numeric ndarray to an object array of Python ints."""
    if values.dtype == object:
        return values
    out = np.empty(values.shape, dtype=object)
    out[:] = [int(v) for v in values.tolist()]
    return out


# --------------------------------------------------------------------------
# Exact batched modular arithmetic.
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
    if keys.dtype == object:
        return (keys * multiplier) % prime
    key_bits = max(key_bound - 1, 1).bit_length()
    exponent = _MERSENNE_EXPONENTS.get(prime)
    product_bits = (multiplier * max(key_bound - 1, 1)).bit_length()
    # Direct path: the full product fits in an unsigned 64-bit word.
    if product_bits <= 64:
        product = np.uint64(multiplier) * keys
        if prime >= (1 << 64):
            return product  # already below the modulus
        if exponent is not None:
            # Division-free reduction for the Mersenne moduli.
            return _mersenne_fold(product, exponent, prime, bound_bits=product_bits)
        return product % np.uint64(prime)
    if exponent is not None and key_bits <= 64 - (exponent // 2 + 1):
        # Split the multiplier into limbs small enough that every partial
        # product fits in 64 bits, then recombine with Mersenne rotations:
        # Horner over limbs, entirely division-free.
        limb_bits = 64 - key_bits
        acc = None
        shift = ((exponent + limb_bits - 1) // limb_bits - 1) * limb_bits
        while shift >= 0:
            limb = (multiplier >> shift) & ((1 << limb_bits) - 1)
            part_bits = (limb * max(key_bound - 1, 1)).bit_length()
            part = _mersenne_fold(
                np.uint64(limb) * keys, exponent, prime, bound_bits=part_bits
            )
            if acc is None:
                acc = part
            else:
                acc = _mersenne_rotate(acc, limb_bits, exponent, prime)
                acc += part
                _reduce_in_place(acc, prime)
            shift -= limb_bits
        return acc
    if prime < (1 << 62) and key_bits <= 32:
        # Generic split: high/low halves of the multiplier, with the high
        # product shifted back into range by repeated exact doubling.
        s = 31
        high = (np.uint64(multiplier >> s) * keys) % np.uint64(prime)
        for _ in range(s):
            high = high + high
            _reduce_in_place(high, prime)
        low = (np.uint64(multiplier & ((1 << s) - 1)) * keys) % np.uint64(prime)
        high += low
        return _reduce_in_place(high, prime)
    # Fallback: exact Python-int arithmetic, still array-at-a-time.
    return (_to_object_array(keys) * multiplier) % prime


def affine_mod(
    multiplier: int,
    offset: int,
    keys: "np.ndarray",
    prime: int,
    key_bound: int,
) -> "np.ndarray":
    """Return ``(multiplier * keys + offset) % prime`` exactly, elementwise."""
    product = mulmod(multiplier, keys, prime, key_bound)
    if product.dtype == object or prime >= (1 << 63):
        return (_to_object_array(product) + offset) % prime
    # product < prime < 2^63 and offset < prime, so the sum fits in uint64.
    product += np.uint64(offset)
    return _reduce_in_place(product, prime)


def mod_range(values: "np.ndarray", range_size: int) -> "np.ndarray":
    """Reduce hash values modulo an output range, cheaply where possible.

    Power-of-two ranges become a mask (the common case for the estimators'
    bin counts and the cubed spreading domains); ranges at least ``2^64``
    leave 64-bit values untouched; everything else pays one division pass.
    """
    if values.dtype == object:
        return values % range_size
    if range_size >= (1 << 64):
        return values
    if range_size & (range_size - 1) == 0:
        return values & np.uint64(range_size - 1)
    return values % np.uint64(range_size)


def affine_mod_range(
    multiplier: int,
    offset: int,
    keys: "np.ndarray",
    prime: int,
    key_bound: int,
    range_size: int,
) -> "np.ndarray":
    """The full Carter--Wegman chain ``((a*k + b) % p) % v``, elementwise.

    The reference implementation is the plain composition of
    :func:`affine_mod` and :func:`mod_range`; compiled backends fuse the
    chain into one pass.  This is the entire
    :meth:`repro.hashing.universal.PairwiseHash.hash_batch_validated`
    evaluation, exposed as a seam kernel so the h1/h2/h4 hash passes fuse.
    """
    return mod_range(affine_mod(multiplier, offset, keys, prime, key_bound), range_size)


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
    if left.dtype == object or right.dtype == object:
        return (_to_object_array(left) * _to_object_array(right)) % prime
    right_bits = max(right_bound - 1, 1).bit_length()
    exponent = _MERSENNE_EXPONENTS.get(prime)
    if prime * max(right_bound - 1, 1) < (1 << 64):
        product = left * right
        if exponent is not None:
            bound = ((prime - 1) * max(right_bound - 1, 1)).bit_length()
            return _mersenne_fold(product, exponent, prime, bound_bits=bound)
        return product % np.uint64(prime)
    if exponent is not None and right_bits <= 63 - exponent // 2:
        # Limb-split the *left* array; each limb-by-right product fits.
        limb_bits = 64 - right_bits
        acc = None
        shift = ((exponent + limb_bits - 1) // limb_bits - 1) * limb_bits
        while shift >= 0:
            limb = (left >> np.uint64(shift)) & np.uint64((1 << limb_bits) - 1)
            part = _mersenne_fold(
                limb * right, exponent, prime, bound_bits=limb_bits + right_bits
            )
            if acc is None:
                acc = part
            else:
                acc = _mersenne_rotate(acc, limb_bits, exponent, prime)
                acc += part
                _reduce_in_place(acc, prime)
            shift -= limb_bits
        return acc
    if prime < (1 << 52):
        # Barrett-style reduction with a float64 quotient estimate: the
        # quotient is off by at most 2, so adding 2p before the final exact
        # remainder keeps everything non-negative and inside uint64.
        quotient = np.floor(
            left.astype(np.float64) * right.astype(np.float64) / float(prime)
        ).astype(np.uint64)
        residue = left * right - quotient * np.uint64(prime)  # exact mod 2^64
        residue = residue + np.uint64(2 * prime)
        return residue % np.uint64(prime)
    return (_to_object_array(left) * _to_object_array(right)) % prime


def kwise_mod_range(
    coefficients,
    keys: "np.ndarray",
    prime: int,
    key_bound: int,
    range_size: int,
) -> "np.ndarray":
    """Evaluate a Carter--Wegman polynomial on a whole key array, reduced.

    The full :meth:`repro.hashing.kwise.KWiseHash.hash_batch_validated`
    chain — Horner's rule over ``k`` coefficients (low degree first, all in
    ``[0, prime)``) followed by one range reduction — exposed as a seam
    kernel so compiled backends can fuse all ``k`` field operations into a
    single pass per key.  The reference implementation below is the PR-1
    word-sized Horner loop, bit-identical to the scalar evaluation.

    Args:
        coefficients: the polynomial's ``k >= 1`` coefficients.
        keys: validated key array with values in ``[0, key_bound)``.
        prime: the field modulus.
        key_bound: exclusive upper bound on the key values.
        range_size: the output range ``v`` of the hash.
    """
    p = prime
    use_words = p < (1 << 63) and keys.dtype != object
    if use_words:
        acc = np.full(keys.shape, coefficients[-1], dtype=np.uint64)
    else:
        keys = keys.astype(object)
        acc = np.full(keys.shape, coefficients[-1], dtype=object)
    for coefficient in reversed(coefficients[:-1]):
        acc = mulmod_arrays(acc, keys, p, key_bound)
        if acc.dtype == object:
            acc = (acc + coefficient) % p
        else:
            acc = acc + np.uint64(coefficient)
            np.subtract(acc, np.uint64(p), out=acc, where=acc >= np.uint64(p))
    return mod_range(acc, range_size)


# --------------------------------------------------------------------------
# Grouped scatter reductions (the keyed sketch-store / turnstile core).
# --------------------------------------------------------------------------


def grouped_residue_sums(
    target: "np.ndarray",
    indices: "np.ndarray",
    residues: "np.ndarray",
    prime: int,
) -> None:
    """Add each residue into ``target[index]`` modulo ``prime``, in place.

    The counter scatter of the turnstile batch paths: every entry of
    ``target`` and every residue lies in ``[0, prime)``, and the result
    equals applying ``target[i] = (target[i] + r) % prime`` one update at
    a time in any order, since modular addition is commutative and
    associative.

    The batch is sorted by index (:func:`group_slices`) and each run is
    summed once.  Word targets (``uint64``, ``prime < 2^63``) sum the low
    and high 32-bit halves of the residues separately, which cannot wrap
    for batches below ``2^32`` updates, and fold the high sum times
    ``2^32`` back in by 32 modular doublings, each below ``2^64``.  Object
    targets and residues take exact Python-int arithmetic.

    Args:
        target: 1-D counter array, mutated in place.
        indices: ``int64`` positions into ``target``; duplicates sum.
        residues: per-update contributions in ``[0, prime)``.
        prime: the counters' modulus.
    """
    order, starts, touched = group_slices(indices)
    if len(touched) == 0:
        return
    ordered = residues[order]
    if target.dtype == object or ordered.dtype == object or prime >= (1 << 63):
        totals = np.add.reduceat(ordered.astype(object), starts)
        target[touched] = (target[touched].astype(object) + totals) % prime
        return
    ordered = ordered.astype(np.uint64, copy=False)
    modulus = np.uint64(prime)
    if prime <= (1 << 32):
        total = np.add.reduceat(ordered, starts) % modulus
    else:
        total = np.add.reduceat(ordered >> np.uint64(32), starts) % modulus
        for _ in range(32):
            total += total
            _reduce_in_place(total, prime)
        total += np.add.reduceat(ordered & np.uint64(0xFFFFFFFF), starts) % modulus
        _reduce_in_place(total, prime)
    total += target[touched]
    target[touched] = _reduce_in_place(total, prime)


def group_slices(indices: "np.ndarray"):
    """Sort a batch by group index and return the per-group structure.

    The shared first half of every grouped scatter: one stable argsort
    brings equal indices together, and the run boundaries identify each
    touched group exactly once.

    Args:
        indices: integer ndarray of group indices (any values).

    Returns:
        ``(order, starts, touched)`` where ``order`` permutes the batch
        into index-sorted position, ``starts`` marks the first sorted
        position of each run, and ``touched`` holds each distinct index
        once (in ascending order).  Empty inputs return empty arrays.
    """
    if len(indices) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    order = np.argsort(indices, kind="stable")
    ordered = indices[order]
    starts = np.flatnonzero(
        np.concatenate((np.ones(1, dtype=bool), ordered[1:] != ordered[:-1]))
    )
    return order, starts, ordered[starts]


def grouped_max_scatter(
    target: "np.ndarray", indices: "np.ndarray", values: "np.ndarray"
) -> None:
    """Apply ``target[i] = max(target[i], v)`` for a whole batch, grouped.

    The bulk register/counter reduction behind ``update_grouped``: the
    batch is sorted by target index (:func:`group_slices`), each run is
    collapsed with one ``np.maximum.reduceat`` pass, and each touched
    cell is written once.  Identical to applying the pairs one at a time
    in any order — maximum is commutative, associative, and idempotent —
    and much faster than the buffered ``np.ufunc.at`` scatter on large
    batches.

    Args:
        target: 1-D integer ndarray, mutated in place.
        indices: positions into ``target`` (already range-validated by
            the caller's hashing); duplicates reduce together.
        values: candidate values; must fit ``target``'s dtype (callers
            cap them at the counter width, as the scalar paths do).
    """
    order, starts, touched = group_slices(indices)
    if len(touched) == 0:
        return
    maxima = np.maximum.reduceat(values[order], starts)
    target[touched] = np.maximum(
        target[touched], maxima.astype(target.dtype, copy=False)
    )


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
    order, starts, touched = group_slices(indices)
    if len(touched) == 0:
        return
    combined = np.bitwise_or.reduceat(masks[order], starts)
    target[touched] |= combined


def hashed_max_scatter(
    target: "np.ndarray",
    keys: "np.ndarray",
    h1,
    h2,
    h3,
    offset: int,
    floor: int,
    level_limit: int,
    bits: "np.ndarray" = None,
) -> None:
    """Scatter each key's hashed level into ``target`` at its hashed bin.

    One structure's whole KNW update for a batch: with
    ``level = lsb(h1(x))`` (``level_limit`` when ``h1(x) = 0``) and
    ``bin = h3(h2(x))``, apply ``target[bin mod m] = max(target[bin mod m],
    max(level + offset, floor))`` for ``m = len(target)``, and set bit
    ``bin`` of ``bits`` when given.  Figure 3's counters take
    ``offset = -b`` and ``floor = -1`` (with the small-F0 bits), each of
    Figure 2's copies ``offset = +1``.  The reference is the composition
    of the hashes' batch forms and the grouped scatters.

    Args:
        target: 1-D integer ndarray, mutated in place; every value must
            fit its dtype.
        keys: validated keys (``uint64``, or object past ``2^64``).
        h1, h2, h3: the level hash, the spreading hash and the bin hash;
            ``h2``'s values must lie in ``h3``'s domain.
        offset, floor: as above.
        level_limit: ``lsb(0)``, the paper's ``log n``.
        bits: optional ``uint8`` byte buffer of at least ``h3``'s range
            in bits, mutated in place.
    """
    levels = _levels(h1.hash_batch_validated(keys), level_limit)
    spread = h2.hash_batch_validated(keys)
    # SiegelHash (the Theorem 9 bundle) validates in its only batch form.
    evaluate = getattr(h3, "hash_batch_validated", None) or h3.hash_batch
    bins = evaluate(spread).astype(np.int64)
    values = np.maximum(levels + np.int64(offset), np.int64(floor))
    grouped_max_scatter(target, bins % np.int64(len(target)), values)
    if bits is not None:
        masks = (np.int64(1) << (bins & np.int64(7))).astype(np.uint8)
        grouped_or_scatter(bits, bins >> np.int64(3), masks)


def _levels(words: "np.ndarray", level_limit: int, top: int = None) -> "np.ndarray":
    """``lsb`` of each hash word (``level_limit`` for 0), capped at ``top``."""
    if words.dtype == object:
        levels = np.array(
            [(v & -v).bit_length() - 1 if v else level_limit for v in words.tolist()],
            dtype=np.int64,
        )
    else:
        levels = lsb64_batch(words, level_limit)
    return levels if top is None else np.minimum(levels, np.int64(top))


def residues_mod(deltas: "np.ndarray", prime: int) -> "np.ndarray":
    """Return ``deltas % prime`` as non-negative residues, exactly.

    Words suffice whenever the deltas fit ``int64`` and the modulus fits a
    signed word (NumPy's ``%`` follows Python's sign-of-divisor rule, so
    the residues are already non-negative); anything larger degrades to an
    object array of Python ints.
    """
    if deltas.dtype == object or prime >= (1 << 63):
        return _to_object_array(deltas) % prime
    return (deltas % np.int64(prime)).astype(np.uint64)


def _scatter_residues(target: "np.ndarray", indices, residues, prime: int) -> None:
    """:func:`grouped_residue_sums` into ``target`` through its flat form."""
    flat = target.reshape(-1)
    grouped_residue_sums(flat, indices, residues, prime)
    if not np.may_share_memory(flat, target):  # reshape had to copy
        target[...] = flat.reshape(target.shape)


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
    """Add each update's delta into its Lemma 8 buckets, one per trial.

    ``counters`` holds ``rows`` structures of ``trials`` bucket arrays
    (shape ``(rows, trials, buckets)``) sharing the trial hashes, row
    ``r`` counting modulo ``primes[r]``.  An update ``(x, d)`` lands in row
    ``min(lsb(splitter(x)), rows - 1)`` (``lsb(0) = level_limit``; row 0
    when ``splitter`` is ``None``) and adds ``d`` to bucket
    ``hashes[t](x)`` of every trial ``t``, modulo the row's prime:
    ``SmallL0Recovery`` is one row, ``RoughL0Estimator`` one row per level.
    ``counts`` (``int64``, one per (row, trial)) receives each bucket
    array's number of nonzero counters.  The reference is the composition
    of the hashes' batch forms and :func:`grouped_residue_sums` per row.

    Args:
        counters: residue counters (``uint64`` below ``2^63``, object
            above), mutated in place.
        counts: ``int64`` array of ``rows * trials`` counts, overwritten.
        keys: validated keys, below every hash's domain.
        deltas: signed deltas, one per key (``int64`` or object).
        splitter: the level hash, or ``None``.
        hashes: one pairwise hash per trial, ranges at most ``buckets``.
        primes: one modulus per row.
        level_limit: ``lsb(0)``.
    """
    rows, trials, buckets = counters.shape
    if splitter is None:
        levels = np.zeros(len(keys), dtype=np.int64)
    else:
        levels = _levels(splitter.hash_batch_validated(keys), level_limit, rows - 1)
    slots = np.arange(trials, dtype=np.int64)[:, None] * np.int64(buckets) + np.array(
        [h.hash_batch_validated(keys).astype(np.int64) for h in hashes], dtype=np.int64
    ).reshape(trials, len(keys))
    for level in np.flatnonzero(np.bincount(levels)).tolist():
        group = np.flatnonzero(levels == level)
        residues = residues_mod(deltas[group], primes[level])
        _scatter_residues(
            counters[level], slots[:, group].reshape(-1), np.tile(residues, trials), primes[level]
        )
    counts[:] = np.count_nonzero(counters, axis=2).reshape(-1)


def _weighted_residues(weights: "np.ndarray", deltas: "np.ndarray", prime: int) -> "np.ndarray":
    """``deltas * weights mod prime``, exactly: a delta of ``+1`` takes its
    weight and ``-1`` the weight's negation, the others multiply."""
    residues = residues_mod(deltas, prime)
    if residues.dtype == object or weights.dtype == object:
        return (_to_object_array(weights) * residues) % prime
    out = weights.copy()
    minus = deltas == -1
    out[minus] = (np.uint64(prime) - weights[minus]) % np.uint64(prime)
    other = np.flatnonzero((deltas != 1) & ~minus)
    if other.size:
        out[other] = mulmod_arrays(weights[other], residues[other], prime, prime)
    return out


def hashed_fingerprint_scatter(
    keys: "np.ndarray",
    deltas: "np.ndarray",
    h1,
    h2,
    h3,
    level_limit: int,
    structures,
) -> None:
    """Add each update into its cell of every Lemma 6 fingerprint structure.

    The structures share ``h1``, ``h2`` and ``h3``.  With ``s = h2(x)``, an
    update ``(x, d)`` adds ``d * weights[h4(s mod U4)]`` modulo ``prime``
    to cell ``(min(lsb(h1(x)), rows - 1), h3(s) mod columns)`` of each
    structure's ``cells``, for ``U4 = h4.universe_size`` and
    ``lsb(0) = level_limit`` (a one-row structure takes every update in
    row 0): KNW's subsampled matrix and its unsampled ``2K`` row.  Each
    structure's ``counts`` (``int64``, one per row) receives its rows'
    numbers of nonzero cells.  The reference is the composition of the
    hashes' batch forms and :func:`grouped_residue_sums`.

    Args:
        keys: validated keys, below ``h1``'s and ``h2``'s domains.
        deltas: signed deltas, one per key (``int64`` or object).
        h1, h2, h3: the level, spreading and column hashes.
        level_limit: ``lsb(0)``.
        structures: ``(cells, counts, h4, weights, prime)`` tuples:
            ``(rows, columns)`` counters over ``F_prime`` (``uint64`` below
            ``2^63``, object above) mutated in place, the ``int64``
            counts (overwritten), the weight hash (range at most
            ``len(weights)``), the weight vector ``u`` over ``F_prime``
            and the modulus.
    """
    spread = h2.hash_batch_validated(keys)
    values = h3.hash_batch_validated(spread)
    levels = None
    for cells, counts, h4, weights, prime in structures:
        rows, columns = cells.shape
        slots = mod_range(values, columns).astype(np.int64)
        if rows > 1:
            if levels is None:
                levels = _levels(h1.hash_batch_validated(keys), level_limit)
            slots += np.minimum(levels, np.int64(rows - 1)) * np.int64(columns)
        chosen = h4.hash_batch_validated(mod_range(spread, h4.universe_size))
        addends = _weighted_residues(weights[chosen.astype(np.int64)], deltas, prime)
        _scatter_residues(cells, slots, addends, prime)
        counts[:] = np.count_nonzero(cells, axis=1)


# --------------------------------------------------------------------------
# Vectorized word primitives.
# --------------------------------------------------------------------------


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
    isolated = values & (np.uint64(0) - values)
    indices = (isolated * _DEBRUIJN64) >> np.uint64(58)
    result = _DEBRUIJN64_TABLE[indices]
    if zero_value != 0:
        return np.where(values == 0, np.int64(zero_value), result)
    return np.where(values == 0, np.int64(0), result)
