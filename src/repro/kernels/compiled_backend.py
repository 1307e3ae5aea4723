"""The compiled (C, via ctypes) kernel backend.

The fused single-pass kernels live in ``_kernels.c`` next to this module:
plain C with ``unsigned __int128`` arithmetic, no Python.h and no NumPy
headers.  :func:`load` compiles that source with whatever C compiler the
machine has (``$CC``, then ``cc``/``gcc``/``clang``), caches the shared
object under a content-addressed name so the build runs once per source
revision, loads it through :mod:`ctypes`, and cross-checks every kernel
against the NumPy reference backend on deterministic samples before
handing the backend out — a machine whose toolchain miscompiles the
kernels falls back to NumPy instead of corrupting sketch state.

Each wrapper below handles exactly the word-sized domain (``uint64`` keys,
moduli below ``2^63``/``2^64``) and delegates everything else — object
dtypes, giant moduli, exotic target dtypes — to
:mod:`repro.kernels.numpy_backend`, so the backend as a whole accepts the
same inputs as the reference and stays bit-identical on all of them.
"""

from __future__ import annotations

import ctypes
import hashlib
import operator
import os
import shlex
import shutil
import struct
import subprocess
import tempfile
import weakref
from typing import List, Optional

from ..exceptions import KernelBackendError
from . import numpy_backend as _ref
from .numpy_backend import np

#: Bumped together with ``repro_kernels_abi()`` in ``_kernels.c``.
_ABI_VERSION = 4

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernels.c")

#: Extra compile flags appended to the kernel build.  The hook CI uses for
#: sanitizer-hardened builds, e.g.::
#:
#:     REPRO_KERNEL_CFLAGS="-fsanitize=undefined -fno-sanitize-recover"
#:
#: The flags participate in the build-cache key (see
#: :func:`_library_basename`), so a sanitizer build and a production build
#: of the same source never collide in the source-hash-keyed .so cache.
CFLAGS_ENV_VAR = "REPRO_KERNEL_CFLAGS"

_U64_MAX = (1 << 64) - 1
_I64_MAX = (1 << 63) - 1
_MERSENNE_EXPONENTS = {(1 << 31) - 1: 31, (1 << 61) - 1: 61}

#: Target dtypes the C max-scatter is specialised for, keyed by the dtype
#: object: reading ``dtype.name`` costs a hundred times a dict lookup.
_MAX_SCATTER_SUFFIXES = {
    np.dtype(np.uint8): "u8",
    np.dtype(np.uint16): "u16",
    np.dtype(np.uint32): "u32",
    np.dtype(np.uint64): "u64",
    np.dtype(np.int8): "i8",
    np.dtype(np.int16): "i16",
    np.dtype(np.int32): "i32",
    np.dtype(np.int64): "i64",
}


def _find_compiler() -> Optional[str]:
    """Return the C compiler to use, or ``None`` when the machine has none."""
    explicit = os.environ.get("CC")
    if explicit:
        resolved = shutil.which(explicit)
        if resolved:
            return resolved
    for candidate in ("cc", "gcc", "clang"):
        resolved = shutil.which(candidate)
        if resolved:
            return resolved
    return None


def _extra_cflags() -> List[str]:
    """Extra compiler flags from ``REPRO_KERNEL_CFLAGS`` (shell-split)."""
    return shlex.split(os.environ.get(CFLAGS_ENV_VAR, ""))


def _library_basename() -> str:
    """Cache filename keyed by source content *and* the extra CFLAGS.

    Differently-flagged builds (UBSan vs production) of identical source
    produce different binaries; keying the cache on both means switching
    ``REPRO_KERNEL_CFLAGS`` can never pick up a stale library built under
    other flags.
    """
    digest = hashlib.sha256()
    with open(_SOURCE, "rb") as handle:
        digest.update(handle.read())
    digest.update(b"\0")
    digest.update(" ".join(_extra_cflags()).encode("utf-8"))
    return "repro_kernels-%s.so" % digest.hexdigest()[:16]


def _build_dirs() -> List[str]:
    """Candidate cache directories, most preferred first.

    ``REPRO_KERNEL_BUILD_DIR`` is an *exclusive* override: when set, no
    other location is consulted, so tests and hermetic builds fully
    control where (and whether) a cached library exists.
    """
    override = os.environ.get("REPRO_KERNEL_BUILD_DIR")
    if override:
        return [override]
    return [
        os.path.join(os.path.dirname(_SOURCE), "_build"),
        os.path.join(os.path.expanduser("~"), ".cache", "repro-kernels"),
        os.path.join(tempfile.gettempdir(), "repro-kernels-%d" % os.getuid()),
    ]


def _compile(compiler: str, library: str) -> None:
    """Compile the kernel source into ``library`` (atomic rename)."""
    directory = os.path.dirname(library)
    fd, scratch = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    command = [
        compiler,
        "-O3",
        "-std=c11",
        "-fPIC",
        "-shared",
        "-fvisibility=hidden",
        *_extra_cflags(),
        "-o",
        scratch,
        _SOURCE,
    ]
    try:
        completed = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=120,
        )
        if completed.returncode != 0:
            raise KernelBackendError(
                "compiling %s failed (%s):\n%s"
                % (
                    os.path.basename(_SOURCE),
                    " ".join(command[:2]),
                    completed.stdout.decode("utf-8", "replace").strip(),
                )
            )
        os.replace(scratch, library)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)


def _build_library() -> str:
    """Return the path to a compiled shared object, building if needed."""
    if not os.path.exists(_SOURCE):
        raise KernelBackendError("kernel source %s is missing" % _SOURCE)
    basename = _library_basename()
    for directory in _build_dirs():
        library = os.path.join(directory, basename)
        if os.path.exists(library):
            return library
    compiler = _find_compiler()
    if compiler is None:
        raise KernelBackendError(
            "no C compiler found (tried $CC, cc, gcc, clang); install one or "
            "set REPRO_KERNEL_BACKEND=numpy to use the reference backend"
        )
    last_error: Optional[Exception] = None
    for directory in _build_dirs():
        library = os.path.join(directory, basename)
        try:
            os.makedirs(directory, exist_ok=True)
            _compile(compiler, library)
            return library
        except KernelBackendError:
            raise  # a real compile failure will not improve elsewhere
        except OSError as exc:  # unwritable cache dir: try the next one
            last_error = exc
    raise KernelBackendError(
        "no writable build directory for the compiled kernel backend "
        "(set REPRO_KERNEL_BUILD_DIR)"
    ) from last_error


#: Target dtypes of the fused KNW chain, with the value range each holds:
#: Figure 3's signed counters and Figure 2's unsigned ones.
_CHAIN_TARGETS = {np.dtype(np.int8): ("i8", -128, 127), np.dtype(np.uint8): ("u8", 0, 255)}


def _address(array: "np.ndarray") -> int:
    """The address of a C-contiguous array's data.

    A writable non-empty buffer's address comes from ctypes directly, a
    quarter of what ``ndarray.ctypes`` costs; the fused chains read four
    or more per call.
    """
    if array.size and array.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    return array.ctypes.data


def _ptr(array: "np.ndarray") -> ctypes.c_void_p:
    """:func:`_address` as a pointer argument."""
    return ctypes.c_void_p(_address(array))


def _word_form(h):
    """``h.word_form()``, or ``None`` when ``h`` has none."""
    form = getattr(h, "word_form", None)
    return None if form is None else form()


def _affine_words(h):
    """A pairwise function as the words ``(p, range, c_0, c_1)``, or ``None``
    where the kernels cannot evaluate it (no word form, more than two
    coefficients, a prime of ``2^63`` or more, or a range past 64 bits)."""
    form = _word_form(h)
    if form is None:
        return None
    coefficients, prime, range_size, _ = form
    if len(coefficients) != 2 or prime >= 1 << 63 or range_size >= 1 << 64:
        return None
    return (prime, range_size, *coefficients)


def _polynomial_words(h, domain):
    """``h3`` as the words ``(p, range, k, coefficients...)`` and its value
    table (or ``None``); ``None`` where the kernels cannot evaluate it.  A
    table must cover ``domain``, the largest value ``h3`` is fed plus one."""
    form = _word_form(h)
    if form is None:
        return None
    coefficients, prime, range_size, table = form
    if (
        prime >= 1 << 63
        or range_size >= 1 << 64
        or (table is None and not coefficients)
        or (table is not None and domain > table.size)
    ):
        return None
    return (prime, range_size, len(coefficients), *coefficients), table


def _in_place(array, dtype, ndim) -> bool:
    """Whether ``array`` is a writable C-contiguous ``dtype`` array of ``ndim``
    dimensions holding at least one element, so the kernels may write it."""
    return (
        array.dtype == dtype
        and array.ndim == ndim
        and array.size > 0
        and array.flags.c_contiguous
        and array.flags.writeable
    )


def _chain_words(target, keys, h1, h2, h3, offset, floor, level_limit, bits):
    """Pack a chain the C kernel computes exactly; ``None`` where it cannot.

    ``h1`` and ``h2`` must be affine and ``h3`` a polynomial or a table
    covering ``h2``'s range, every prime below ``2^63``; every candidate
    value must fit the target's dtype, and a bit buffer must hold ``h3``'s
    range.  Returns the packed words and ``h3``'s table (or ``None``).
    """
    bounds = _CHAIN_TARGETS.get(target.dtype)
    if bounds is None or keys.dtype == object or not _in_place(target, target.dtype, 1):
        return None
    f1, f2 = _affine_words(h1), _affine_words(h2)
    f3 = None if f2 is None else _polynomial_words(h3, f2[1])
    if f1 is None or f3 is None:
        return None
    (words3, table), (_, low, high) = f3, bounds
    top = max(63, level_limit) + offset
    if not low <= max(offset, floor) <= max(top, floor) <= high or (
        bits is not None
        and (not _in_place(bits, np.uint8, 1) or bits.size * 8 < words3[1])
    ):
        return None
    words = struct.pack(
        "=%dQ" % (10 + len(words3)), target.size, level_limit, *f1, *f2, *words3
    )
    return words, table


def _turnstile_inputs(keys, deltas) -> bool:
    """Whether a turnstile call's keys and deltas are words of one length."""
    return keys.dtype == np.uint64 and deltas.dtype == np.int64 and len(keys) == len(deltas)


#: The turnstile chains' packed words: ``id(anchor) -> (weak reference to
#: the anchor, arrays, values, packed)``.  The anchor is a structure's
#: counter array (or the array it views), so an entry lives no longer than
#: the structure and never enters its serialized state.  An entry serves a
#: call only while the call passes the same ``arrays`` (by identity) and
#: equal ``values`` (hash functions compare by identity): a structure that
#: ``load_state_dict``, ``from_bytes`` or ``merge`` gave new hashes or
#: arrays is packed again.
_PACKED: dict = {}


def _packed(anchor, arrays, values, pack):
    """``pack()``, memoized in :data:`_PACKED` for ``anchor`` while the
    call's ``arrays`` and ``values`` are the entry's."""
    key = id(anchor)
    entry = _PACKED.get(key)
    if (
        entry is None
        or entry[0]() is not anchor
        or not all(map(operator.is_, entry[1], arrays))
        or entry[2] != values
    ):
        forget = weakref.ref(anchor, lambda _, pop=_PACKED.pop: pop(key, None))
        entry = _PACKED[key] = (forget, arrays, values, pack())
    return entry[3]


def _residue_words(counters, counts, keys, deltas, splitter, hashes, primes, level_limit):
    """Pack a Lemma 8 bucket-array call the C kernel computes exactly, or
    ``None``: counters must be ``uint64``, every prime in ``[2, 2^63)``,
    every hash affine with a range of at most ``buckets``, and the counts
    one per (row, trial).  Without a splitter every key is in row 0.

    The words are memoized per counter array; a fresh view of the same
    array (a one-row structure passes ``counters[None]``) finds them too.
    """
    if not (
        _in_place(counters, np.uint64, 3)
        and _in_place(counts, np.int64, 1)
        and _turnstile_inputs(keys, deltas)
    ):
        return None
    rows, trials, buckets = shape = counters.shape

    def pack():
        if level_limit < 0 or counts.size != rows * trials:
            return None
        if len(hashes) != trials or len(primes) != rows:
            return None
        top = 1 if splitter is None else rows
        split = (0, 0, 0, 0) if top == 1 else _affine_words(splitter)
        forms = [_affine_words(h) for h in hashes]
        if (
            split is None
            or None in forms
            or max(form[1] for form in forms) > buckets
            or min(primes) < 2
            or max(primes) >= 1 << 63
        ):
            return None
        return struct.pack(
            "=%dQ" % (8 + top + 4 * trials),
            top,
            level_limit,
            trials,
            buckets,
            *split,
            *primes[:top],
            *[word for form in forms for word in form],
        )

    base = counters.base
    anchor = base if isinstance(base, np.ndarray) else counters
    values = (shape, counts.size, level_limit, splitter, tuple(hashes), tuple(primes))
    return _packed(anchor, (), values, pack)


def _fingerprint_structure(cells, h4, weights, prime):
    """One fingerprint structure's words ``(rows, columns, p, U4, h4...)``,
    or ``None`` where the kernel cannot update it: cells and weights must
    be ``uint64`` with ``2 <= p < 2^63``, and ``h4`` affine with a range of
    at most the weight count."""
    if not (
        _in_place(cells, np.uint64, 2)
        and weights.dtype == np.uint64
        and weights.ndim == 1
        and weights.flags.c_contiguous
        and 2 <= prime < 1 << 63
    ):
        return None
    f4 = _affine_words(h4)
    domain = getattr(h4, "universe_size", 1 << 64)
    if f4 is None or f4[1] > weights.size or not 0 < domain < 1 << 64:
        return None
    return (*cells.shape, prime, domain, *f4)


def _fingerprint_words(keys, deltas, h1, h2, h3, level_limit, structures):
    """Split a fingerprint call into what the C kernel computes exactly and
    what it hands to the reference.

    The shared part must be computable (word keys and deltas, ``h1`` and
    ``h2`` affine, ``h3`` a polynomial or a table covering ``h2``'s
    range, primes below ``2^63``), or every structure goes to the
    reference.  Returns ``(words, table, targets, delegated)``: the packed
    form and addresses of the compiled structures (``None`` when there are
    none) and the list of the others.

    A structure also goes to the reference unless its counts, which
    callers pass afresh, are one per row.  The rest of the packed form is
    memoized on the first structure's cells.
    """
    if not (structures and _turnstile_inputs(keys, deltas)):
        return None, None, None, list(structures)
    counted = [
        _in_place(counts, np.int64, 1) and counts.size == len(cells)
        for cells, counts, *_ in structures
    ]
    values, arrays = [h1, h2, h3, level_limit, counted], []
    for cells, _, h4, weights, prime in structures:
        values += (cells.shape, h4, prime)
        arrays += (cells, weights)

    def pack():
        """``(words, table, compiled (index, cells, weights) addresses,
        delegated indices)``."""
        f1, f2 = _affine_words(h1), _affine_words(h2)
        f3 = None if f2 is None else _polynomial_words(h3, f2[1])
        if f1 is None or f3 is None or level_limit < 0:
            return None
        compiled, addresses, delegated = [], [], []
        for index, (cells, _, h4, weights, prime) in enumerate(structures):
            words = counted[index] and _fingerprint_structure(cells, h4, weights, prime)
            if words:
                compiled += words
                addresses.append((index, _address(cells), _address(weights)))
            else:
                delegated.append(index)
        if not addresses:
            return None
        (words3, table) = f3
        words = struct.pack(
            "=%dQ" % (10 + len(compiled) + len(words3)),
            level_limit, *f1, *f2, len(addresses), *compiled, *words3,
        )
        return words, table, addresses, delegated

    plan = _packed(arrays.pop(0), arrays, values, pack)
    if plan is None:
        return None, None, None, list(structures)
    words, table, addresses, delegated = plan
    targets = []
    for index, cells, weights in addresses:
        targets += (cells, _address(structures[index][1]), weights)
    targets = struct.pack("=%dQ" % len(targets), *targets)
    return words, table, targets, [structures[index] for index in delegated]


class CompiledKernels:
    """Backend object wrapping the ctypes-loaded kernel library."""

    name = "compiled"

    def __init__(self, library_path: str, compiler: Optional[str]) -> None:
        self._library_path = library_path
        self._compiler = compiler
        lib = ctypes.CDLL(library_path)
        abi = int(lib.repro_kernels_abi())
        if abi != _ABI_VERSION:
            raise KernelBackendError(
                "compiled kernel ABI mismatch: library %s has version %d, "
                "expected %d (delete the cached .so to rebuild)"
                % (library_path, abi, _ABI_VERSION)
            )
        self._lib = lib
        pointer, word, words = ctypes.c_void_p, ctypes.c_int64, ctypes.c_char_p
        self._max_scatters = {
            dtype: getattr(lib, "repro_grouped_max_scatter_%s" % suffix)
            for dtype, suffix in _MAX_SCATTER_SUFFIXES.items()
        }
        self._chains = {}
        for dtype, (suffix, _, _) in _CHAIN_TARGETS.items():
            self._chains[dtype] = self._declare(
                "repro_hashed_max_scatter_%s" % suffix,
                pointer, pointer, word, words, pointer, word, word, pointer,
            )
        self._residue_chain = self._declare(
            "repro_hashed_residue_scatter", pointer, pointer, pointer, pointer, word, words
        )
        self._fingerprint_chain = self._declare(
            "repro_hashed_fingerprint_scatter", pointer, pointer, word, words, pointer, words
        )

    def _declare(self, name, *argtypes):
        """The library function ``name`` with its argument types set."""
        kernel = getattr(self._lib, name)
        kernel.argtypes = list(argtypes)
        kernel.restype = None
        return kernel

    def describe(self) -> dict:
        """Structured diagnostics for :func:`repro.kernels.kernel_backend_info`."""
        return {
            "name": self.name,
            "library": self._library_path,
            "compiler": self._compiler,
            "abi": _ABI_VERSION,
            "cflags": _extra_cflags(),
        }

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _mersenne(prime: int) -> int:
        return _MERSENNE_EXPONENTS.get(prime, 0)

    # The next two predicates mirror the branch structure of the reference
    # implementations exactly: the C path is taken only where the reference
    # stays on an exact uint64 strategy (direct product, Mersenne limb
    # split, or the in-domain Barrett float path — all of which agree with
    # the exact C arithmetic bit for bit).  Everywhere else the reference
    # switches representation (object arrays of Python ints) or leaves its
    # exactness envelope, so the wrapper delegates to keep outputs — values
    # *and* dtypes — identical across backends.

    @staticmethod
    def _mulmod_stays_word(multiplier: int, prime: int, key_bound: int) -> bool:
        key_bits = max(key_bound - 1, 1).bit_length()
        if (multiplier * max(key_bound - 1, 1)).bit_length() <= 64:
            return True
        exponent = _MERSENNE_EXPONENTS.get(prime)
        if exponent is not None and key_bits <= 64 - (exponent // 2 + 1):
            return True
        return prime < (1 << 62) and key_bits <= 32

    @staticmethod
    def _mulmod_arrays_stays_word(prime: int, right_bound: int) -> bool:
        if prime * max(right_bound - 1, 1) < (1 << 64):
            return True
        exponent = _MERSENNE_EXPONENTS.get(prime)
        if exponent is not None:
            if max(right_bound - 1, 1).bit_length() <= 63 - exponent // 2:
                return True
        # The reference's Barrett float path is exact (and equal to the C
        # result) only with both factors inside the field.
        return prime < (1 << 52) and right_bound <= prime

    @staticmethod
    def _as_u64(array: "np.ndarray") -> "np.ndarray":
        return np.ascontiguousarray(array, dtype=np.uint64)

    @staticmethod
    def _as_i64(array: "np.ndarray") -> "np.ndarray":
        return np.ascontiguousarray(array, dtype=np.int64)

    @staticmethod
    def _range_flags(range_size: int):
        """Return the (range, is_pow2) pair the C kernels expect.

        ``range == 0`` encodes "no reduction" (ranges of at least ``2^64``
        leave 64-bit values untouched, as in the reference ``mod_range``).
        """
        if range_size >= (1 << 64):
            return 0, 0
        return range_size, 1 if range_size & (range_size - 1) == 0 else 0

    # -- batched modular arithmetic --------------------------------------------------

    def mulmod(self, multiplier, keys, prime, key_bound):
        if (
            keys.dtype == object
            or prime >= (1 << 64)
            or not self._mulmod_stays_word(multiplier, prime, key_bound)
        ):
            return _ref.mulmod(multiplier, keys, prime, key_bound)
        keys = self._as_u64(keys)
        out = np.empty(keys.shape, dtype=np.uint64)
        self._lib.repro_mulmod(
            ctypes.c_uint64(multiplier),
            _ptr(keys),
            ctypes.c_int64(keys.size),
            ctypes.c_uint64(prime),
            ctypes.c_int(self._mersenne(prime)),
            _ptr(out),
        )
        return out

    def affine_mod(self, multiplier, offset, keys, prime, key_bound):
        # The reference returns object arrays for primes >= 2^63; mirror
        # that domain so downstream dtype branches behave identically.
        if (
            keys.dtype == object
            or prime >= (1 << 63)
            or not self._mulmod_stays_word(multiplier, prime, key_bound)
        ):
            return _ref.affine_mod(multiplier, offset, keys, prime, key_bound)
        keys = self._as_u64(keys)
        out = np.empty(keys.shape, dtype=np.uint64)
        self._lib.repro_affine_mod(
            ctypes.c_uint64(multiplier),
            ctypes.c_uint64(offset),
            _ptr(keys),
            ctypes.c_int64(keys.size),
            ctypes.c_uint64(prime),
            ctypes.c_int(self._mersenne(prime)),
            _ptr(out),
        )
        return out

    def affine_mod_range(self, multiplier, offset, keys, prime, key_bound, range_size):
        if (
            keys.dtype == object
            or prime >= (1 << 63)
            or not self._mulmod_stays_word(multiplier, prime, key_bound)
        ):
            return _ref.affine_mod_range(
                multiplier, offset, keys, prime, key_bound, range_size
            )
        keys = self._as_u64(keys)
        out = np.empty(keys.shape, dtype=np.uint64)
        range_value, range_pow2 = self._range_flags(range_size)
        self._lib.repro_affine_mod_range(
            ctypes.c_uint64(multiplier),
            ctypes.c_uint64(offset),
            _ptr(keys),
            ctypes.c_int64(keys.size),
            ctypes.c_uint64(prime),
            ctypes.c_int(self._mersenne(prime)),
            ctypes.c_uint64(range_value),
            ctypes.c_int(range_pow2),
            _ptr(out),
        )
        return out

    def mod_range(self, values, range_size):
        if values.dtype == object:
            return _ref.mod_range(values, range_size)
        if range_size >= (1 << 64):
            return values
        values = self._as_u64(values)
        out = np.empty(values.shape, dtype=np.uint64)
        range_value, range_pow2 = self._range_flags(range_size)
        self._lib.repro_mod_range(
            _ptr(values),
            ctypes.c_int64(values.size),
            ctypes.c_uint64(range_value),
            ctypes.c_int(range_pow2),
            _ptr(out),
        )
        return out

    def mulmod_arrays(self, left, right, prime, right_bound):
        if (
            left.dtype == object
            or right.dtype == object
            or prime >= (1 << 64)
            or not self._mulmod_arrays_stays_word(prime, right_bound)
        ):
            return _ref.mulmod_arrays(left, right, prime, right_bound)
        left = self._as_u64(left)
        right = self._as_u64(right)
        out = np.empty(left.shape, dtype=np.uint64)
        self._lib.repro_mulmod_arrays(
            _ptr(left),
            _ptr(right),
            ctypes.c_int64(left.size),
            ctypes.c_uint64(prime),
            ctypes.c_int(self._mersenne(prime)),
            _ptr(out),
        )
        return out

    def kwise_mod_range(self, coefficients, keys, prime, key_bound, range_size):
        coefficients = list(coefficients)
        # Past these bounds the kernel's one-word Horner for primes up to
        # 2^32 could overflow, so the reference (and its object path) runs.
        if (
            keys.dtype == object
            or prime >= (1 << 63)
            or (
                len(coefficients) > 1
                and not self._mulmod_arrays_stays_word(prime, key_bound)
            )
        ):
            return _ref.kwise_mod_range(
                coefficients, keys, prime, key_bound, range_size
            )
        keys = self._as_u64(keys)
        coeffs = np.asarray(coefficients, dtype=np.uint64)
        out = np.empty(keys.shape, dtype=np.uint64)
        self._lib.repro_kwise_mod_range(
            _ptr(coeffs),
            ctypes.c_int64(coeffs.size),
            _ptr(keys),
            ctypes.c_int64(keys.size),
            ctypes.c_uint64(prime),
            ctypes.c_uint64(self._range_flags(range_size)[0]),
            _ptr(out),
        )
        return out

    # -- grouped scatter reductions --------------------------------------------------

    def grouped_max_scatter(self, target, indices, values):
        kernel = self._max_scatters.get(target.dtype)
        if (
            kernel is None
            or not target.flags.c_contiguous
            or len(indices) == 0
            or values.dtype.kind not in ("i", "u", "b")
            or (
                values.dtype.kind == "u"
                and values.dtype.itemsize == 8
                and int(values.max()) > _I64_MAX
            )
        ):
            return _ref.grouped_max_scatter(target, indices, values)
        indices = self._as_i64(indices)
        values = self._as_i64(values)
        kernel(
            _ptr(target),
            _ptr(indices),
            _ptr(values),
            ctypes.c_int64(indices.size),
        )
        return None

    def grouped_or_scatter(self, target, indices, masks):
        if (
            target.dtype != np.uint8
            or not target.flags.c_contiguous
            or len(indices) == 0
        ):
            return _ref.grouped_or_scatter(target, indices, masks)
        indices = self._as_i64(indices)
        masks = np.ascontiguousarray(masks, dtype=np.uint8)
        self._lib.repro_grouped_or_scatter_u8(
            _ptr(target),
            _ptr(indices),
            _ptr(masks),
            ctypes.c_int64(indices.size),
        )
        return None

    def hashed_max_scatter(
        self, target, keys, h1, h2, h3, offset, floor, level_limit, bits=None
    ):
        packed = _chain_words(target, keys, h1, h2, h3, offset, floor, level_limit, bits)
        if packed is None:
            return _ref.hashed_max_scatter(
                target, keys, h1, h2, h3, offset, floor, level_limit, bits
            )
        if keys.size == 0:
            return None
        words, table = packed
        keys = self._as_u64(keys)
        self._chains[target.dtype](
            _ptr(target),
            _ptr(keys),
            keys.size,
            words,
            None if table is None else _ptr(table),
            offset,
            floor,
            None if bits is None else _ptr(bits),
        )
        return None

    def hashed_residue_scatter(
        self, counters, counts, keys, deltas, splitter, hashes, primes, level_limit
    ):
        words = _residue_words(
            counters, counts, keys, deltas, splitter, hashes, primes, level_limit
        )
        if words is None:
            return _ref.hashed_residue_scatter(
                counters, counts, keys, deltas, splitter, hashes, primes, level_limit
            )
        if keys.size:
            keys, deltas = self._as_u64(keys), self._as_i64(deltas)
            self._residue_chain(
                _address(counters), _address(counts), _address(keys), _address(deltas),
                keys.size, words,
            )
        return None

    def hashed_fingerprint_scatter(
        self, keys, deltas, h1, h2, h3, level_limit, structures
    ):
        words, table, targets, delegated = _fingerprint_words(
            keys, deltas, h1, h2, h3, level_limit, structures
        )
        if words is not None and keys.size:
            keys, deltas = self._as_u64(keys), self._as_i64(deltas)
            self._fingerprint_chain(
                _address(keys),
                _address(deltas),
                keys.size,
                words,
                None if table is None else _address(table),
                targets,
            )
        if delegated:
            _ref.hashed_fingerprint_scatter(
                keys, deltas, h1, h2, h3, level_limit, delegated
            )
        return None

    # -- vectorized word primitives --------------------------------------------------

    def lsb64_batch(self, values, zero_value):
        values = self._as_u64(values)
        out = np.empty(values.shape, dtype=np.int64)
        self._lib.repro_lsb64_batch(
            _ptr(values),
            ctypes.c_int64(values.size),
            ctypes.c_int64(zero_value),
            _ptr(out),
        )
        return out


def _self_test(backend: CompiledKernels) -> None:
    """Cross-check every kernel against the reference on fixed samples.

    Runs once at load time (sub-millisecond at these sizes).  A mismatch —
    a miscompiling toolchain, a stale cached library — refuses the backend
    rather than let it corrupt sketch state bit-for-bit silently.
    """
    rng = np.random.default_rng(0xC0DE)
    words = rng.integers(0, _U64_MAX, size=64, dtype=np.uint64)
    words[:4] = [0, 1, _I64_MAX, _U64_MAX]
    checks = []
    for prime in ((1 << 31) - 1, (1 << 61) - 1, 1_000_003):
        # Keys drawn from the universe the hash families actually pair with
        # each field prime (so the reference stays on its exact word paths
        # and the comparison exercises the C kernels, not the delegation).
        key_bound = min(prime, 1 << 32)
        keys = words % np.uint64(key_bound)
        field = words % np.uint64(prime)
        a = int(prime - 2)
        b = int(prime // 3)
        checks += [
            ("mulmod", (a, keys, prime, key_bound)),
            ("affine_mod", (a, b, keys, prime, key_bound)),
            ("affine_mod_range", (a, b, keys, prime, key_bound, 1 << 10)),
            ("kwise_mod_range", ([3, 1, a], keys, prime, key_bound, 1000)),
            ("mulmod_arrays", (field, keys, prime, key_bound)),
        ]
    # The Mersenne fast paths at their edges.  Over 2^31 - 1: a 10-wise
    # Horner on 61 keys (seven lane blocks and a 5-key tail) with keys 0,
    # 1, p - 2 and p - 1, whose coefficients sum to 0 mod p so that key 1
    # ends a lane on the unreduced value p; the block at 8..15 holds a
    # 33-bit key, which must take the __int128 loop.  Over 2^61 - 1: every
    # reduction at the largest operands its wrapper keeps on the C path
    # (33-bit keys), and a Horner step whose sum is exactly p.
    p31, p61, top = (1 << 31) - 1, (1 << 61) - 1, (1 << 33) - 1
    keys31 = words[:61] % np.uint64(p31)
    keys31[:4] = [0, 1, p31 - 2, p31 - 1]
    keys31[11] = top
    poly31 = [p31 - 1 - 7919 * j for j in range(1, 10)]
    poly31.insert(0, -sum(poly31) % p31)
    wide = words % np.uint64(top + 1)
    wide[:2] = [top, top]
    field61 = words % np.uint64(p61)
    field61[:2] = [p61 - 1, p61 - 2]
    checks += [
        ("kwise_mod_range", (poly31, keys31, p31, top + 1, 1000)),
        ("mulmod", (p61 - 1, wide, p61, top + 1)),
        ("affine_mod_range", (p61 - 1, p61 - 1, wide, p61, top + 1, 1000)),
        ("mulmod_arrays", (field61, wide, p61, top + 1)),
        ("kwise_mod_range", ([p61 - 1] * 5, wide, p61, top + 1, 1 << 10)),
        ("kwise_mod_range", ([p61 - top, 1], wide, p61, top + 1, 1000)),
        ("mod_range", (words, 1000)),
        ("lsb64_batch", (words, 64)),
    ]
    for kernel, args in checks:
        got = getattr(backend, kernel)(*args)
        expected = getattr(_ref, kernel)(*args)
        if got.dtype != expected.dtype or got.tolist() != expected.tolist():
            raise KernelBackendError(
                "compiled kernel self-test failed for %s; refusing the "
                "backend (set REPRO_KERNEL_BACKEND=numpy)" % kernel
            )
    index = rng.integers(0, 8, size=64).astype(np.int64)
    mine, reference = np.zeros(8, dtype=np.uint8), np.zeros(8, dtype=np.uint8)
    values = rng.integers(0, 200, size=64).astype(np.int64)
    backend.grouped_max_scatter(mine, index, values)
    _ref.grouped_max_scatter(reference, index, values)
    masks = (1 << (values & 7)).astype(np.uint8)
    mine_or, ref_or = np.zeros(8, dtype=np.uint8), np.zeros(8, dtype=np.uint8)
    backend.grouped_or_scatter(mine_or, index, masks)
    _ref.grouped_or_scatter(ref_or, index, masks)
    if mine.tolist() != reference.tolist() or mine_or.tolist() != ref_or.tolist():
        raise KernelBackendError("compiled scatter self-test failed")
    _chain_self_test(backend, words)
    _turnstile_self_test(backend, words)


class _Polynomial:
    """A hash function given by its word form, for the load-time check."""

    def __init__(self, coefficients, prime, range_size, table=None, universe_size=None):
        self.coefficients, self.prime = list(coefficients), prime
        self.range_size, self.table = range_size, table
        self.universe_size = prime if universe_size is None else universe_size

    def word_form(self):
        return self.coefficients, self.prime, self.range_size, self.table

    def hash_batch_validated(self, keys):
        return _ref.kwise_mod_range(
            self.coefficients, keys, self.prime, self.prime, self.range_size
        )


def _chain_self_test(backend: CompiledKernels, words) -> None:
    """Cross-check the fused KNW chain on 13 keys: an eight-key lane block
    and a tail.  Key 0 has ``h1 = 0`` (so ``lsb(0)``); ``h3`` is a
    polynomial over ``2^31 - 1``, once on values below ``2^30`` and once
    on the whole field, and then a value table with one unfilled entry."""
    p31, p61 = (1 << 31) - 1, (1 << 61) - 1
    keys = words[:13] % np.uint64(1 << 32)
    keys[0] = 0
    h1 = _Polynomial((0, p61 - 2), p61, 1 << 32)
    poly = _Polynomial([p31 - 1 - 7919 * j for j in range(10)], p31, 1 << 10)
    chains = [(_Polynomial((5, 3), p61, spread), poly) for spread in (1 << 30, p31)]
    spread = _Polynomial((p61 - 7, 11), p61, 1 << 12)
    table = poly.hash_batch_validated(np.arange(1 << 12, dtype=np.uint64))
    missing = int(spread.hash_batch_validated(keys[5:6])[0])
    table[missing] = np.uint64(_U64_MAX)
    chains.append((spread, _Polynomial(poly.coefficients, p31, 1 << 10, table)))
    for h2, h3 in chains:
        for dtype, offset, floor in ((np.int8, -2, -1), (np.uint8, 1, 0)):
            mine, reference = np.full(32, floor, dtype=dtype), np.full(32, floor, dtype=dtype)
            mine_bits, ref_bits = np.zeros(128, dtype=np.uint8), np.zeros(128, dtype=np.uint8)
            backend.hashed_max_scatter(mine, keys, h1, h2, h3, offset, floor, 32, mine_bits)
            _ref.hashed_max_scatter(reference, keys, h1, h2, h3, offset, floor, 32, ref_bits)
            if mine.tolist() != reference.tolist() or mine_bits.tolist() != ref_bits.tolist():
                raise KernelBackendError("compiled hashed_max_scatter self-test failed")
    if table.tolist() != poly.hash_batch_validated(np.arange(1 << 12, dtype=np.uint64)).tolist():
        raise KernelBackendError("compiled hashed_max_scatter filled a table entry wrongly")


def _turnstile_self_test(backend: CompiledKernels, words) -> None:
    """Cross-check both turnstile chains on 13 keys with the deltas' edge
    cases (0, +-1, +-2^40, the int64 extremes).  Key 0 has ``h1 = 0``
    (``lsb(0)``).  The bucket arrays count modulo 5, a 20-bit prime and
    the largest prime below 2^63 over a 12-bucket range, split by level
    and in one row; the fingerprints are a 4 x 6 matrix modulo that
    prime and a one-row 12-cell matrix modulo the 20-bit one, sharing
    ``h1``/``h2``/``h3``, each with a zero weight and a ``h4`` domain
    that is not a power of two."""
    p31, p61, top = (1 << 31) - 1, (1 << 61) - 1, (1 << 63) - 25
    keys = words[:13] % np.uint64(1 << 32)
    keys[0] = 0
    deltas = np.asarray(
        [1, -1, 0, 2, -5, -(1 << 63), (1 << 63) - 1, -1, 1, 1 << 40, -(1 << 40), 7, -1],
        dtype=np.int64,
    )
    h1 = _Polynomial((0, p61 - 2), p61, 1 << 32)
    trials = [_Polynomial((3, p61 - 5), p61, 12), _Polynomial((9, 4), p61, 8)]
    primes = [5, 1_048_573, top]
    for splitter, rows in ((h1, 3), (None, 1)):
        start = np.stack([words[:24] % np.uint64(p) for p in primes[:rows]])
        mine = start.reshape(rows, 2, 12)
        reference = mine.copy()
        counts = np.count_nonzero(mine, axis=2).reshape(-1)
        expected = counts.copy()
        backend.hashed_residue_scatter(mine, counts, keys, deltas, splitter, trials, primes[:rows], 32)
        _ref.hashed_residue_scatter(
            reference, expected, keys, deltas, splitter, trials, primes[:rows], 32
        )
        if mine.tolist() != reference.tolist() or counts.tolist() != expected.tolist():
            raise KernelBackendError("compiled hashed_residue_scatter self-test failed")
    spread = _Polynomial((5, 3), p61, 1 << 30)
    h3 = _Polynomial([p31 - 1 - 7919 * j for j in range(10)], p31, 12)
    structures = []
    for rows, columns, prime, h4 in (
        (4, 6, top, _Polynomial((7, 11), p31, 6, universe_size=1000)),
        (1, 12, primes[1], _Polynomial((3, 8), p31, 12, universe_size=999)),
    ):
        cells = (words[: rows * columns] % np.uint64(prime)).reshape(rows, columns)
        weights = words[30 : 30 + columns] % np.uint64(prime)
        weights[2] = 0
        structures.append((cells, np.count_nonzero(cells, axis=1), h4, weights, prime))
    reference = [(cells.copy(), counts.copy(), *rest) for cells, counts, *rest in structures]
    backend.hashed_fingerprint_scatter(keys, deltas, h1, spread, h3, 32, structures)
    _ref.hashed_fingerprint_scatter(keys, deltas, h1, spread, h3, 32, reference)
    for (cells, counts, *_), (expected, expected_counts, *_) in zip(structures, reference):
        if cells.tolist() != expected.tolist() or counts.tolist() != expected_counts.tolist():
            raise KernelBackendError("compiled hashed_fingerprint_scatter self-test failed")


def load() -> CompiledKernels:
    """Build (once), load, verify, and return the compiled backend.

    Raises:
        KernelBackendError: when no C compiler is available, the build
            fails, or the built library does not match the reference
            bit-for-bit on the self-test samples.
    """
    library = _build_library()
    backend = CompiledKernels(library, _find_compiler())
    _self_test(backend)
    return backend
