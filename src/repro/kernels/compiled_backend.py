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
import os
import shlex
import shutil
import struct
import subprocess
import tempfile
from typing import List, Optional

from ..exceptions import KernelBackendError
from . import numpy_backend as _ref
from .numpy_backend import np

#: Bumped together with ``repro_kernels_abi()`` in ``_kernels.c``.
_ABI_VERSION = 3

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

#: Target dtypes the C max-scatter is specialised for.
_MAX_SCATTER_SUFFIXES = {
    "uint8": "u8",
    "uint16": "u16",
    "uint32": "u32",
    "uint64": "u64",
    "int8": "i8",
    "int16": "i16",
    "int32": "i32",
    "int64": "i64",
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


def _ptr(array: "np.ndarray") -> ctypes.c_void_p:
    """A pointer to a C-contiguous array's data.

    A writable non-empty buffer's address comes from ctypes directly, a
    quarter of what ``ndarray.ctypes`` costs; the fused chain reads four
    per call.
    """
    if array.size and array.flags.writeable:
        return ctypes.c_void_p(ctypes.addressof(ctypes.c_char.from_buffer(array)))
    return ctypes.c_void_p(array.ctypes.data)


def _chain_words(target, keys, h1, h2, h3, offset, floor, level_limit, bits):
    """Pack a chain the C kernel computes exactly; ``None`` where it cannot.

    Each function's ``word_form()`` is ``(coefficients, p, range, table)``:
    ``h1`` and ``h2`` must be affine (two coefficients) and ``h3`` a
    polynomial or a table, every prime below ``2^63``.  A table must
    cover ``h2``'s range, every candidate value must fit the target's
    dtype, and a bit buffer must hold ``h3``'s range.  Returns the packed
    words and ``h3``'s table (or ``None``).
    """
    bounds = _CHAIN_TARGETS.get(target.dtype)
    forms = [getattr(h, "word_form", None) for h in (h1, h2, h3)]
    if (
        bounds is None
        or None in forms
        or keys.dtype == object
        or target.ndim != 1
        or target.size == 0
        or not target.flags.c_contiguous
        or not target.flags.writeable
    ):
        return None
    (c1, p1, r1, _), (c2, p2, r2, _) = forms[0](), forms[1]()
    form3 = forms[2]()
    if form3 is None:
        return None
    c3, p3, r3, table = form3
    _, low, high = bounds
    top = max(63, level_limit) + offset
    if (
        len(c1) != 2
        or len(c2) != 2
        or max(p1, p2, p3) >= 1 << 63
        or max(r1, r2, r3) >= 1 << 64
        or (table is not None and r2 > table.size)
        or (table is None and not c3)
        or not low <= max(offset, floor) <= max(top, floor) <= high
        or (
            bits is not None
            and (
                bits.dtype != np.uint8
                or not bits.flags.c_contiguous
                or not bits.flags.writeable
                or bits.size * 8 < r3
            )
        )
    ):
        return None
    words = struct.pack(
        "=%dQ" % (13 + len(c3)),
        target.size, level_limit, p1, r1, *c1, p2, r2, *c2, p3, r3, len(c3), *c3
    )
    return words, table


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
        self._chains = {}
        for dtype, (suffix, _, _) in _CHAIN_TARGETS.items():
            kernel = getattr(lib, "repro_hashed_max_scatter_%s" % suffix)
            kernel.argtypes = [
                ctypes.c_void_p,
                ctypes.c_void_p,
                ctypes.c_int64,
                ctypes.c_char_p,
                ctypes.c_void_p,
                ctypes.c_int64,
                ctypes.c_int64,
                ctypes.c_void_p,
            ]
            kernel.restype = None
            self._chains[dtype] = kernel

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
        range_value, range_pow2 = self._range_flags(range_size)
        self._lib.repro_kwise_mod_range(
            _ptr(coeffs),
            ctypes.c_int64(coeffs.size),
            _ptr(keys),
            ctypes.c_int64(keys.size),
            ctypes.c_uint64(prime),
            ctypes.c_int(self._mersenne(prime)),
            ctypes.c_uint64(range_value),
            ctypes.c_int(range_pow2),
            _ptr(out),
        )
        return out

    # -- grouped scatter reductions --------------------------------------------------

    def grouped_residue_sums(self, target, indices, residues, prime):
        if (
            target.dtype != np.uint64
            or not target.flags.c_contiguous
            or prime >= (1 << 63)
        ):
            return _ref.grouped_residue_sums(target, indices, residues, prime)
        indices = self._as_i64(indices)
        residues = self._as_u64(residues)
        # The C loop writes target[index] unchecked.
        if residues.size != indices.size:
            raise ValueError("grouped_residue_sums takes one residue per index")
        if indices.size and (int(indices.min()) < 0 or int(indices.max()) >= target.size):
            raise IndexError("grouped_residue_sums index outside the target")
        self._lib.repro_grouped_residue_sums(
            _ptr(target),
            _ptr(indices),
            _ptr(residues),
            ctypes.c_int64(indices.size),
            ctypes.c_uint64(prime),
        )
        return None

    def grouped_max_scatter(self, target, indices, values):
        suffix = _MAX_SCATTER_SUFFIXES.get(target.dtype.name)
        if (
            suffix is None
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
        getattr(self._lib, "repro_grouped_max_scatter_%s" % suffix)(
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
    # The in-place residue scatter at the top of its domain: the largest
    # prime below 2^63, counters and residues near it, repeated indices,
    # and a ninth counter whose only sum lands exactly on the prime.
    top_prime = (1 << 63) - 25
    residues = np.uint64(top_prime - 1) - words % np.uint64(1 << 20)
    start = residues[:9].copy()
    landing = index.copy()
    landing[0] = 8
    residues[0] = np.uint64(top_prime) - start[8]
    mine, reference = start.copy(), start.copy()
    backend.grouped_residue_sums(mine, landing, residues, top_prime)
    _ref.grouped_residue_sums(reference, landing, residues, top_prime)
    if mine.tolist() != reference.tolist():
        raise KernelBackendError("compiled grouped_residue_sums self-test failed")
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


class _Polynomial:
    """A hash function given by its word form, for the load-time check."""

    def __init__(self, coefficients, prime, range_size, table=None):
        self.coefficients, self.prime = list(coefficients), prime
        self.range_size, self.table = range_size, table

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
