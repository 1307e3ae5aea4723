"""Sketch serialization: ``state_dict`` snapshots and a binary wire format.

Every sketch in the library is mergeable-or-transportable state plus
construction-time parameters, which is exactly what distributed F0
estimation needs: a worker ingests its shard, ships the sketch to a
coordinator, and the coordinator revives it and merge-reduces.  This
module provides that transport for *every* estimator (and their internal
components — hash families, bit structures, shared RNGs) without
``pickle``:

* :func:`snapshot` — capture an object's complete state as a plain tree
  of Python values (``state_dict()`` on the estimator base classes).
  Nested library objects become explicit ``{"__object__": ...}`` nodes;
  *shared* sub-objects (e.g. the ``F0HashBundle`` shared between the
  small-F0 and Figure 3 regimes) are captured once and referenced
  thereafter, so reviving a snapshot restores the exact aliasing
  structure — a requirement for bit-identical *continued* ingestion, not
  just for frozen state.  Integer containers (the sketches' counter
  lists, coefficient tuples, int→int memo dicts) become one *typed
  block* each: a ``bytes`` leaf holding the container kind, the element
  count, and the elements at the narrowest little-endian width their
  minimum and maximum fit, the idea of Protocol Buffers' packed repeated
  fields.  Integer ndarrays
  (the L0 counter arrays) are blocks too, holding their dtype and shape,
  with their values dense or as a nonzero bitmap plus the nonzero
  values, whichever is shorter.  The tree stays plain, so snapshot
  equality is still state equality.
* :func:`restore` — load a snapshot back into an existing instance
  (``load_state_dict()``), torch-style: construct the estimator with the
  same parameters, then restore.
* :func:`dumps` / :func:`loads` — frame a snapshot as bytes
  (``to_bytes()`` / ``from_bytes()``): a magic header, a format version,
  and a compact tag-length-value encoding of the tree in which every
  string is written once and referenced by index after that.  Unlike
  ``pickle``, decoding only ever instantiates classes from inside the
  ``repro`` package (plus ``random.Random``), so a payload cannot name
  arbitrary importable callables.

The supported value set is deliberately closed: ``None``, ``bool``,
``int`` (arbitrary precision — field primes, hash coefficients and ids
of universes past 2^64 exceed a word), ``float`` (bit-exact via IEEE-754
encoding), ``str``, ``bytes``, ``bytearray``, ``list``, ``tuple``,
``dict``, ``set``/``frozenset``, NumPy arrays and scalars,
``random.Random``, and objects of classes defined inside ``repro``.
Anything else raises :class:`~repro.exceptions.SerializationError` at
*encode* time, so a sketch that grows unsupported state fails loudly in
its own round-trip test rather than corrupting a worker transport.

Equal state always encodes to equal bytes: dict keys and set members are
sorted, a block's width depends only on its values, and the type check
is exact (``True`` never packs as ``1``, a tuple never decodes as a
list).  There is one decoder, for the current :data:`FORMAT_VERSION`; a
frame of any other version raises
:class:`~repro.exceptions.FormatVersionError`.
"""

from __future__ import annotations

import array
import importlib
import math
import random
import struct
import sys
from operator import countOf
from typing import Any, Dict, List, Optional, Tuple

from .exceptions import FormatVersionError, SerializationError
from .vectorize import np

__all__ = [
    "snapshot",
    "restore",
    "dumps",
    "loads",
    "dumps_tree",
    "loads_tree",
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
]

#: Frame header of the byte format produced by :func:`dumps`.
FORMAT_MAGIC = b"RPRS"

#: Version byte following the magic; bumped on incompatible changes.
FORMAT_VERSION = 3

#: Only classes whose defining module lives under this package (or is the
#: stdlib ``random`` module, for RNG state) may be revived by decoding.
_TRUSTED_PACKAGE = __name__.split(".")[0]


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise SerializationError("varint fields are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _varint_at(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode the varint at ``data[offset]``; return it and the next offset."""
    byte = data[offset]
    value = byte & 0x7F
    shift = 7
    while byte & 0x80:
        if shift > 70:
            raise SerializationError("varint overflow in payload")
        offset += 1
        byte = data[offset]
        value |= (byte & 0x7F) << shift
        shift += 7
    return value, offset + 1


# ---------------------------------------------------------------------------
# Typed integer blocks
# ---------------------------------------------------------------------------

#: Container kinds a block stands for.  A map block holds a keys column and
#: a values column (keys sorted); every other kind holds one column.
_BLOCK_LIST, _BLOCK_TUPLE, _BLOCK_SET, _BLOCK_FROZENSET, _BLOCK_MAP = range(5)

#: Width codes 0-7 are the ``array`` typecodes of the unsigned and signed
#: 1-, 2-, 4- and 8-byte columns (code ``c`` is ``1 << (c >> 1)`` bytes wide,
#: signed when odd).  Code ``_WIDE`` is a signed column wider than 8 bytes,
#: its byte width written after the code.
_TYPECODES = "BbHhIiQq"
_WIDE = len(_TYPECODES)
_SWAP = sys.byteorder == "big"  # columns are little-endian on the wire
#: Columns at least this long take the NumPy packing path when they fit
#: ``uint64``; shorter ones cost less through ``array`` alone.
_NUMPY_COLUMN = 64


def _all_ints(values) -> bool:
    """Whether a container is non-empty and holds exact ``int``s only."""
    return len(values) > 0 and countOf(map(type, values), int) == len(values)


def _sorted_set(values) -> List[int]:
    """``sorted(values)`` for a set of exact ints.

    A set iterates in hash order, which leaves ``sorted()`` no presorted
    runs to merge, so sets of at least ``_NUMPY_COLUMN`` entries that fit
    ``uint64`` sort in NumPy instead (about 3x faster at 64Ki members);
    anything else keeps ``sorted()``.  Int maps keep ``sorted()``: their
    insertion order is usually sorted runs (batch paths insert unique,
    sorted keys), which it merges faster than the NumPy round trip.
    """
    if len(values) >= _NUMPY_COLUMN:
        try:
            column = np.fromiter(values, dtype=np.uint64, count=len(values))
        except OverflowError:  # a negative or wider than 64-bit entry
            pass
        else:
            return np.sort(column).tolist()
    return sorted(values)


def _width_code(lo: int, hi: int) -> Tuple[int, int]:
    """The width code and byte width of a column spanning ``[lo, hi]``."""
    signed = lo < 0
    magnitude = max(~lo if signed else 0, hi).bit_length()
    for code in range(signed, _WIDE, 2):
        if magnitude + signed <= 8 << (code >> 1):
            return code, 1 << (code >> 1)
    return _WIDE, (magnitude + 8) // 8


def _int_column(column) -> Tuple[bytes, bytes]:
    """A column's width spec and its raw bytes at the narrowest width.

    The width follows from the column's minimum and maximum alone.  A
    column is a sequence of exact ints or an integer ndarray.  Unsigned
    64-bit sequences, the common case, pack in one C pass into a
    ``uint64`` buffer that NumPy then measures and narrows.
    """
    values = column if isinstance(column, np.ndarray) else None
    if values is None and len(column) >= _NUMPY_COLUMN:
        try:
            values = np.frombuffer(array.array("Q", column), dtype=np.uint64)
        except OverflowError:  # a negative or wider than 64-bit entry
            pass
    if values is not None:
        hi = int(values.max()) if values.size else 0
        # An unsigned column's minimum never widens it.
        lo = int(values.min()) if values.size and values.dtype.kind == "i" else 0
    else:
        lo, hi = (min(column), max(column)) if column else (0, 0)
    code, width = _width_code(lo, hi)
    if values is not None:
        kind = "i" if code & 1 else "u"
        return bytes((code,)), values.astype("<%s%d" % (kind, width)).tobytes()
    if code < _WIDE:
        packed = array.array(_TYPECODES[code], column)
        if _SWAP:
            packed.byteswap()
        return bytes((code,)), packed.tobytes()
    spec = bytearray((_WIDE,))
    _write_varint(spec, width)
    return bytes(spec), b"".join([v.to_bytes(width, "little", signed=True) for v in column])


def _int_block(kind: int, *columns: List[int]) -> Dict[str, bytes]:
    """Pack equal-length columns of exact ints into one ``__ints__`` node.

    Layout: ``kind:u8 count:varint``, each column's width spec (a width
    code, plus the byte width when wide), then each column's raw
    little-endian bytes — so the sizes are known before any is read.
    """
    head = bytearray((kind,))
    _write_varint(head, len(columns[0]))
    raw = []
    for column in columns:
        spec, packed = _int_column(column)
        head += spec
        raw.append(packed)
    return {"__ints__": bytes(head) + b"".join(raw)}


def _read_int_block(block: Any) -> Any:
    """Unpack an ``__ints__`` node; every size is checked before reading."""
    if not isinstance(block, bytes) or not block:
        raise SerializationError("malformed __ints__ node")
    kind = block[0]
    if kind > _BLOCK_MAP:
        raise SerializationError("unknown int block kind %d" % kind)
    count, offset = _varint_at(block, 1)
    columns = []
    for _ in range(2 if kind == _BLOCK_MAP else 1):
        code = block[offset]
        offset += 1
        if code < _WIDE:
            width = 1 << (code >> 1)
        elif code == _WIDE:
            width, offset = _varint_at(block, offset)
            if width <= 8:
                raise SerializationError("wide int column of only %d bytes" % width)
        else:
            raise SerializationError("unknown int width code %d" % code)
        columns.append((code, width))
    if count * sum(width for _, width in columns) != len(block) - offset:
        raise SerializationError(
            "int block of %d entries does not fit its %d bytes"
            % (count, len(block) - offset)
        )
    values = []
    for code, width in columns:
        end = offset + count * width
        if code == _WIDE:
            values.append([
                int.from_bytes(block[at : at + width], "little", signed=True)
                for at in range(offset, end, width)
            ])
        else:
            packed = array.array(_TYPECODES[code], block[offset:end])
            if _SWAP:
                packed.byteswap()
            values.append(packed.tolist())
        offset = end
    if kind == _BLOCK_LIST:
        return values[0]
    if kind == _BLOCK_TUPLE:
        return tuple(values[0])
    if kind == _BLOCK_SET:
        return set(values[0])
    if kind == _BLOCK_FROZENSET:
        return frozenset(values[0])
    return dict(zip(values[0], values[1]))


#: The two forms of an integer ndarray block's values: every entry, or a
#: bitmap of the nonzero entries followed by those entries alone.
_ARRAY_DENSE, _ARRAY_SPARSE = range(2)

#: The dtypes an integer ndarray block may name, by ``dtype.str``: every
#: integer width in either byte order, and object.  The decoder looks the
#: name up here rather than parsing it, so a payload cannot make NumPy
#: interpret arbitrary text.
_ARRAY_DTYPES = {
    np.dtype(order + kind + str(width)).str: np.dtype(order + kind + str(width))
    for order in "<>"
    for kind in "iu"
    for width in (1, 2, 4, 8)
} | {np.dtype(object).str: np.dtype(object)}


def _int_array_block(value: "np.ndarray", entries: Optional[List[int]] = None) -> bytes:
    """Pack an integer ndarray (or an object one of exact ints) into a block.

    Layout: the dtype string (a length byte, then ASCII), ``ndim`` and
    each dimension as varints, a form byte, a width spec, then the values
    at the narrowest little-endian width their minimum and maximum fit
    (the int-block width codes).  The sparse form writes a little-endian
    bitmap of the nonzero entries, then the nonzero values; it is taken
    only when strictly shorter.  Form and width depend on the values
    alone, so equal arrays give equal bytes.  ``entries`` is the flat
    list of an object array's ints.
    """
    dtype = value.dtype.str.encode("ascii")
    head = bytearray((len(dtype),)) + dtype
    _write_varint(head, value.ndim)
    for dim in value.shape:
        _write_varint(head, dim)
    flat = value.reshape(-1)
    if entries is not None:
        lo, hi = (min(entries), max(entries)) if entries else (0, 0)
    elif flat.size:
        lo = int(flat.min()) if flat.dtype.kind == "i" else 0
        hi = int(flat.max())
    else:
        lo = hi = 0
    # A zero entry never widens a column, so both forms write this width.
    width = _width_code(lo, hi)[1]
    nonzero = int(np.count_nonzero(flat))
    if (flat.size + 7) // 8 + nonzero * width >= flat.size * width:
        head.append(_ARRAY_DENSE)
        spec, packed = _int_column(flat if entries is None else entries)
        return bytes(head + spec) + packed
    head.append(_ARRAY_SPARSE)
    mask = flat != 0
    nonzero_values = np.compress(mask, flat)
    spec, packed = _int_column(nonzero_values if entries is None else nonzero_values.tolist())
    return bytes(head + spec) + np.packbits(mask, bitorder="little").tobytes() + packed


def _read_int_array(block: Any) -> "np.ndarray":
    """Unpack an ``__intarray__`` node; sizes are checked before allocating."""
    if not isinstance(block, bytes) or not block:
        raise SerializationError("malformed __intarray__ node")
    offset = 1 + block[0]
    dtype = _ARRAY_DTYPES.get(block[1:offset].decode("ascii", "replace"))
    if dtype is None:
        raise SerializationError("int array block of an unknown dtype")
    ndim, offset = _varint_at(block, offset)
    if ndim > len(block) - offset:
        raise SerializationError("int array block has more dimensions than bytes")
    shape = []
    for _ in range(ndim):
        dim, offset = _varint_at(block, offset)
        shape.append(dim)
    count = math.prod(shape)
    form, code = block[offset], block[offset + 1]
    offset += 2
    if code < _WIDE:
        width = 1 << (code >> 1)
    elif code == _WIDE and dtype.kind == "O":
        width, offset = _varint_at(block, offset)
        if width <= 8:
            raise SerializationError("wide int column of only %d bytes" % width)
    else:
        raise SerializationError("int width code %d for dtype %s" % (code, dtype))
    mask = None
    stored = count
    if form == _ARRAY_SPARSE:
        bitmap = (count + 7) // 8
        if bitmap > len(block) - offset:
            raise SerializationError("int array bitmap exceeds the block")
        mask = np.unpackbits(
            np.frombuffer(block, np.uint8, bitmap, offset), count=count, bitorder="little"
        ).view(bool)
        offset += bitmap
        stored = int(np.count_nonzero(mask))
    elif form != _ARRAY_DENSE:
        raise SerializationError("unknown int array form %d" % form)
    if stored * width != len(block) - offset:
        raise SerializationError(
            "int array block of %d values does not fit its %d bytes"
            % (stored, len(block) - offset)
        )
    if code == _WIDE:
        values: Any = [
            int.from_bytes(block[at : at + width], "little", signed=True)
            for at in range(offset, len(block), width)
        ]
    else:
        kind = "i" if code & 1 else "u"
        values = np.frombuffer(block, "<%s%d" % (kind, width), stored, offset)
        if dtype.kind == "O":
            values = values.tolist()
        elif not np.can_cast(values.dtype, dtype) and stored:
            info = np.iinfo(dtype)
            if int(values.min()) < info.min or int(values.max()) > info.max:
                raise SerializationError("int array values do not fit %s" % dtype)
    if mask is None:
        return np.array(values, dtype=dtype).reshape(shape)
    result = np.zeros(count, dtype=dtype)
    result[np.flatnonzero(mask)] = values
    return result.reshape(shape)


# ---------------------------------------------------------------------------
# Snapshot: object graph -> plain tree
# ---------------------------------------------------------------------------


def _is_library_object(value: Any) -> bool:
    module = type(value).__module__ or ""
    return module == _TRUSTED_PACKAGE or module.startswith(_TRUSTED_PACKAGE + ".")


def _instance_fields(value: Any) -> List[Tuple[str, Any]]:
    """Return the set attributes of ``value`` (``__dict__`` and ``__slots__``)."""
    fields: List[Tuple[str, Any]] = []
    if hasattr(value, "__dict__"):
        fields.extend(value.__dict__.items())
    for klass in type(value).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot in ("__dict__", "__weakref__"):
                continue
            try:
                fields.append((slot, getattr(value, slot)))
            except AttributeError:
                continue  # slot declared but never assigned
    return fields


class _Snapshotter:
    """One snapshot pass: assigns node ids so shared objects encode once."""

    def __init__(self) -> None:
        self._memo: Dict[int, int] = {}
        self._keepalive: List[Any] = []  # ids stay unique while we run
        self._next_id = 0

    def _remember(self, value: Any) -> int:
        node_id = self._next_id
        self._next_id += 1
        self._memo[id(value)] = node_id
        self._keepalive.append(value)
        return node_id

    def encode(self, value: Any) -> Any:
        if value is None or isinstance(value, (bool, int, float, str, bytes)):
            return value
        if isinstance(value, bytearray):
            return {"__bytearray__": bytes(value)}
        if isinstance(value, list):
            if _all_ints(value):
                return _int_block(_BLOCK_LIST, value)
            return [self.encode(entry) for entry in value]
        if isinstance(value, tuple):
            if _all_ints(value):
                return _int_block(_BLOCK_TUPLE, value)
            return {"__tuple__": [self.encode(entry) for entry in value]}
        if isinstance(value, dict):
            if _all_ints(value) and _all_ints(value.values()):
                keys = sorted(value)
                return _int_block(_BLOCK_MAP, keys, list(map(value.__getitem__, keys)))
            items = list(value.items())
            # Canonical key order: two dicts holding equal entries must
            # snapshot identically even when their *insertion* orders
            # differ (e.g. a sample dict built shard-by-shard-then-merged
            # versus sequentially) — no sketch's behaviour depends on
            # dict iteration order, so insertion order is not state.
            if all(isinstance(key, (int, float, str, bytes, bool)) for key, _ in items):
                items.sort(key=lambda pair: (type(pair[0]).__name__, pair[0]))
            return {
                "__map__": [
                    [self.encode(key), self.encode(entry)] for key, entry in items
                ]
            }
        if isinstance(value, (set, frozenset)):
            frozen = isinstance(value, frozenset)
            if _all_ints(value):
                return _int_block(
                    _BLOCK_FROZENSET if frozen else _BLOCK_SET, _sorted_set(value)
                )
            try:
                ordered = sorted(value)
            except TypeError:
                ordered = list(value)
            marker = "__frozenset__" if frozen else "__set__"
            return {marker: [self.encode(entry) for entry in ordered]}
        if isinstance(value, np.ndarray):
            if value.dtype.kind in "iu":
                return {"__intarray__": _int_array_block(value)}
            if value.dtype == object:
                entries = value.ravel().tolist()
                if _all_ints(entries):
                    return {"__intarray__": _int_array_block(value, entries)}
                return {
                    "__ndarray__": {
                        "dtype": "object",
                        "shape": list(value.shape),
                        "items": [self.encode(entry) for entry in entries],
                    }
                }
            return {
                "__ndarray__": {
                    "dtype": value.dtype.str,
                    "shape": list(value.shape),
                    "data": np.ascontiguousarray(value).tobytes(),
                }
            }
        if isinstance(value, np.generic):
            return {"__npscalar__": value.dtype.str, "data": value.tobytes()}
        if isinstance(value, random.Random):
            known = self._memo.get(id(value))
            if known is not None:
                return {"__ref__": known}
            node_id = self._remember(value)
            return {"__random__": node_id, "__state__": self.encode(value.getstate())}
        if _is_library_object(value):
            known = self._memo.get(id(value))
            if known is not None:
                return {"__ref__": known}
            node_id = self._remember(value)
            klass = type(value)
            state = {name: self.encode(entry) for name, entry in _instance_fields(value)}
            return {
                "__object__": "%s:%s" % (klass.__module__, klass.__qualname__),
                "__id__": node_id,
                "__state__": state,
            }
        raise SerializationError(
            "cannot serialize a value of type %r (module %r); sketch state "
            "must stay within the supported type set"
            % (type(value).__name__, type(value).__module__)
        )


def snapshot(value: Any) -> Dict[str, Any]:
    """Return a ``state_dict`` tree capturing ``value``'s complete state.

    The result contains only plain Python values (plus ``bytes`` for raw
    buffers and typed integer blocks) and is safe to hold, compare, or
    encode with :func:`dumps`.  Two sketches with equal snapshots are in
    bit-identical state.
    """
    tree = _Snapshotter().encode(value)
    if not (isinstance(tree, dict) and "__object__" in tree):
        raise SerializationError(
            "snapshot() expects a library object, got %r" % type(value).__name__
        )
    return tree


# ---------------------------------------------------------------------------
# Rebuild: plain tree -> object graph
# ---------------------------------------------------------------------------


def _resolve_class(path: str) -> type:
    module_name, _, qualname = path.partition(":")
    if not (
        module_name == _TRUSTED_PACKAGE
        or module_name.startswith(_TRUSTED_PACKAGE + ".")
    ):
        raise SerializationError(
            "refusing to revive class %r from outside the %r package"
            % (path, _TRUSTED_PACKAGE)
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise SerializationError("cannot import module %r" % module_name) from error
    target: Any = module
    for piece in qualname.split("."):
        target = getattr(target, piece, None)
        if target is None:
            raise SerializationError("class %r not found" % path)
    if not isinstance(target, type):
        raise SerializationError("%r does not name a class" % path)
    return target


# A damaged payload must surface as SerializationError, never as whatever
# low-level exception the damage happens to trip first.  The decode entry
# points funnel through this guard; SerializationError itself passes
# through untouched (it is a ValueError subclass, so it must be re-raised
# before the blanket ValueError arm).
_DECODE_ERRORS = (
    KeyError,
    IndexError,
    TypeError,
    ValueError,
    AttributeError,
    OverflowError,
    MemoryError,
    RecursionError,
    struct.error,
)


def _guarded(fn, *args):
    try:
        return fn(*args)
    except SerializationError:
        raise
    except _DECODE_ERRORS as error:
        raise SerializationError(
            "malformed payload: %s: %s" % (type(error).__name__, error)
        ) from error


class _Rebuilder:
    """One rebuild pass; mirrors the memo discipline of :class:`_Snapshotter`."""

    def __init__(self) -> None:
        self._memo: Dict[int, Any] = {}

    def decode(self, node: Any) -> Any:
        if node is None or isinstance(node, (bool, int, float, str, bytes)):
            return node
        if isinstance(node, list):
            return [self.decode(entry) for entry in node]
        if isinstance(node, dict):
            if "__ints__" in node:
                return _read_int_block(node["__ints__"])
            if "__intarray__" in node:
                return _read_int_array(node["__intarray__"])
            if "__tuple__" in node:
                return tuple(self.decode(entry) for entry in node["__tuple__"])
            if "__map__" in node:
                entries = node["__map__"]
                if not isinstance(entries, list) or any(
                    not isinstance(pair, (list, tuple)) or len(pair) != 2
                    for pair in entries
                ):
                    raise SerializationError("malformed __map__ node")
                return {
                    self.decode(key): self.decode(entry) for key, entry in entries
                }
            if "__set__" in node:
                return {self.decode(entry) for entry in node["__set__"]}
            if "__frozenset__" in node:
                return frozenset(self.decode(entry) for entry in node["__frozenset__"])
            if "__bytearray__" in node:
                return bytearray(node["__bytearray__"])
            if "__ndarray__" in node:
                spec = node["__ndarray__"]
                if not isinstance(spec, dict) or "dtype" not in spec or "shape" not in spec:
                    raise SerializationError("malformed __ndarray__ node")
                if spec["dtype"] == "object":
                    if "items" not in spec or not isinstance(spec["items"], list):
                        raise SerializationError("malformed object-dtype __ndarray__ node")
                    revived = np.empty(len(spec["items"]), dtype=object)
                    for index, entry in enumerate(spec["items"]):
                        revived[index] = self.decode(entry)
                    return revived.reshape(spec["shape"])
                if "data" not in spec or not isinstance(spec["data"], bytes):
                    raise SerializationError("__ndarray__ node is missing its buffer")
                return np.frombuffer(
                    spec["data"], dtype=np.dtype(spec["dtype"])
                ).reshape(spec["shape"]).copy()
            if "__npscalar__" in node:
                return np.frombuffer(
                    node["data"], dtype=np.dtype(node["__npscalar__"])
                )[0]
            if "__ref__" in node:
                try:
                    return self._memo[node["__ref__"]]
                except KeyError:
                    raise SerializationError(
                        "dangling shared-object reference %r" % node["__ref__"]
                    ) from None
            if "__random__" in node:
                # Not an entropy draw: the fresh generator's state is
                # overwritten by the recorded state on the next line.
                rng = random.Random()  # lint: allow[det-unseeded-rng] state is setstate()d from the payload below
                self._memo[node["__random__"]] = rng
                rng.setstate(self.decode(node["__state__"]))
                return rng
            if "__object__" in node:
                if not isinstance(node.get("__object__"), str):
                    raise SerializationError("malformed __object__ node")
                if "__id__" not in node or not isinstance(node.get("__state__"), dict):
                    raise SerializationError("object node is missing __id__/__state__")
                klass = _resolve_class(node["__object__"])
                instance = klass.__new__(klass)
                self._memo[node["__id__"]] = instance
                self._apply_state(instance, node["__state__"])
                return instance
            raise SerializationError("unrecognised snapshot node %r" % sorted(node))
        raise SerializationError("unrecognised snapshot value %r" % type(node).__name__)

    def _apply_state(self, instance: Any, state: Dict[str, Any]) -> None:
        for name, entry in state.items():
            object.__setattr__(instance, name, self.decode(entry))

    def rebuild_into(self, instance: Any, node: Dict[str, Any]) -> None:
        """Restore a top-level object node into an existing instance."""
        recorded = node.get("__object__")
        klass = type(instance)
        expected = "%s:%s" % (klass.__module__, klass.__qualname__)
        if recorded != expected:
            raise SerializationError(
                "state_dict was captured from %r, cannot load into %r"
                % (recorded, expected)
            )
        self._memo[node["__id__"]] = instance
        # Drop attributes not present in the snapshot (e.g. lazy caches),
        # so the restored instance is field-for-field the captured one.
        if hasattr(instance, "__dict__"):
            for stale in [
                key for key in instance.__dict__ if key not in node["__state__"]
            ]:
                del instance.__dict__[stale]
        self._apply_state(instance, node["__state__"])


def restore(instance: Any, state: Dict[str, Any]) -> None:
    """Load a :func:`snapshot` tree back into ``instance`` (in place).

    ``instance`` must be of the exact class the snapshot was captured
    from (construct it with any valid parameters first); all captured
    fields — including nested components and shared sub-objects — are
    rebuilt and assigned.
    """
    if not (isinstance(state, dict) and "__object__" in state):
        raise SerializationError("restore() expects a snapshot produced by snapshot()")
    _guarded(_Rebuilder().rebuild_into, instance, state)


def revive(state: Dict[str, Any]) -> Any:
    """Construct a fresh object from a :func:`snapshot` tree."""
    if not (isinstance(state, dict) and "__object__" in state):
        raise SerializationError("revive() expects a snapshot produced by snapshot()")
    return _guarded(_Rebuilder().decode, state)


# ---------------------------------------------------------------------------
# Binary codec: plain tree <-> bytes
# ---------------------------------------------------------------------------

_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_FLOAT = 0x03  # 8 IEEE-754 bytes follow; every later tag is followed by a varint:
_TAG_INT = 0x04  # byte length of the signed little-endian value that follows
_TAG_STR = 0x05  # byte length of the UTF-8 text that follows
_TAG_BYTES = 0x06  # byte length of the raw bytes that follow
_TAG_LIST = 0x07  # element count
_TAG_DICT = 0x08  # entry count
_TAG_STR_REF = 0x09  # index of a string written earlier in the frame


def _write_head(out: bytearray, tag: int, value: int) -> None:
    out.append(tag)
    if value < 0x80:
        out.append(value)
    else:
        _write_varint(out, value)


def _encode_tree(out: bytearray, node: Any, strings: Dict[str, int]) -> None:
    if isinstance(node, str):
        index = strings.get(node)
        if index is None:
            strings[node] = len(strings)
            raw = node.encode("utf-8")
            _write_head(out, _TAG_STR, len(raw))
            out += raw
        else:
            _write_head(out, _TAG_STR_REF, index)
    elif isinstance(node, dict):
        _write_head(out, _TAG_DICT, len(node))
        # Order-safe: _encode_tree only ever sees snapshotter output, where
        # plain dicts have already been canonicalized into sorted __map__
        # or __ints__ marker nodes; the dicts reaching here are marker
        # wrappers and __state__ dicts built in deterministic order.
        for key, entry in node.items():  # lint: allow[det-serialize-dict-order] input is canonical snapshotter output
            if not isinstance(key, str):
                raise SerializationError("snapshot tree keys must be strings")
            _encode_tree(out, key, strings)
            _encode_tree(out, entry, strings)
    elif node is None:
        out.append(_TAG_NONE)
    elif node is True:
        out.append(_TAG_TRUE)
    elif node is False:
        out.append(_TAG_FALSE)
    elif isinstance(node, int):
        length = (node.bit_length() + 8) // 8
        _write_head(out, _TAG_INT, length)
        out += node.to_bytes(length, "little", signed=True)
    elif isinstance(node, bytes):
        _write_head(out, _TAG_BYTES, len(node))
        out += node
    elif isinstance(node, list):
        _write_head(out, _TAG_LIST, len(node))
        for entry in node:
            _encode_tree(out, entry, strings)
    elif isinstance(node, float):
        out.append(_TAG_FLOAT)
        out += struct.pack("<d", node)
    else:
        raise SerializationError(
            "snapshot tree contains an unencodable %r" % type(node).__name__
        )


class _Reader:
    """Decodes one frame's tree; strings are numbered as they first appear.

    Reading past the end raises ``IndexError``, which the decode guard
    reports as ``SerializationError``; lengths and counts are checked
    against the bytes left before they are used.
    """

    def __init__(self, data: bytes, offset: int) -> None:
        self._data = data
        self._offset = offset
        self._strings: List[str] = []

    def read_tree(self) -> Any:
        data = self._data
        offset = self._offset
        tag = data[offset]
        if tag <= _TAG_FLOAT:
            if tag < _TAG_FLOAT:
                self._offset = offset + 1
                return (None, True, False)[tag]
            self._offset = offset + 9
            return struct.unpack_from("<d", data, offset + 1)[0]
        if tag > _TAG_STR_REF:
            raise SerializationError("unknown tag 0x%02x in payload" % tag)
        value = data[offset + 1]
        if value < 0x80:
            offset += 2
        else:
            value, offset = _varint_at(data, offset + 1)
        if value > len(data) - offset and tag != _TAG_STR_REF:
            raise SerializationError("length or count exceeds the remaining payload")
        self._offset = offset
        if tag == _TAG_STR_REF:
            return self._strings[value]
        if tag == _TAG_DICT:
            result: Dict[str, Any] = {}
            for _ in range(value):
                key = self.read_tree()
                if not isinstance(key, str):
                    raise SerializationError("snapshot tree keys must be strings")
                result[key] = self.read_tree()
            return result
        if tag == _TAG_LIST:
            return [self.read_tree() for _ in range(value)]
        end = offset + value
        self._offset = end
        if tag == _TAG_STR:
            text = data[offset:end].decode("utf-8")
            self._strings.append(text)
            return text
        if tag == _TAG_INT:
            return int.from_bytes(data[offset:end], "little", signed=True)
        return data[offset:end]  # _TAG_BYTES

    def finished(self) -> bool:
        return self._offset == len(self._data)


def _framed(tree: Any) -> bytes:
    out = bytearray(FORMAT_MAGIC)
    out.append(FORMAT_VERSION)
    _encode_tree(out, tree, {})
    return bytes(out)


def dumps(value: Any, state: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize a library object (or a pre-taken snapshot) to framed bytes."""
    return _framed(state if state is not None else snapshot(value))


def dumps_tree(value: Any) -> bytes:
    """Serialize any supported value tree to framed canonical bytes.

    Unlike :func:`dumps`, the input need not be a library object: plain
    dicts, lists, scalars, and NumPy arrays are accepted directly, with
    the same canonicalisation rules (sorted dict keys, typed integer
    blocks, contiguous array buffers) the object path uses.  Two
    structurally equal trees encode to byte-identical payloads, which is
    what fingerprint-style callers (e.g.
    :func:`repro.streams.workloads.workload_fingerprint`) rely on.
    """
    return _framed(_Snapshotter().encode(value))


def decode_frame(data: bytes, require_object: bool = True) -> Any:
    """Validate the framing of ``data`` and return the snapshot tree."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SerializationError("from_bytes expects a bytes-like payload")
    data = bytes(data)
    if len(data) < len(FORMAT_MAGIC) + 1 or data[: len(FORMAT_MAGIC)] != FORMAT_MAGIC:
        raise SerializationError("payload does not start with the %r frame" % FORMAT_MAGIC)
    version = data[len(FORMAT_MAGIC)]
    if version != FORMAT_VERSION:
        raise FormatVersionError(version, FORMAT_VERSION)
    reader = _Reader(data, len(FORMAT_MAGIC) + 1)
    tree = _guarded(reader.read_tree)
    if not reader.finished():
        raise SerializationError("trailing bytes after payload")
    if require_object and not (isinstance(tree, dict) and "__object__" in tree):
        raise SerializationError("payload does not contain an object snapshot")
    return tree


def loads(data: bytes) -> Any:
    """Revive the object serialized by :func:`dumps`."""
    return revive(decode_frame(data))


def loads_tree(data: bytes) -> Any:
    """Decode a value tree serialized by :func:`dumps_tree`.

    The inverse of :func:`dumps_tree`: the top-level value may be any
    supported tree (dict, list, scalar, NumPy array), not necessarily a
    library-object snapshot.  Library objects nested inside the tree are
    revived exactly as :func:`loads` would revive them.
    """
    tree = decode_frame(data, require_object=False)
    return _guarded(_Rebuilder().decode, tree)
