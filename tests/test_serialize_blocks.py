"""Typed integer blocks in the wire format (``repro.serialize``).

Every list, tuple, set, frozenset, and int→int dict of exact ``int``s is
one block: kind, count, the narrowest width that fits its minimum and
maximum, raw little-endian bytes.  Every integer ndarray, and every
object ndarray of exact ints, is one block too: dtype, shape, and its
values dense or as a nonzero bitmap plus the nonzero values, whichever
is shorter.  These properties pin the contract:

* round trips give equal values of exactly the same types (``True``
  never comes back as ``1``, a tuple never as a list), at every width
  edge and beyond 64 bits;
* equal dicts and sets encode to equal bytes whatever their insertion
  order;
* a frame whose block count or width code was altered fails closed with
  ``SerializationError``;
* ndarrays come back with their dtype, shape and values, equal arrays
  give equal bytes, and a truncated or flipped array block raises only
  ``SerializationError``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serialize
from repro.exceptions import FormatVersionError, SerializationError
from repro.serialize import FORMAT_MAGIC, FORMAT_VERSION, dumps_tree, loads_tree

#: Each width edge, its neighbours, and values past 64 bits.
_EDGES = sorted(
    {
        value + offset
        for edge in (2**7, 2**8, 2**15, 2**16, 2**31, 2**32, 2**63, 2**64, 2**100)
        for value in (edge, -edge)
        for offset in (-1, 0, 1)
    }
    | {0, 1, -1}
)

edge_ints = st.one_of(st.sampled_from(_EDGES), st.integers())
int_lists = st.lists(edge_ints, max_size=12)


def _exact(value):
    """A value's structure with every leaf's exact type attached."""
    if isinstance(value, (list, tuple)):
        return (type(value), [_exact(entry) for entry in value])
    if isinstance(value, (set, frozenset)):
        return (type(value), sorted((type(entry), entry) for entry in value))
    if isinstance(value, dict):
        return (
            type(value),
            sorted(
                ((type(key), key), _exact(entry)) for key, entry in value.items()
            ),
        )
    return (type(value), value)


def _round_trip(value):
    revived = loads_tree(dumps_tree(value))
    assert revived == value
    assert _exact(revived) == _exact(value)


#: Long enough for the NumPy packing path of unsigned columns.
long_int_lists = st.lists(edge_ints, min_size=64, max_size=90)

containers = st.one_of(
    int_lists,
    int_lists.map(tuple),
    long_int_lists,
    st.lists(st.sampled_from([v for v in _EDGES if 0 <= v < 2**64]), min_size=64, max_size=90),
    st.sets(edge_ints, max_size=12),
    st.frozensets(edge_ints, max_size=12),
    st.dictionaries(edge_ints, edge_ints, max_size=12),
    st.lists(st.one_of(st.booleans(), edge_ints), max_size=8),
    st.lists(st.one_of(st.booleans(), edge_ints), max_size=8).map(tuple),
    st.dictionaries(edge_ints, st.one_of(st.booleans(), st.text(max_size=3), edge_ints)),
    st.dictionaries(st.booleans(), edge_ints),
)


@settings(max_examples=300, deadline=None)
@given(value=containers)
def test_containers_round_trip_with_exact_types(value):
    _round_trip(value)


@settings(max_examples=100, deadline=None)
@given(value=st.lists(containers, max_size=4))
def test_nested_containers_round_trip(value):
    _round_trip({"nested": value, "tuple": tuple(value)})


@pytest.mark.parametrize("value", _EDGES)
@pytest.mark.parametrize("kind", [list, tuple, set, frozenset])
def test_every_width_edge_round_trips(kind, value):
    _round_trip(kind([value]))
    _round_trip(kind([0, value]))
    _round_trip({value: value, 0: -value})


@pytest.mark.parametrize("value", _EDGES)
def test_long_and_short_columns_pick_the_same_width(value):
    """Width depends on the values alone, not on the column's length."""
    short = _split(dumps_tree([0, value]))[1]
    long_ = _split(dumps_tree([0, value] * 40))[1]
    assert _code(short) == _code(long_)
    _round_trip([value, 0] * 40)


@pytest.mark.parametrize(
    "value", [[], (), set(), frozenset(), {}, [7], (7,), {7}, frozenset({7}), {7: 8}]
)
def test_empty_and_single_element_containers(value):
    _round_trip(value)


def test_bools_are_never_packed_as_ints():
    for value in ([True, 1], (1, False), {1: True}, {True: 1}, [True], (False,)):
        _round_trip(value)
    assert dumps_tree([True, 1]) != dumps_tree([1, 1])
    assert dumps_tree((1, 2)) != dumps_tree([1, 2])


@settings(max_examples=200, deadline=None)
@given(pairs=st.dictionaries(edge_ints, edge_ints, max_size=20), data=st.data())
def test_dict_bytes_ignore_insertion_order(pairs, data):
    items = list(pairs.items())
    shuffled = data.draw(st.permutations(items))
    assert dumps_tree(dict(shuffled)) == dumps_tree(pairs)


@settings(max_examples=200, deadline=None)
@given(members=st.lists(edge_ints, max_size=20, unique=True), data=st.data())
def test_set_bytes_ignore_insertion_order(members, data):
    shuffled = data.draw(st.permutations(members))
    assert dumps_tree(set(shuffled)) == dumps_tree(set(members))
    assert dumps_tree(frozenset(shuffled)) == dumps_tree(frozenset(members))


@settings(max_examples=100, deadline=None)
@given(
    members=st.lists(
        st.one_of(st.integers(0, 2**64 - 1), edge_ints), min_size=60, max_size=200, unique=True
    ),
    data=st.data(),
)
def test_long_int_sets_encode_as_sorted_does(members, data):
    """Long ``uint64`` sets sort in NumPy; every insertion order must give
    the bytes that ``sorted()`` gives, and so must the sets that hold a
    negative or wider entry and keep ``sorted()``."""

    def sets_of(order):
        return {"set": set(order), "frozenset": frozenset(order)}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_sorted_set", sorted)
        expected = dumps_tree(sets_of(members))
    assert dumps_tree(sets_of(members)) == expected
    assert dumps_tree(sets_of(data.draw(st.permutations(members)))) == expected


# ---------------------------------------------------------------------------
# Altered blocks fail closed.
# ---------------------------------------------------------------------------

_WIDTHS = {code: 1 << (code >> 1) for code in range(8)}


def _varint(data: bytes, offset: int):
    """``(value, next offset)`` of the varint at ``data[offset]``."""
    value = shift = 0
    while True:
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, offset
        shift += 7


def _encode_varint(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _split(blob: bytes, marker: bytes = b"__ints__"):
    """``(frame head, block)`` of a ``dumps_tree`` frame holding one block.

    Such a frame is ``{"__ints__": <bytes>}`` (``{"__intarray__": ...}``
    for an ndarray): after the interned marker key come the bytes leaf's
    tag, its varint length, and the block, which runs to the end of the
    frame.
    """
    head = blob.index(marker) + len(marker) + 1
    length, start = _varint(blob, head)
    assert start + length == len(blob)
    return blob[:head], blob[start:]


def _join(head: bytes, block: bytes) -> bytes:
    return head + _encode_varint(len(block)) + block


def _code(block: bytes) -> int:
    """The width code of a one-column block: it follows the kind and count."""
    return block[_varint(block, 1)[1]]


narrow_lists = st.lists(st.integers(-(2**63), 2**64 - 1), min_size=1, max_size=100)


@settings(max_examples=200, deadline=None)
@given(values=narrow_lists, delta=st.integers(1, 5), grow=st.booleans())
def test_altered_block_count_raises(values, delta, grow):
    head, block = _split(dumps_tree(values))
    count, code_at = _varint(block, 1)
    altered = count + delta if grow or count == 0 else max(0, count - delta)
    block = block[:1] + _encode_varint(altered) + block[code_at:]
    with pytest.raises(SerializationError):
        loads_tree(_join(head, block))


@settings(max_examples=200, deadline=None)
@given(values=narrow_lists, code=st.integers(0, 255))
def test_altered_width_code_raises(values, code):
    head, block = _split(dumps_tree(values))
    code_at = _varint(block, 1)[1]
    original = block[code_at]
    if code == original or _WIDTHS.get(code, -1) == _WIDTHS.get(original):
        code = 0xFF  # a same-width sign flip decodes to other values, not an error
    block = block[:code_at] + bytes([code]) + block[code_at + 1 :]
    with pytest.raises(SerializationError):
        loads_tree(_join(head, block))


def test_altered_block_kind_raises():
    head, block = _split(dumps_tree([1, 2, 3]))
    with pytest.raises(SerializationError):
        loads_tree(_join(head, bytes([5]) + block[1:]))


def test_wide_block_must_be_wider_than_eight_bytes():
    head, block = _split(dumps_tree([2**70, -(2**70)]))
    count, code_at = _varint(block, 1)
    assert block[code_at] == 8  # the wide code
    narrowed = block[: code_at + 1] + _encode_varint(1) + bytes(count)
    with pytest.raises(SerializationError):
        loads_tree(_join(head, narrowed))


def test_a_version_1_frame_raises():
    assert FORMAT_VERSION > 1
    blob = dumps_tree({"items": [1, 2, 3]})
    older = blob[: len(FORMAT_MAGIC)] + bytes([1]) + blob[len(FORMAT_MAGIC) + 1 :]
    with pytest.raises(FormatVersionError) as raised:
        loads_tree(older)
    assert isinstance(raised.value, SerializationError)
    assert (raised.value.found, raised.value.expected) == (1, FORMAT_VERSION)
    assert "version 1 (expected %d)" % FORMAT_VERSION in str(raised.value)


# ---------------------------------------------------------------------------
# Integer ndarrays
# ---------------------------------------------------------------------------

_INT_DTYPES = [
    np.dtype(code) for code in ("int8", "uint8", "int16", "uint16", "int32", "uint32", "int64", "uint64")
]


@st.composite
def int_arrays(draw):
    """An integer ndarray of any width and shape, often mostly zero."""
    dtype = draw(st.sampled_from(_INT_DTYPES))
    info = np.iinfo(dtype)
    shape = tuple(draw(st.lists(st.integers(0, 6), max_size=3)))
    edges = [v for v in (info.min, info.min + 1, -1, 1, info.max - 1, info.max) if info.min <= v]
    entry = st.one_of(st.integers(info.min, info.max), st.sampled_from(edges))
    zero_share = draw(st.sampled_from([0, 1, 3, 20]))
    values = draw(
        st.lists(
            st.one_of(entry, *[st.just(0)] * zero_share),
            min_size=math.prod(shape),
            max_size=math.prod(shape),
        )
    )
    return np.array(values, dtype=dtype).reshape(shape)


@st.composite
def object_int_arrays(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
    values = draw(
        st.lists(
            st.one_of(edge_ints, st.just(0)),
            min_size=math.prod(shape),
            max_size=math.prod(shape),
        )
    )
    array = np.empty(math.prod(shape), dtype=object)
    array[:] = values
    return array.reshape(shape)


def _assert_same_array(revived, array):
    assert isinstance(revived, np.ndarray)
    assert revived.dtype == array.dtype and revived.shape == array.shape
    assert revived.tolist() == array.tolist()
    if array.dtype == object:
        assert all(type(v) is int for v in revived.reshape(-1).tolist())


@settings(max_examples=300, deadline=None)
@given(array=st.one_of(int_arrays(), object_int_arrays()))
def test_int_arrays_round_trip_with_dtype_and_shape(array):
    blob = dumps_tree(array)
    assert b"__intarray__" in blob
    revived = loads_tree(blob)
    _assert_same_array(revived, array)
    assert revived.flags.writeable and revived.flags.c_contiguous
    assert dumps_tree(revived) == blob


@settings(max_examples=100, deadline=None)
@given(array=int_arrays())
def test_equal_arrays_give_equal_bytes(array):
    assert dumps_tree(array.copy(order="F")) == dumps_tree(array)
    if array.ndim:
        assert dumps_tree(np.flip(np.flip(array))) == dumps_tree(array)  # a strided view


def _array_form(blob: bytes) -> int:
    """The form byte of a one-array frame: 0 dense, 1 sparse."""
    block = _split(blob, b"__intarray__")[1]
    offset = 1 + block[0]
    ndim, offset = _varint(block, offset)
    for _ in range(ndim):
        offset = _varint(block, offset)[1]
    return block[offset]


@pytest.mark.parametrize("dtype,width", [("uint8", 1), ("int16", 2), ("uint64", 8)])
def test_the_sparse_form_is_taken_only_when_shorter(dtype, width):
    """64 entries: dense costs 64 w bytes, sparse 8 + w per nonzero entry."""
    limit = (64 * width - 8 + width - 1) // width  # the first count that is not shorter
    for nonzero, form in ((0, 1), (limit - 1, 1), (limit, 0), (64, 0)):
        array = np.zeros(64, dtype=dtype)
        array[:nonzero] = 1
        array[0] = np.iinfo(dtype).max  # pins the width
        if nonzero == 0:
            array[0] = 0
        blob = dumps_tree(array)
        assert _array_form(blob) == form, nonzero
        _assert_same_array(loads_tree(blob), array)


@pytest.mark.parametrize(
    "array",
    [
        np.zeros(0, dtype=np.uint64),
        np.zeros((3, 0, 2), dtype=np.int32),
        np.zeros((4, 4), dtype=np.uint64),
        np.array(5, dtype=np.int8),
        np.array([2**64 - 1, 0, 2**63], dtype=np.uint64),
        np.array([-(2**63), 2**63 - 1], dtype=np.int64),
        np.array([3, 1], dtype=">u4"),
    ],
    ids=["empty", "empty-3d", "all-zero", "scalar", "u64-top", "i64-edges", "big-endian"],
)
def test_int_array_edges_round_trip(array):
    _assert_same_array(loads_tree(dumps_tree(array)), array)


def test_wide_object_arrays_round_trip():
    array = np.empty(40, dtype=object)
    array[:] = [0] * 38 + [2**100, -(2**70)]
    _assert_same_array(loads_tree(dumps_tree(array)), array)
    mixed = np.array([1, "a"], dtype=object)
    assert b"__intarray__" not in dumps_tree(mixed)
    assert loads_tree(dumps_tree(mixed)).tolist() == [1, "a"]


def test_an_oversized_shape_raises_before_allocating():
    head, block = _split(dumps_tree(np.arange(4, dtype=np.uint8)), b"__intarray__")
    offset = 1 + block[0]
    assert block[offset : offset + 2] == bytes([1, 4])  # ndim 1, dimension 4
    huge = block[:offset] + bytes([1]) + _encode_varint(1 << 40) + block[offset + 2 :]
    with pytest.raises(SerializationError):
        loads_tree(_join(head, huge))


def test_values_that_do_not_fit_the_dtype_raise():
    head, block = _split(dumps_tree(np.array([1, 255], dtype=np.uint8)), b"__intarray__")
    with pytest.raises(SerializationError):
        loads_tree(_join(head, block.replace(b"|u1", b"|i1")))


@settings(max_examples=300, deadline=None)
@given(array=st.one_of(int_arrays(), object_int_arrays()), data=st.data())
def test_damaged_array_blocks_raise_only_serialization_error(array, data):
    blob = bytearray(dumps_tree(array))
    start = blob.index(b"__intarray__")
    if data.draw(st.booleans()):
        for _ in range(data.draw(st.integers(1, 4))):
            position = data.draw(st.integers(start, len(blob) - 1))
            blob[position] ^= 1 << data.draw(st.integers(0, 7))
    else:
        blob = blob[: data.draw(st.integers(start, len(blob) - 1))]
    try:
        loads_tree(bytes(blob))
    except SerializationError:
        pass
