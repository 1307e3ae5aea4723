"""Typed integer blocks in the v2 wire format (``repro.serialize``).

Every list, tuple, set, frozenset, and int→int dict of exact ``int``s is
one block: kind, count, the narrowest width that fits its minimum and
maximum, raw little-endian bytes.  These properties pin the contract:

* round trips give equal values of exactly the same types (``True``
  never comes back as ``1``, a tuple never as a list), at every width
  edge and beyond 64 bits;
* equal dicts and sets encode to equal bytes whatever their insertion
  order;
* a frame whose block count or width code was altered fails closed with
  ``SerializationError``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _split(blob: bytes):
    """``(frame head, block)`` of a ``dumps_tree`` frame holding one block.

    Such a frame is ``{"__ints__": <bytes>}``: after the interned marker
    key come the bytes leaf's tag, its varint length, and the block,
    which runs to the end of the frame.
    """
    head = blob.index(b"__ints__") + len(b"__ints__") + 1
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
    assert FORMAT_VERSION == 2
    blob = dumps_tree({"items": [1, 2, 3]})
    older = blob[: len(FORMAT_MAGIC)] + bytes([1]) + blob[len(FORMAT_MAGIC) + 1 :]
    with pytest.raises(FormatVersionError) as raised:
        loads_tree(older)
    assert isinstance(raised.value, SerializationError)
    assert (raised.value.found, raised.value.expected) == (1, 2)
    assert "version 1 (expected 2)" in str(raised.value)
