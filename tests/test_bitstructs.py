"""Tests for the bit-level data structures (bitvector, bitmatrix, VLA)."""

from __future__ import annotations

import pytest

from repro.bitstructs import (
    BitMatrix,
    BitVector,
    SpaceBreakdown,
    VariableBitLengthArray,
    bits_for_counter,
    bits_for_value,
    total_space_bits,
)
from repro.exceptions import ParameterError


class TestBitVector:
    def test_starts_all_zero(self):
        vector = BitVector(100)
        assert vector.count_ones() == 0
        assert vector.count_zeros() == 100

    def test_set_and_get(self):
        vector = BitVector(64)
        vector.set(5, 1)
        vector.set(63, 1)
        assert vector.get(5) == 1
        assert vector.get(63) == 1
        assert vector.get(6) == 0
        assert vector.count_ones() == 2

    def test_idempotent_set_keeps_count(self):
        vector = BitVector(16)
        vector.set(3, 1)
        vector.set(3, 1)
        assert vector.count_ones() == 1

    def test_unset(self):
        vector = BitVector(16)
        vector.set(3, 1)
        vector.set(3, 0)
        assert vector.count_ones() == 0

    def test_clear(self):
        vector = BitVector(16)
        for index in range(16):
            vector.set(index, 1)
        vector.clear()
        assert vector.count_ones() == 0

    def test_union_update(self):
        a = BitVector.from_bits([1, 0, 1, 0])
        b = BitVector.from_bits([0, 1, 1, 0])
        a.union_update(b)
        assert a.to_list() == [1, 1, 1, 0]
        assert a.count_ones() == 3

    def test_union_requires_matching_length(self):
        with pytest.raises(ParameterError):
            BitVector(4).union_update(BitVector(8))

    def test_iter_ones(self):
        vector = BitVector.from_bits([0, 1, 0, 0, 1, 1])
        assert list(vector.iter_ones()) == [1, 4, 5]

    def test_bounds_checked(self):
        vector = BitVector(8)
        with pytest.raises(ParameterError):
            vector.get(8)
        with pytest.raises(ParameterError):
            vector.set(-1, 1)
        with pytest.raises(ParameterError):
            vector.set(0, 2)

    def test_space_is_length(self):
        assert BitVector(1000).space_bits() == 1000


class TestBitMatrix:
    def test_set_get(self):
        matrix = BitMatrix(4, 8)
        matrix.set(2, 3, 1)
        assert matrix.get(2, 3) == 1
        assert matrix.get(1, 3) == 0

    def test_row_ones_and_total(self):
        matrix = BitMatrix(3, 4)
        matrix.set(0, 0, 1)
        matrix.set(0, 2, 1)
        matrix.set(2, 1, 1)
        assert matrix.row_ones(0) == 2
        assert matrix.row_ones(1) == 0
        assert matrix.total_ones() == 3

    def test_column_deepest_row(self):
        matrix = BitMatrix(5, 3)
        matrix.set(1, 0, 1)
        matrix.set(4, 0, 1)
        assert matrix.column_deepest_row(0) == 4
        assert matrix.column_deepest_row(1) == -1

    def test_union_update(self):
        a = BitMatrix(2, 4)
        b = BitMatrix(2, 4)
        a.set(0, 1, 1)
        b.set(1, 2, 1)
        a.union_update(b)
        assert a.get(0, 1) == 1 and a.get(1, 2) == 1

    def test_iter_ones(self):
        matrix = BitMatrix(2, 2)
        matrix.set(0, 1, 1)
        matrix.set(1, 0, 1)
        assert sorted(matrix.iter_ones()) == [(0, 1), (1, 0)]

    def test_space_is_rows_times_columns(self):
        assert BitMatrix(20, 128).space_bits() == 20 * 128

    def test_shape_validation(self):
        with pytest.raises(ParameterError):
            BitMatrix(0, 3)
        matrix = BitMatrix(2, 2)
        with pytest.raises(ParameterError):
            matrix.row_ones(2)
        with pytest.raises(ParameterError):
            matrix.union_update(BitMatrix(3, 2))


class TestVariableBitLengthArray:
    def test_initial_values(self):
        array = VariableBitLengthArray(10)
        assert array.to_list() == [0] * 10

    def test_update_and_read(self):
        array = VariableBitLengthArray(20)
        array.update(3, 17)
        array.update(19, 255)
        assert array.read(3) == 17
        assert array.read(19) == 255
        assert array.read(0) == 0

    def test_payload_bits_tracks_contents(self):
        array = VariableBitLengthArray(4)
        base = array.payload_bits()
        array.update(0, 255)  # 8 bits instead of 1
        assert array.payload_bits() == base + 7

    def test_space_bound_shape(self):
        array = VariableBitLengthArray(100)
        small_space = array.space_bits()
        for index in range(100):
            array.update(index, 3)
        assert array.space_bits() > small_space
        # Theorem 8 shape: O(n + sum len) — here exactly 2n + payload + 2 words.
        assert array.space_bits() == 2 * 100 + array.payload_bits() + 2 * 64

    def test_fill(self):
        array = VariableBitLengthArray(8)
        array.fill(6)
        assert array.to_list() == [6] * 8

    def test_from_values_round_trip(self):
        values = [0, 1, 5, 1023, 2, 0, 77]
        array = VariableBitLengthArray.from_values(values)
        assert array.to_list() == values

    def test_rejects_negative_values(self):
        array = VariableBitLengthArray(4)
        with pytest.raises(ParameterError):
            array.update(0, -1)
        with pytest.raises(ParameterError):
            VariableBitLengthArray(4, initial_value=-2)

    def test_bounds_checked(self):
        array = VariableBitLengthArray(4)
        with pytest.raises(ParameterError):
            array.read(4)


class TestSpaceHelpers:
    def test_bits_for_value(self):
        assert bits_for_value(0) == 1
        assert bits_for_value(1) == 1
        assert bits_for_value(255) == 8

    def test_bits_for_counter(self):
        assert bits_for_counter(1023) == 10

    def test_total_space_bits(self):
        components = [BitVector(10), BitVector(20)]
        assert total_space_bits(components) == 30

    def test_space_breakdown(self):
        breakdown = SpaceBreakdown("demo")
        breakdown.add("a", 10)
        breakdown.add_component("b", BitVector(5))
        assert breakdown.total() == 15
        assert breakdown.as_dict() == {"a": 10, "b": 5}
        rendering = breakdown.render()
        assert "demo" in rendering and "15 bits" in rendering
