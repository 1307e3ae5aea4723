"""Simple tabulation hashing.

Tabulation hashing splits a key into ``c`` characters and XORs together one
random table entry per character.  It is only 3-wise independent, but it
has much stronger concentration properties than its independence suggests
(Patrascu--Thorup) and evaluates in a constant number of table lookups.

Nothing in the library uses it: the paper's correctness analysis is stated
for the Carter--Wegman / Pagh--Pagh / Siegel families.  It is the building
block of double tabulation (Thorup, FOCS 2013), the candidate construction
for Theorem 7's family (see "Paper constructions and stand-ins" in
``docs/architecture.md``).
"""

from __future__ import annotations

import random

from .entropy import fresh_rng
from typing import List, Optional

from ..exceptions import ParameterError
from .bitops import is_power_of_two

__all__ = ["TabulationHash"]


class TabulationHash:
    """Simple tabulation hashing from ``[2^key_bits]`` to ``[2^value_bits]``.

    Attributes:
        key_bits: bit-width of the key domain.
        value_bits: bit-width of the output range.
        character_bits: bit-width of each character (table index).
    """

    __slots__ = ("key_bits", "value_bits", "character_bits", "_tables", "_mask")

    def __init__(
        self,
        key_bits: int,
        value_bits: int,
        character_bits: int = 8,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Draw a random tabulation hash.

        Args:
            key_bits: number of bits in the keys; must be positive.
            value_bits: number of bits in the output; must be positive.
            character_bits: bits per character; the key is split into
                ``ceil(key_bits / character_bits)`` characters.
            rng: source of randomness for the tables.
        """
        if key_bits <= 0 or value_bits <= 0:
            raise ParameterError("key_bits and value_bits must be positive")
        if character_bits <= 0:
            raise ParameterError("character_bits must be positive")
        rng = fresh_rng(rng)
        self.key_bits = key_bits
        self.value_bits = value_bits
        self.character_bits = character_bits
        characters = (key_bits + character_bits - 1) // character_bits
        table_size = 1 << character_bits
        self._mask = table_size - 1
        self._tables: List[List[int]] = [
            [rng.randrange(0, 1 << value_bits) for _ in range(table_size)]
            for _ in range(characters)
        ]

    @classmethod
    def for_universe(
        cls,
        universe_size: int,
        range_size: int,
        character_bits: int = 8,
        rng: Optional[random.Random] = None,
    ) -> "TabulationHash":
        """Build a tabulation hash for a power-of-two universe and range.

        Args:
            universe_size: size of the key domain; must be a power of two.
            range_size: size of the output range; must be a power of two.
            character_bits: bits per character.
            rng: source of randomness for the tables.
        """
        if not is_power_of_two(universe_size):
            raise ParameterError("tabulation universe must be a power of two")
        if not is_power_of_two(range_size):
            raise ParameterError("tabulation range must be a power of two")
        key_bits = max(universe_size.bit_length() - 1, 1)
        value_bits = max(range_size.bit_length() - 1, 1)
        return cls(key_bits, value_bits, character_bits=character_bits, rng=rng)

    def __call__(self, key: int) -> int:
        """Evaluate the hash on ``key`` (a ``key_bits``-bit integer)."""
        if key < 0 or key >= (1 << self.key_bits):
            raise ParameterError(
                "key %d outside universe [0, 2^%d)" % (key, self.key_bits)
            )
        value = 0
        for table in self._tables:
            value ^= table[key & self._mask]
            key >>= self.character_bits
        return value

    def space_bits(self) -> int:
        """Return the number of bits needed to store the lookup tables."""
        entries = sum(len(table) for table in self._tables)
        return entries * self.value_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            "TabulationHash(key_bits=%d, value_bits=%d, character_bits=%d)"
            % (self.key_bits, self.value_bits, self.character_bits)
        )
