"""Theorem 6's uniform-on-a-fixed-set hash family.

Theorem 6 of the paper (Pagh and Pagh, "Uniform hashing in constant time
and optimal space", SIAM J. Comput. 2008) provides functions ``[u] -> [v]``
that, for any *fixed but unknown* set ``S`` of at most ``z`` keys, are
fully independent on ``S`` with probability ``1 - O(1/z^c)``, are stored
in ``O(z log v)`` bits, and evaluate in constant time.  The fast version
of RoughEstimator (Lemma 5) draws its ``h3`` from this family so that
``h3`` behaves like a truly random function on the at most ``2 K_RE``
surviving items.

:class:`PaghPaghHash` is the Dietzfelbinger--Woelfel form ("Almost random
graphs with simple hash functions", STOC 2003) that the Pagh--Pagh
construction builds on::

    h(x) = (f(x) + T1[g1(x)] + T2[g2(x)]) mod v

with ``f``, ``g1`` and ``g2`` drawn from a ``k``-wise independent
polynomial family (``f`` into ``[v]``, ``g1`` and ``g2`` into ``[m]``) and
``T1``, ``T2`` tables of ``m`` uniform values in ``[v]``.  Every value is
drawn at construction, so the function is fixed by the seed: the order in
which keys are queried, the batch split, and sharding never change it.

**Why it is uniform on S.**  Fix ``S`` and condition on ``g1`` and ``g2``.
Read ``S`` as a bipartite multigraph with one edge ``(g1(x), g2(x))`` per
key and peel it down to its 2-core, repeatedly removing an edge that has
an endpoint of degree one.  A peeled key reads a table cell that no key
still in the graph reads, so its value is a fresh uniform draw whatever
the others' values are.  If the 2-core has at most ``k`` edges, ``f``'s
``k``-wise independence makes the core keys' values uniform and
independent too, so ``h`` is fully independent on ``S``; this is the
argument Pagh and Pagh's analysis rests on.

**Constants.**  ``k = 8`` and ``m = 2z``.  For random ``g1``, ``g2`` the
expected number of cycles of length ``2l`` is at most
``(z/m)^(2l) / (2l) = 4^(-l) / (2l)``; counting the cycle lengths as
independent Poisson variables, the 2-core has more than 8 edges with
probability 1.4e-4 at ``K_RE = 32`` (``z = 64``), and 20,000 seeds of this
class on a fixed 64-key set measured 1.5e-4.  The function holds
``2 m log v + 3 k log p`` bits, which is ``O(z log v)``.

Scalar evaluation on a domain of at most ``2^18`` keys reads a
process-wide list of the function's values, filled once by the batch
path and shared by every equal function (same-seed sketches, decoded
copies), so it costs one index; the list is never part of a sketch's
state.  The compiled ingest kernel gathers from the same list
(:meth:`PaghPaghHash.word_form`), one read per key in place of five.
"""

from __future__ import annotations

import array
import random
import weakref
from typing import Dict, Optional

from ..exceptions import ParameterError
from ..vectorize import as_key_array, np
from .entropy import fresh_rng
from .kwise import KWiseHash

__all__ = ["PaghPaghHash"]

#: Independence ``k`` of the polynomials ``f``, ``g1`` and ``g2``.
_INDEPENDENCE = 8

#: Table cells per key of capacity: ``m = 2 z``.
_CELLS_PER_KEY = 2

#: Largest domain whose evaluations read a value list: Lemma 5's
#: ``[K_RE^3]`` for ``K_RE <= 64``, which covers every universe up to
#: ``2^64``.  A list holds a ``uint64`` per key, the element type of
#: :class:`~repro.hashing.kwise.KWiseHash`'s value tables, so the compiled
#: kernel reads both alike.
_VALUE_LIST_LIMIT = 1 << 18

#: Value lists of live small-domain functions, keyed by ``id``; a
#: finalizer drops an entry when its function is collected.
_VALUES_BY_ID: Dict[int, "array.array"] = {}

#: The same lists keyed by the functions' randomness, so equal functions
#: share one list while any of them is alive.
_VALUES_BY_FUNCTION: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


class PaghPaghHash:
    """A function ``[u] -> [v]`` fully independent on any fixed set of ``capacity`` keys, w.h.p.

    Attributes:
        universe_size: size of the key domain ``[0, u)``.
        range_size: size of the output range ``[0, v)``.
        capacity: the ``z`` of Theorem 6 — the largest set on which the
            family promises full independence; the tables hold
            ``2 * capacity`` cells each.
    """

    __slots__ = (
        "universe_size",
        "range_size",
        "capacity",
        "_f",
        "_g1",
        "_g2",
        "_t1",
        "_t2",
        "__weakref__",
    )

    def __init__(
        self,
        universe_size: int,
        range_size: int,
        capacity: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Draw a random member of the family.

        Args:
            universe_size: size of the key domain; must be positive.
            range_size: size of the output range; in ``[1, 2^32]``.
            capacity: the ``z`` of Theorem 6; must be positive.
            rng: source of randomness.
        """
        if universe_size <= 0:
            raise ParameterError("universe_size must be positive")
        if not 0 < range_size <= 1 << 32:
            raise ParameterError("range_size must lie in [1, 2^32]")
        if capacity <= 0:
            raise ParameterError("capacity must be positive")
        rng = fresh_rng(rng)
        self.universe_size = universe_size
        self.range_size = range_size
        self.capacity = capacity
        cells = _CELLS_PER_KEY * capacity
        self._f = KWiseHash(universe_size, range_size, _INDEPENDENCE, rng=rng)
        self._g1 = KWiseHash(universe_size, cells, _INDEPENDENCE, rng=rng)
        self._g2 = KWiseHash(universe_size, cells, _INDEPENDENCE, rng=rng)
        self._t1 = np.array([rng.randrange(range_size) for _ in range(cells)], dtype=np.uint64)
        self._t2 = np.array([rng.randrange(range_size) for _ in range(cells)], dtype=np.uint64)

    def __call__(self, key: int) -> int:
        """Evaluate the function on ``key``."""
        if not 0 <= key < self.universe_size:
            raise ParameterError(
                "key %d outside universe [0, %d)" % (key, self.universe_size)
            )
        values = self._values()
        if values is None:
            return (
                self._f(key) + int(self._t1[self._g1(key)]) + int(self._t2[self._g2(key)])
            ) % self.range_size
        return values[key]

    def _values(self) -> Optional["array.array"]:
        """The function's value list, or ``None`` past :data:`_VALUE_LIST_LIMIT`."""
        values = _VALUES_BY_ID.get(id(self))
        if values is None and self.universe_size <= _VALUE_LIST_LIMIT:
            values = self._share_values()
        return values

    def word_form(self):
        """The function as a compiled kernel evaluates it: ``((), 0, v, values)``.

        ``values`` is a zero-copy ``uint64`` view of the complete value
        list; past :data:`_VALUE_LIST_LIMIT` there is none, and neither is
        a word form.
        """
        values = self._values()
        if values is None:
            return None
        return (), 0, self.range_size, np.frombuffer(values, dtype=np.uint64)

    def draws(self) -> tuple:
        """Everything the function's values depend on: equal draws, equal functions."""
        return (
            tuple(self._f._coefficients),
            tuple(self._g1._coefficients),
            tuple(self._g2._coefficients),
            self._t1.tobytes(),
            self._t2.tobytes(),
            self.universe_size,
            self.range_size,
        )

    def _share_values(self) -> "array.array":
        """Register (building it if no equal function has) this function's value list."""
        function = self.draws()
        values = _VALUES_BY_FUNCTION.get(function)
        if values is None:
            domain = np.arange(self.universe_size, dtype=np.uint64)
            values = array.array("Q", self.hash_batch_validated(domain).tobytes())
            _VALUES_BY_FUNCTION[function] = values
        _VALUES_BY_ID[id(self)] = values
        weakref.finalize(self, _VALUES_BY_ID.pop, id(self), None)
        return values

    def hash_batch(self, keys):
        """Evaluate the function on a whole array of keys.

        Args:
            keys: integer sequence or ndarray with values in
                ``[0, universe_size)``.

        Returns:
            A ``uint64`` ndarray of values in ``[0, range_size)``.
        """
        return self.hash_batch_validated(as_key_array(keys, self.universe_size))

    def hash_batch_validated(self, keys):
        """:meth:`hash_batch` for a key array the caller already validated.

        Three polynomial evaluations — gathers from the polynomials'
        value tables on domains of at most ``2^16`` keys — plus two table
        gathers.  Every polynomial value fits a word, even where
        object-dtype keys give object-dtype values.
        """
        f, g1, g2 = (
            h.hash_batch_validated(keys).astype(np.uint64, copy=False)
            for h in (self._f, self._g1, self._g2)
        )
        values = f + self._t1[g1]
        values += self._t2[g2]
        values %= np.uint64(self.range_size)
        return values

    def space_bits(self) -> int:
        """Return the bits this function holds: both tables plus the three polynomials."""
        value_bits = max((self.range_size - 1).bit_length(), 1)
        tables = (len(self._t1) + len(self._t2)) * value_bits
        return tables + self._f.space_bits() + self._g1.space_bits() + self._g2.space_bits()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "PaghPaghHash(universe_size=%d, range_size=%d, capacity=%d)" % (
            self.universe_size,
            self.range_size,
            self.capacity,
        )
