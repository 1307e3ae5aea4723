"""Siegel-style high-independence hash family stand-in.

Theorem 7 of the paper (a corollary of Siegel 2004) provides, for a
universe ``[u] = [v^c]``, a ``v^o(1)``-wise independent family mapping
``[u] -> [v]`` that evaluates in constant time and occupies ``v^eta`` bits
for an arbitrarily small constant ``eta``.  The time-optimal KNW algorithm
(Theorem 9) draws its ``h3`` from this family so that updates run in O(1)
time while the balls-and-bins analysis (which needs
``Theta(log(1/eps)/log log(1/eps))``-wise independence) still applies.

Siegel's construction is a graph-powering scheme whose constants are
famously impractical; what the KNW proofs use is only the family's
*independence on the keys actually hashed*.  This module therefore supplies
:class:`SiegelHash`, a stand-in with the same interface and the same
declared space cost ``v^eta`` (for a configurable ``eta``), implemented as
a lazily materialised random function — each value is drawn the first time
its key is queried and memoised — with the independence budget expressed
in Siegel's terms (``k = v^o(1)``).  The substitution is recorded under
"Paper constructions and stand-ins" in ``docs/architecture.md``.
"""

from __future__ import annotations

import math
import random

from .entropy import fresh_rng
from typing import Dict, Optional

from ..exceptions import ParameterError
from ..vectorize import as_key_array, np

__all__ = ["SiegelHash"]


class SiegelHash:
    """Stand-in for Siegel's constant-time, highly independent hash family.

    Attributes:
        universe_size: size of the key domain ``[0, u)``.
        range_size: size of the output range ``[0, v)``.
        independence: the number of keys on which the family promises
            joint uniformity (``v^o(1)`` in Siegel's construction; here a
            concrete integer chosen at construction time).
        eta: the space exponent — the declared space cost is
            ``range_size ** eta`` bits (Theorem 7's ``v^eta``).
    """

    __slots__ = (
        "universe_size",
        "range_size",
        "independence",
        "eta",
        "_rng",
        "_memo",
        "_failed",
        "failure_probability",
    )

    def __init__(
        self,
        universe_size: int,
        range_size: int,
        independence: Optional[int] = None,
        eta: float = 1.0,
        rng: Optional[random.Random] = None,
        failure_probability: float = 0.0,
    ) -> None:
        """Draw a random member of the family.

        Args:
            universe_size: size of the key domain; must be positive.
            range_size: size of the output range; must be positive.
            independence: independence budget; defaults to
                ``ceil(sqrt(range_size))`` which is comfortably ``v^o(1)``
                for the ranges the estimators use and far above the
                ``Theta(log(1/eps)/log log(1/eps))`` the analysis needs.
            eta: space exponent for the declared ``v^eta``-bit cost; the
                paper takes ``eta`` as small as desired (it suggests
                ``eta = 1`` is already dominated by other terms).
            rng: source of randomness.
            failure_probability: probability that the construction fails
                (Theorem 7's ``1/v^delta``); failed draws degrade to a
                constant function so tests can exercise the failure path.
        """
        if universe_size <= 0:
            raise ParameterError("universe_size must be positive")
        if range_size <= 0:
            raise ParameterError("range_size must be positive")
        if eta <= 0:
            raise ParameterError("eta must be positive")
        if not 0.0 <= failure_probability < 1.0:
            raise ParameterError("failure_probability must lie in [0, 1)")
        self.universe_size = universe_size
        self.range_size = range_size
        if independence is None:
            independence = max(4, int(math.isqrt(range_size)))
        if independence <= 0:
            raise ParameterError("independence must be positive")
        self.independence = independence
        self.eta = eta
        self._rng = fresh_rng(rng)
        self._memo: Dict[int, int] = {}
        self.failure_probability = failure_probability
        self._failed = self._rng.random() < failure_probability

    def __call__(self, key: int) -> int:
        """Evaluate the function on ``key`` (lazily materialised uniform value)."""
        if not 0 <= key < self.universe_size:
            raise ParameterError(
                "key %d outside universe [0, %d)" % (key, self.universe_size)
            )
        if self._failed:
            return 0
        value = self._memo.get(key)
        if value is None:
            value = self._rng.randrange(0, self.range_size)
            self._memo[key] = value
        return value

    def hash_batch(self, keys):
        """Evaluate the function on a whole array of keys.

        The lazily materialised values must be drawn in first-occurrence order
        so batch and scalar ingestion agree bit-for-bit; the walk is
        Python-level but free of per-item validation and call overhead.
        """
        keys = as_key_array(keys, self.universe_size)
        if self._failed:
            return np.zeros(keys.shape, dtype=np.int64)
        memo = self._memo
        randrange = self._rng.randrange
        range_size = self.range_size
        out = np.empty(keys.shape, dtype=np.int64)
        for position, key in enumerate(keys.tolist()):
            value = memo.get(key)
            if value is None:
                value = randrange(0, range_size)
                memo[key] = value
            out[position] = value
        return out

    def space_bits(self) -> int:
        """Return the paper-model space cost ``range_size ** eta`` in bits."""
        return max(1, int(math.ceil(self.range_size ** self.eta)))

    def distinct_keys_seen(self) -> int:
        """Return the number of distinct keys queried so far."""
        return len(self._memo)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            "SiegelHash(universe_size=%d, range_size=%d, independence=%d, eta=%.3f)"
            % (self.universe_size, self.range_size, self.independence, self.eta)
        )
