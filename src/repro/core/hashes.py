"""The shared hash-function bundle used by the KNW F0 components.

Figure 3 and the small-F0 subroutine of Section 3.3 deliberately share
their hash functions: the paper's ``h3`` is given range ``K' = 2K`` and the
main algorithm evaluates it "modulo K when used in Figure 3".  Bundling the
three functions in one object lets the combined estimator
(:class:`repro.core.knw.KNWDistinctCounter`) pay for them once, exactly as
the paper accounts, while still allowing each component to be constructed
stand-alone (it then builds a private bundle).

The bundle contains:

* ``h1 : [n] -> [0, n-1]`` — pairwise independent; its ``lsb`` gives the
  subsampling level of an item.
* ``h2 : [n] -> [(2K)^3]`` — pairwise independent; spreads items so the
  ones that matter are perfectly hashed w.h.p.
* ``h3 : [(2K)^3] -> [2K]`` — k-wise independent for
  ``k = Theta(log(1/eps)/log log(1/eps))`` (Lemma 2's requirement); the
  main sketch reduces its output modulo ``K``.
"""

from __future__ import annotations

import random
from typing import Optional

from ..bitstructs.space import SpaceBreakdown
from ..exceptions import ParameterError
from ..hashing.bitops import is_power_of_two, lsb
from ..hashing.kwise import KWiseHash, required_independence
from ..hashing.siegel import SiegelHash
from ..hashing.universal import PairwiseHash

__all__ = ["F0HashBundle"]


class F0HashBundle:
    """The (h1, h2, h3) triple shared by the F0 components.

    Attributes:
        universe_size: the universe size ``n``.
        bins: the main sketch's ``K`` (a power of two).
        extended_bins: ``2K`` — the range of ``h3`` (shared with small-F0).
    """

    def __init__(
        self,
        universe_size: int,
        bins: int,
        eps_hint: float,
        seed: Optional[int] = None,
        use_fast_family: bool = False,
    ) -> None:
        """Draw the three hash functions.

        Args:
            universe_size: the universe size ``n`` (at least 2).
            bins: the main sketch's ``K``; must be a power of two >= 32.
            eps_hint: the relative-error target, used only to size the
                independence of ``h3`` per Lemma 2.
            seed: RNG seed.
            use_fast_family: draw ``h3`` from the Siegel-style constant-time
                family (Theorem 7) instead of the Carter--Wegman polynomial
                family — the Theorem 9 configuration.
        """
        if universe_size < 2:
            raise ParameterError("universe_size must be at least 2")
        if bins < 32 or not is_power_of_two(bins):
            raise ParameterError("bins (K) must be a power of two and at least 32")
        if not 0.0 < eps_hint < 1.0:
            raise ParameterError("eps_hint must lie in (0, 1)")
        self.universe_size = universe_size
        self.bins = bins
        self.extended_bins = 2 * bins
        rng = random.Random(seed)
        self._level_limit = max((universe_size - 1).bit_length(), 1)
        domain_cubed = self.extended_bins ** 3
        self.h1 = PairwiseHash(universe_size, universe_size, rng=rng)
        self.h2 = PairwiseHash(universe_size, domain_cubed, rng=rng)
        if use_fast_family:
            self.h3 = SiegelHash(domain_cubed, self.extended_bins, rng=rng)
        else:
            independence = required_independence(self.extended_bins, eps_hint)
            self.h3 = KWiseHash(
                domain_cubed, self.extended_bins, independence=independence, rng=rng
            )
        # One-entry memo so that the combined estimator, which feeds the same
        # item to both the small-F0 subroutine and the main sketch, evaluates
        # the h3(h2(.)) composition once per stream update.
        self._last_item = -1
        self._last_extended_bin = -1

    # -- the three per-item quantities the algorithms consume ----------------------

    def level(self, item: int) -> int:
        """Return ``lsb(h1(item))`` — the subsampling level of the item."""
        return lsb(self.h1(item), zero_value=self._level_limit)

    def extended_bin(self, item: int) -> int:
        """Return ``h3(h2(item))`` in ``[0, 2K)`` (the small-F0 bin)."""
        if item == self._last_item:
            return self._last_extended_bin
        value = self.h3(self.h2(item))
        self._last_item = item
        self._last_extended_bin = value
        return value

    def main_bin(self, item: int) -> int:
        """Return ``h3(h2(item)) mod K`` (the Figure 3 counter index)."""
        return self.extended_bin(item) % self.bins

    def forget_last(self) -> None:
        """Clear the one-entry memo once an update has used it.

        The memo is serialized with the bundle, so an owner that clears it
        after each scalar update leaves the bytes batch ingestion leaves.
        """
        self._last_item = -1
        self._last_extended_bin = -1

    @property
    def level_limit(self) -> int:
        """The value assigned to ``lsb(0)``, i.e. ``log2(n)``."""
        return self._level_limit

    def space_breakdown(self) -> SpaceBreakdown:
        """Return the itemised space cost of the bundle."""
        breakdown = SpaceBreakdown("f0-hash-bundle")
        breakdown.add_component("h1", self.h1)
        breakdown.add_component("h2", self.h2)
        breakdown.add_component("h3", self.h3)
        return breakdown

    def space_bits(self) -> int:
        """Return the total space cost of the three functions."""
        return self.space_breakdown().total()
