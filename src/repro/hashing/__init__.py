"""Hash-function substrate for the KNW reproduction.

This subpackage contains every hash family the paper relies on:

* :mod:`repro.hashing.bitops` — constant-operation lsb/msb word primitives
  (paper Theorem 5).
* :mod:`repro.hashing.universal` — pairwise independent Carter--Wegman and
  multiply-shift families (the paper's ``h1``, ``h2``, ``h4``).
* :mod:`repro.hashing.kwise` — k-wise independent polynomial families
  (the paper's ``h3`` in the reference implementation, Lemma 2).
* :mod:`repro.hashing.uniform` — the Pagh--Pagh uniform-on-a-set family
  (paper Theorem 6, used by the fast RoughEstimator of Lemma 5).
* :mod:`repro.hashing.siegel` — Siegel high-independence stand-in
  (paper Theorem 7, used by the time-optimal algorithm of Theorem 9).
* :mod:`repro.hashing.tabulation` — simple tabulation hashing (ablations).
* :mod:`repro.hashing.random_oracle` — truly random function simulation for
  the oracle-model baselines of Figure 1.
* :mod:`repro.hashing.primes` — primality testing and random prime
  selection (L0 fingerprints of Lemma 6 and Lemma 8).

Every family also exposes ``hash_batch(keys)``, the vectorized evaluation
used by the batch-ingestion pipeline; it is exactly equivalent to calling
the function per key (the batched field arithmetic in
:mod:`repro.vectorize` is exact).
"""

from .bitops import (
    WORD_SIZE,
    ceil_log2,
    floor_log2,
    is_power_of_two,
    lsb,
    lsb64,
    lsb_batch,
    msb,
    msb64,
    popcount,
    reverse_bits,
    rho_batch,
)
from .kwise import KWiseHash, required_independence
from .primes import (
    MERSENNE_31,
    MERSENNE_61,
    field_prime_for_universe,
    is_prime,
    next_prime,
    prev_prime,
    primes_in_range,
    random_prime,
)
from .random_oracle import RandomOracle
from .siegel import SiegelHash
from .tabulation import TabulationHash
from .uniform import PaghPaghHash
from .universal import MultiplyShiftHash, PairwiseHash

__all__ = [
    "WORD_SIZE",
    "ceil_log2",
    "floor_log2",
    "is_power_of_two",
    "lsb",
    "lsb64",
    "lsb_batch",
    "msb",
    "msb64",
    "popcount",
    "reverse_bits",
    "rho_batch",
    "KWiseHash",
    "required_independence",
    "MERSENNE_31",
    "MERSENNE_61",
    "field_prime_for_universe",
    "is_prime",
    "next_prime",
    "prev_prime",
    "primes_in_range",
    "random_prime",
    "RandomOracle",
    "SiegelHash",
    "TabulationHash",
    "PaghPaghHash",
    "MultiplyShiftHash",
    "PairwiseHash",
]
