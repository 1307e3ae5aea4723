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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "WORD_SIZE": "bitops",
        "ceil_log2": "bitops",
        "floor_log2": "bitops",
        "is_power_of_two": "bitops",
        "lsb": "bitops",
        "lsb64": "bitops",
        "lsb_batch": "bitops",
        "msb": "bitops",
        "msb64": "bitops",
        "popcount": "bitops",
        "reverse_bits": "bitops",
        "rho_batch": "bitops",
        "KWiseHash": "kwise",
        "required_independence": "kwise",
        "MERSENNE_31": "primes",
        "MERSENNE_61": "primes",
        "field_prime_for_universe": "primes",
        "is_prime": "primes",
        "next_prime": "primes",
        "prev_prime": "primes",
        "primes_in_range": "primes",
        "random_prime": "primes",
        "RandomOracle": "random_oracle",
        "SiegelHash": "siegel",
        "TabulationHash": "tabulation",
        "PaghPaghHash": "uniform",
        "MultiplyShiftHash": "universal",
        "PairwiseHash": "universal",
    },
)
