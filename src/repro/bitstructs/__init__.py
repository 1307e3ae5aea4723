"""Bit-level data-structure substrate for the KNW reproduction.

* :mod:`repro.bitstructs.bitvector` — packed bitvector (small-F0 bits,
  linear counting, bitmatrix rows).
* :mod:`repro.bitstructs.bitmatrix` — the ``log(n) x K`` matrix of the
  Figure 4 skeleton.
* :mod:`repro.bitstructs.vla` — variable-bit-length array
  (Blandford--Blelloch, paper Theorem 8) for the bit-packed offset counters.
* :mod:`repro.bitstructs.loglookup` — O(1) natural-log lookup table
  (Appendix A.2, Lemma 7).
* :mod:`repro.bitstructs.space` — the ``space_bits()`` protocol and
  space-budget helpers used by the Figure-1 space benchmark.

Fixed-width counter arrays (Figure 2/3 counters, LogLog/HLL registers)
are plain NumPy arrays (:func:`repro.vectorize.counter_dtype`), charged
at the paper's width by their owners' ``space_bits()``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "BitMatrix": "bitmatrix",
        "BitVector": "bitvector",
        "LogLookupTable": "loglookup",
        "SizedBits": "space",
        "SpaceBreakdown": "space",
        "bits_for_counter": "space",
        "bits_for_value": "space",
        "total_space_bits": "space",
        "VariableBitLengthArray": "vla",
    },
)
