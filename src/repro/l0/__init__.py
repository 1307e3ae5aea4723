"""L0 (Hamming norm) estimation for turnstile streams (Section 4 of the paper).

* :mod:`repro.l0.fingerprint` — F_p fingerprint counters (Lemma 6).
* :mod:`repro.l0.small_l0` — exact recovery of small L0 (Lemma 8).
* :mod:`repro.l0.rough_l0` — RoughL0Estimator (Appendix A.3, Theorem 11).
* :mod:`repro.l0.knw_l0` — the full KNW L0 estimator (Theorem 10).
* :mod:`repro.l0.ganguly` — the Ganguly-style baseline the paper compares against.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "FingerprintMatrix": "fingerprint",
        "choose_fingerprint_prime": "fingerprint",
        "GangulyStyleL0Estimator": "ganguly",
        "KNWHammingNormEstimator": "knw_l0",
        "ROUGH_L0_CAPACITY": "rough_l0",
        "ROUGH_L0_FACTOR": "rough_l0",
        "ROUGH_L0_THRESHOLD": "rough_l0",
        "RoughL0Estimator": "rough_l0",
        "SmallL0Recovery": "small_l0",
        "choose_small_prime": "small_l0",
        "make_trial_hashes": "small_l0",
    },
)
