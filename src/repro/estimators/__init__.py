"""Estimator framework: abstract interfaces, exact references, amplification.

* :mod:`repro.estimators.base` — the F0 / L0 estimator interfaces and the
  merge protocol.
* :mod:`repro.estimators.exact` — exact (linear-space) references.
* :mod:`repro.estimators.median` — median-of-repetitions amplification.
* :mod:`repro.estimators.registry` — name -> factory registry used by the
  experiment harness and the Figure-1 benchmarks.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "CardinalityEstimator": "base",
        "TurnstileEstimator": "base",
        "describe_estimator": "base",
        "ExactDistinctCounter": "exact",
        "ExactHammingNorm": "exact",
        "MedianEstimator": "median",
        "MedianTurnstileEstimator": "median",
        "repetitions_for_failure_probability": "median",
    },
)
