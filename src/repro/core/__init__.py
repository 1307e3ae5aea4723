"""The paper's primary contribution: the optimal F0 estimation algorithm.

* :mod:`repro.core.balls_bins` — the Section 2 balls-and-bins quantities
  (Fact 1, Lemmas 1-3) and the inversion estimator.
* :mod:`repro.core.hashes` — the shared (h1, h2, h3) hash bundle.
* :mod:`repro.core.rough_estimator` — Figure 2 / Theorem 1 (and the O(1)
  variant of Lemma 5).
* :mod:`repro.core.small_f0` — the Section 3.3 small-F0 subroutine.
* :mod:`repro.core.knw` — the Figure 3 sketch and the complete
  ``KNWDistinctCounter`` (Theorems 2-4).
* :mod:`repro.core.fast_knw` — the time-optimal implementation of
  Section 3.4 (Theorem 9).
* :mod:`repro.core.skeleton` — the uncompressed Figure 4 bitmatrix
  reference implementation.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "OccupancyTrial": "balls_bins",
        "expected_occupied_bins": "balls_bins",
        "invert_occupancy": "balls_bins",
        "occupancy_estimate_is_valid": "balls_bins",
        "occupancy_statistics": "balls_bins",
        "occupancy_variance_bound": "balls_bins",
        "simulate_occupancy": "balls_bins",
        "FastKNWDistinctCounter": "fast_knw",
        "FastKNWSketch": "fast_knw",
        "F0HashBundle": "hashes",
        "KNWDistinctCounter": "knw",
        "KNWFigure3Sketch": "knw",
        "bins_for_eps": "knw",
        "OCCUPANCY_THRESHOLD_RHO": "rough_estimator",
        "FastRoughEstimator": "rough_estimator",
        "RoughEstimator": "rough_estimator",
        "rough_counter_count": "rough_estimator",
        "BitMatrixSkeleton": "skeleton",
        "EXACT_TRACKING_LIMIT": "small_f0",
        "SmallF0Estimator": "small_f0",
    },
)
