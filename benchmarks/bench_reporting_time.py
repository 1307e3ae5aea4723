"""E3 — Figure 1, reporting time: cost of producing an estimate mid-stream.

The paper's reporting time is O(1): the fast implementation maintains the
occupancy count incrementally and evaluates the logarithm via the Appendix
A.2 lookup table.  The benchmark times ``estimate()`` on warm sketches and
checks that the fast KNW report does not scale with eps.  The
register-scanning baselines (LogLog/HLL) still do Theta(1/eps^2) *work*
per report, but since their registers are one NumPy array, the
interpreter-level cost does not scale with 1/eps^2 — only the (far
cheaper) vector reductions do.
"""

from __future__ import annotations

import random

import pytest
from conftest import BENCH_UNIVERSE, mean_seconds, metric, record

from repro.estimators.registry import make_f0_estimator

ALGORITHMS = ["knw", "knw-fast", "hyperloglog", "loglog", "kmv", "bjkst"]


def _warm(algorithm: str, eps: float):
    estimator = make_f0_estimator(algorithm, BENCH_UNIVERSE, eps, seed=9)
    rng = random.Random(21)
    for _ in range(4_000):
        estimator.update(rng.randrange(BENCH_UNIVERSE))
    return estimator


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_reporting_time(benchmark, algorithm):
    estimator = _warm(algorithm, eps=0.05)
    benchmark.group = "reporting-time eps=0.05"
    benchmark(estimator.estimate)
    record(
        "reporting_time",
        {
            "%s_report_seconds"
            % algorithm: metric(mean_seconds(benchmark), "lower", "rate", "s/report")
            if mean_seconds(benchmark) is not None
            else None
        },
        scale={"universe": BENCH_UNIVERSE, "warm_items": 4_000},
    )


def test_fast_knw_reporting_independent_of_eps(benchmark):
    import time

    def measure(eps: float) -> float:
        estimator = _warm("knw-fast", eps)
        start = time.perf_counter()
        for _ in range(300):
            estimator.estimate()
        return (time.perf_counter() - start) / 300

    def experiment():
        return {eps: measure(eps) for eps in (0.2, 0.05, 0.02)}

    timings = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print("\nE3 shape check: knw-fast per-report seconds by eps:", timings)
    record(
        "reporting_time",
        {"report_eps_scaling_ratio": metric(timings[0.02] / timings[0.2], "lower", "ratio")},
    )
    assert timings[0.02] < 5.0 * timings[0.2]
