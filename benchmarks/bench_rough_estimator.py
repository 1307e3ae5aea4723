"""E5 — Theorem 1: RoughEstimator is a constant-factor approximation at all times.

Feeds a growing-then-flat workload and records the ratio estimate/F0(t) at
many checkpoints, for both the Figure 2 estimator and the Lemma 5 fast
variant, each at seeds 0-7.  The paper's guarantee is a ratio in [1, 8]
(resp. [1, 16]) once F0(t) >= K_RE simultaneously for every t; the
benchmark reports each variant's per-seed min/max ratios over the whole
stream as the worst and the median over the seeds, and asserts its band
at every seed (one seed's ratios swing too widely to judge a hash family
alone).
"""

from __future__ import annotations

import statistics

from conftest import BENCH_UNIVERSE, emit, metric, record, run_once

from repro.analysis import Table
from repro.core import FastRoughEstimator, RoughEstimator
from repro.streams import growing_then_repeating_stream


def _ratio_profile(estimator, stream, sample_every: int = 400):
    seen = set()
    ratios = []
    for index, update in enumerate(stream):
        estimator.update(update.item)
        seen.add(update.item)
        if index % sample_every == 0 and len(seen) >= 8 * estimator.counters_per_copy:
            estimate = estimator.estimate()
            if estimate > 0:
                ratios.append(estimate / len(seen))
    return ratios


SEEDS = range(8)


def test_rough_estimator_all_times(benchmark):
    stream = growing_then_repeating_stream(BENCH_UNIVERSE, 25_000, 15_000, seed=31)

    def experiment():
        return {
            variant: [
                _ratio_profile(factory(BENCH_UNIVERSE, counters_per_copy=16, seed=seed), stream)
                for seed in SEEDS
            ]
            for variant, factory in (
                ("figure-2", RoughEstimator),
                ("lemma-5-fast", FastRoughEstimator),
            )
        }

    profiles = run_once(benchmark, experiment)
    table = Table(
        "E5: RoughEstimator estimate / F0(t) over all checkpoints, seeds 0-%d" % (len(SEEDS) - 1),
        ["variant", "median min", "worst min", "median max", "worst max"],
    )
    metrics = {}
    for variant, per_seed in profiles.items():
        for seed, ratios in zip(SEEDS, per_seed):
            assert ratios, (variant, seed)
            # Constant-factor band (paper: [1, 8] / [1, 16] asymptotically;
            # the finite-size check allows a factor-2 margin on each side).
            assert min(ratios) >= 0.4, (variant, seed)
            assert max(ratios) <= 32.0, (variant, seed)
        mins = [min(ratios) for ratios in per_seed]
        maxes = [max(ratios) for ratios in per_seed]
        table.add_row([
            variant,
            "%.3f" % statistics.median(mins),
            "%.3f" % min(mins),
            "%.3f" % statistics.median(maxes),
            "%.3f" % max(maxes),
        ])
        slug = "rough_%s" % variant.replace("-", "_")
        metrics[slug + "_min_ratio"] = metric(min(mins), "higher", "ratio")
        metrics[slug + "_max_ratio"] = metric(max(maxes), "lower", "ratio")
        metrics[slug + "_median_min_ratio"] = metric(statistics.median(mins), "higher", "ratio")
        metrics[slug + "_median_max_ratio"] = metric(statistics.median(maxes), "lower", "ratio")
    emit("E5: RoughEstimator constant-factor guarantee at all times", table.render_text())
    record("rough_estimator", metrics, scale={"universe": BENCH_UNIVERSE, "seeds": len(SEEDS)})
