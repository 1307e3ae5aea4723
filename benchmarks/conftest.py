"""Shared helpers for the benchmark harness.

Every benchmark corresponds to an experiment id in DESIGN.md (E1-E12) and
regenerates a table or guarantee the paper reports.  Macro-benchmarks (the
table-producing ones) run their workload once via ``benchmark.pedantic`` and
print the resulting table so it lands in ``bench_output.txt``; the
micro-benchmarks (per-update / per-report timing) use pytest-benchmark's
normal repeated timing.
"""

from __future__ import annotations

import json
import os
import statistics
import time

import pytest

#: Universe size shared by the benchmarks (2^20, as in DESIGN.md's E1 row).
BENCH_UNIVERSE = 1 << 20

#: Moderate universe for the heavier sweeps.
SMALL_BENCH_UNIVERSE = 1 << 16

#: Where ``record`` writes its ``BENCH_<name>.json`` files.  The committed
#: regression baselines live in ``benchmarks/baselines/`` and are compared
#: against a results directory by ``benchmarks/report.py``.
RESULTS_DIR = os.environ.get(
    "BENCH_RESULTS_DIR", os.path.join(os.path.dirname(__file__), "results")
)

#: Modules recorded in this process — repeated ``record`` calls for the
#: same name merge; a name first seen this run replaces any stale file.
_RECORDED_THIS_RUN = set()


def run_once(benchmark, function):
    """Run a macro-benchmark exactly once and return its result."""
    return benchmark.pedantic(function, rounds=1, iterations=1)


def metric(value, direction="higher", kind="rate", unit=None):
    """Describe one recorded metric.

    Args:
        value: the measurement.
        direction: ``"higher"`` if bigger is better (rates, speedups) or
            ``"lower"`` (errors, space, latencies).
        kind: ``"rate"`` for wall-clock-dependent measurements (gated
            loosely by ``report.py`` since they vary across machines) or a
            machine-portable kind — ``"ratio"``, ``"error"``, ``"space"``,
            ``"count"`` — gated at the strict threshold.
        unit: optional human-readable unit (``"items/s"``, ``"bits"``).
    """
    entry = {"value": float(value), "direction": direction, "kind": kind}
    if unit is not None:
        entry["unit"] = unit
    return entry


def mean_seconds(benchmark):
    """Mean per-round seconds of a pytest-benchmark run (None if absent)."""
    stats = getattr(getattr(benchmark, "stats", None), "stats", None)
    mean = getattr(stats, "mean", None)
    return None if mean is None else float(mean)


def record(name, metrics, scale=None, environment=None):
    """Persist benchmark metrics to ``BENCH_<name>.json`` for ``report.py``.

    Args:
        name: the bench module's short name (``batch_throughput`` for
            ``bench_batch_throughput.py``) — one JSON file per module.
        metrics: mapping of metric name to :func:`metric` entry (plain
            numbers are accepted and treated as higher-better rates).
            ``None`` values are skipped.
        scale: the workload-size knobs the run used; ``report.py`` only
            compares runs whose scale dicts match exactly.  Throughput
            benches include the active kernel backend here, so numbers
            from different backends are never compared apples-to-oranges.
        environment: free-form metadata about the machine/configuration
            the run used (e.g. ``repro.kernels.kernel_backend_info()``);
            stored in the payload for trajectory analysis, never gated.
    """
    path = os.path.join(RESULTS_DIR, "BENCH_%s.json" % name)
    payload = None
    if name in _RECORDED_THIS_RUN and os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    if payload is None:
        payload = {
            "benchmark": name,
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "scale": {},
            "metrics": {},
        }
    if scale:
        payload["scale"].update({key: scale[key] for key in sorted(scale)})
    if environment:
        payload.setdefault("environment", {}).update(
            {key: environment[key] for key in sorted(environment)}
        )
    for key, entry in metrics.items():
        if entry is None:
            continue
        if not isinstance(entry, dict):
            entry = metric(entry)
        elif entry.get("value") is None:
            continue
        payload["metrics"][key] = entry
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    _RECORDED_THIS_RUN.add(name)


def interleaved_medians(sides, rounds):
    """Time each family's scalar and batch sides back to back, every family
    once per round, and summarize each family by medians.

    A slow stretch of the host then moves every row alike instead of one,
    and no family is timed only right after another.

    Args:
        sides: ``{name: (scalar, batch)}``, each side a zero-argument
            callable that builds its own estimator and returns a rate.
        rounds: the number of rounds.

    Returns:
        ``{name: (scalar, batch, speedup)}``: the median rates over the
        rounds and the median of the rounds' ``batch / scalar`` ratios.
    """
    pairs = {name: [] for name in sides}
    for _ in range(rounds):
        for name, (scalar, batch) in sides.items():
            pairs[name].append((scalar(), batch()))
    return {
        name: (
            statistics.median(scalar for scalar, _ in timed),
            statistics.median(batch for _, batch in timed),
            statistics.median(batch / scalar for scalar, batch in timed),
        )
        for name, timed in pairs.items()
    }


def emit(title: str, body: str) -> None:
    """Print a clearly delimited experiment report (captured by ``tee``)."""
    banner = "=" * max(len(title), 20)
    print("\n%s\n%s\n%s\n%s" % (banner, title, banner, body))


@pytest.fixture(scope="session")
def bench_universe() -> int:
    """The universe size used by the Figure-1 style benchmarks."""
    return BENCH_UNIVERSE
