"""Experiment harness: metrics, runners, sweeps, and report tables.

* :mod:`repro.analysis.metrics` — relative error, summaries, within-band rates.
* :mod:`repro.analysis.runner` — stream -> estimator execution with checkpoints.
* :mod:`repro.analysis.sweeps` — (algorithm, eps, seed) grids for the benchmarks.
* :mod:`repro.analysis.tables` — Figure-1-style plain-text / Markdown tables.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ErrorSummary": "metrics",
        "relative_error": "metrics",
        "summarize_errors": "metrics",
        "within_band_rate": "metrics",
        "CheckpointResult": "runner",
        "KeyedRunResult": "runner",
        "RunResult": "runner",
        "run_f0": "runner",
        "run_f0_by_name": "runner",
        "run_keyed_f0": "runner",
        "run_keyed_l0": "runner",
        "run_l0": "runner",
        "run_l0_by_name": "runner",
        "KeyedSweepPoint": "sweeps",
        "SweepPoint": "sweeps",
        "WindowedSweepPoint": "sweeps",
        "accuracy_sweep": "sweeps",
        "format_workload_grid": "sweeps",
        "keyed_accuracy_sweep": "sweeps",
        "l0_accuracy_sweep": "sweeps",
        "resolve_workload_factory": "sweeps",
        "space_sweep": "sweeps",
        "windowed_accuracy_sweep": "sweeps",
        "workload_class_grid": "sweeps",
        "Table": "tables",
        "format_bits": "tables",
    },
)
