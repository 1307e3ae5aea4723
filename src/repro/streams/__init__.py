"""Stream model and workload generators.

* :mod:`repro.streams.model` — update/stream value types and ground truth.
* :mod:`repro.streams.generators` — insertion-only workloads (uniform,
  Zipf, sequential, adversarial, grow-then-repeat, union pairs), keyed
  per-entity workloads for the sketch store, and timestamped workloads
  for the sliding-window layer.
* :mod:`repro.streams.turnstile` — turnstile workloads with deletions for
  the L0 algorithms.
* :mod:`repro.streams.workloads` — the workload zoo: five named adversarial
  and realistic stream classes (skew, churn, bursty, cold-keys,
  adversarial), each in stream/keyed/windowed shape with exact ground
  truth, plus the class registry the sweeps resolve names against.
* :mod:`repro.streams.datasets` — synthetic packet traces, query logs, and
  table columns matching the paper's motivating applications.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "FlowRecord": "datasets",
        "packet_trace": "datasets",
        "query_log": "datasets",
        "table_column": "datasets",
        "KeyedWorkload": "generators",
        "keyed_uniform_stream": "generators",
        "WindowedWorkload": "generators",
        "windowed_uniform_stream": "generators",
        "distinct_items_stream": "generators",
        "duplicated_union_streams": "generators",
        "growing_then_repeating_stream": "generators",
        "iter_item_chunks": "generators",
        "low_bits_adversarial_stream": "generators",
        "sequential_stream": "generators",
        "uniform_random_stream": "generators",
        "zipf_stream": "generators",
        "MaterializedStream": "model",
        "Update": "model",
        "exact_f0": "model",
        "exact_l0": "model",
        "frequency_vector": "model",
        "stream_from_items": "model",
        "fluctuating_stream": "turnstile",
        "insert_delete_stream": "turnstile",
        "mixed_sign_stream": "turnstile",
        "paired_columns": "turnstile",
        "DEFAULT_SCALE": "workloads",
        "NEAR_COLLISION_MODES": "workloads",
        "SMOKE_SCALE": "workloads",
        "WorkloadClass": "workloads",
        "WorkloadScale": "workloads",
        "bursty_keyed_workload": "workloads",
        "bursty_stream": "workloads",
        "bursty_windowed_workload": "workloads",
        "churn_keyed_workload": "workloads",
        "churn_stream": "workloads",
        "churn_windowed_workload": "workloads",
        "cold_key_stream": "workloads",
        "cold_key_windowed_workload": "workloads",
        "cold_key_workload": "workloads",
        "make_workload": "workloads",
        "near_collision_keyed_workload": "workloads",
        "near_collision_stream": "workloads",
        "near_collision_windowed_workload": "workloads",
        "scale_from_env": "workloads",
        "skewed_keyed_workload": "workloads",
        "skewed_stream": "workloads",
        "skewed_windowed_workload": "workloads",
        "workload_class": "workloads",
        "workload_class_names": "workloads",
        "workload_fingerprint": "workloads",
        "zipf_rank_probabilities": "workloads",
    },
)
