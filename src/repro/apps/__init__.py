"""Database-domain applications built on the public estimator API.

These implement the three motivating scenarios from the paper's
introduction:

* :mod:`repro.apps.query_optimizer` — distinct-value statistics for query
  planning (selectivity and join-size estimates).
* :mod:`repro.apps.network_monitor` — distinct flows / port-scan and
  DDoS-spread detection on packet streams.
* :mod:`repro.apps.data_cleaning` — similar-column discovery via
  Hamming-norm (L0) sketches of column differences.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ColumnPairReport": "data_cleaning",
        "SimilarColumnFinder": "data_cleaning",
        "FlowCardinalityMonitor": "network_monitor",
        "WindowReport": "network_monitor",
        "ColumnStatisticsCollector": "query_optimizer",
        "JoinEstimate": "query_optimizer",
    },
)
