"""Static-analysis pass enforcing this repository's correctness contracts.

The test suite checks the contracts dynamically; this package checks
them statically, at commit time, over every source file:

* **exact arithmetic** — no NumPy transcendentals, ``np.float*`` casts,
  or implicit float division on sketch estimate/ingest/merge paths;
* **determinism** — no unseeded RNG or wall-clock reads in library
  code, no order-dependent iteration inside the canonical encoders;
* **serialization discipline** — no pickle under ``src/``, no
  swallowing excepts on decode paths;
* **parallel hygiene** — pool construction only through ``get_pool``,
  fork-safe module state in the parallel package;
* **kernel-seam discipline** — backend kernels only via the
  ``repro.vectorize`` dispatch seam;

plus an import-time **registry audit** (estimator contract surface,
``WAL_METHODS`` resolution, seam/rule sync).  Run it as::

    python -m repro.lint [paths ...]

See :mod:`repro.lint.engine` for suppressions and baseline mechanics,
and ``docs/architecture.md`` ("Static analysis & contracts") for the
rule catalogue and how to add a rule.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "Finding": "engine",
        "LintResult": "engine",
        "Rule": "engine",
        "lint_paths": "engine",
        "lint_source": "engine",
        "all_rules": "rules",
        "rules_by_id": "rules",
    },
)
