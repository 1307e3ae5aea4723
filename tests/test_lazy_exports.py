"""Package export tables: ``import repro`` loads only what a caller touches.

Every package ``__init__`` is a PEP 562 export table (``repro._lazy``), and
the estimator registry's built-in factories import their family on call.
Each case runs in a fresh interpreter, since this process has long since
imported every module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import repro

SOURCE = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: What building and feeding ``knw-paper`` must leave unloaded.
F0_UNLOADED = [
    "repro.parallel",
    "repro.store",
    "repro.window",
    "repro.analysis",
    "repro.apps",
    "repro.baselines",
    "repro.lint",
    "repro.l0",
    "repro.durability",
    "repro.streams.workloads",
    "repro.streams.generators",
    "repro.streams.datasets",
    "repro.core.fast_knw",
    "concurrent.futures.process",
    "multiprocessing",
]

#: What building ``knw-l0`` and checkpointing it must leave unloaded.
L0_UNLOADED = [
    "repro.parallel",
    "repro.store",
    "repro.window",
    "repro.analysis",
    "repro.apps",
    "repro.baselines",
    "repro.lint",
    "repro.l0.ganguly",
]


def _run(code: str):
    """Run ``code`` in a fresh interpreter; return what it printed as JSON."""
    environment = dict(os.environ, PYTHONPATH=SOURCE)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
        env=environment,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_bare_import_loads_no_subpackage():
    loaded = _run(
        """
        import json, sys
        import repro
        print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro."))))
        """
    )
    assert loaded == ["repro._lazy"]


def test_knw_paper_loads_only_its_own_code():
    loaded = _run(
        """
        import json, sys
        import numpy as np
        import repro
        sketch = repro.make_f0_estimator("knw-paper", 1 << 32, 0.05, seed=3)
        sketch.update_batch(np.arange(5000, dtype=np.uint64))
        assert sketch.estimate() > 0
        print(json.dumps(sorted(sys.modules)))
        """
    )
    assert "repro.core.knw" in loaded
    assert [name for name in F0_UNLOADED if name in loaded] == []


def test_checkpointed_knw_l0_loads_only_its_own_code(tmp_path):
    loaded = _run(
        """
        import json, sys
        import numpy as np
        import repro
        sketch = repro.make_l0_estimator("knw-l0", 1 << 32, 0.05, 1 << 20, seed=3)
        checkpointer = repro.Checkpointer(sketch, %r, snapshot_every=2, sync=False)
        for start in range(0, 300, 100):
            items = np.arange(start, start + 100, dtype=np.uint64)
            checkpointer.ingest(items, np.ones(100, dtype=np.int64))
        checkpointer.close()
        print(json.dumps(sorted(sys.modules)))
        """
        % str(tmp_path / "wal")
    )
    assert "repro.l0.knw_l0" in loaded and "repro.durability.checkpoint" in loaded
    assert [name for name in L0_UNLOADED if name in loaded] == []


def test_every_export_resolves_and_is_listed():
    report = _run(
        """
        import json, pkgutil
        import repro
        packages = ["repro"] + [
            info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
        ]
        report = {}
        for name in packages:
            package = __import__(name, fromlist=["__all__"])
            listed = set(dir(package))
            report[name] = [
                export for export in package.__all__
                if export not in listed or getattr(package, export, None) is None
            ]
        star = {}
        exec("from repro import *", star)
        report["star"] = sorted(set(repro.__all__) - set(star))
        report["count"] = len(packages)
        print(json.dumps(report))
        """
    )
    assert report.pop("count") == 17
    assert report == {name: [] for name in report}


def test_submodules_resolve_as_attributes_and_unknown_names_raise():
    report = _run(
        """
        import json
        import repro
        report = {
            "knw": repro.core.knw.KNWDistinctCounter is repro.KNWDistinctCounter,
            "serialize": repro.serialize.FORMAT_VERSION,
        }
        for owner, name in [(repro, "no_such_name"), (repro.core, "no_such_module")]:
            try:
                getattr(owner, name)
            except AttributeError as error:
                report[name] = str(error)
        try:
            from repro.hashing import no_such_name  # noqa: F401
        except ImportError as error:
            report["from"] = type(error).__name__
        print(json.dumps(report))
        """
    )
    assert report == {
        "knw": True,
        "serialize": 3,
        "no_such_name": "module 'repro' has no attribute 'no_such_name'",
        "no_such_module": "module 'repro.core' has no attribute 'no_such_module'",
        "from": "ImportError",
    }


def test_algorithm_names_import_no_family_and_every_family_builds():
    report = _run(
        """
        import json, sys
        from repro.estimators import registry
        names = {"f0": registry.f0_algorithm_names(), "l0": registry.l0_algorithm_names()}
        families = ["repro.core", "repro.baselines", "repro.l0", "repro.estimators.exact"]
        loaded = [name for name in families if name in sys.modules]
        built = [
            type(registry.make_f0_estimator(name, 1 << 16, 0.2, seed=1)).__name__
            for name in names["f0"]
        ] + [
            type(registry.make_l0_estimator(name, 1 << 16, 0.2, 1 << 10, seed=1)).__name__
            for name in names["l0"]
        ]
        print(json.dumps({"names": names, "loaded": loaded, "built": built}))
        """
    )
    assert report["loaded"] == []
    assert report["names"] == {
        "f0": [
            "ams", "bjkst", "exact", "flajolet-martin", "gibbons-tirthapura", "hyperloglog",
            "kmv", "knw", "knw-fast", "knw-paper", "linear-counting", "loglog",
            "multiscale-bitmap",
        ],
        "l0": ["exact-l0", "ganguly", "knw-l0", "knw-l0-paper"],
    }
    assert len(report["built"]) == 17


def test_a_callers_registration_replaces_a_builtin_in_either_order():
    """``register_f0``/``register_l0`` under a built-in name wins whether it
    comes before the first lookup or after one."""
    for lookup_first in (False, True):
        report = _run(
            """
            import json
            from repro.estimators import registry

            def built():
                return [
                    registry.make_f0_estimator("knw", 1 << 16, 0.2, seed=1),
                    registry.make_l0_estimator("knw-l0", 1 << 16, 0.2, 1 << 10, seed=1),
                ]

            before = [type(made).__name__ for made in built()] if %r else []
            registry.register_f0("knw", lambda n, eps, seed: "own f0")
            registry.register_l0("knw-l0", lambda n, eps, mm, seed: "own l0")
            print(json.dumps(before + built()))
            """
            % lookup_first
        )
        built = ["KNWDistinctCounter", "KNWHammingNormEstimator"] if lookup_first else []
        assert report == built + ["own f0", "own l0"]
