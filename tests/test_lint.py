"""Tests for the contract linter (:mod:`repro.lint`).

Four layers of coverage:

* **Rule fixtures** — every rule gets at least one flagged and one clean
  in-memory module, driven through :func:`repro.lint.lint_source` with
  synthetic repo-relative paths so path scoping is exercised too.
* **Engine mechanics** — suppression syntax (used / missing-reason /
  unused) and syntax-error handling.
* **Self-application** — the linter lints its own package and the whole
  repo clean, and the CLI fails on any error-severity finding but not
  on warnings.
* **Audit + build hooks** — the import-time audit passes on the real
  registry and catches a broken contract surface; the compiled-kernel
  cache key separates sanitizer builds from production builds.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import all_rules, lint_paths, lint_source, rules_by_id
from repro.lint.audit import F0_SURFACE, _audit_surface, run_audit
from repro.lint.rules.kernel_seam import SEAM_KERNELS

REPO_ROOT = Path(__file__).resolve().parents[1]

RULES = all_rules()


def run_lint(relpath: str, source: str):
    """Lint a dedented in-memory module under a synthetic repo path."""
    return lint_source(relpath, textwrap.dedent(source), RULES)


def rule_ids(findings):
    return [finding.rule for finding in findings]


def assert_flags(relpath: str, source: str, rule: str):
    findings = run_lint(relpath, source)
    assert rule in rule_ids(findings), "expected %s in %r" % (rule, findings)
    return findings


def assert_clean(relpath: str, source: str, rule: str | None = None):
    findings = run_lint(relpath, source)
    if rule is None:
        assert findings == [], findings
    else:
        assert rule not in rule_ids(findings), findings
    return findings


# --------------------------------------------------------------------------
# Exact-arithmetic rules
# --------------------------------------------------------------------------


class TestExactArithmetic:
    SKETCH = "src/repro/estimators/fixture.py"

    def test_np_transcendental_flagged_in_estimate(self):
        assert_flags(
            self.SKETCH,
            """
            import numpy as np

            class E:
                def estimate(self):
                    return np.log(self.count)
            """,
            "exact-np-transcendental",
        )

    def test_np_transcendental_resolves_aliases(self):
        assert_flags(
            self.SKETCH,
            """
            import numpy

            def merge(a, b):
                return numpy.exp(a + b)
            """,
            "exact-np-transcendental",
        )

    def test_math_log_is_clean(self):
        assert_clean(
            self.SKETCH,
            """
            import math

            class E:
                def estimate(self):
                    return math.log(self.count)
            """,
        )

    def test_np_log_outside_contract_functions_is_clean(self):
        assert_clean(
            self.SKETCH,
            """
            import numpy as np

            def plot_helper(values):
                return np.log(values)
            """,
            "exact-np-transcendental",
        )

    def test_np_log_outside_sketch_packages_is_clean(self):
        assert_clean(
            "src/repro/analysis/fixture.py",
            """
            import numpy as np

            def estimate(values):
                return np.log(values)
            """,
            "exact-np-transcendental",
        )

    def test_np_float_cast_flagged(self):
        assert_flags(
            self.SKETCH,
            """
            import numpy as np

            class E:
                def update(self, item):
                    self.word = np.float64(item)
            """,
            "exact-np-float-cast",
        )

    def test_np_reexported_by_vectorize_is_numpy(self):
        # The library's modules import NumPy as ``from ..vectorize import np``.
        assert_flags(
            "src/repro/l0/fixture.py",
            """
            from ..vectorize import np

            class E:
                def update_batch(self, items, deltas):
                    self.weights = np.bincount(items, weights=deltas.astype(np.float64))
            """,
            "exact-np-float-cast",
        )
        assert_flags(
            "src/repro/l0/fixture.py",
            """
            from ..vectorize import np as numpy_module

            class E:
                def estimate(self):
                    return numpy_module.log2(self.count)
            """,
            "exact-np-transcendental",
        )

    def test_builtin_float_is_clean(self):
        assert_clean(
            self.SKETCH,
            """
            class E:
                def estimate(self):
                    return float(self.word)
            """,
        )

    def test_implicit_division_flagged_in_mutator(self):
        assert_flags(
            self.SKETCH,
            """
            class E:
                def _ingest_block(self, items):
                    self.level = self.level / 2
            """,
            "exact-implicit-float-div",
        )

    def test_floor_division_in_mutator_is_clean(self):
        assert_clean(
            self.SKETCH,
            """
            class E:
                def _ingest_block(self, items):
                    self.level = self.level // 2
            """,
        )

    def test_division_in_estimate_is_clean(self):
        # estimate() legitimately reports floats; only mutators are exact.
        assert_clean(
            self.SKETCH,
            """
            class E:
                def estimate(self):
                    return self.total / self.samples
            """,
            "exact-implicit-float-div",
        )


# --------------------------------------------------------------------------
# Determinism rules
# --------------------------------------------------------------------------


class TestDeterminism:
    LIB = "src/repro/hashing/fixture.py"

    def test_unseeded_random_flagged(self):
        assert_flags(
            self.LIB,
            """
            import random

            def make():
                return random.Random()
            """,
            "det-unseeded-rng",
        )

    def test_seeded_random_is_clean(self):
        assert_clean(
            self.LIB,
            """
            import random

            def make(seed):
                return random.Random(seed)
            """,
        )

    def test_global_random_fn_flagged(self):
        assert_flags(
            self.LIB,
            """
            import random

            def pick(items):
                return random.randint(0, len(items))
            """,
            "det-unseeded-rng",
        )

    def test_unseeded_default_rng_flagged(self):
        assert_flags(
            self.LIB,
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """,
            "det-unseeded-rng",
        )

    def test_seeded_default_rng_is_clean(self):
        assert_clean(
            self.LIB,
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """,
        )

    def test_legacy_np_random_flagged(self):
        assert_flags(
            self.LIB,
            """
            import numpy as np

            def draw(n):
                return np.random.rand(n)
            """,
            "det-unseeded-rng",
        )

    def test_rng_outside_library_is_clean(self):
        assert_clean(
            "benchmarks/fixture.py",
            """
            import random

            def jitter():
                return random.random()
            """,
            "det-unseeded-rng",
        )

    def test_wall_clock_flagged(self):
        assert_flags(
            self.LIB,
            """
            import time

            def stamp():
                return time.time()
            """,
            "det-wall-clock",
        )

    def test_monotonic_clock_is_clean(self):
        # perf_counter/monotonic never feed persisted state in this repo.
        assert_clean(
            self.LIB,
            """
            import time

            def elapsed(start):
                return time.perf_counter() - start
            """,
            "det-wall-clock",
        )

    def test_wall_clock_allowed_in_durability(self):
        assert_clean(
            "src/repro/durability/fixture.py",
            """
            import time

            def stamp():
                return time.time()
            """,
            "det-wall-clock",
        )

    def test_dict_iteration_in_encoder_flagged(self):
        assert_flags(
            "src/repro/serialize.py",
            """
            def _encode_tree(node, out):
                for key, value in node.items():
                    out.append((key, value))
            """,
            "det-serialize-dict-order",
        )

    def test_sorted_dict_iteration_is_clean(self):
        assert_clean(
            "src/repro/serialize.py",
            """
            def _encode_tree(node, out):
                for key, value in sorted(node.items()):
                    out.append((key, value))
            """,
        )

    def test_comprehension_over_items_flagged(self):
        assert_flags(
            "src/repro/serialize.py",
            """
            def snapshot(state):
                return [key for key in state.keys()]
            """,
            "det-serialize-dict-order",
        )

    def test_dict_iteration_outside_serialize_is_clean(self):
        assert_clean(
            self.LIB,
            """
            def snapshot(state):
                return [key for key in state.keys()]
            """,
            "det-serialize-dict-order",
        )


# --------------------------------------------------------------------------
# Serialization rules
# --------------------------------------------------------------------------


class TestSerialization:
    def test_pickle_import_flagged(self):
        assert_flags(
            "src/repro/store/fixture.py",
            """
            import pickle

            def save(obj):
                return pickle.dumps(obj)
            """,
            "ser-pickle-import",
        )

    def test_pickle_from_import_flagged(self):
        assert_flags(
            "src/repro/store/fixture.py",
            """
            from pickle import dumps
            """,
            "ser-pickle-import",
        )

    def test_pickle_in_tests_is_clean(self):
        assert_clean(
            "tests/fixture.py",
            """
            import pickle
            """,
            "ser-pickle-import",
        )

    def test_swallowing_except_on_decode_path_flagged(self):
        assert_flags(
            "src/repro/store/fixture.py",
            """
            def from_bytes(data):
                try:
                    return _parse(data)
                except Exception:
                    return None
            """,
            "ser-broad-decode-except",
        )

    def test_reraising_except_on_decode_path_is_clean(self):
        assert_clean(
            "src/repro/store/fixture.py",
            """
            def from_bytes(data):
                try:
                    return _parse(data)
                except Exception as exc:
                    raise SerializationError(str(exc))
            """,
        )

    def test_narrow_except_on_decode_path_is_clean(self):
        assert_clean(
            "src/repro/store/fixture.py",
            """
            def from_bytes(data):
                try:
                    return _parse(data)
                except KeyError:
                    return None
            """,
            "ser-broad-decode-except",
        )

    def test_broad_except_off_decode_path_is_clean(self):
        assert_clean(
            "src/repro/store/fixture.py",
            """
            def maybe(fn):
                try:
                    return fn()
                except Exception:
                    return None
            """,
            "ser-broad-decode-except",
        )


# --------------------------------------------------------------------------
# Parallel-hygiene rules
# --------------------------------------------------------------------------


class TestParallelHygiene:
    def test_direct_executor_flagged(self):
        assert_flags(
            "src/repro/parallel/fixture.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(tasks):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(str, tasks))
            """,
            "par-direct-pool",
        )

    def test_executor_allowed_in_pool_module(self):
        assert_clean(
            "src/repro/parallel/pool.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def _spawn(workers):
                return ProcessPoolExecutor(max_workers=workers)
            """,
            "par-direct-pool",
        )

    def test_module_mutable_state_flagged(self):
        assert_flags(
            "src/repro/parallel/fixture.py",
            """
            _CACHE = {}
            """,
            "par-module-mutable-state",
        )

    def test_mutable_state_with_fork_handler_is_clean(self):
        assert_clean(
            "src/repro/parallel/fixture.py",
            """
            import os

            _CACHE = {}

            def _reset():
                _CACHE.clear()

            os.register_at_fork(after_in_child=_reset)
            """,
            "par-module-mutable-state",
        )

    def test_dunder_metadata_is_clean(self):
        assert_clean(
            "src/repro/parallel/fixture.py",
            """
            __all__ = ["run"]
            """,
            "par-module-mutable-state",
        )

    def test_function_local_mutable_state_is_clean(self):
        assert_clean(
            "src/repro/parallel/fixture.py",
            """
            def run():
                cache = {}
                return cache
            """,
            "par-module-mutable-state",
        )


# --------------------------------------------------------------------------
# Kernel-seam rule
# --------------------------------------------------------------------------


class TestKernelSeam:
    def test_backend_from_import_flagged(self):
        assert_flags(
            "src/repro/hashing/fixture.py",
            """
            from repro.kernels.numpy_backend import mulmod
            """,
            "seam-backend-bypass",
        )

    def test_backend_attribute_call_flagged(self):
        assert_flags(
            "src/repro/hashing/fixture.py",
            """
            from repro.kernels import numpy_backend

            def f(a, b, m):
                return numpy_backend.mulmod(a, b, m)
            """,
            "seam-backend-bypass",
        )

    def test_vectorize_seam_is_clean(self):
        assert_clean(
            "src/repro/hashing/fixture.py",
            """
            from repro.vectorize import mulmod

            def f(a, b, m):
                return mulmod(a, b, m)
            """,
        )

    def test_backend_use_inside_kernels_package_is_clean(self):
        assert_clean(
            "src/repro/kernels/fixture.py",
            """
            from repro.kernels.numpy_backend import mulmod
            """,
            "seam-backend-bypass",
        )

    def test_seam_list_matches_required_kernels(self):
        import repro.kernels as kernels

        assert SEAM_KERNELS == frozenset(kernels.REQUIRED_KERNELS)


# --------------------------------------------------------------------------
# Engine mechanics: suppressions, syntax errors
# --------------------------------------------------------------------------


FLAGGED = """
import random

def make():
    return random.Random()
"""


class TestSuppressions:
    def test_inline_suppression_with_reason(self):
        findings = run_lint(
            "src/repro/hashing/fixture.py",
            """
            import random

            def make():
                return random.Random()  # lint: allow[det-unseeded-rng] fixture
            """,
        )
        assert findings == [], findings

    def test_comment_line_suppression_applies_to_next_line(self):
        findings = run_lint(
            "src/repro/hashing/fixture.py",
            """
            import random

            def make():
                # lint: allow[det-unseeded-rng] fixture
                return random.Random()
            """,
        )
        assert findings == [], findings

    def test_missing_reason_is_an_error(self):
        findings = run_lint(
            "src/repro/hashing/fixture.py",
            """
            import random

            def make():
                return random.Random()  # lint: allow[det-unseeded-rng]
            """,
        )
        ids = rule_ids(findings)
        assert "lint-missing-reason" in ids
        # An invalid suppression must not hide the underlying finding.
        assert "det-unseeded-rng" in ids

    def test_unused_suppression_warns(self):
        findings = run_lint(
            "src/repro/hashing/fixture.py",
            """
            def make(seed):
                return seed  # lint: allow[det-unseeded-rng] nothing here
            """,
        )
        assert rule_ids(findings) == ["lint-unused-suppression"]
        assert findings[0].severity == "warning"

    def test_suppression_example_in_docstring_is_ignored(self):
        findings = run_lint(
            "src/repro/hashing/fixture.py",
            '''
            def make(seed):
                """Use ``# lint: allow[det-unseeded-rng] why`` to suppress."""
                return seed
            ''',
        )
        assert findings == [], findings

    def test_suppression_only_covers_named_rules(self):
        findings = run_lint(
            "src/repro/hashing/fixture.py",
            """
            import random

            def make():
                return random.Random()  # lint: allow[det-wall-clock] wrong rule
            """,
        )
        ids = rule_ids(findings)
        assert "det-unseeded-rng" in ids
        assert "lint-unused-suppression" in ids


class TestEngine:
    def test_syntax_error_is_reported_not_raised(self):
        findings = run_lint("src/repro/fixture.py", "def broken(:\n")
        assert rule_ids(findings) == ["lint-syntax-error"]

    def test_rule_ids_are_unique_and_documented(self):
        catalogue = rules_by_id()
        assert len(catalogue) == len(RULES)
        for rule in RULES:
            assert rule.id
            assert rule.description
            assert rule.severity in ("error", "warning")
            assert rule.node_types


# --------------------------------------------------------------------------
# Self-application
# --------------------------------------------------------------------------


class TestSelfLint:
    def test_lint_package_lints_itself_clean(self):
        result = lint_paths(["src/repro/lint"], RULES, root=str(REPO_ROOT))
        assert result.files_checked > 0
        assert result.findings == [], [f.render() for f in result.findings]

    def test_full_repo_is_clean_with_empty_baseline(self):
        result = lint_paths(
            ["src", "tests", "benchmarks"], RULES, root=str(REPO_ROOT)
        )
        assert result.files_checked > 100
        assert result.errors == [], [f.render() for f in result.errors]
        assert result.warnings == [], [f.render() for f in result.warnings]

    def test_cli_exits_zero_on_repo(self, capsys):
        from repro.lint.cli import main

        # --no-audit: the audit is covered separately below; keep the CLI
        # smoke test fast.
        code = main(["--root", str(REPO_ROOT), "--no-audit"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 error(s)" in out

    def test_cli_exits_one_on_error_finding(self, tmp_path, capsys):
        from repro.lint.cli import main

        fixture = tmp_path / "src" / "repro" / "hashing" / "fixture.py"
        fixture.parent.mkdir(parents=True)
        fixture.write_text(textwrap.dedent(FLAGGED))
        code = main(["--root", str(tmp_path), "--no-audit", "src"])
        out = capsys.readouterr().out
        assert code == 1, out
        assert "det-unseeded-rng" in out

    def test_cli_warnings_do_not_fail(self, tmp_path, capsys):
        from repro.lint.cli import main

        fixture = tmp_path / "src" / "repro" / "hashing" / "fixture.py"
        fixture.parent.mkdir(parents=True)
        fixture.write_text(
            "def make(seed):\n"
            "    return seed  # lint: allow[det-unseeded-rng] nothing here\n"
        )
        code = main(["--root", str(tmp_path), "--no-audit", "src"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "lint-unused-suppression" in out

    def test_cli_list_rules(self, capsys):
        from repro.lint.cli import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out


# --------------------------------------------------------------------------
# Import-time audit
# --------------------------------------------------------------------------


class TestAudit:
    def test_real_registry_passes(self):
        findings = run_audit()
        assert findings == [], [f.render() for f in findings]

    def test_missing_method_is_caught(self):
        class Broken:
            def to_bytes(self):
                return b""

            @classmethod
            def from_bytes(cls, data):
                return cls()

        findings = []
        _audit_surface(Broken(), F0_SURFACE, "broken", findings)
        missing = {f.message.split("method ")[-1] for f in findings}
        assert any("update()" in m for m in missing)
        assert all(f.rule == "audit-estimator-contract" for f in findings)

    def test_unstable_round_trip_is_caught(self):
        class Drifty:
            calls = [0]

            def to_bytes(self):
                self.calls[0] += 1
                return b"v%d" % self.calls[0]

            @classmethod
            def from_bytes(cls, data):
                return cls()

        findings = []
        _audit_surface(Drifty(), ("to_bytes", "from_bytes"), "drifty", findings)
        assert any("byte-stable" in f.message for f in findings)


# --------------------------------------------------------------------------
# Sanitizer-hardened kernel builds: the CFLAGS hook
# --------------------------------------------------------------------------


class TestKernelCflagsHook:
    def test_cflags_env_changes_cache_key(self, monkeypatch):
        from repro.kernels import compiled_backend as cb

        monkeypatch.delenv(cb.CFLAGS_ENV_VAR, raising=False)
        plain = cb._library_basename()
        monkeypatch.setenv(
            cb.CFLAGS_ENV_VAR, "-fsanitize=undefined -fno-sanitize-recover"
        )
        sanitized = cb._library_basename()
        assert plain != sanitized
        # Same flags, same key: the cache stays warm across processes.
        assert sanitized == cb._library_basename()

    def test_cflags_are_shell_split(self, monkeypatch):
        from repro.kernels import compiled_backend as cb

        monkeypatch.setenv(cb.CFLAGS_ENV_VAR, "-g -fsanitize=undefined")
        assert cb._extra_cflags() == ["-g", "-fsanitize=undefined"]
        monkeypatch.delenv(cb.CFLAGS_ENV_VAR)
        assert cb._extra_cflags() == []

    def test_basename_shape(self, monkeypatch):
        import re

        from repro.kernels import compiled_backend as cb

        monkeypatch.delenv(cb.CFLAGS_ENV_VAR, raising=False)
        assert re.fullmatch(r"repro_kernels-[0-9a-f]{16}\.so", cb._library_basename())
