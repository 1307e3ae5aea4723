"""Command line for the contract linter: ``python -m repro.lint``.

Exit status: 0 when there are no error-severity findings (warnings —
unused suppressions — never fail the run); 1 when any error-severity
finding exists; 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import audit as audit_module
from .engine import lint_paths
from .rules import all_rules

__all__ = ["main"]

DEFAULT_PATHS = ("src", "tests", "benchmarks")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST contract linter for this repository.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: %s)" % " ".join(DEFAULT_PATHS),
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repository root paths are resolved against (default: cwd)",
    )
    parser.add_argument(
        "--no-audit",
        action="store_true",
        help="skip the import-time registry/WAL/seam audit",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def _list_rules() -> int:
    for rule in all_rules():
        print("%-28s %-8s %s" % (rule.id, rule.severity, rule.description))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    root = os.path.abspath(args.root or os.getcwd())
    missing = [
        path
        for path in args.paths
        if not os.path.exists(path if os.path.isabs(path) else os.path.join(root, path))
    ]
    if missing:
        print("error: no such path: %s" % ", ".join(missing), file=sys.stderr)
        return 2

    result = lint_paths(args.paths, all_rules(), root=root)
    if not args.no_audit:
        result.findings.extend(audit_module.run_audit())

    for finding in result.errors + result.warnings:
        print(finding.render())
    print(
        "repro.lint: %d file(s), %d error(s), %d warning(s)"
        % (result.files_checked, len(result.errors), len(result.warnings))
    )
    return 1 if result.errors else 0
