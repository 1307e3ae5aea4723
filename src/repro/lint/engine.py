"""AST rule engine for the repo's contract linter.

The test suite can only spot-check the repo's correctness contracts
dynamically (exact integer arithmetic on estimate paths, seed
determinism, pickle-free serialization, pool discipline, the kernel
backend seam).  This engine makes them *static*: every rule in
:mod:`repro.lint.rules` walks the AST of each source file and emits
structured :class:`Finding`\\ s, and the CLI (``python -m repro.lint``)
gates on them at commit time.

Machinery provided here, shared by every rule:

* **File discovery** — :func:`discover_files` walks the given paths for
  ``*.py`` files, skipping caches and build output.
* **Per-rule visitor dispatch** — one AST walk per module; each rule
  declares the node types it wants (``Rule.node_types``) and is called
  for exactly those, with a :class:`ModuleContext` carrying the scope
  stack and resolved import aliases.
* **Suppressions** — an explicit per-line syntax::

      risky_line()  # lint: allow[rule-id] why this is intentional

  A suppression on a comment-only line applies to the next line.  The
  reason text is mandatory (``lint-missing-reason`` fires otherwise) and
  unused suppressions warn (``lint-unused-suppression``), so stale
  escapes cannot accumulate silently.

There is no findings baseline: a finding is fixed or suppressed with a
reason, and any error-severity finding fails the run.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "Rule",
    "ModuleContext",
    "LintResult",
    "discover_files",
    "lint_paths",
    "lint_source",
]

SEVERITIES = ("error", "warning")

#: Directory basenames never descended into during discovery.
_SKIP_DIRS = {
    "__pycache__",
    "_build",
    ".git",
    ".hypothesis",
    ".pytest_cache",
    "results",
    ".eggs",
}

#: The one suppression syntax: ``lint: allow[rule-a,rule-b] reason``
#: inside a comment.
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*allow\[([^\]]*)\]\s*(.*?)\s*$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str  # repo-relative, forward slashes
    line: int
    col: int
    message: str
    severity: str = "error"

    def render(self) -> str:
        return "%s:%d:%d: %s [%s] %s" % (
            self.path,
            self.line,
            self.col,
            self.rule,
            self.severity,
            self.message,
        )


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`id`, :attr:`description`, and
    :attr:`node_types`, and implement :meth:`visit`; the engine calls it
    once per matching AST node, inside one shared walk per module.
    Override :meth:`applies_to` to scope the rule to parts of the tree.
    """

    id: str = ""
    description: str = ""
    severity: str = "error"
    #: AST node classes this rule wants to see.
    node_types: Tuple[type, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        return True

    def visit(self, ctx: "ModuleContext", node: ast.AST) -> None:
        raise NotImplementedError


@dataclass
class _Suppression:
    rules: Tuple[str, ...]
    reason: str
    comment_line: int  # where the comment physically sits
    target_line: int  # the line whose findings it suppresses
    used: bool = False


#: Library names that re-export a whole module: ``from ..vectorize import
#: np`` binds NumPy itself, so rules keyed on ``numpy.*`` must see it.
_REEXPORTED_MODULES = {
    "repro.vectorize.np": "numpy",
    "repro.kernels.numpy_backend.np": "numpy",
}


class ModuleContext:
    """Everything a rule may need about the module being linted."""

    def __init__(self, relpath: str, source: str, tree: ast.Module) -> None:
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: Enclosing FunctionDef/AsyncFunctionDef/ClassDef nodes, outermost first.
        self.scope_stack: List[ast.AST] = []
        self.findings: List[Finding] = []
        #: local name -> dotted module path ("np" -> "numpy",
        #: "numpy_backend" -> "repro.kernels.numpy_backend").
        self.aliases: Dict[str, str] = {}
        self._cache: Dict[str, object] = {}
        self._collect_aliases()

    # -- alias resolution ------------------------------------------------------------

    def _module_package(self) -> List[str]:
        """Dotted package parts of this module, for relative imports."""
        parts = self.relpath.split("/")
        if parts and parts[0] == "src":
            parts = parts[1:]
        if parts and parts[-1].endswith(".py"):
            parts = parts[:-1] + ([] if parts[-1] == "__init__.py" else [])
        return parts

    def _collect_aliases(self) -> None:
        package = self._module_package()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self.resolve_import_from(node, package)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    target = "%s.%s" % (base, alias.name) if base else alias.name
                    self.aliases[local] = _REEXPORTED_MODULES.get(target, target)

    def resolve_import_from(
        self, node: ast.ImportFrom, package: Optional[List[str]] = None
    ) -> Optional[str]:
        """Absolute dotted module a ``from X import ...`` refers to."""
        if package is None:
            package = self._module_package()
        if node.level == 0:
            return node.module or ""
        if node.level > len(package):
            return None  # escapes the linted tree; nothing to resolve against
        base_parts = package[: len(package) - (node.level - 1)]
        if node.module:
            base_parts = base_parts + node.module.split(".")
        return ".".join(base_parts)

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute chain to a dotted name through the aliases.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        under ``import numpy as np``; plain names resolve through
        ``from``-import aliases.  Returns ``None`` for non-name bases
        (calls, subscripts).
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = self.aliases.get(parts[0], parts[0])
        return ".".join([head] + parts[1:])

    # -- scope helpers ---------------------------------------------------------------

    def enclosing_functions(self) -> List[str]:
        return [
            frame.name
            for frame in self.scope_stack
            if isinstance(frame, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def at_module_level(self) -> bool:
        return not self.scope_stack

    def module_calls(self, dotted: str) -> bool:
        """Whether the module calls ``dotted`` anywhere (cached per module)."""
        key = "calls:%s" % dotted
        cached = self._cache.get(key)
        if cached is None:
            cached = any(
                isinstance(node, ast.Call) and self.dotted_name(node.func) == dotted
                for node in ast.walk(self.tree)
            )
            self._cache[key] = cached
        return bool(cached)

    # -- reporting -------------------------------------------------------------------

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        self.findings.append(
            Finding(
                rule=rule.id,
                path=self.relpath,
                line=line,
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
                severity=rule.severity,
            )
        )


class _Walker(ast.NodeVisitor):
    """Single AST pass dispatching each node to the rules that want it."""

    def __init__(self, ctx: ModuleContext, rules: Sequence[Rule]) -> None:
        self.ctx = ctx
        self._dispatch: Dict[type, List[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)

    def visit(self, node: ast.AST) -> None:
        for rule in self._dispatch.get(type(node), ()):
            rule.visit(self.ctx, node)
        scoped = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        if scoped:
            self.ctx.scope_stack.append(node)
        self.generic_visit(node)
        if scoped:
            self.ctx.scope_stack.pop()


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------


def _iter_comments(source: str, lines: Sequence[str]):
    """Yield ``(line, text)`` for real comment tokens only.

    Tokenizing (rather than regex-scanning every line) keeps suppression
    examples inside docstrings from registering as suppressions.  On
    tokenize failure (the file already failed to parse) fall back to the
    raw lines; the syntax-error finding dominates anyway.
    """
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):
        for number, text in enumerate(lines, start=1):
            if "#" in text:
                yield number, text


def _scan_suppressions(source: str, lines: Sequence[str]) -> List[_Suppression]:
    suppressions = []
    for number, text in _iter_comments(source, lines):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = tuple(
            piece.strip() for piece in match.group(1).split(",") if piece.strip()
        )
        own_line = number <= len(lines) and lines[number - 1].lstrip().startswith("#")
        target = number + 1 if own_line else number
        suppressions.append(
            _Suppression(
                rules=rules,
                reason=match.group(2).strip(),
                comment_line=number,
                target_line=target,
            )
        )
    return suppressions


def _apply_suppressions(
    relpath: str,
    findings: List[Finding],
    suppressions: List[_Suppression],
) -> List[Finding]:
    kept: List[Finding] = []
    for finding in findings:
        suppressed = False
        for suppression in suppressions:
            if (
                finding.line == suppression.target_line
                and finding.rule in suppression.rules
                and suppression.reason
            ):
                suppression.used = True
                suppressed = True
                break
        if not suppressed:
            kept.append(finding)
    for suppression in suppressions:
        if not suppression.rules or not suppression.reason:
            kept.append(
                Finding(
                    rule="lint-missing-reason",
                    path=relpath,
                    line=suppression.comment_line,
                    col=1,
                    message=(
                        "suppression must name at least one rule and carry a "
                        "reason: # lint: allow[rule-id] why"
                    ),
                    severity="error",
                )
            )
        elif not suppression.used:
            kept.append(
                Finding(
                    rule="lint-unused-suppression",
                    path=relpath,
                    line=suppression.comment_line,
                    col=1,
                    message=(
                        "suppression for %s matches no finding on line %d; "
                        "remove it" % (", ".join(suppression.rules), suppression.target_line)
                    ),
                    severity="warning",
                )
            )
    return kept


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------


@dataclass
class LintResult:
    """Findings from one engine run, split by failure semantics."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.severity == "warning"]


def discover_files(paths: Sequence[str], root: str) -> List[str]:
    """Python files under ``paths`` (relative to ``root``), sorted."""
    found = []
    for path in paths:
        absolute = path if os.path.isabs(path) else os.path.join(root, path)
        if os.path.isfile(absolute):
            found.append(absolute)
            continue
        for directory, dirnames, filenames in os.walk(absolute):
            dirnames[:] = sorted(
                name
                for name in dirnames
                if name not in _SKIP_DIRS and not name.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(directory, filename))
    return sorted(set(found))


def _relpath(absolute: str, root: str) -> str:
    rel = os.path.relpath(absolute, root)
    return rel.replace(os.sep, "/")


def lint_source(relpath: str, source: str, rules: Sequence[Rule]) -> List[Finding]:
    """Lint one in-memory module; the unit the fixture tests drive."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                rule="lint-syntax-error",
                path=relpath,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message="file does not parse: %s" % exc.msg,
                severity="error",
            )
        ]
    active = [rule for rule in rules if rule.applies_to(relpath)]
    ctx = ModuleContext(relpath, source, tree)
    if active:
        _Walker(ctx, active).visit(tree)
    return _apply_suppressions(
        relpath, ctx.findings, _scan_suppressions(source, ctx.lines)
    )


def lint_paths(
    paths: Sequence[str], rules: Sequence[Rule], root: Optional[str] = None
) -> LintResult:
    """Lint every Python file under ``paths`` with ``rules``."""
    root = root or os.getcwd()
    result = LintResult()
    for absolute in discover_files(paths, root):
        with open(absolute, "r", encoding="utf-8") as handle:
            source = handle.read()
        result.findings.extend(lint_source(_relpath(absolute, root), source, rules))
        result.files_checked += 1
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result
