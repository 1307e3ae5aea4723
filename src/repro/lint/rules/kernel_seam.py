"""Kernel-seam discipline.

The hot kernels are dispatched through ``repro.vectorize`` into the
active backend (``repro.kernels.active()``); calling a backend module's
kernel directly pins the call site to one implementation, silently
skipping the compiled backend (a perf bug) or the reference (a
bit-identity bug under ``REPRO_KERNEL_BACKEND=compiled``).  This rule
flags any use of a seam kernel via ``numpy_backend``/``compiled_backend``
outside the ``repro/kernels`` package itself.

``SEAM_KERNELS`` mirrors ``repro.kernels.REQUIRED_KERNELS``; the audit
pass (``repro.lint.audit``) fails if the two drift apart, so adding a
kernel to the seam automatically extends this rule.
"""

from __future__ import annotations

import ast

from ..engine import ModuleContext, Rule

#: Kept in lockstep with repro.kernels.REQUIRED_KERNELS (audit-enforced).
SEAM_KERNELS = frozenset(
    {
        "mulmod",
        "affine_mod",
        "mod_range",
        "affine_mod_range",
        "mulmod_arrays",
        "kwise_mod_range",
        "grouped_max_scatter",
        "grouped_or_scatter",
        "hashed_max_scatter",
        "hashed_residue_scatter",
        "hashed_fingerprint_scatter",
        "lsb64_batch",
    }
)

_BACKEND_MODULES = ("numpy_backend", "compiled_backend")


def _is_backend_module(dotted: str) -> bool:
    return dotted.rsplit(".", 1)[-1] in _BACKEND_MODULES


class SeamBypassRule(Rule):
    id = "seam-backend-bypass"
    description = (
        "backend kernel invoked directly instead of through the "
        "repro.vectorize dispatch seam"
    )
    node_types = (ast.ImportFrom, ast.Attribute)

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/") and not relpath.startswith(
            "src/repro/kernels/"
        )

    def visit(self, ctx: ModuleContext, node: ast.AST) -> None:
        if isinstance(node, ast.ImportFrom):
            module = ctx.resolve_import_from(node)
            if module is None or not _is_backend_module(module):
                return
            for alias in node.names:
                if alias.name in SEAM_KERNELS:
                    ctx.report(
                        self,
                        node,
                        "importing %s from %s bypasses the backend dispatch; "
                        "call repro.vectorize.%s instead"
                        % (alias.name, module, alias.name),
                    )
            return
        # Attribute access: numpy_backend.mulmod(...), including through
        # aliases ("from ..kernels import numpy_backend as nb").
        if not isinstance(node.value, (ast.Name, ast.Attribute)):
            return
        base = ctx.dotted_name(node.value)
        if base is None or not _is_backend_module(base):
            return
        if node.attr in SEAM_KERNELS:
            ctx.report(
                self,
                node,
                "%s.%s called directly bypasses the backend dispatch; call "
                "repro.vectorize.%s instead" % (base, node.attr, node.attr),
            )


RULES = (SeamBypassRule(),)
