"""Seed-determinism rules.

Two same-seed estimators must hold byte-identical state after the same
updates — that contract underlies shard merging, WAL replay, and every
cross-worker bit-identity test.  Anything that injects ambient entropy
into library code breaks it silently:

* unseeded RNG construction or the module-global ``random``/legacy
  ``np.random`` state;
* wall-clock reads (``time.time`` & co.) outside the two modules whose
  *job* is timing (``durability`` stamps recovery reports, and
  ``benchmarks/`` lives outside ``src/``);
* unordered iteration feeding the canonical encoders in
  ``serialize.py``, whose output must not depend on dict/set history.
"""

from __future__ import annotations

import ast

from ..engine import ModuleContext, Rule

#: Module-global random.* functions that draw from the shared unseeded state.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "seed",
    }
)

#: np.random names that are fine: explicitly-seeded generator machinery.
_NUMPY_RANDOM_OK = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: serialize.py functions that produce the canonical encoding.
_CANONICAL_ENCODERS = frozenset(
    {
        "encode",
        "snapshot",
        "dumps_tree",
        "_encode_tree",
        "_int_block",
        "_int_column",
        "_int_array_block",
    }
)


def _first_arg_is_seedless(node: ast.Call) -> bool:
    if not node.args and not node.keywords:
        return True
    if node.args:
        first = node.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    return all(
        keyword.arg == "seed"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is None
        for keyword in node.keywords
    )


class _LibraryRule(Rule):
    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")


class UnseededRngRule(_LibraryRule):
    id = "det-unseeded-rng"
    description = (
        "unseeded RNG in library code; sketch state must be a deterministic "
        "function of the seed"
    )
    node_types = (ast.Call,)

    def visit(self, ctx: ModuleContext, node: ast.Call) -> None:
        dotted = ctx.dotted_name(node.func)
        if dotted is None:
            return
        if dotted == "random.Random" and _first_arg_is_seedless(node):
            ctx.report(
                self, node, "random.Random() without a seed draws OS entropy"
            )
        elif dotted == "numpy.random.default_rng" and _first_arg_is_seedless(node):
            ctx.report(
                self, node, "np.random.default_rng() without a seed draws OS entropy"
            )
        elif dotted.startswith("random.") and dotted[len("random.") :] in _GLOBAL_RANDOM_FNS:
            ctx.report(
                self,
                node,
                "%s uses the process-global unseeded RNG; construct a seeded "
                "random.Random instead" % dotted,
            )
        elif dotted.startswith("numpy.random."):
            attr = dotted[len("numpy.random.") :].split(".")[0]
            if attr not in _NUMPY_RANDOM_OK:
                ctx.report(
                    self,
                    node,
                    "np.random.%s uses the legacy global RNG state; use a "
                    "seeded np.random.default_rng(seed)" % attr,
                )


class WallClockRule(Rule):
    id = "det-wall-clock"
    description = (
        "wall-clock read in library code; sketch state and canonical output "
        "must not depend on the clock"
    )
    node_types = (ast.Call,)

    def applies_to(self, relpath: str) -> bool:
        # durability/ legitimately stamps WAL/recovery metadata; benchmarks/
        # live outside src/ and time things by design.
        return relpath.startswith("src/repro/") and not relpath.startswith(
            "src/repro/durability/"
        )

    def visit(self, ctx: ModuleContext, node: ast.Call) -> None:
        dotted = ctx.dotted_name(node.func)
        if dotted in _WALL_CLOCK:
            ctx.report(
                self,
                node,
                "%s() reads the wall clock; library state must be "
                "reproducible (pass timestamps in explicitly)" % dotted,
            )


class SerializeDictOrderRule(Rule):
    id = "det-serialize-dict-order"
    description = (
        "unordered dict/set iteration inside a canonical encoder; sort "
        "before encoding so equal values serialize identically"
    )
    node_types = (
        ast.For,
        ast.ListComp,
        ast.SetComp,
        ast.GeneratorExp,
        ast.DictComp,
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath == "src/repro/serialize.py"

    def _check_iter(self, ctx: ModuleContext, owner: ast.AST, iter_node: ast.AST) -> None:
        if not isinstance(iter_node, ast.Call):
            return
        func = iter_node.func
        if isinstance(func, ast.Attribute) and func.attr in ("items", "keys", "values"):
            ctx.report(
                self,
                owner,
                "iterating .%s() directly inside a canonical encoder depends "
                "on insertion order; wrap in sorted(...)" % func.attr,
            )
        elif isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            ctx.report(
                self,
                owner,
                "iterating a set inside a canonical encoder has arbitrary "
                "order; wrap in sorted(...)",
            )

    def visit(self, ctx: ModuleContext, node: ast.AST) -> None:
        if not any(
            name in _CANONICAL_ENCODERS for name in ctx.enclosing_functions()
        ):
            return
        if isinstance(node, ast.For):
            self._check_iter(ctx, node, node.iter)
        else:
            for generator in node.generators:  # type: ignore[attr-defined]
                self._check_iter(ctx, node, generator.iter)


RULES = (UnseededRngRule(), WallClockRule(), SerializeDictOrderRule())
