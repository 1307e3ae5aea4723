"""Package export tables (PEP 562): a name's submodule loads on first use.

Each package ``__init__`` hands :func:`lazy_exports` a ``{name: submodule}``
table instead of importing every submodule, so ``import repro`` compiles
and runs only the modules a caller's names need.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict):
    """Return ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each exported name to the submodule, relative to
    ``package``, that defines it.  The first lookup of a name imports its
    submodule and binds the value in the package, so later lookups are
    plain attribute reads.  Any other name is tried as a submodule, so
    ``repro.core.knw`` resolves without an explicit import; a name that is
    neither raises :class:`AttributeError`.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name in table:
            value = getattr(importlib.import_module("%s.%s" % (package, table[name])), name)
            namespace[name] = value
            return value
        submodule = "%s.%s" % (package, name)
        try:
            return importlib.import_module(submodule)
        except ModuleNotFoundError as error:
            if error.name != submodule:
                raise
        raise AttributeError("module %r has no attribute %r" % (package, name))

    def __dir__():
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__, list(table)
