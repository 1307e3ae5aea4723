"""Kernel backend registry for the vectorize seam.

The hot kernels behind :mod:`repro.vectorize` — batched Mersenne-prime
hashing, the grouped scatter reductions, ``lsb64_batch``, and the fused
per-structure chains ``hashed_max_scatter`` (KNW F0),
``hashed_residue_scatter`` and ``hashed_fingerprint_scatter``
(``knw-l0``) — are implemented by pluggable *backends*:

``numpy``
    The always-available reference implementation
    (:mod:`repro.kernels.numpy_backend`).  It defines the bit-identical
    contract every other backend must match on every state word.

``compiled``
    Fused single-pass C kernels (:mod:`repro.kernels.compiled_backend`),
    built on first use from the bundled ``_kernels.c`` with the machine's
    C compiler and loaded through :mod:`ctypes`.  Typically 5--50x faster
    than the NumPy path on the hashing and scatter kernels.

Selection happens once, lazily, on the first kernel call:

* ``REPRO_KERNEL_BACKEND=numpy|compiled|auto`` (default ``auto``:
  compiled when it can be built, otherwise NumPy with a one-time
  :class:`RuntimeWarning`).  Forcing ``compiled`` on a machine that
  cannot build it raises :class:`~repro.exceptions.KernelBackendError`
  instead of silently running slower than requested.
* :func:`set_backend` switches programmatically (tests, notebooks);
  :func:`kernel_backend_info` reports what is active and why.

Adding a backend (a CuPy port, say) means providing an object with the
kernel methods listed in ``REQUIRED_KERNELS`` and registering a loader in
``_LOADERS``; ``docs/architecture.md`` walks through the contract.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, List, Optional

from ..exceptions import KernelBackendError

__all__ = [
    "REQUIRED_KERNELS",
    "available_backends",
    "load_backend",
    "set_backend",
    "get_backend",
    "active",
    "kernel_backend_info",
    "require_backend",
]

#: Environment variable consulted (lazily) for the initial backend choice.
ENV_VAR = "REPRO_KERNEL_BACKEND"

#: Every backend must expose these callables, matching the reference
#: signatures in :mod:`repro.kernels.numpy_backend` bit for bit.
REQUIRED_KERNELS = (
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
)


def _load_numpy():
    from . import numpy_backend

    return numpy_backend


def _load_compiled():
    from . import compiled_backend

    return compiled_backend.load()


_LOADERS = {
    "numpy": _load_numpy,
    "compiled": _load_compiled,
}

#: The active backend object, or ``None`` before first resolution.
_active = None
#: Why the active backend was chosen ("env", "auto", "set_backend", "fallback").
_chosen_by: Optional[str] = None
#: Loaded-backend cache so repeated load_backend calls share one build/self-test.
_loaded: Dict[str, object] = {}
_warned_fallback = False


def available_backends() -> List[str]:
    """Names of all registered backends (loadable or not)."""
    return sorted(_LOADERS)


def load_backend(name: str):
    """Load (but do not activate) the named backend.

    Used by the cross-backend tests and benchmarks, which drive several
    backends side by side without touching the process-wide selection.

    Raises:
        KernelBackendError: unknown name, or the backend cannot load
            (e.g. ``compiled`` without a C toolchain).
    """
    try:
        backend = _loaded.get(name)
        if backend is None:
            try:
                loader = _LOADERS[name]
            except KeyError:
                raise KernelBackendError(
                    "unknown kernel backend %r (available: %s)"
                    % (name, ", ".join(available_backends()))
                ) from None
            backend = loader()
            _loaded[name] = backend
        return backend
    except KernelBackendError:
        raise
    except Exception as exc:  # loader crashed: surface as a backend error
        raise KernelBackendError(
            "kernel backend %r failed to load: %s" % (name, exc)
        ) from exc


def _resolve_from_environment():
    """First-use resolution of ``REPRO_KERNEL_BACKEND``."""
    global _warned_fallback
    requested = os.environ.get(ENV_VAR, "auto").strip().lower() or "auto"
    if requested != "auto":
        # Explicitly forced: load or raise, never fall back silently.
        return load_backend(requested), "env"
    try:
        return load_backend("compiled"), "auto"
    except KernelBackendError as exc:
        if not _warned_fallback:
            _warned_fallback = True
            warnings.warn(
                "repro.kernels: compiled backend unavailable (%s); "
                "falling back to the NumPy reference backend. Set "
                "%s=numpy to silence this warning." % (exc, ENV_VAR),
                RuntimeWarning,
                stacklevel=3,
            )
        return load_backend("numpy"), "fallback"


def active():
    """Return the active backend, resolving it on first use.

    Resolution is deliberately lazy: importing :mod:`repro` (or
    :mod:`repro.vectorize`) never triggers a compile; the first *kernel
    call* does.
    """
    global _active, _chosen_by
    if _active is None:
        _active, _chosen_by = _resolve_from_environment()
    return _active


def get_backend() -> str:
    """Name of the active backend (resolving it if needed)."""
    return active().name


def set_backend(name: str):
    """Activate the named backend process-wide and return it.

    Raises:
        KernelBackendError: unknown name or the backend cannot load; the
            previously active backend stays in effect.
    """
    global _active, _chosen_by
    backend = load_backend(name)
    _active, _chosen_by = backend, "set_backend"
    return backend


def kernel_backend_info() -> dict:
    """Diagnostics for the active backend (also recorded by benchmarks).

    Returns a dict with at least ``name`` (the active backend), ``chosen_by``
    (``"env"``, ``"auto"``, ``"fallback"``, or ``"set_backend"``), and
    ``available`` (per-registered-backend loadability).
    """
    backend = active()
    info = {
        "name": backend.name,
        "chosen_by": _chosen_by,
        "requested": os.environ.get(ENV_VAR, "auto"),
        "available": {},
    }
    for candidate in available_backends():
        try:
            load_backend(candidate)
            info["available"][candidate] = True
        except KernelBackendError:
            info["available"][candidate] = False
    if hasattr(backend, "describe"):
        info["backend"] = backend.describe()
    return info


def require_backend(name: str, feature: str) -> None:
    """Raise an actionable error unless the named backend can load.

    Call sites that *need* a specific backend (benchmark gates, forced
    CI runs) get a message naming the missing prerequisite instead of a
    silent fallback.
    """
    try:
        load_backend(name)
    except KernelBackendError as exc:
        raise KernelBackendError(
            "%s requires the %r kernel backend, which is unavailable: %s"
            % (feature, name, exc)
        ) from exc
