"""Name -> factory registry for estimators.

The experiment harness, the benchmarks, and the examples all need to
instantiate "every algorithm in Figure 1" uniformly.  This module provides
that single place: each F0 algorithm is registered under a short name with
a factory taking ``(universe_size, eps, seed)``, and each L0 algorithm with
a factory taking ``(universe_size, eps, magnitude_bound, seed)``.

The default parameterisation of every baseline is chosen so that its
*target* standard error matches ``eps``, which is what makes the space
comparison (bits needed for the same accuracy target) meaningful.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Optional

from ..exceptions import ParameterError
from .base import CardinalityEstimator, TurnstileEstimator

__all__ = [
    "F0Factory",
    "L0Factory",
    "register_f0",
    "register_l0",
    "make_f0_estimator",
    "make_l0_estimator",
    "f0_algorithm_names",
    "l0_algorithm_names",
]

F0Factory = Callable[[int, float, Optional[int]], CardinalityEstimator]
L0Factory = Callable[[int, float, int, Optional[int]], TurnstileEstimator]

_F0_REGISTRY: Dict[str, F0Factory] = {}
_L0_REGISTRY: Dict[str, L0Factory] = {}


def register_f0(name: str, factory: F0Factory) -> None:
    """Register an insertion-only F0 estimator factory under ``name``."""
    if not name:
        raise ParameterError("estimator name must be non-empty")
    _F0_REGISTRY[name] = factory


def register_l0(name: str, factory: L0Factory) -> None:
    """Register a turnstile L0 estimator factory under ``name``."""
    if not name:
        raise ParameterError("estimator name must be non-empty")
    _L0_REGISTRY[name] = factory


def f0_algorithm_names() -> List[str]:
    """Return the registered F0 algorithm names (sorted)."""
    return sorted(_F0_REGISTRY)


def l0_algorithm_names() -> List[str]:
    """Return the registered L0 algorithm names (sorted)."""
    return sorted(_L0_REGISTRY)


def make_f0_estimator(
    name: str, universe_size: int, eps: float, seed: Optional[int] = None
) -> CardinalityEstimator:
    """Instantiate a registered F0 estimator.

    Args:
        name: registry key (see :func:`f0_algorithm_names`).
        universe_size: the universe size ``n``.
        eps: target relative error / standard error.
        seed: RNG seed.
    """
    if name not in _F0_REGISTRY:
        raise ParameterError(
            "unknown F0 algorithm %r (known: %s)" % (name, ", ".join(sorted(_F0_REGISTRY)))
        )
    return _F0_REGISTRY[name](universe_size, eps, seed)


def make_l0_estimator(
    name: str,
    universe_size: int,
    eps: float,
    magnitude_bound: int,
    seed: Optional[int] = None,
) -> TurnstileEstimator:
    """Instantiate a registered L0 estimator."""
    if name not in _L0_REGISTRY:
        raise ParameterError(
            "unknown L0 algorithm %r (known: %s)" % (name, ", ".join(sorted(_L0_REGISTRY)))
        )
    return _L0_REGISTRY[name](universe_size, eps, magnitude_bound, seed)


def _family(path: str) -> type:
    """The class at ``"module:Class"`` under :mod:`repro`, importing its module.

    The built-in factories call this, so building one family loads only
    that family's code, and listing the names loads none.
    """
    module, _, name = path.partition(":")
    return getattr(importlib.import_module("repro." + module), name)


# The library's own algorithms.  A caller's register_f0/register_l0 under
# one of these names replaces it, whenever it is made.
register_f0(
    "knw",
    lambda n, eps, seed: _family("core.knw:KNWDistinctCounter")(n, eps=eps, seed=seed),
)
register_f0(
    "knw-paper",
    lambda n, eps, seed: _family("core.knw:KNWDistinctCounter")(
        n, eps=eps, seed=seed, offset_divisor=32, rough_uniform_family=False
    ),
)
register_f0(
    "knw-fast",
    lambda n, eps, seed: _family("core.fast_knw:FastKNWDistinctCounter")(n, eps=eps, seed=seed),
)
register_f0("exact", lambda n, eps, seed: _family("estimators.exact:ExactDistinctCounter")(n))
register_f0(
    "flajolet-martin",
    lambda n, eps, seed: _family("baselines.flajolet_martin:FlajoletMartinPCSA")(
        n, maps=max(16, int(round((0.78 / eps) ** 2))), seed=seed
    ),
)
register_f0(
    "ams", lambda n, eps, seed: _family("baselines.ams:AMSDistinctEstimator")(n, seed=seed)
)
register_f0(
    "gibbons-tirthapura",
    lambda n, eps, seed: _family("baselines.gibbons_tirthapura:GibbonsTirthapuraSampler")(
        n, eps=eps, seed=seed
    ),
)
register_f0(
    "kmv", lambda n, eps, seed: _family("baselines.kmv:KMinimumValues")(n, eps=eps, seed=seed)
)
register_f0(
    "bjkst", lambda n, eps, seed: _family("baselines.bjkst:BJKSTSampler")(n, eps=eps, seed=seed)
)
register_f0(
    "loglog",
    lambda n, eps, seed: _family("baselines.loglog:LogLogCounter")(n, eps=eps, seed=seed),
)
register_f0(
    "linear-counting",
    lambda n, eps, seed: _family("baselines.linear_counting:LinearCounter")(
        n, bits=max(64, int(round(4.0 / (eps * eps)))), seed=seed
    ),
)
register_f0(
    "multiscale-bitmap",
    lambda n, eps, seed: _family("baselines.linear_counting:MultiScaleBitmapCounter")(
        n, bits_per_scale=max(64, int(round(2.0 / (eps * eps)))), seed=seed
    ),
)
register_f0(
    "hyperloglog",
    lambda n, eps, seed: _family("baselines.hyperloglog:HyperLogLogCounter")(
        n, eps=eps, seed=seed
    ),
)

register_l0(
    "knw-l0",
    lambda n, eps, mm, seed: _family("l0.knw_l0:KNWHammingNormEstimator")(
        n, eps=eps, magnitude_bound=mm, seed=seed
    ),
)
register_l0(
    "knw-l0-paper",
    lambda n, eps, mm, seed: _family("l0.knw_l0:KNWHammingNormEstimator")(
        n, eps=eps, magnitude_bound=mm, seed=seed, row_selection="paper"
    ),
)
register_l0(
    "ganguly",
    lambda n, eps, mm, seed: _family("l0.ganguly:GangulyStyleL0Estimator")(
        n, eps=eps, magnitude_bound=mm, seed=seed
    ),
)
register_l0("exact-l0", lambda n, eps, mm, seed: _family("estimators.exact:ExactHammingNorm")(n))
