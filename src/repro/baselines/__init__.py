"""Baseline F0 estimators: the comparison rows of the paper's Figure 1.

| Module | Figure 1 row | Hash model |
|---|---|---|
| :mod:`repro.baselines.flajolet_martin` | [20] Flajolet--Martin 1985 | random oracle |
| :mod:`repro.baselines.ams` | [3] Alon--Matias--Szegedy | pairwise |
| :mod:`repro.baselines.gibbons_tirthapura` | [24] Gibbons--Tirthapura | pairwise |
| :mod:`repro.baselines.kmv` | [5]/[6] bottom-k (Bar-Yossef et al. / Beyer et al.) | pairwise |
| :mod:`repro.baselines.bjkst` | [4] Bar-Yossef et al. Algorithms II/III | pairwise |
| :mod:`repro.baselines.loglog` | [16] Durand--Flajolet LogLog | random oracle |
| :mod:`repro.baselines.linear_counting` | [17] Estan--Varghese--Fisk bitmaps | random oracle |
| :mod:`repro.baselines.hyperloglog` | [19] HyperLogLog | random oracle |

The KNW algorithms themselves live in :mod:`repro.core`; the turnstile
(L0) baseline of Ganguly lives in :mod:`repro.l0.ganguly`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "AMSDistinctEstimator": "ams",
        "BJKSTSampler": "bjkst",
        "FlajoletMartinPCSA": "flajolet_martin",
        "GibbonsTirthapuraSampler": "gibbons_tirthapura",
        "HyperLogLogCounter": "hyperloglog",
        "hll_registers_for_eps": "hyperloglog",
        "KMinimumValues": "kmv",
        "kmv_size_for_eps": "kmv",
        "LinearCounter": "linear_counting",
        "MultiScaleBitmapCounter": "linear_counting",
        "LogLogCounter": "loglog",
        "registers_for_eps": "loglog",
    },
)
