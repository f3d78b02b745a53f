"""Binary digital nets, dyadic Walsh analysis, and discrepancy diagnostics.

The exports of `f2core` and `nets` load with the package.  Those of
`discrepancy` (`DiscrepancyContext`, `approximation_gap`) and the
estimators of `norms`, the one module that imports numpy, load on first
access, so `import dyadnet` leaves numpy and `fractions` unloaded until
one of them is read.
"""

__version__ = "0.1.0"

from importlib import import_module

from .f2core import F2Subspace
from .nets import (
    DigitShift,
    GeneratorSet,
    PointSet,
    certify_deficiency,
    load_generators,
    net_points,
    random_shift,
    rescale_to_N,
    sobol_generators,
    van_der_corput_generators,
    verify_box_counts,
)

# Exports loaded on first access, resolved on every access (PEP 562) from
# their defining module, so a patched or traced module function shows
# through: name -> module.
_LAZY = {
    "DiscrepancyContext": "discrepancy",
    "approximation_gap": "discrepancy",
    "dn_sampler": "norms",
    "exp_orlicz_estimate": "norms",
    "l2_m_exact": "norms",
    "lq_norms_mc": "norms",
    "m_sampler": "norms",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "DigitShift",
    "DiscrepancyContext",
    "F2Subspace",
    "GeneratorSet",
    "PointSet",
    "approximation_gap",
    "certify_deficiency",
    "dn_sampler",
    "exp_orlicz_estimate",
    "l2_m_exact",
    "load_generators",
    "lq_norms_mc",
    "m_sampler",
    "net_points",
    "random_shift",
    "rescale_to_N",
    "sobol_generators",
    "van_der_corput_generators",
    "verify_box_counts",
]
