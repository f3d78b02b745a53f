"""Binary digital nets, dyadic Walsh analysis, and discrepancy diagnostics."""

__version__ = "0.1.0"

from .f2core import DyadicPoint, F2Subspace
from .nets import (
    DigitShift,
    GeneratorSet,
    NetQuality,
    PointSet,
    as_subspace,
    certify_deficiency,
    load_generators,
    net_points,
    random_shift,
    rescale_to_N,
    sobol_generators,
    van_der_corput_generators,
    verify_box_counts,
)
from .discrepancy import (
    DiscrepancyContext,
    approximation_gap,
    lambda_group,
)
from .norms import (
    dn_sampler,
    exp_orlicz_estimate,
    hyperbolic_lp_ratios,
    khinchin_ratios,
    l2_m_exact,
    lq_norms_mc,
    m_sampler,
)

__all__ = [
    "DigitShift",
    "DiscrepancyContext",
    "DyadicPoint",
    "F2Subspace",
    "GeneratorSet",
    "NetQuality",
    "PointSet",
    "approximation_gap",
    "as_subspace",
    "certify_deficiency",
    "dn_sampler",
    "exp_orlicz_estimate",
    "hyperbolic_lp_ratios",
    "khinchin_ratios",
    "l2_m_exact",
    "lambda_group",
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
