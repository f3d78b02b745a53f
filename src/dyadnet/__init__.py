"""Binary digital nets, dyadic Walsh analysis, and discrepancy diagnostics."""

__version__ = "0.1.0"

from .f2core import (
    DyadicPoint,
    F2Subspace,
    iter_grid,
    pairing,
    rt_weight,
)
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
from .walsh import fine_coefficient, walsh_1d
from .discrepancy import (
    DiscrepancyContext,
    approximation_gap,
    delta_indicator,
    discrepancy_exact,
    lambda_group,
    m_direct,
    m_dual_sum,
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
    "delta_indicator",
    "discrepancy_exact",
    "dn_sampler",
    "exp_orlicz_estimate",
    "fine_coefficient",
    "hyperbolic_lp_ratios",
    "iter_grid",
    "khinchin_ratios",
    "l2_m_exact",
    "lambda_group",
    "load_generators",
    "lq_norms_mc",
    "m_direct",
    "m_dual_sum",
    "m_sampler",
    "net_points",
    "pairing",
    "random_shift",
    "rescale_to_N",
    "rt_weight",
    "sobol_generators",
    "van_der_corput_generators",
    "verify_box_counts",
    "walsh_1d",
]
