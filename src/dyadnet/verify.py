"""Exact identity suites over nets and the coefficient calculus.

Each check returns a machine-readable result with a counterexample
witness on failure; the CLI `verify` command runs a bundle of them and
maps any failure to a dedicated exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .discrepancy import (
    DiscrepancyContext,
    lambda_group,
    m_direct,
    m_dual_sum,
    approximation_gap,
)
from .f2core import (
    DyadicPoint,
    F2Subspace,
    _character,
    _character_sum,
    _rev_packed,
    _rev_words,
    iter_grid,
)
from .walsh import fine_coefficient, rho_index, walsh_1d


@dataclass(frozen=True)
class IdentityResult:
    name: str
    passed: bool
    checked: int
    details: dict = field(default_factory=dict)
    witness: dict | None = None

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f" witness={self.witness}" if self.witness else ""
        return f"{self.name}: {status} ({self.checked} cases){extra}"


def check_poisson(ctx: DiscrepancyContext) -> IdentityResult:
    """Character sums over the net hit cardinality exactly on the dual,
    zero elsewhere."""
    n, s = ctx.n, ctx.s
    card = ctx.cardinality
    net = list(ctx.subspace.enumerate_packed())
    dual_set = {DyadicPoint(L, s).pack() for L in ctx.require_dual()}
    checked = 0
    for v in range(1 << (n * s)):
        total = _character_sum(net, _rev_packed(v, n, s))
        want = card if v in dual_set else 0
        checked += 1
        if total != want:
            return IdentityResult(
                "poisson-summation", False, checked,
                witness={"L": DyadicPoint.from_packed(v, n, s).words,
                         "sum": total, "expected": want},
            )
    return IdentityResult("poisson-summation", True, checked)


def check_route_equivalence(ctx: DiscrepancyContext) -> IdentityResult:
    """The kernel-sum and dual-sum evaluations agree exactly on the full
    dyadic grid of the net's resolution."""
    checked = 0
    for Y in iter_grid(ctx.n, ctx.s):
        a = m_direct(ctx, Y)
        b = m_dual_sum(ctx, Y)
        checked += 1
        if a != b:
            return IdentityResult(
                "route-equivalence", False, checked,
                witness={"Y": [str(v) for v in Y.values()],
                         "direct": str(a), "dual_sum": str(b)},
            )
    return IdentityResult("route-equivalence", True, checked,
                          details={"resolution": ctx.s})


def check_approximation_gap(ctx: DiscrepancyContext) -> IdentityResult:
    report = approximation_gap(ctx)
    witness = None
    if not report.within_bound:
        witness = {"Y": [str(v) for v in report.argmax], "gap": str(report.max_gap)}
    return IdentityResult(
        "approximation-gap", report.within_bound, report.points_checked,
        details={"max_gap": str(report.max_gap), "bound": report.bound},
        witness=witness,
    )


def check_delta_identities(ctx: DiscrepancyContext) -> IdentityResult:
    """Group slice identities: two-valued indicator, unit grid average,
    cardinality bound, and the representative factorization.

    The indicator value comes from orthogonality against a basis of the
    strictly-below subgroup; for duals of at most 64 elements the full
    character sum is recomputed per query as well.
    """
    n, s = ctx.n, ctx.s
    dual = ctx.require_dual()
    groups = ctx.groups()
    if sum(len(v) for v in groups.values()) != len(dual):
        return IdentityResult("delta-identities", False, 0,
                              witness={"reason": "grouping does not partition"})
    direct_sums = len(dual) <= 64
    checked = 0
    for rho_bar, members in sorted(groups.items()):
        if not any(any(L) for L in members):
            continue
        grp = lambda_group(ctx, rho_bar)
        if grp.cardinality_bound_ok is False:
            return IdentityResult(
                "delta-identities", False, checked,
                witness={"rho_bar": rho_bar, "lambda0": grp.lambda0_count,
                         "reason": "cardinality bound"},
            )
        count = grp.lambda0_count
        span = F2Subspace.from_packed(n, s, (DyadicPoint(L, s).pack() for L in grp.lambda0))
        if count != span.cardinality:
            return IdentityResult(
                "delta-identities", False, checked,
                witness={"rho_bar": rho_bar, "lambda0": count,
                         "reason": "not a subgroup"},
            )
        rev_basis = [_rev_packed(b, n, s) for b in span.basis]
        rev_members = [_rev_words(L, s) for L in members]
        rev_rep = _rev_words(grp.representative, s)
        rev_lam0 = [_rev_words(L, s) for L in grp.lambda0]
        total = 0
        for y in range(1 << (n * s)):
            val = count if all(_character(b, y) == 1 for b in rev_basis) else 0
            checked += 1
            if direct_sums:
                direct = _character_sum(rev_lam0, y)
                if direct != val:
                    return IdentityResult(
                        "delta-identities", False, checked,
                        witness={"rho_bar": rho_bar,
                                 "Y": DyadicPoint.from_packed(y, n, s).words,
                                 "direct_sum": direct, "orthogonality": val},
                    )
            rep_sign = _character(rev_rep, y)
            lhs = _character_sum(rev_members, y)
            if lhs != rep_sign * val:
                return IdentityResult(
                    "delta-identities", False, checked,
                    witness={"rho_bar": rho_bar,
                             "Y": DyadicPoint.from_packed(y, n, s).words,
                             "group_sum": lhs, "factored": rep_sign * val},
                )
            total += val
        if total != (1 << (n * s)):
            return IdentityResult(
                "delta-identities", False, checked,
                witness={"rho_bar": rho_bar,
                         "grid_mean": str(Fraction(total, 1 << (n * s)))},
            )
    return IdentityResult("delta-identities", True, checked,
                          details={"groups": len(groups)})


def check_fine_closed_form(l_max: int = 64, resolution: int = 8) -> IdentityResult:
    """Closed-form interval coefficients against direct cell-sum quadrature."""
    den = 1 << resolution
    checked = 0
    for l in range(l_max):
        quad = 0  # numerator over den of the cell sum of w_l on [0, y)
        for t in range(den + 1):
            y = Fraction(t, den)
            got = fine_coefficient(l, y)
            checked += 1
            if got.numerator * den != quad * got.denominator:
                return IdentityResult(
                    "interval-coefficient-closed-form", False, checked,
                    witness={"l": l, "y": str(y), "closed": str(got),
                             "quadrature": str(Fraction(quad, den))},
                )
            if t < den:
                quad += walsh_1d(l, y)
    return IdentityResult("interval-coefficient-closed-form", True, checked)


def check_fine_square_norm(l_max: int = 64) -> IdentityResult:
    """Exact integral of the squared coefficient profile: 4^-rho / 3.

    The profile is piecewise linear between cell boundaries, so the
    quadrature sums exact quadratic segment integrals.
    """
    checked = 0
    for l in range(l_max):
        r = max(l.bit_length(), 1)
        den = 1 << r
        vals = [fine_coefficient(l, Fraction(t, den)) for t in range(den + 1)]
        acc = Fraction(0)
        for a, b in zip(vals, vals[1:]):
            acc += (a * a + a * b + b * b) / (3 * den)
        want = Fraction(1, 3 * (1 << (2 * rho_index(l))))
        checked += 1
        if acc != want:
            return IdentityResult(
                "interval-coefficient-square-norm", False, checked,
                witness={"l": l, "integral": str(acc), "expected": str(want)},
            )
    return IdentityResult("interval-coefficient-square-norm", True, checked)


def run_net_suite(ctx: DiscrepancyContext) -> list[IdentityResult]:
    results = [check_poisson(ctx), check_route_equivalence(ctx)]
    if ctx.quality is not None:
        results.append(check_approximation_gap(ctx))
    results.append(check_delta_identities(ctx))
    return results
