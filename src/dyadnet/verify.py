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
from .f2core import bit_reverse, iter_grid, parity
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


def _tensor_sign(L, words, s: int) -> int:
    acc = 0
    for l, w in zip(L, words):
        acc ^= parity(bit_reverse(l, s) & w)
    return -1 if acc else 1


def check_poisson(ctx: DiscrepancyContext) -> IdentityResult:
    """Character sums over the net hit cardinality exactly on the dual,
    zero elsewhere; and symmetrically with net and dual exchanged."""
    n, s = ctx.n, ctx.s
    card = ctx.cardinality
    net_words = [tuple(p.words) for p in ctx.subspace.enumerate_points()]
    dual_set = set(ctx.require_dual())
    checked = 0
    for L in iter_grid(n, s):
        total = sum(_tensor_sign(L.words, X, s) for X in net_words)
        want = card if tuple(L.words) in dual_set else 0
        checked += 1
        if total != want:
            return IdentityResult(
                "poisson-summation", False, checked,
                witness={"L": L.words, "sum": total, "expected": want},
            )
    for X in iter_grid(n, s):
        total = sum(_tensor_sign(L, X.words, s) for L in net_words)
        want = card if tuple(X.words) in dual_set else 0
        checked += 1
        if total != want:
            return IdentityResult(
                "poisson-summation", False, checked,
                witness={"X": X.words, "sum": total, "expected": want,
                         "direction": "dual"},
            )
    return IdentityResult("poisson-summation", True, checked)


def check_route_equivalence(ctx: DiscrepancyContext,
                            resolution: int | None = None) -> IdentityResult:
    """The kernel-sum and dual-sum evaluations agree exactly on a full
    dyadic grid of queries."""
    g = ctx.s if resolution is None else resolution
    checked = 0
    for Y in iter_grid(ctx.n, g):
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
                          details={"resolution": g})


def check_approximation_gap(ctx: DiscrepancyContext,
                            resolution: int | None = None) -> IdentityResult:
    report = approximation_gap(ctx, resolution=resolution)
    witness = None
    if not report.within_bound:
        witness = {"Y": [str(v) for v in report.argmax], "gap": str(report.max_gap)}
    return IdentityResult(
        "approximation-gap", report.within_bound, report.points_checked,
        details={"max_gap": str(report.max_gap), "bound": report.bound},
        witness=witness,
    )


def check_delta_identities(ctx: DiscrepancyContext,
                           direct_sums: bool | None = None) -> IdentityResult:
    """Group slice identities: two-valued indicator, unit grid average,
    cardinality bound, and the representative factorization.

    The indicator value comes from orthogonality against a basis of the
    strictly-below subgroup; with direct_sums (default for small duals)
    the full character sum is recomputed per query as well.
    """
    n, s = ctx.n, ctx.s
    dual = ctx.require_dual()
    groups = ctx.groups()
    if sum(len(v) for v in groups.values()) != len(dual):
        return IdentityResult("delta-identities", False, 0,
                              witness={"reason": "grouping does not partition"})
    if direct_sums is None:
        direct_sums = len(dual) <= 64
    grid = list(iter_grid(n, s))
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
        basis_masks = _subgroup_basis_masks(grp.lambda0, n, s)
        if count != 1 << len(basis_masks):
            return IdentityResult(
                "delta-identities", False, checked,
                witness={"rho_bar": rho_bar, "lambda0": count,
                         "reason": "not a subgroup"},
            )
        member_masks = [
            tuple(bit_reverse(l, s) for l in L) for L in members
        ]
        rep_mask = tuple(bit_reverse(l, s) for l in grp.representative)
        lam0_masks = [tuple(bit_reverse(l, s) for l in L) for L in grp.lambda0]
        total = 0
        for Y in grid:
            yw = Y.words
            orth = all(
                not _mask_parity(bm, yw) for bm in basis_masks
            )
            val = count if orth else 0
            checked += 1
            if direct_sums:
                direct = sum(
                    -1 if _mask_parity(lm, yw) else 1 for lm in lam0_masks
                )
                if direct != val:
                    return IdentityResult(
                        "delta-identities", False, checked,
                        witness={"rho_bar": rho_bar, "Y": yw,
                                 "direct_sum": direct, "orthogonality": val},
                    )
            rep_sign = -1 if _mask_parity(rep_mask, yw) else 1
            lhs = sum(-1 if _mask_parity(mm, yw) else 1 for mm in member_masks)
            if lhs != rep_sign * val:
                return IdentityResult(
                    "delta-identities", False, checked,
                    witness={"rho_bar": rho_bar, "Y": yw,
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


def _mask_parity(masks: tuple[int, ...], words: tuple[int, ...]) -> int:
    acc = 0
    for m, w in zip(masks, words):
        acc ^= parity(m & w)
    return acc


def _subgroup_basis_masks(members, n: int, s: int) -> list[tuple[int, ...]]:
    """Reversed-word masks for a basis of the packed span of `members`."""
    from .f2core import F2Subspace

    sub = F2Subspace.from_packed(n, s, (
        _pack_words(L, s) for L in members
    ))
    out = []
    mask = (1 << s) - 1
    for b in sub.basis:
        words = tuple((b >> (j * s)) & mask for j in range(n))
        out.append(tuple(bit_reverse(w, s) for w in words))
    return out


def _pack_words(words, s: int) -> int:
    acc = 0
    for j, w in enumerate(words):
        acc |= w << (j * s)
    return acc


def check_fine_closed_form(l_max: int = 64, resolution: int = 8) -> IdentityResult:
    """Closed-form interval coefficients against direct cell-sum quadrature."""
    den = 1 << resolution
    checked = 0
    for l in range(l_max):
        prefix = [Fraction(0)]
        for t in range(den):
            prefix.append(prefix[-1] + Fraction(walsh_1d(l, Fraction(t, den)), den))
        for t in range(den + 1):
            y = Fraction(t, den)
            got = fine_coefficient(l, y)
            checked += 1
            if got != prefix[t]:
                return IdentityResult(
                    "interval-coefficient-closed-form", False, checked,
                    witness={"l": l, "y": str(y), "closed": str(got),
                             "quadrature": str(prefix[t])},
                )
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


def run_net_suite(ctx: DiscrepancyContext, gap_resolution: int | None = None
                  ) -> list[IdentityResult]:
    results = [check_poisson(ctx), check_route_equivalence(ctx)]
    if ctx.quality is not None:
        results.append(check_approximation_gap(ctx, resolution=gap_resolution))
    results.append(check_delta_identities(ctx))
    return results
