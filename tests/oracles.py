"""Independent evaluations kept only as test oracles.

Each function here is a second route to a quantity that the library
evaluates one way in production; tests compare the two.

- `walsh_nd`, the product of one-dimensional characters `walsh_1d`, is
  the oracle of the packed tensor character `f2core._character`.
- `omega`, the sawtooth factor, gives the closed form
  `2^(-rho-1) w_tau(y) omega_rho(y)` of the interval coefficient, the
  oracle of the integer evaluation `walsh._chi_num`.
- `character_sum`, one character sum at one grid point, is the oracle of
  the whole-grid Walsh-Hadamard table `f2core._character_table`.
- `poisson_loop` and `delta_loop` walk the `2^(ns)` grid point by point
  with `character_sum`; they are the oracles of `verify.check_poisson`
  and `verify.check_delta_identities`, which read the tables.
"""

from __future__ import annotations

from fractions import Fraction

from dyadnet.discrepancy import DiscrepancyContext, lambda_group
from dyadnet.f2core import (
    DyadicPoint,
    F2Subspace,
    _character,
    _pack,
    _rev_packed,
    _rev_words,
    _unpack,
)
from dyadnet.verify import IdentityResult
from dyadnet.walsh import walsh_1d


def walsh_nd(L, X) -> int:
    """Tensor Walsh character: product of w_{l_j}(x_j) over coordinates."""
    if isinstance(X, DyadicPoint):
        xs = X.values()
    else:
        xs = tuple(X)
    L = tuple(L)
    if len(L) != len(xs):
        raise ValueError(f"index length {len(L)} != point dimension {len(xs)}")
    sign = 1
    for l, x in zip(L, xs):
        sign *= walsh_1d(l, x)
    return sign


def omega(m: int, y) -> Fraction:
    """Piecewise-linear sawtooth with period 2^(1-m), rising 0 -> 2 -> 0.

    Equals 2^(m+1) times the running integral of the m-th digit sign;
    the degenerate m = 0 case is the linear ramp 2y on [0,1].
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    fy = Fraction(y)
    if not 0 <= fy <= 1:
        raise ValueError(f"{y} outside [0,1]")
    if m == 0:
        return 2 * fy
    period = Fraction(1, 1 << (m - 1))
    u = fy % period
    tri = u if 2 * u <= period else period - u
    return tri * (1 << (m + 1))


def character_sum(words, other: int) -> int:
    """Sum of `_character(a, other)` over the words a."""
    return sum(_character(a, other) for a in words)


def poisson_loop(ctx: DiscrepancyContext) -> IdentityResult:
    """Character sums over the net hit cardinality exactly on the dual,
    zero elsewhere."""
    n, s = ctx.n, ctx.s
    card = ctx.cardinality
    net = list(ctx.subspace.enumerate_packed())
    dual_set = {_pack(L, s) for L in ctx.require_dual()}
    checked = 0
    for v in range(1 << (n * s)):
        total = character_sum(net, _rev_packed(v, n, s))
        want = card if v in dual_set else 0
        checked += 1
        if total != want:
            return IdentityResult(
                "poisson-summation", False, checked,
                witness={"L": _unpack(v, n, s),
                         "sum": total, "expected": want},
            )
    return IdentityResult("poisson-summation", True, checked)


def delta_loop(ctx: DiscrepancyContext) -> IdentityResult:
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
        span = F2Subspace.from_packed(n, s, (_pack(L, s) for L in grp.lambda0))
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
                direct = character_sum(rev_lam0, y)
                if direct != val:
                    return IdentityResult(
                        "delta-identities", False, checked,
                        witness={"rho_bar": rho_bar,
                                 "Y": _unpack(y, n, s),
                                 "direct_sum": direct, "orthogonality": val},
                    )
            rep_sign = _character(rev_rep, y)
            lhs = character_sum(rev_members, y)
            if lhs != rep_sign * val:
                return IdentityResult(
                    "delta-identities", False, checked,
                    witness={"rho_bar": rho_bar,
                             "Y": _unpack(y, n, s),
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
