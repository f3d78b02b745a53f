"""Exact identity suites over nets.

Each check returns a machine-readable result with a counterexample
witness on failure; the CLI `verify` command runs the suite on one net
or a bundle of nets and maps any failure to a dedicated exit code.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from typing import Iterable, NamedTuple

import numpy as np

from .discrepancy import (
    DiscrepancyContext,
    _box_table,
    _dual_table,
    _grid_size,
    approximation_gap,
    lambda_group,
)
from .f2core import _character, _rank, _rev_packed, _unpack


class IdentityResult(NamedTuple):
    name: str
    passed: bool
    checked: int
    witness: dict | None = None


def _character_table(words: Iterable[int], n: int, s: int) -> np.ndarray:
    """Character sums at every grid point at once: entry y is the sum of
    `f2core._character(_rev_packed(a, n, s), y)` over the packed words a.

    An in-place Walsh-Hadamard butterfly over the indicator of the
    reversed words (Fino & Algazi, IEEE Trans. Computers C-25, 1976).
    Every entry is at most the word count in absolute value.  The words
    are grid points, and every caller first passes
    `discrepancy._grid_size`, which holds the grid within
    `discrepancy.ENUM_CAP` (2^24), so the int64 sums are exact.
    When every word is 0 the table is the constant word count, with no
    butterfly.
    """
    rev = [_rev_packed(a, n, s) for a in words]
    if not any(rev):
        return np.full(1 << (n * s), len(rev), dtype=np.int64)
    table = np.bincount(rev, minlength=1 << (n * s)).astype(np.int64)
    for k in range(n * s):
        pairs = table.reshape(-1, 2, 1 << k)
        low, high = pairs[:, 0], pairs[:, 1]
        low += high
        high *= -2
        high += low
    return table


def check_poisson(ctx: DiscrepancyContext) -> IdentityResult:
    """Character sums over the net hit cardinality exactly on the dual,
    zero elsewhere.  A failure names the first grid point in packed order."""
    n, s = ctx.n, ctx.s
    size = _grid_size(ctx, s)
    sums = _character_table(ctx.packed_net, n, s)
    want = np.zeros(size, dtype=np.int64)
    want[list(ctx.packed_dual)] = ctx.cardinality
    bad = np.flatnonzero(sums != want)
    if bad.size:
        v = int(bad[0])
        return IdentityResult(
            "poisson-summation", False, v + 1,
            witness={"L": _unpack(v, n, s),
                     "sum": int(sums[v]), "expected": int(want[v])},
        )
    return IdentityResult("poisson-summation", True, size)


def check_route_equivalence(ctx: DiscrepancyContext) -> IdentityResult:
    """The kernel-sum and dual-sum evaluations agree exactly on the full
    dyadic grid of the net's resolution; a failure names the first grid
    point in packed order.

    Both sides are numerators over 2^(ns): the kernel table times 2^(ns)
    minus N times the box volume, and N times the dual table.
    """
    n, s = ctx.n, ctx.s
    size = _grid_size(ctx, s)
    card = ctx.cardinality
    volume = reduce(np.multiply.outer, [np.arange(1 << s, dtype=np.int64)] * n)
    direct = _box_table(ctx, s, kernel=True) << (n * s)
    direct -= card * volume.reshape(-1)
    dual_sum = card * _dual_table(ctx)
    bad = np.flatnonzero(direct != dual_sum)
    if bad.size:
        v = int(bad[0])
        den = 1 << (n * s)
        return IdentityResult(
            "route-equivalence", False, v + 1,
            witness={"Y": [str(Fraction(w, 1 << s)) for w in _unpack(v, n, s)],
                     "direct": str(Fraction(int(direct[v]), den)),
                     "dual_sum": str(Fraction(int(dual_sum[v]), den))},
        )
    return IdentityResult("route-equivalence", True, size)


def check_approximation_gap(ctx: DiscrepancyContext) -> IdentityResult:
    report = approximation_gap(ctx)
    witness = None
    if not report.within_bound:
        witness = {"Y": [str(v) for v in report.argmax], "gap": str(report.max_gap)}
    return IdentityResult("approximation-gap", report.within_bound,
                          report.points_checked, witness=witness)


def check_delta_identities(ctx: DiscrepancyContext) -> IdentityResult:
    """Group slice identities: two-valued indicator, unit grid average,
    cardinality bound, and the representative factorization.

    Each nonzero group is checked in turn: with a certified deficiency,
    |Lambda0| <= 2^(|rho_bar| - s + deficiency); Lambda0, the
    strictly-below subgroup, is a subgroup; then its whole-grid tables.
    The indicator is the character sum over Lambda0.  The group sum
    factors as chi_rep times the indicator, the representative being the
    smallest member, exactly when the members XOR-ed with it have
    Lambda0's table.  A failure names the first grid point in packed order.
    """
    n, s = ctx.n, ctx.s
    size = _grid_size(ctx, s)
    groups = ctx.groups
    checked = 0
    for rho_bar, members in sorted(groups.items()):
        if not any(members):
            continue
        lambda0 = lambda_group(ctx, rho_bar)
        count = len(lambda0)
        exponent = None if ctx.deficiency is None else sum(rho_bar) - s + ctx.deficiency
        reason = ("cardinality bound"
                  if exponent is not None and (exponent < 0 or count > 1 << exponent)
                  else "not a subgroup" if count != 1 << _rank(lambda0)
                  else None)
        if reason:
            return IdentityResult(
                "delta-identities", False, checked,
                witness={"rho_bar": rho_bar, "lambda0": count, "reason": reason},
            )
        rep = min(members)
        delta = _character_table(lambda0, n, s)
        coset = _character_table([m ^ rep for m in members], n, s)
        two_valued = (delta == 0) | (delta == count)
        bad = np.flatnonzero(~two_valued | (coset != delta))
        if bad.size:
            y = int(bad[0])
            sign = _character(_rev_packed(rep, n, s), y)
            return IdentityResult(
                "delta-identities", False, checked + y + 1,
                witness={"rho_bar": rho_bar, "Y": _unpack(y, n, s), "lambda0": count,
                         "delta": int(delta[y]), "group_sum": sign * int(coset[y]),
                         "factored": sign * int(delta[y])},
            )
        checked += size
        total = int(delta.sum())
        if total != size:
            return IdentityResult(
                "delta-identities", False, checked,
                witness={"rho_bar": rho_bar,
                         "grid_mean": str(Fraction(total, size))},
            )
    return IdentityResult("delta-identities", True, checked)


def run_net_suite(ctx: DiscrepancyContext) -> list[IdentityResult]:
    # Every grid of the suite is refused before any check runs.
    _grid_size(ctx, ctx.s)
    if ctx.deficiency is not None:
        _grid_size(ctx, ctx.s + 2)
    results = [check_poisson(ctx), check_route_equivalence(ctx)]
    if ctx.deficiency is not None:
        results.append(check_approximation_gap(ctx))
    results.append(check_delta_identities(ctx))
    return results
