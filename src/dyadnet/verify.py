"""Exact identity suites over nets.

Each check returns a machine-readable result with a counterexample
witness on failure; the CLI `verify` command runs the suite on one net
or a bundle of nets and maps any failure to a dedicated exit code.
Poisson summation and the Delta identities are checked by sets and
ranks, with no table of the 2^(ns) grid; route equivalence compares the
cells of its two routes on that grid, and the approximation gap reads
the box table of the point counts on the net's own (2^s + 1)^n grid.
Each grid check refuses by the size of the one table it builds.  Every
table is a flat list of Python ints from `discrepancy`, so no check
loads numpy.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import compress, count, repeat
from operator import lshift, ne, sub
from typing import NamedTuple

from .discrepancy import (
    DiscrepancyContext,
    RouteUnavailableError,
    _box_table,
    _dual_cells,
    _index,
    _point_counts,
    _within_cap,
    approximation_gap,
)
from .f2core import _character, _pivots, _rank, _rev_packed, _unpack
from .nets import _shape_rank


class IdentityResult(NamedTuple):
    name: str
    passed: bool
    checked: int
    witness: dict | None = None


def check_poisson(ctx: DiscrepancyContext) -> IdentityResult:
    """Character sums over the net hit cardinality exactly on the dual,
    zero elsewhere.  They are the invertible Walsh-Hadamard transform of
    the net listing's word counts, so this holds exactly when: the
    listing has N entries; its distinct words V, listed equally often,
    number 2^rank(V), a subgroup; the dual has 2^(ns) / |V| distinct
    words; and each has character +1 against V's pivots, so the dual is
    V's annihilator.  A pass counts the 2^(ns) grid points; a failure
    checked nothing and names its reason, and for "not orthogonal" the
    first such dual word.  No grid table is built: above the cap
    `ctx.packed_dual` raises `RouteUnavailableError`."""
    n, s = ctx.n, ctx.s
    dual = ctx.packed_dual
    counts = Counter(ctx.packed_net)
    pivots = _pivots(counts)
    reason = ("net not a subgroup"
              if len(ctx.packed_net) != ctx.cardinality or len(counts) != 1 << len(pivots)
              or len(set(counts.values())) != 1
              else "dual size" if len(ctx.dual_set) * len(counts) != 1 << (n * s)
              else None)
    if reason:
        return IdentityResult("poisson-summation", False, 0, witness={"reason": reason})
    rev = [_rev_packed(p, n, s) for p in pivots.values()]
    for L in dual:
        for r in rev:
            if _character(r, L) < 0:
                return IdentityResult(
                    "poisson-summation", False, 0,
                    witness={"reason": "not orthogonal", "L": _unpack(L, n, s)},
                )
    return IdentityResult("poisson-summation", True, 1 << (n * s))


def check_route_equivalence(ctx: DiscrepancyContext) -> IdentityResult:
    """The kernel-sum and dual-sum evaluations agree exactly on the full
    dyadic grid of the net's resolution.

    Times 2^(ns), each route is the box sum of its cells: the direct
    cells 2^(ns) * points - N and the dual cells, which Poisson summation
    for the shifted net makes equal on every cell, top faces too.  So no
    box table is built: a pass counts the 2^(ns) grid points, and a
    failure names the first differing cell in packed order.
    """
    n, s = ctx.n, ctx.s
    ns = n * s
    size = _within_cap(2, ns)
    card = ctx.cardinality
    dual_sum = _dual_cells(ctx)
    points = _point_counts(ctx, 1 << s)
    # Compared lazily, so no third list is held; v is the first cell
    # where the routes differ.
    direct = map(sub, map(lshift, points, repeat(ns)), repeat(card))
    v = next(compress(count(), map(ne, direct, dual_sum)), None)
    if v is None:
        return IdentityResult("route-equivalence", True, size)
    return IdentityResult(
        "route-equivalence", False, v + 1,
        witness={"cell": [str(Fraction(w, 1 << s)) for w in _unpack(v, n, s)],
                 "direct": str(Fraction((points[v] << ns) - card, size)),
                 "dual_sum": str(Fraction(dual_sum[v], size))},
    )


def check_approximation_gap(ctx: DiscrepancyContext) -> IdentityResult:
    report = approximation_gap(ctx)
    witness = None
    if not report.within_bound:
        witness = {"Y": [str(v) for v in report.argmax], "gap": str(report.max_gap)}
    return IdentityResult("approximation-gap", report.within_bound,
                          report.points_checked, witness=witness)


def check_delta_identities(ctx: DiscrepancyContext) -> IdentityResult:
    """Each nonzero leading-digit group is a coset of its strictly-below
    subgroup Lambda0, whose size the net's ranks give.

    Lambda0 of rho_bar is the dual inside the box of shape d,
    d_j = max(rho_j - 1, 0), and its size, for every rho_bar at once, is
    the box table of the group sizes at d + 1.  Each nonzero group is
    checked in sorted order for: the paper's bound
    |Lambda0| <= 2^(|rho_bar| - s + deficiency), with a certified
    deficiency; the rank identity |Lambda0| = 2^(|d| - rank), Lambda0
    being the annihilator of the net's basis under the box's leading-digit
    mask, rank = `nets._shape_rank(ctx.subspace, d)`; the coset, the
    members XOR-ed with the smallest being distinct dual words, as many as
    Lambda0 has (they lie in the box, so they are Lambda0); and the
    subgroup, their span having no more words.  The
    group's character sums then factor as chi_rep times Lambda0's
    two-valued indicator of unit grid mean, so a passing group counts the
    2^(ns) grid points.  A failure names rho_bar, |Lambda0| and the
    reason.  No grid table is built: only the dual listing is bounded,
    and above the cap `ctx.groups` raises `RouteUnavailableError`.
    """
    n, s = ctx.n, ctx.s
    groups = ctx.groups
    sizes = [0] * (s + 1) ** n
    for rho, members in groups.items():
        sizes[_index(rho, s + 1)] = len(members)
    below = _box_table(sizes, (s + 1,) * n)
    checked = 0
    for rho_bar, members in sorted(groups.items()):
        if not any(members):
            continue
        d = [max(r - 1, 0) for r in rho_bar]
        count = below[_index([x + 1 for x in d], s + 1)]
        exponent = None if ctx.deficiency is None else sum(rho_bar) - s + ctx.deficiency
        rank = _shape_rank(ctx.subspace, d)
        rep = min(members)
        offsets = {m ^ rep for m in members}
        reason = ("cardinality bound"
                  if exponent is not None and (exponent < 0 or count > 1 << exponent)
                  else "rank identity" if count != 1 << (sum(d) - rank)
                  else "not a coset"
                  if not len(offsets) == len(members) == count or not offsets <= ctx.dual_set
                  else "not a subgroup" if count != 1 << _rank(offsets)
                  else None)
        if reason:
            return IdentityResult(
                "delta-identities", False, checked,
                witness={"rho_bar": rho_bar, "lambda0": count, "reason": reason},
            )
        checked += 1 << (n * s)
    return IdentityResult("delta-identities", True, checked)


def run_net_suite(ctx: DiscrepancyContext) -> list[IdentityResult]:
    """The net's checks in order, each refusing on its own: a check whose
    grid table or dual is above the cap gives a failing row that checked
    nothing, with the refusal as its witness."""
    checks = [("poisson-summation", check_poisson),
              ("route-equivalence", check_route_equivalence)]
    if ctx.deficiency is not None:
        checks.append(("approximation-gap", check_approximation_gap))
    checks.append(("delta-identities", check_delta_identities))
    results = []
    for name, check in checks:
        try:
            results.append(check(ctx))
        except RouteUnavailableError as exc:
            results.append(IdentityResult(name, False, 0, witness={"refused": str(exc)}))
    return results
