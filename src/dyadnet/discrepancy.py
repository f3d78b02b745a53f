"""Discrepancy of shifted digital nets, exactly.

The box-counting discrepancy and its truncated-character approximation
are evaluated over integer numerators on a common power-of-two
denominator, so the two independent routes (kernel sum over the net
versus character sum over the nonzero dual) can be compared for exact
equality, and the dual can be sliced into the leading-digit groups that
drive the moment bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .f2core import (
    DEFAULT_ENUM_CAP,
    DyadicPoint,
    F2Subspace,
    _character,
    _pack,
    _rev_words,
    _unpack,
    iter_grid,
)
from .nets import DigitShift, GeneratorSet, NetQuality, PointSet, as_subspace, certify_deficiency
from . import walsh
from .walsh import digit_word, rho_vector

__all__ = [
    "DiscrepancyContext",
    "LambdaGroup",
    "RouteUnavailableError",
    "IdentityViolation",
    "approximation_gap",
    "delta_indicator",
    "discrepancy_exact",
    "lambda_group",
    "m_direct",
    "m_dual_sum",
]


class RouteUnavailableError(RuntimeError):
    """The dual enumeration needed by this route exceeds the cap."""


class IdentityViolation(AssertionError):
    """An exact structural identity failed; carries a witness."""

    def __init__(self, message: str, witness: dict):
        super().__init__(f"{message}: {witness}")
        self.witness = witness


@dataclass(frozen=True)
class DiscrepancyContext:
    """A (possibly shifted) linear distribution, its net words, and its
    dual enumerated on first use.

    `dual_points` lists the dual as integer index vectors (grid words), or
    is None above `cap`, and `dual_signs` the matching characters
    evaluated at the shift; both are computed on first access and stored
    in the instance dict, so routes that stay on the net side never pay
    for the dual.  `groups` buckets the dual by per-coordinate
    leading-digit positions.
    """

    n: int
    s: int
    subspace: F2Subspace
    dual: F2Subspace
    shift: DyadicPoint
    point_words: tuple[tuple[int, ...], ...]
    quality: NetQuality | None
    cap: int

    @classmethod
    def build(cls, source: GeneratorSet | F2Subspace,
              shift: DigitShift | DyadicPoint | None = None,
              cap: int = DEFAULT_ENUM_CAP) -> "DiscrepancyContext":
        sub = as_subspace(source) if isinstance(source, GeneratorSet) else source
        n, s = sub.n, sub.s
        quality = certify_deficiency(sub) if sub.dim == s else None
        if isinstance(shift, DigitShift):
            t = shift.point
        elif shift is None:
            t = DyadicPoint.zero(n, s)
        else:
            t = shift
        if t.n != n or t.s != s:
            raise ValueError("shift grid does not match the distribution")
        # The cap gates the dual route only; the net itself is the object.
        tp = t.pack()
        points = tuple(
            _unpack(p ^ tp, n, s)
            for p in sub.enumerate_packed(max(cap, sub.cardinality))
        )
        return cls(n, s, sub, sub.dual(), t, points, quality, cap)

    @property
    def cardinality(self) -> int:
        return self.subspace.cardinality

    @cached_property
    def dual_points(self) -> tuple[tuple[int, ...], ...] | None:
        if self.dual.cardinality > self.cap:
            return None
        return tuple(sorted(
            _unpack(p, self.n, self.s) for p in self.dual.enumerate_packed(self.cap)
        ))

    @cached_property
    def dual_signs(self) -> tuple[int, ...] | None:
        pts = self.dual_points
        return None if pts is None else tuple(self.shift_sign(L) for L in pts)

    def with_dual_points(self, dual_points) -> "DiscrepancyContext":
        """Test hook: replace the enumerated dual (e.g. to corrupt it)."""
        out = replace(self)
        vars(out)["dual_points"] = tuple(tuple(L) for L in dual_points)
        return out

    def require_dual(self) -> tuple[tuple[int, ...], ...]:
        if self.dual_points is None:
            raise RouteUnavailableError(
                f"dual has 2^{self.dual.dim} elements, above the enumeration cap"
            )
        return self.dual_points

    def groups(self) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
        out: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for L in self.require_dual():
            out.setdefault(rho_vector(L), []).append(L)
        return out

    def shift_sign(self, L: Sequence[int]) -> int:
        """Tensor character of the shift at index vector L."""
        if len(L) != self.n:
            raise ValueError("index vector dimension mismatch")
        if any(l >> self.s for l in L):
            raise ValueError(f"index vector {tuple(L)} out of range for s={self.s}")
        return _character(_rev_words(L, self.s), self.shift.pack())


def _grid_words(Y, s: int, n: int) -> tuple[int, tuple[int, ...]]:
    """Common-resolution integer view of an n-dimensional dyadic point or
    value tuple."""
    if isinstance(Y, DyadicPoint):
        g = max(Y.s, s)
        us = tuple(w << (g - Y.s) for w in Y.words)
    else:
        ys = [Fraction(y) for y in Y]
        g = s
        for y in ys:
            if not 0 <= y <= 1:
                raise ValueError(f"{y} outside [0,1]")
            d = y.denominator
            if d & (d - 1):
                raise ValueError(f"{y} is not dyadic; exact routes need dyadic input")
            g = max(g, d.bit_length() - 1)
        us = tuple(int(y * (1 << g)) for y in ys)
    if len(us) != n:
        raise ValueError("query dimension mismatch")
    return g, us


def discrepancy_exact(points: PointSet, Y) -> Fraction:
    """Point count in the half-open box [0, Y) minus size times volume."""
    ys = tuple(Fraction(y) for y in Y)
    if len(ys) != points.n:
        raise ValueError("query dimension mismatch")
    vol = Fraction(1)
    for y in ys:
        if not 0 <= y <= 1:
            raise ValueError(f"{y} outside [0,1]")
        vol *= y
    count = 0
    for p in points.points:
        if all(c < y for c, y in zip(p, ys)):
            count += 1
    return count - points.size * vol


# The dual route meets the same few coefficients for every dual index.  The
# cache lives here, not in walsh, so the one-off coefficients of the
# calculus checks do not fill it.
_chi_num = lru_cache(maxsize=1 << 20)(walsh._chi_num)


def _box_kernel(ctx: DiscrepancyContext, g: int, us: Sequence[int]) -> tuple[int, int]:
    """Net points in the box [0, us/2^g) and the truncated-kernel sum.

    The kernel term of a point is its cell's overlap with the box, in
    units of 2^-g per coordinate; it is positive exactly when the point
    lies in the box.
    """
    step = 1 << (g - ctx.s)
    count = 0
    kernel = 0
    for words in ctx.point_words:
        prod = 1
        for w, u in zip(words, us):
            nu = u - w * step
            if nu <= 0:
                prod = 0
                break
            prod *= min(nu, step)
        if prod:
            count += 1
            kernel += prod
    return count, kernel


def m_direct(ctx: DiscrepancyContext, Y) -> Fraction:
    """Truncated-kernel route: cell-overlap sum over the shifted points
    minus cardinality times the box volume."""
    g, us = _grid_words(Y, ctx.s, ctx.n)
    _, kernel = _box_kernel(ctx, g, us)
    num = (kernel << (ctx.s * ctx.n)) - ctx.cardinality * math.prod(us)
    return Fraction(num, 1 << (g * ctx.n))


def m_dual_sum(ctx: DiscrepancyContext, Y) -> Fraction:
    """Dual route: cardinality times the character-weighted coefficient sum
    over the nonzero dual indices."""
    g, us = _grid_words(Y, ctx.s, ctx.n)
    total = 0
    dual = ctx.require_dual()
    signs = ctx.dual_signs
    for idx, L in enumerate(dual):
        if not any(L):
            continue
        prod = 1
        for l, u in zip(L, us):
            prod *= _chi_num(l, u, g)
            if prod == 0:
                break
        if prod:
            total += signs[idx] * prod
    return Fraction(ctx.cardinality * total, 1 << (g * ctx.n))


@dataclass(frozen=True)
class GapReport:
    max_gap: Fraction
    bound: int
    argmax: tuple[Fraction, ...]
    points_checked: int

    @property
    def within_bound(self) -> bool:
        return self.max_gap <= self.bound


def approximation_gap(ctx: DiscrepancyContext) -> GapReport:
    """Largest |discrepancy - truncated approximation| over the exhaustive
    dyadic grid two digits finer than the net.

    The certified bound is n * 2^deficiency.
    """
    if ctx.quality is None:
        raise ValueError("gap bound needs a certified deficiency")
    bound = ctx.n * (1 << ctx.quality.deficiency)
    g = ctx.s + 2
    den = 1 << (g * ctx.n)
    worst = Fraction(-1)
    argmax: tuple[Fraction, ...] = ()
    checked = 0
    card = ctx.cardinality
    for Y in iter_grid(ctx.n, g):
        us = Y.words
        count, kernel = _box_kernel(ctx, g, us)
        vol = math.prod(us)
        d_num = count * den - card * vol
        m_num = (kernel << (ctx.s * ctx.n)) - card * vol
        gap = Fraction(abs(d_num - m_num), den)
        checked += 1
        if gap > worst:
            worst = gap
            argmax = tuple(Fraction(u, 1 << g) for u in us)
    return GapReport(worst, bound, argmax, checked)


@dataclass(frozen=True)
class LambdaGroup:
    """Dual indices with a prescribed leading-digit position vector."""

    rho_bar: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    representative: tuple[int, ...] | None
    lambda0: tuple[tuple[int, ...], ...]
    cardinality_bound_ok: bool | None

    @property
    def lambda0_count(self) -> int:
        return len(self.lambda0)


def lambda_group(ctx: DiscrepancyContext, rho_bar: Sequence[int]) -> LambdaGroup:
    """Slice the dual at one leading-digit position vector.

    Members share the exact per-coordinate positions; the companion
    subgroup collects indices strictly below them (coordinates with
    position 0 must vanish there, keeping the subgroup linear).  The
    cardinality bound 2^(|rho_bar| - s + deficiency) is checked whenever
    the group has a nonzero member and the deficiency is certified.
    """
    rho_bar = tuple(rho_bar)
    if len(rho_bar) != ctx.n or any(not 0 <= r <= ctx.s for r in rho_bar):
        raise ValueError(f"position vector {rho_bar} out of range for s={ctx.s}")
    bounds = [1 << (r - 1) if r >= 1 else 1 for r in rho_bar]
    members = []
    lam0 = []
    for L in ctx.require_dual():
        if rho_vector(L) == rho_bar:
            members.append(L)
        if all(l < b for l, b in zip(L, bounds)):
            lam0.append(L)
    bound_ok: bool | None = None
    if ctx.quality is not None and any(any(L) for L in members):
        exponent = sum(rho_bar) - ctx.s + ctx.quality.deficiency
        bound_ok = exponent >= 0 and len(lam0) <= (1 << exponent)
    representative = min(members) if members else None
    return LambdaGroup(rho_bar, tuple(members), representative, tuple(lam0), bound_ok)


def delta_indicator(ctx: DiscrepancyContext, rho_bar: Sequence[int], Y) -> int:
    """Character sum over the strictly-below subgroup at a truncated query.

    The only check made on the sum is that it is two-valued: zero or the
    subgroup size.
    """
    if isinstance(Y, DyadicPoint):
        words = Y.truncate(ctx.s).words
    else:
        words = []
        for v in Y:
            fy = Fraction(v)
            if not 0 <= fy < 1:
                raise ValueError(f"{v} outside [0,1)")
            words.append(digit_word(fy, ctx.s))
    if len(words) != ctx.n:
        raise ValueError("query dimension mismatch")
    lam0 = lambda_group(ctx, rho_bar).lambda0
    y = _pack(words, ctx.s)
    total = sum(_character(_rev_words(L, ctx.s), y) for L in lam0)
    if total not in (0, len(lam0)):
        raise IdentityViolation(
            "character sum is neither zero nor the subgroup size",
            {"rho_bar": tuple(rho_bar), "sum": total, "size": len(lam0)},
        )
    return total
