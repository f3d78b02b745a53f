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
    _rev_words,
    _unpack,
)
from .nets import DigitShift, GeneratorSet, NetQuality, as_subspace, certify_deficiency
from . import walsh
from .walsh import rho_vector

__all__ = [
    "DiscrepancyContext",
    "LambdaGroup",
    "RouteUnavailableError",
    "approximation_gap",
    "lambda_group",
    "m_direct",
    "m_dual_sum",
]


class RouteUnavailableError(RuntimeError):
    """The dual enumeration needed by this route exceeds the cap."""


@dataclass(frozen=True)
class DiscrepancyContext:
    """A (possibly shifted) linear distribution, its net words, and its
    dual enumerated on first use.

    `dual_points` lists the dual as integer index vectors (grid words), or
    is None above `cap`, `dual_signs` the matching characters evaluated
    at the shift, and `groups` buckets the dual by per-coordinate
    leading-digit positions; all three are computed on first access and
    stored in the instance dict, so routes that stay on the net side never
    pay for the dual.
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
        """Test hook: replace the enumerated dual (e.g. to corrupt it).  The
        copy recomputes `dual_signs` and `groups` from the replacement."""
        out = replace(self)
        vars(out)["dual_points"] = tuple(tuple(L) for L in dual_points)
        return out

    def require_dual(self) -> tuple[tuple[int, ...], ...]:
        if self.dual_points is None:
            raise RouteUnavailableError(
                f"dual has 2^{self.dual.dim} elements, above the enumeration cap"
            )
        return self.dual_points

    @cached_property
    def groups(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Dual members by leading-digit position vector, each group in
        dual order; raises `RouteUnavailableError` above the cap."""
        out: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for L in self.require_dual():
            out.setdefault(rho_vector(L), []).append(L)
        return {rho: tuple(members) for rho, members in out.items()}

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


# The dual route meets the same few coefficients for every dual index, so
# its evaluations of `walsh._chi_num` go through one shared cache.
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
    for v in range(1 << (g * ctx.n)):  # packed order, coordinate 0 fastest
        us = _unpack(v, ctx.n, g)
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
    groups = ctx.groups
    members = groups.get(rho_bar, ())
    below = [max(r - 1, 0) for r in rho_bar]
    lam0 = sorted(L for rho, group in groups.items()
                  if all(a <= b for a, b in zip(rho, below)) for L in group)
    bound_ok: bool | None = None
    if ctx.quality is not None and any(any(L) for L in members):
        exponent = sum(rho_bar) - ctx.s + ctx.quality.deficiency
        bound_ok = exponent >= 0 and len(lam0) <= (1 << exponent)
    representative = min(members) if members else None
    return LambdaGroup(rho_bar, members, representative, tuple(lam0), bound_ok)

