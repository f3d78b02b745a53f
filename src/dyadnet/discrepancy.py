"""Discrepancy of shifted digital nets, exactly.

The box-counting discrepancy and its truncated-character approximation
are evaluated as whole-grid int64 tables of integer numerators over a
common power-of-two denominator, so the two independent routes (kernel
sum over the net versus character sum over the nonzero dual) can be
compared for exact equality, and the dual can be sliced into the
leading-digit groups that drive the moment bounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .f2core import F2Subspace, _Value, _character, _pack, _rev_words, _unpack
from .nets import DigitShift, _shift_words, certify_deficiency
from . import walsh

__all__ = [
    "DiscrepancyContext",
    "RouteUnavailableError",
    "approximation_gap",
]

# The most dual elements, or grid points of a whole-grid table, that a
# route lists; read when a route is called.
ENUM_CAP = 1 << 24


class RouteUnavailableError(RuntimeError):
    """The dual enumeration or grid table needed by this route exceeds the
    cap, or its entries could leave int64."""


class DiscrepancyContext(_Value):
    """A (possibly shifted) linear distribution: its subspace and the
    shift's digit words (zeros when unshifted).

    Everything else is computed on first access and kept in the instance
    dict, so a route pays only for what it reads.  `packed_net` and
    `packed_dual`, packed words in `F2Subspace.enumerate_packed` order, are
    the one listings of the unshifted net and of its dual, and `dual_set`
    the dual's one hashed copy; reading `packed_dual` (and so `dual_set`
    and `groups`) above `ENUM_CAP` raises `RouteUnavailableError` before
    the dual is computed, and stores nothing.
    """

    _fields = ("subspace", "shift")

    def __init__(self, subspace: F2Subspace, shift: tuple[int, ...]):
        self._assign(subspace, shift)

    @classmethod
    def build(cls, sub: F2Subspace, shift: DigitShift | None = None
              ) -> "DiscrepancyContext":
        """A net enters as `GeneratorSet.subspace`."""
        if not isinstance(sub, F2Subspace):
            raise TypeError(f"need an F2Subspace, not {type(sub).__name__}")
        if sub.n < 1 or sub.s < 1:
            raise ValueError("need n >= 1 and s >= 1")
        return cls(sub, _shift_words(sub, shift))

    @property
    def n(self) -> int:
        return self.subspace.n

    @property
    def s(self) -> int:
        return self.subspace.s

    @property
    def cardinality(self) -> int:
        return self.subspace.cardinality

    @cached_property
    def deficiency(self) -> int | None:
        """The certified deficiency; None when the subspace is not a net
        of 2^s points."""
        return certify_deficiency(self.subspace) if self.subspace.dim == self.s else None

    @cached_property
    def packed_net(self) -> tuple[int, ...]:
        # The cap gates the dual route only; the net itself is the object.
        return tuple(self.subspace.enumerate_packed())

    @cached_property
    def packed_dual(self) -> tuple[int, ...]:
        dim = self.n * self.s - self.subspace.dim
        if 1 << dim > ENUM_CAP:
            raise RouteUnavailableError(
                f"dual has 2^{dim} elements, above the enumeration cap")
        return tuple(self.subspace.dual().enumerate_packed())

    @cached_property
    def dual_set(self) -> frozenset[int]:
        return frozenset(self.packed_dual)

    @cached_property
    def groups(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Packed dual members by leading-digit position vector, each group
        in dual order; raises `RouteUnavailableError` above the cap."""
        mask = (1 << self.s) - 1
        shifts = range(0, self.n * self.s, self.s)
        out: dict[tuple[int, ...], list[int]] = {}
        for p in self.packed_dual:
            rho = tuple([(p >> sh & mask).bit_length() for sh in shifts])
            out.setdefault(rho, []).append(p)
        return {rho: tuple(members) for rho, members in out.items()}


def _grid_size(ctx: DiscrepancyContext, g: int) -> int:
    """2^(ng), the points of the resolution-g grid (g >= s); raises before
    any table is built or the dual listed when that is above `ENUM_CAP`, or
    when its square could leave int64.  Every entry and intermediate of
    every table is at most (dual indices per entry) * N * 2^(ng), and the
    first two factors multiply to at most 2^(ns) <= 2^(ng)."""
    size = 1 << (ctx.n * g)
    if size > ENUM_CAP:
        raise RouteUnavailableError(
            f"grid has 2^{ctx.n * g} points, above the enumeration cap")
    if size * size >= 1 << 63:
        raise RouteUnavailableError(
            f"grid has 2^{ctx.n * g} points, and its tables could leave int64")
    return size


def _box_table(ctx: DiscrepancyContext, g: int, kernel: bool) -> np.ndarray:
    """Net points in the box [0, u/2^g), or with `kernel` the truncated-kernel
    sum, at every u of the resolution-g grid (g >= s), flat in packed order.

    The kernel term of a point is its cell's overlap with the box, in
    units of 2^-g per coordinate, so the kernel sums the point indicator
    with each cell repeated 2^(g-s) times per axis, and the count places
    each cell at its corner x * 2^(g-s); at g = s they are equal.  Entry u
    is an exclusive prefix sum: it sums the cells v < u componentwise.
    """
    n, s = ctx.n, ctx.s
    step = 1 << (g - s)
    words = np.array(ctx.packed_net, dtype=np.int64) ^ _pack(ctx.shift, s)
    points = np.bincount(words, minlength=1 << (n * s)).reshape((1 << s,) * n)
    cells = np.zeros((1 << g,) * n, dtype=np.int64)
    if kernel:
        cells.reshape((1 << s, step) * n)[...] = points.reshape((1 << s, 1) * n)
    else:
        cells[(slice(None, None, step),) * n] = points
    table = np.zeros_like(cells)
    table[(slice(1, None),) * n] = cells[(slice(None, -1),) * n]
    for axis in range(n):
        np.cumsum(table, axis=axis, out=table)
    return table.reshape(-1)


def _dual_table(ctx: DiscrepancyContext) -> np.ndarray:
    """N^-1 * 2^(ns) times the dual route at every point of the net's grid,
    flat in packed order: one mode product per axis of the signed
    indicator of the nonzero dual indices (repeats add up) with the rows of
    the matrix `walsh._chi_num(l, u, s)` that some index holds.  The sign
    of an index is the shift's character there, with the shift reversed."""
    n, s = ctx.n, ctx.s
    dual = ctx.packed_dual
    rev_shift = _rev_words(ctx.shift, s)
    indicator = np.zeros(1 << (n * s), dtype=np.int64)
    np.add.at(indicator, np.array(dual, dtype=np.int64),
              [_character(rev_shift, p) for p in dual])
    indicator[0] = 0
    rows = sorted({l for p in dual for l in _unpack(p, n, s)})
    chi = np.array([[walsh._chi_num(l, u, s) for u in range(1 << s)] for l in rows],
                   dtype=np.int64)
    table = indicator.reshape((1 << s,) * n)
    for axis in range(n):
        table = np.tensordot(table.take(rows, axis), chi, axes=(axis, 0))
        table = np.moveaxis(table, -1, axis)
    return table.reshape(-1)


class GapReport(NamedTuple):
    max_gap: Fraction
    bound: int
    argmax: tuple[Fraction, ...]
    points_checked: int

    @property
    def within_bound(self) -> bool:
        return self.max_gap <= self.bound


def approximation_gap(ctx: DiscrepancyContext) -> GapReport:
    """Largest |discrepancy - truncated approximation| over the exhaustive
    dyadic grid two digits finer than the net; the first maximum in packed
    order is the argmax.

    The certified bound is n * 2^deficiency.
    """
    if ctx.deficiency is None:
        raise ValueError("gap bound needs a certified deficiency")
    bound = ctx.n * (1 << ctx.deficiency)
    n, g = ctx.n, ctx.s + 2
    size = _grid_size(ctx, g)
    # Both routes subtract N * volume, so the gap is count - kernel alone.
    gap = _box_table(ctx, g, kernel=False)
    gap <<= n * g
    kernel = _box_table(ctx, g, kernel=True)
    kernel <<= n * ctx.s
    gap -= kernel
    np.abs(gap, out=gap)
    v = int(np.argmax(gap))
    argmax = tuple(Fraction(u, 1 << g) for u in _unpack(v, n, g))
    return GapReport(Fraction(int(gap[v]), 1 << (n * g)), bound, argmax, size)
