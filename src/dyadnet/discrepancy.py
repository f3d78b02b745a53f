"""Discrepancy of shifted digital nets, exactly.

A context holds a shifted net's subspace and shift and lists, on first
use, the net, its dual and the dual's leading-digit groups that drive
the moment bounds.  Whole-grid tables are flat lists of Python ints in
packed order, integer numerators over a common power-of-two
denominator: the shifted net's point counts, and every box sum one
prefix sum (`_box_table`) of cell weights.  The gap between the
discrepancy and its truncated-character approximation is read off the
net's own grid, and each table refuses by its own size (`_within_cap`).
The approximation's dual route, a character sum over the nonzero dual,
lives beside the check that compares it with the kernel sum, in
`verify`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import add, mul, sub
from typing import NamedTuple

from .f2core import F2Subspace, _Value, _index, _unpack
from .nets import DigitShift, _shift_words, certify_deficiency

__all__ = [
    "DiscrepancyContext",
    "RouteUnavailableError",
    "approximation_gap",
]

# The most dual elements, or entries of a whole-grid table, that a
# route lists; read when a route is called.
ENUM_CAP = 1 << 24


class RouteUnavailableError(RuntimeError):
    """The dual enumeration or grid table needed by this route exceeds the
    cap."""


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


def _within_cap(side: int, n: int) -> int:
    """side^n, the entries of the grid table a check is about to build;
    raises, before the table is built or the dual listed, when that is
    above `ENUM_CAP`.  The tables hold Python ints, which cannot overflow."""
    size = side ** n
    if size > ENUM_CAP:
        raise RouteUnavailableError(f"grid has {side}^{n} points, above the enumeration cap")
    return size


def _point_counts(ctx: DiscrepancyContext, side: int) -> list[int]:
    """The shifted net's points per cell, flat in packed order on the grid
    of this side, at least 2^s; the cells at 2^s and past it stay empty."""
    n, s = ctx.n, ctx.s
    shift = _index(ctx.shift, 1 << s)
    counts = [0] * side ** n
    for p in ctx.packed_net:
        counts[_index(_unpack(p ^ shift, n, s), side)] += 1
    return counts


def _box_table(cells: list[int], sides: tuple[int, ...]) -> list[int]:
    """The exclusive prefix sum of a grid of integer cell weights, flat in
    packed order (coordinate 0 fastest) with these side lengths: entry u,
    the box [0, u), sums the cells v < u componentwise.  It is linear, so
    a difference of box sums is the box table of signed cells.

    One axis at a time: laying out the entries whose fastest coordinate is
    0, then those where it is 1, and so on, makes the fastest axis the
    slowest, whose slices then take a running sum; after the last axis the
    order is back."""
    table = cells
    for side in sides:
        table = list(chain.from_iterable(table[k::side] for k in range(side)))
        step = len(table) // side
        slices = (table[k:k + step] for k in range(0, len(table) - step, step))
        running = accumulate(slices, lambda a, b: list(map(add, a, b)), initial=[0] * step)
        table = list(chain.from_iterable(running))
    return table


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
    order is the argmax, and the certified bound is n * 2^deficiency.

    At the fine point u, u_j = 4 c_j + r_j with 0 <= r_j < 4, both parts
    sum over the shifted net points x in the box [0, u/2^g): a point with
    x_j = c_j lies in it only when r_j > 0.  In units of 4^-n the count
    weighs each 4^n and the approximation, the point's cell overlap,
    the product of 4 (x_j < c_j) or r_j (x_j = c_j) over the axes.  So the
    gap is not negative, and within the cell c it peaks at r_j = 1 on
    every axis, where, expanding the product of 3 [x_j < c_j] + 1 over the
    points x <= c, it is
    G1(c) = 4^n B(c + 1) - sum over T of 3^(n - |T|) B(c + 1_T),
    B the box table of the point counts on the (2^s + 1)^n grid.  The
    peak's first point in the cell keeps r_j = 1 only where some point
    x <= c has x_j = c_j, that is where B(c + 1) > B(c + 1 - e_j), and
    drops it to 0 elsewhere; the argmax is the first of these over the
    cells that reach the maximum.  It refuses by the size of B, and
    `points_checked` counts the 2^(ng) fine points it covers."""
    if ctx.deficiency is None:
        raise ValueError("gap bound needs a certified deficiency")
    bound = ctx.n * (1 << ctx.deficiency)
    n, s, g = ctx.n, ctx.s, ctx.s + 2
    side = (1 << s) + 1
    _within_cap(side, n)
    box = _box_table(_point_counts(ctx, side), (side,) * n)
    strides = [side ** j for j in range(n)]
    # One axis at a time, 3 B(a) + B(a + e_j); each pass drops the tail
    # that the next would read past, all of it outside [0, 2^s)^n.
    weighted = box
    for t in strides:
        weighted = list(map(add, map(mul, repeat(3), weighted), weighted[t:]))
    corner = sum(strides)
    peaks = list(map(sub, map(mul, repeat(4 ** n), box[corner:]), weighted))
    # Where each row of the cells [0, 2^s)^n starts; gathered, a cell's
    # position is its packed word.
    starts = [0]
    for t in strides[1:]:
        starts = [c * t + k for c in range(1 << s) for k in starts]
    cells = list(chain.from_iterable(peaks[k:k + (1 << s)] for k in starts))
    top = max(cells)
    # A fine point's packed order compares u_(n-1) = 4 c_(n-1) + r_(n-1)
    # first, and r < 4: only the cells that reach the maximum in the first
    # such cell's slab of c_(n-1) can hold the first fine maximum.
    first = cells.index(top)
    slab = 1 << (s * (n - 1))
    last = first - first % slab + slab

    def first_peak(c: int) -> int:
        words = _unpack(c, n, s)
        a = _index([w + 1 for w in words], side)
        return _index([4 * w + (box[a] > box[a - t]) for w, t in zip(words, strides)], 1 << g)

    fine = min(first_peak(c) for c in range(first, last) if cells[c] == top)
    argmax = tuple(Fraction(u, 1 << g) for u in _unpack(fine, n, g))
    return GapReport(Fraction(top, 4 ** n), bound, argmax, 1 << (n * g))
