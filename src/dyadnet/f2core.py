"""Exact GF(2) arithmetic on the dyadic cube.

Coordinates are s-digit binary fractions stored as integer digit words,
points are tuples of coordinates, and point sets with linear structure
are subspaces under digitwise XOR.  The module provides the bit-reversed
bilinear pairing, annihilators (dual subspaces), enumeration, and the
Rosenbloom-Tsfasman weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

DEFAULT_ENUM_CAP = 1 << 24


class DimensionMismatchError(ValueError):
    """Operands live on different grids (n or s differ)."""


class EnumerationCapError(RuntimeError):
    """Requested enumeration exceeds the configured element cap."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"enumeration needs {required} elements but the cap is {cap}; "
            f"pass cap>={required} to override"
        )
        self.required = required
        self.cap = cap


class UndefinedWeightError(ValueError):
    """Minimum weight of the zero subspace is undefined."""


def bit_reverse(word: int, width: int) -> int:
    """Reverse the low `width` bits of `word`."""
    out = 0
    for _ in range(width):
        out = (out << 1) | (word & 1)
        word >>= 1
    return out


def parity(word: int) -> int:
    return word.bit_count() & 1


@dataclass(frozen=True)
class DyadicCoord:
    """One coordinate of the grid Q(2^s): the fraction word/2^s.

    `word` holds the binary digits most-significant-first, so digit i
    (i = 1 is the leading digit) sits at bit position s - i.  Reversed
    (least-significant-first) digit access goes through :meth:`xi`.
    """

    word: int
    s: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("resolution must be >= 1")
        if not 0 <= self.word < (1 << self.s):
            raise ValueError(f"digit word {self.word} out of range for s={self.s}")

    @classmethod
    def from_value(cls, x, s: int) -> "DyadicCoord":
        fx = Fraction(x)
        scaled = fx * (1 << s)
        if scaled.denominator != 1:
            raise ValueError(f"{x} is not an s={s} dyadic rational")
        return cls(int(scaled), s)

    @property
    def value(self) -> Fraction:
        return Fraction(self.word, 1 << self.s)

    def eta(self, i: int) -> int:
        """Digit i of the binary expansion, leading digit first."""
        if i < 1:
            raise ValueError("digit index must be >= 1")
        if i > self.s:
            return 0
        return (self.word >> (self.s - i)) & 1

    def xi(self, i: int) -> int:
        """Digit i counted from the least significant end: xi(i) = eta(s-i+1)."""
        if not 1 <= i <= self.s:
            raise ValueError("digit index out of range")
        return (self.word >> (i - 1)) & 1

    def __xor__(self, other: "DyadicCoord") -> "DyadicCoord":
        if self.s != other.s:
            raise DimensionMismatchError(f"resolutions differ: {self.s} != {other.s}")
        return DyadicCoord(self.word ^ other.word, self.s)


@dataclass(frozen=True)
class DyadicPoint:
    """A point of Q^n(2^s): per-coordinate digit words at one resolution."""

    words: tuple[int, ...]
    s: int

    def __post_init__(self):
        if len(self.words) < 1:
            raise ValueError("dimension must be >= 1")
        if self.s < 1:
            raise ValueError("resolution must be >= 1")
        top = 1 << self.s
        for w in self.words:
            if not 0 <= w < top:
                raise ValueError(f"digit word {w} out of range for s={self.s}")

    @classmethod
    def zero(cls, n: int, s: int) -> "DyadicPoint":
        return cls((0,) * n, s)

    @classmethod
    def from_values(cls, values: Sequence, s: int) -> "DyadicPoint":
        return cls(tuple(DyadicCoord.from_value(v, s).word for v in values), s)

    @classmethod
    def from_packed(cls, packed: int, n: int, s: int) -> "DyadicPoint":
        mask = (1 << s) - 1
        return cls(tuple((packed >> (j * s)) & mask for j in range(n)), s)

    @property
    def n(self) -> int:
        return len(self.words)

    def coord(self, j: int) -> DyadicCoord:
        return DyadicCoord(self.words[j], self.s)

    def values(self) -> tuple[Fraction, ...]:
        den = 1 << self.s
        return tuple(Fraction(w, den) for w in self.words)

    def pack(self) -> int:
        out = 0
        for j, w in enumerate(self.words):
            out |= w << (j * self.s)
        return out

    def lift(self, g: int) -> "DyadicPoint":
        """Re-express at finer resolution g >= s (same real values)."""
        if g < self.s:
            raise ValueError("lift target must be at least the current resolution")
        shift = g - self.s
        return DyadicPoint(tuple(w << shift for w in self.words), g)

    def truncate(self, g: int) -> "DyadicPoint":
        """Keep only the leading g digits of each coordinate."""
        if g > self.s:
            return self.lift(g)
        shift = self.s - g
        return DyadicPoint(tuple(w >> shift for w in self.words), g)

    def __xor__(self, other: "DyadicPoint") -> "DyadicPoint":
        if self.s != other.s or self.n != other.n:
            raise DimensionMismatchError(
                f"grids differ: (n={self.n}, s={self.s}) vs (n={other.n}, s={other.s})"
            )
        return DyadicPoint(tuple(a ^ b for a, b in zip(self.words, other.words)), self.s)


def oplus(a, b):
    """Digitwise XOR addition on Q(2^s) or Q^n(2^s)."""
    return a ^ b


def _rev_packed(packed: int, n: int, s: int) -> int:
    """Bit-reverse each coordinate word of a packed point: the pairing of
    packed points a and b is parity(_rev_packed(a, n, s) & b)."""
    mask = (1 << s) - 1
    out = 0
    for j in range(n):
        out |= bit_reverse((packed >> (j * s)) & mask, s) << (j * s)
    return out


def _rev_words(words: Sequence[int], s: int) -> int:
    """`_rev_packed` of the point with these coordinate words."""
    return _rev_packed(DyadicPoint(tuple(words), s).pack(), len(words), s)


def _character(rev_a: int, b: int) -> int:
    """The tensor Walsh character (-1)^pairing(a, b) of packed points, in
    {+1, -1}, with a given through `_rev_packed`.

    This is the one evaluation of the character.  The pairing is
    symmetric, so either side may carry the reversal; callers that pair
    one point against many reverse it once.
    """
    return -1 if parity(rev_a & b) else 1


def _character_sum(words: Iterable[int], other: int) -> int:
    """Sum of `_character(a, other)` over the words a."""
    return sum(_character(a, other) for a in words)


def pairing(x, y) -> int:
    """Bit-reversed bilinear form on the grid, with values in GF(2).

    On coordinates it is sum_i xi_i(x) * xi_{s-i+1}(y); on points it adds
    the coordinate pairings mod 2.
    """
    if isinstance(x, DyadicCoord) and isinstance(y, DyadicCoord):
        if x.s != y.s:
            raise DimensionMismatchError(f"resolutions differ: {x.s} != {y.s}")
        return parity(bit_reverse(x.word, x.s) & y.word)
    if isinstance(x, DyadicPoint) and isinstance(y, DyadicPoint):
        if x.s != y.s or x.n != y.n:
            raise DimensionMismatchError(
                f"grids differ: (n={x.n}, s={x.s}) vs (n={y.n}, s={y.s})"
            )
        return parity(_rev_packed(x.pack(), x.n, x.s) & y.pack())
    raise TypeError("pairing expects two DyadicCoord or two DyadicPoint values")


def rt_weight(x) -> int:
    """Rosenbloom-Tsfasman weight: index of the last nonzero reversed digit,
    summed over coordinates for points.  rt_weight(0) == 0."""
    if isinstance(x, DyadicCoord):
        return x.word.bit_length()
    if isinstance(x, DyadicPoint):
        return sum(w.bit_length() for w in x.words)
    raise TypeError("rt_weight expects a DyadicCoord or DyadicPoint")


def _packed_weight(packed: int, n: int, s: int) -> int:
    mask = (1 << s) - 1
    return sum(((packed >> (j * s)) & mask).bit_length() for j in range(n))


def _reduce(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon basis over GF(2), pivots on leading bits,
    returned in decreasing pivot order.  Canonical per subspace."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            if h in pivots:
                v ^= pivots[h]
            else:
                pivots[h] = v
                break
    for h in sorted(pivots):
        for g in list(pivots):
            if g != h and (pivots[g] >> h) & 1:
                pivots[g] ^= pivots[h]
    return tuple(pivots[h] for h in sorted(pivots, reverse=True))


def _nullspace(rows: Iterable[int], width: int) -> list[int]:
    """Basis of {v : parity(row & v) == 0 for all rows} over GF(2)."""
    reduced = _reduce(rows)
    pivot_of = {r.bit_length() - 1: r for r in reduced}
    basis = []
    for f in range(width):
        if f in pivot_of:
            continue
        v = 1 << f
        for p, row in pivot_of.items():
            if (row >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


@dataclass(frozen=True)
class F2Subspace:
    """Linear point distribution: a subspace of Q^n(2^s) under XOR.

    The stored basis is in reduced row echelon form on packed words, so
    two subspaces are equal exactly when their basis tuples are equal.
    """

    n: int
    s: int
    basis: tuple[int, ...]

    @classmethod
    def from_points(cls, points: Iterable[DyadicPoint], n: int | None = None,
                    s: int | None = None) -> "F2Subspace":
        pts = list(points)
        if not pts and (n is None or s is None):
            raise ValueError("empty generating set needs explicit n and s")
        if pts:
            n = pts[0].n if n is None else n
            s = pts[0].s if s is None else s
            for p in pts:
                if p.n != n or p.s != s:
                    raise DimensionMismatchError("generating points on mixed grids")
        return cls(n, s, _reduce(p.pack() for p in pts))

    @classmethod
    def from_packed(cls, n: int, s: int, vectors: Iterable[int]) -> "F2Subspace":
        return cls(n, s, _reduce(vectors))

    @classmethod
    def zero(cls, n: int, s: int) -> "F2Subspace":
        return cls(n, s, ())

    @classmethod
    def full(cls, n: int, s: int) -> "F2Subspace":
        return cls(n, s, _reduce(1 << i for i in range(n * s)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return self.n * self.s

    @property
    def cardinality(self) -> int:
        return 1 << self.dim

    def contains(self, point) -> bool:
        v = point.pack() if isinstance(point, DyadicPoint) else int(point)
        for b in self.basis:
            if v.bit_length() == b.bit_length():
                v ^= b
        return v == 0

    def enumerate_packed(self, cap: int = DEFAULT_ENUM_CAP) -> Iterator[int]:
        """Yield every packed element exactly once (Gray-code order)."""
        if self.cardinality > cap:
            raise EnumerationCapError(self.cardinality, cap)
        cur = 0
        yield cur
        for i in range(1, self.cardinality):
            cur ^= self.basis[(i & -i).bit_length() - 1]
            yield cur

    def enumerate_points(self, cap: int = DEFAULT_ENUM_CAP) -> Iterator[DyadicPoint]:
        for packed in self.enumerate_packed(cap):
            yield DyadicPoint.from_packed(packed, self.n, self.s)

    def dual(self) -> "F2Subspace":
        """Annihilator under `pairing`; dim(dual) == n*s - dim."""
        rows = [_rev_packed(b, self.n, self.s) for b in self.basis]
        return F2Subspace(self.n, self.s, _reduce(_nullspace(rows, self.ambient_dim)))

    def min_weight(self, cap: int = DEFAULT_ENUM_CAP) -> int:
        """Minimum RT weight over nonzero elements, by exhaustive enumeration."""
        if self.dim == 0:
            raise UndefinedWeightError("zero subspace has no nonzero element")
        return min(
            _packed_weight(v, self.n, self.s)
            for v in self.enumerate_packed(cap)
            if v
        )


def iter_grid(n: int, s: int) -> Iterator[DyadicPoint]:
    """All points of Q^n(2^s) in counter order, coordinate 0 fastest:
    the v-th point is DyadicPoint.from_packed(v, n, s)."""
    for words in product(range(1 << s), repeat=n):
        yield DyadicPoint(words[::-1], s)
