"""Exact GF(2) arithmetic on the dyadic cube.

Points of Q^n(2^s), s >= 1, are tuples of n integer digit words, one
s-digit binary fraction per coordinate; a coordinate is a one-dimensional
point.  Point sets with linear structure are subspaces under digitwise
XOR.  The module provides the bit-reversed bilinear pairing, annihilators
(dual subspaces), enumeration, and the Rosenbloom-Tsfasman weight.
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
        words = []
        for v in values:
            scaled = Fraction(v) * (1 << s)
            if scaled.denominator != 1:
                raise ValueError(f"{v} is not an s={s} dyadic rational")
            words.append(int(scaled))
        return cls(tuple(words), s)

    @classmethod
    def from_packed(cls, packed: int, n: int, s: int) -> "DyadicPoint":
        return cls(_unpack(packed, n, s), s)

    @property
    def n(self) -> int:
        return len(self.words)

    def values(self) -> tuple[Fraction, ...]:
        den = 1 << self.s
        return tuple(Fraction(w, den) for w in self.words)

    def pack(self) -> int:
        return _pack(self.words, self.s)

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


def _unpack(packed: int, n: int, s: int) -> tuple[int, ...]:
    """Coordinate words of a packed point, coordinate 0 in the low bits."""
    mask = (1 << s) - 1
    return tuple((packed >> (j * s)) & mask for j in range(n))


def _pack(words: Sequence[int], s: int) -> int:
    """The packed point with these coordinate words; inverse of `_unpack`."""
    out = 0
    for j, w in enumerate(words):
        out |= w << (j * s)
    return out


def _rev_packed(packed: int, n: int, s: int) -> int:
    """Bit-reverse each coordinate word of a packed point: the pairing of
    packed points a and b is parity(_rev_packed(a, n, s) & b)."""
    return _rev_words(_unpack(packed, n, s), s)


def _rev_words(words: Sequence[int], s: int) -> int:
    """`_rev_packed` of the point with these coordinate words."""
    out = 0
    for j, w in enumerate(words):
        out |= bit_reverse(w, s) << (j * s)
    return out


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

    On one coordinate it is sum_i xi_i(x) * xi_{s-i+1}(y), with xi_i the
    i-th digit from the least significant end; on points it adds the
    coordinate pairings mod 2.
    """
    if not (isinstance(x, DyadicPoint) and isinstance(y, DyadicPoint)):
        raise TypeError("pairing expects two DyadicPoint values")
    if x.s != y.s or x.n != y.n:
        raise DimensionMismatchError(
            f"grids differ: (n={x.n}, s={x.s}) vs (n={y.n}, s={y.s})"
        )
    return parity(_rev_packed(x.pack(), x.n, x.s) & y.pack())


def rt_weight(x) -> int:
    """Rosenbloom-Tsfasman weight: index of the last nonzero reversed digit,
    summed over coordinates.  rt_weight(0) == 0."""
    if not isinstance(x, DyadicPoint):
        raise TypeError("rt_weight expects a DyadicPoint")
    return sum(w.bit_length() for w in x.words)


def _packed_weight(packed: int, n: int, s: int) -> int:
    return sum(w.bit_length() for w in _unpack(packed, n, s))


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
        """Minimum RT weight over nonzero elements, by exhaustive enumeration.

        No production route calls it: `nets.certify_deficiency` decides the
        weight by rank conditions, and this is that certificate's test
        oracle.  It stays a method because `perfbench/tracing.py` wraps it
        by name.
        """
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
