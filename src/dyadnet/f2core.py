"""Exact GF(2) arithmetic on the dyadic cube.

Points of Q^n(2^s), s >= 1, are plain tuples of n integer digit words:
word w of coordinate j stands for the s-digit binary fraction w / 2^s,
and a coordinate is a one-dimensional point.  There is no point class;
`_index(words, 1 << s)` joins the words into one integer, coordinate 0
in the low bits, and `_unpack` splits it again.  `_index` is the one
packed-order position of digit words at any side: a net's points, their
shift and the leading-digit masks at side 2^s, and the cells of every
whole-grid table.  Point sets with linear structure are subspaces under
digitwise XOR.  The module provides the tensor Walsh character of the
bit-reversed bilinear pairing, ranks, annihilators (dual subspaces),
enumeration, and the Rosenbloom-Tsfasman weight, all in integer words,
with no rational arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class _Value:
    """Base of the immutable value types.  A subclass names its fields
    once, in `_fields`, and its `__init__` sets them with `_assign`;
    instances compare, hash and print by those fields, in that order, and
    refuse attribute assignment and deletion.  A `cached_property` of a
    subclass still caches in the instance dict.  Every checked value type
    of the package (`F2Subspace`, `GeneratorSet`, `DigitShift`, `PointSet`,
    `DiscrepancyContext`) is such a plain class, and the result records are
    `NamedTuple`s, so no module imports `dataclasses` (which imports
    `inspect`, the largest import a `certify` or `gen` process would
    otherwise make)."""

    _fields: tuple[str, ...] = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


def _unpack(packed: int, n: int, s: int) -> tuple[int, ...]:
    """Coordinate words of a packed point, coordinate 0 in the low bits."""
    mask = (1 << s) - 1
    return tuple((packed >> (j * s)) & mask for j in range(n))


def _index(words: Sequence[int], side: int) -> int:
    """The position, flat in packed order (coordinate 0 fastest), of the
    grid point with these coordinates on a grid of this side; at side 2^s,
    the packed point with these words, the inverse of `_unpack`."""
    out = 0
    for w in reversed(words):
        out = out * side + w
    return out


def _rev_packed(packed: int, n: int, s: int) -> int:
    """Bit-reverse each coordinate word of a packed point.

    The bit-reversed bilinear pairing <a, b> of packed points, with values
    in GF(2), is parity(_rev_packed(a, n, s) & b): on one coordinate it is
    sum_i xi_i(a) * xi_{s-i+1}(b), with xi_i the i-th digit from the least
    significant end, and on points it adds the coordinate pairings mod 2.
    """
    return _index([bit_reverse(w, s) for w in _unpack(packed, n, s)], 1 << s)


def _character(rev_a: int, b: int) -> int:
    """The tensor Walsh character (-1)^<a, b> of packed points, in
    {+1, -1}, with a given through `_rev_packed`.

    This is the one evaluation of the character.  The pairing is
    symmetric, so either side may carry the reversal; callers that pair
    one point against many reverse it once.
    """
    return -1 if parity(rev_a & b) else 1


def _packed_weight(packed: int, n: int, s: int) -> int:
    """Rosenbloom-Tsfasman weight of a packed point: per coordinate, the
    index of the last nonzero reversed digit (the word's bit length),
    summed over coordinates; 0 at the origin."""
    return sum(w.bit_length() for w in _unpack(packed, n, s))


def _pivots(vectors: Iterable[int]) -> dict[int, int]:
    """Forward elimination over GF(2): an echelon basis of the span, keyed
    by each element's leading bit."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                break
            v ^= p
    return pivots


def _rank(words: Iterable[int]) -> int:
    """Rank over GF(2), `len(_reduce(words))` without the back-substitution."""
    return len(_pivots(words))


def _reduce(vectors: Iterable[int]) -> tuple[int, ...]:
    """Reduced row echelon basis over GF(2), pivots on leading bits,
    returned in decreasing pivot order.  Canonical per subspace."""
    pivots = _pivots(vectors)
    for h in sorted(pivots):
        for g in list(pivots):
            if g != h and (pivots[g] >> h) & 1:
                pivots[g] ^= pivots[h]
    return tuple(pivots[h] for h in sorted(pivots, reverse=True))


def _span(words: Sequence[int]) -> Iterator[int]:
    """The 2^len(words) XOR combinations of the words in Gray-code order:
    element i is the XOR of words[k] over the set bits k of i's Gray code,
    with repeats when the words are dependent."""
    cur = 0
    yield cur
    for i in range(1, 1 << len(words)):
        cur ^= words[(i & -i).bit_length() - 1]
        yield cur


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


class F2Subspace(_Value):
    """Linear point distribution: a subspace of Q^n(2^s) under XOR.

    The stored basis is in reduced row echelon form on packed words, so
    two subspaces are equal exactly when their basis tuples are equal.
    """

    _fields = ("n", "s", "basis")

    def __init__(self, n: int, s: int, basis: tuple[int, ...]):
        self._assign(n, s, basis)

    @classmethod
    def from_packed(cls, n: int, s: int, vectors: Iterable[int]) -> "F2Subspace":
        return cls(n, s, _reduce(vectors))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return self.n * self.s

    @property
    def cardinality(self) -> int:
        return 1 << self.dim

    def enumerate_packed(self) -> Iterator[int]:
        """Every packed element exactly once, `_span` of the basis.

        There is no size limit here: the caller decides what it can list,
        and `discrepancy.DiscrepancyContext` bounds the dual route.
        """
        return _span(self.basis)

    def dual(self) -> "F2Subspace":
        """Annihilator under the bit-reversed pairing (see `_rev_packed`);
        dim(dual) == n*s - dim."""
        rows = [_rev_packed(b, self.n, self.s) for b in self.basis]
        return F2Subspace(self.n, self.s, _reduce(_nullspace(rows, self.ambient_dim)))

    def min_weight(self) -> int:
        """Minimum RT weight over nonzero elements, by exhaustive enumeration
        of all 2^dim elements, with no size limit.

        No production route calls it: on a net's dual it is
        s + 1 - `nets.certify_deficiency`, which decides the weight by rank
        conditions, and this is that certificate's test oracle.  It stays a
        method because `perfbench/tracing.py` wraps it by name.
        """
        if self.dim == 0:
            raise UndefinedWeightError("zero subspace has no nonzero element")
        return min(
            _packed_weight(v, self.n, self.s)
            for v in self.enumerate_packed()
            if v
        )

