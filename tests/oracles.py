"""Independent evaluations kept only as test oracles.

Each function here is a second route to a quantity that the library
evaluates one way in production; tests compare the two.

- `DyadicPoint` bundles a point's digit words with their resolution and
  converts to and from `Fraction` coordinates, and `digit_word` reads the
  leading binary digits of a `Fraction`; the library keeps points as
  plain word tuples and converts neither way.
- `walsh_1d` reads the digits of x selected by the index, and `walsh_nd`,
  the product of one-dimensional characters, is the oracle of the packed
  tensor character `f2core._character`.
- `_chi_num(l, u, g)` is the interval coefficient, the integral of w_l
  over [0, u/2^g), as an integer numerator over 2^g by its sawtooth
  closed form; `fine_coefficient(l, y)` is the same integral as a
  `Fraction`.  `check_fine_closed_form` compares it with cell-sum
  quadrature of `walsh_1d` and `check_fine_square_norm` with the exact
  squared norm 4^-rho / 3 (acceptance 03 and 04).  The library never
  evaluates one coefficient: its dual table sums whole grids of them as
  running sums of Walsh syntheses (`walsh.synthesis`).
- `omega`, the sawtooth factor, gives the closed form
  `2^(-rho-1) w_tau(y) omega_rho(y)` of the interval coefficient, the
  oracle of the integer evaluation `_chi_num`.
- `iter_grid` yields every `DyadicPoint` of the grid in packed order, and
  `truncate` re-expresses a point at another resolution.
- `discrepancy_exact` counts net points in a box one by one.
- `point_words_loop` walks the index words once and XORs each step's
  column image into all n coordinates; it is the oracle of
  `GeneratorSet.point_words`, which walks each coordinate's columns with
  `f2core._span`.  `box_counts_by_keys` keys a point's box by its leading
  digits, w >> (s - d_j), concatenated into one integer; it is the oracle
  of `nets.verify_box_counts`, which masks packed words with the rank
  certificate's `_leading_digits_mask`.
- `certify_by_reduce` is the rank certificate with each rank read as the
  length of a reduced row echelon basis, `len(f2core._reduce(...))`; it
  is the oracle of `nets.certify_deficiency`, which counts the pivots of
  the forward elimination alone (`f2core._rank`).
- `dn_points_sampler` is the discrepancy sampler over a `PointSet` of
  `Fraction`s, which it turns into floats and compares with a block's
  queries in chunks of points; it is the oracle of `norms.dn_sampler`,
  which compares 2^s y with the context's shifted words one net point at
  a time, through the kernel sum it shares with `norms.m_sampler`.
- `dual_words` lists the context's packed dual as sorted word tuples,
  and `with_dual_points` is a copy of a context with its dual replaced
  by word tuples (e.g. corrupted), for the negative controls of the dual
  checks.
- `character_sum` is one character sum at one grid point, and
  `_character_table` the sums at every grid point at once, an in-place
  int64 Walsh-Hadamard butterfly; tests compare the two, and the table
  serves the second Delta oracle, `delta_tables`.
- `lambda_group_walk` lists the strictly-below subgroup of one position
  vector by walking the dual once; production only counts it, by the
  box table (`discrepancy._box_table`) of the group sizes, and the count
  must equal the net's rank identity.
- `delta_indicator` is the character sum over that subgroup at one
  query, the per-query form of the Delta indicator.
- `poisson_loop` and `delta_loop` walk the `2^(ns)` grid point by point
  with `character_sum`, `poisson_loop` over the context's net listing
  `packed_net`; they are the oracles of `verify.check_poisson`, which
  checks that the net is a subgroup whose annihilator is the dual by
  sizes, ranks and characters against its pivots, and of
  `verify.check_delta_identities`, which checks each group's coset and
  subgroup by sets and ranks.
  `delta_tables` is a second Delta oracle: two whole-grid tables per
  group, the subgroup's and the group's XOR-ed with its representative.
- `box_kernel` counts the net points in one box and sums their truncated
  kernel; like `discrepancy._point_counts` it reads the context's one
  net listing, `packed_net`, and XORs in `ctx.shift` itself.  `m_direct`
  is the kernel route to the approximation `M` at one query and
  `m_dual_sum` the dual route, through a cache in front of `_chi_num`;
  it signs each index by its reversal paired with the packed shift, as
  `verify._dual_cells` does.  `route_loop` and
  `gap_loop` walk the grids query by query with them; `route_loop` is
  the grid-point oracle of the box tables of both routes' cells, and
  `gap_loop` the oracle of `discrepancy.approximation_gap`, which reads
  the box table of the point counts on the net's own `(2^s+1)^n` grid.
- `route_cells_loop` walks the cells in packed order, the net's points
  in each less `N·2^−ns` against `N·2^−ns` times the shift's character
  times `walsh_nd` summed over the nonzero dual listing; it is the oracle
  of `verify.check_route_equivalence`, which compares the cells
  `2^(ns)·points − N` with `verify._dual_cells`.
- `dual_table_modes` is the dual table as int64 mode products, one per
  axis, of the signed dual indicator with the matrix of `_chi_num`
  values, each index signed by the reversed shift, the other side of
  the pairing; it is the oracle of the box table of `verify._dual_cells`,
  a Walsh synthesis.  `gap_table` is the gap on the fine grid
  itself: the int64 box table, 4^n times the net's grid, of
  `2^(ng)·points` at each cell's corner less `2^(ns)·points` spread over
  its `4^n` fine cells, and its first maximum in packed order; it is the
  oracle of `approximation_gap` where `gap_loop` would take minutes.

Test helpers with no production caller live here too: `zero_subspace` and
`full_subspace`, the trivial subspaces of Q^n(2^s); `hyperbolic_indices`,
the index vectors of one hyperbolic level; and `describe`, a one-line
summary of an `IdentityResult` for assertion messages.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

import numpy as np

from dyadnet.discrepancy import DiscrepancyContext, GapReport, _within_cap
from dyadnet.f2core import (
    F2Subspace,
    _character,
    _index,
    _rank,
    _reduce,
    _rev_packed,
    _unpack,
    bit_reverse,
    parity,
)
from dyadnet.nets import GeneratorSet, PointSet, _compositions, _leading_digits_mask
from dyadnet.verify import IdentityResult


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

    @property
    def n(self) -> int:
        return len(self.words)

    def values(self) -> tuple[Fraction, ...]:
        den = 1 << self.s
        return tuple(Fraction(w, den) for w in self.words)

    def pack(self) -> int:
        return _index(self.words, 1 << self.s)


def zero_subspace(n: int, s: int) -> F2Subspace:
    return F2Subspace(n, s, ())


def full_subspace(n: int, s: int) -> F2Subspace:
    return F2Subspace.from_packed(n, s, (1 << i for i in range(n * s)))


def hyperbolic_indices(n: int, k: int) -> list[tuple[int, ...]]:
    """All positive integer vectors of length n with entries summing to k."""
    if n < 1 or k < n:
        raise ValueError("need k >= n >= 1 for positive entries")
    return [tuple(d + 1 for d in c) for c in _compositions(k - n, n)]


def describe(result: IdentityResult) -> str:
    status = "pass" if result.passed else "FAIL"
    extra = f" witness={result.witness}" if result.witness else ""
    return f"{result.name}: {status} ({result.checked} cases){extra}"


def digit_word(x: Fraction, k: int) -> int:
    """First k binary digits of x in [0,1), most significant first: floor(x*2^k)."""
    return (x.numerator << k) // x.denominator


def walsh_1d(l: int, x) -> int:
    """Walsh character w_l(x) in {+1,-1}: parity of digits of x selected by l."""
    if l < 0:
        raise ValueError("index must be nonnegative")
    if l == 0:
        return 1
    fx = Fraction(x)
    if not 0 <= fx < 1:
        raise ValueError(f"{x} outside [0,1)")
    k = l.bit_length()
    word = digit_word(fx, k)
    return -1 if parity(bit_reverse(l, k) & word) else 1


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


def _chi_num(l: int, u: int, g: int) -> int:
    """Numerator over 2^g of the integral of w_l on [0, u/2^g), for g at
    least the bit length of l.

    The sawtooth closed form in integers: a triangle of period
    2^(g+1-rho) signed by the character of the truncated index.
    """
    if l == 0:
        return u
    rho = l.bit_length()
    period = 1 << (g + 1 - rho)
    r = u % period
    tri = min(r, period - r)
    if tri == 0:
        return 0
    tau = l ^ (1 << (rho - 1))
    if tau == 0:
        return tri
    k = tau.bit_length()
    return tri * _character(bit_reverse(tau, k), u >> (g - k))


def fine_coefficient(l: int, y) -> Fraction:
    """Exact integral of w_l over [0, y) for dyadic y in [0, 1]."""
    fy = Fraction(y)
    if not 0 <= fy <= 1:
        raise ValueError(f"{y} outside [0,1]")
    if l < 0:
        raise ValueError("index must be nonnegative")
    den = fy.denominator
    if den & (den - 1):
        raise ValueError(f"{y} is not dyadic; exact routes need dyadic input")
    g = max(den.bit_length() - 1, l.bit_length())
    return Fraction(_chi_num(l, digit_word(fy, g), g), 1 << g)


def check_fine_closed_form() -> IdentityResult:
    """Closed-form interval coefficients of the indices l < 64 against
    direct cell-sum quadrature on the grid of spacing 2^-8."""
    den = 1 << 8
    checked = 0
    for l in range(64):
        quad = 0  # numerator over den of the cell sum of w_l on [0, y)
        for t in range(den + 1):
            y = Fraction(t, den)
            got = fine_coefficient(l, y)
            checked += 1
            if got.numerator * den != quad * got.denominator:
                return IdentityResult(
                    "interval-coefficient-closed-form", False, checked,
                    witness={"l": l, "y": str(y), "closed": str(got),
                             "quadrature": str(Fraction(quad, den))},
                )
            if t < den:
                quad += walsh_1d(l, y)
    return IdentityResult("interval-coefficient-closed-form", True, checked)


def check_fine_square_norm() -> IdentityResult:
    """Exact integral of the squared coefficient profile, 4^-rho / 3, for
    the indices l < 64.

    The profile is piecewise linear between cell boundaries, so the
    quadrature sums exact quadratic segment integrals.
    """
    checked = 0
    for l in range(64):
        r = max(l.bit_length(), 1)
        den = 1 << r
        vals = [fine_coefficient(l, Fraction(t, den)) for t in range(den + 1)]
        acc = Fraction(0)
        for a, b in zip(vals, vals[1:]):
            acc += (a * a + a * b + b * b) / (3 * den)
        want = Fraction(1, 3 * (1 << (2 * l.bit_length())))
        checked += 1
        if acc != want:
            return IdentityResult(
                "interval-coefficient-square-norm", False, checked,
                witness={"l": l, "integral": str(acc), "expected": str(want)},
            )
    return IdentityResult("interval-coefficient-square-norm", True, checked)


def iter_grid(n: int, s: int):
    """All points of Q^n(2^s) in counter order, coordinate 0 fastest:
    the v-th point is DyadicPoint(_unpack(v, n, s), s)."""
    for words in product(range(1 << s), repeat=n):
        yield DyadicPoint(words[::-1], s)


def truncate(Y: DyadicPoint, g: int) -> DyadicPoint:
    """Y at resolution g: the leading g digits of each coordinate, or the
    same values with zero digits appended when g is finer than Y's."""
    if g >= Y.s:
        return DyadicPoint(tuple(w << (g - Y.s) for w in Y.words), g)
    return DyadicPoint(tuple(w >> (Y.s - g) for w in Y.words), g)


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


def point_words_loop(gen: GeneratorSet) -> tuple[tuple[int, ...], ...]:
    """The net's digit words in Gray-code order of the index word, one
    step per index word across all coordinates."""
    images = list(zip(*gen.columns))
    cur = [0] * gen.n
    words = [tuple(cur)]
    for i in range(1, 1 << gen.s):
        img = images[(i & -i).bit_length() - 1]
        for j in range(gen.n):
            cur[j] ^= img[j]
        words.append(tuple(cur))
    return tuple(words)


def box_counts_by_keys(words, s: int, deficiency: int) -> bool:
    """Whether every dyadic box of volume 2^(deficiency-s) holds exactly
    2^deficiency of the 2^s points, each point's box keyed by its leading
    digits concatenated into one integer."""
    cols = list(zip(*words))
    want = 1 << deficiency
    for shape in _compositions(s - deficiency, len(cols)):
        keys = [0] * len(words)
        for col, d in zip(cols, shape):
            cut = s - d
            keys = [(k << d) | (w >> cut) for k, w in zip(keys, col)]
        if any(v != want for v in Counter(keys).values()):
            return False
    return True


def certify_by_reduce(sub: F2Subspace) -> int:
    """Deficiency of a net of 2^s points from rank conditions: the first m
    at which the basis masked to some composition of m leading digits has
    a reduced basis shorter than m gives s + 1 - m."""
    n, s = sub.n, sub.s
    m = 1
    while m <= s and all(
        len(_reduce(b & _leading_digits_mask(d, s) for b in sub.basis)) == m
        for d in _compositions(m, n)
    ):
        m += 1
    return s + 1 - m


# Points compared with a block's queries at a time in `dn_points_sampler`.
_DN_CHUNK = 4096


def dn_points_sampler(points: PointSet) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized discrepancy of a fixed point set at uniform queries.

    The points below each query are counted `_DN_CHUNK` points at a time
    and the integer counts added, so a block's working set is
    O(_DN_CHUNK * block) whatever the size of the point set.
    """
    arr = np.array([[float(c) for c in p] for p in points.points], dtype=np.float64)
    size = points.size

    def f(y: np.ndarray) -> np.ndarray:
        counts = np.zeros(y.shape[0], dtype=np.int64)
        for chunk in np.split(arr, range(_DN_CHUNK, size, _DN_CHUNK)):
            inside = np.ones((len(chunk), y.shape[0]), dtype=bool)
            for j in range(points.n):
                inside &= chunk[:, j][:, None] < y[None, :, j]
            counts += inside.sum(axis=0)
        return counts - size * y.prod(axis=1)

    return f


def dual_words(ctx: DiscrepancyContext) -> tuple[tuple[int, ...], ...]:
    """The enumerated dual of `ctx` as word tuples, sorted."""
    return tuple(sorted(_unpack(p, ctx.n, ctx.s) for p in ctx.packed_dual))


def with_dual_points(ctx: DiscrepancyContext, dual_points) -> DiscrepancyContext:
    """A copy of `ctx` whose enumerated dual is the word tuples
    `dual_points`, packed in the given order; the copy computes `groups`
    from the replacement."""
    out = DiscrepancyContext(ctx.subspace, ctx.shift)
    vars(out)["packed_dual"] = tuple(_index(L, 1 << ctx.s) for L in dual_points)
    return out


def character_sum(words, other: int) -> int:
    """Sum of `_character(a, other)` over the words a."""
    return sum(_character(a, other) for a in words)


def delta_indicator(ctx: DiscrepancyContext, rho_bar, Y) -> int:
    """Character sum over the strictly-below subgroup at a truncated query,
    checked to be two-valued: zero or the subgroup size."""
    if isinstance(Y, DyadicPoint):
        words = truncate(Y, ctx.s).words
    else:
        words = []
        for v in Y:
            fy = Fraction(v)
            if not 0 <= fy < 1:
                raise ValueError(f"{v} outside [0,1)")
            words.append(digit_word(fy, ctx.s))
    if len(words) != ctx.n:
        raise ValueError("query dimension mismatch")
    lam0 = lambda_group_walk(ctx, rho_bar)
    total = character_sum((_rev_packed(p, ctx.n, ctx.s) for p in lam0),
                          _index(words, 1 << ctx.s))
    if total not in (0, len(lam0)):
        raise AssertionError(f"character sum {total} over {tuple(rho_bar)} is "
                             f"neither zero nor the subgroup size {len(lam0)}")
    return total


def lambda_group_walk(ctx: DiscrepancyContext, rho_bar) -> tuple[int, ...]:
    """The strictly-below subgroup Lambda0 of one leading-digit position
    vector, by one walk over the dual: the sorted indices below 2^(r - 1)
    in each coordinate of position r >= 1 and zero where r = 0."""
    rho_bar = tuple(rho_bar)
    if len(rho_bar) != ctx.n or any(not 0 <= r <= ctx.s for r in rho_bar):
        raise ValueError(f"position vector {rho_bar} out of range for s={ctx.s}")
    bounds = [1 << (r - 1) if r >= 1 else 1 for r in rho_bar]
    return tuple(sorted(p for p in ctx.packed_dual
                        if all(l < b for l, b in zip(_unpack(p, ctx.n, ctx.s), bounds))))


def _character_table(words, n: int, s: int) -> np.ndarray:
    """Character sums at every grid point at once: entry y is the sum of
    `f2core._character(_rev_packed(a, n, s), y)` over the packed words a.

    An in-place Walsh-Hadamard butterfly over the indicator of the
    reversed words (Fino & Algazi, IEEE Trans. Computers C-25, 1976).
    Every entry is at most the word count in absolute value; the callers
    pass grids that `discrepancy._within_cap` admits, at most
    `discrepancy.ENUM_CAP` (2^24) points, so the int64 sums are exact.
    """
    rev = [_rev_packed(a, n, s) for a in words]
    table = np.bincount(rev, minlength=1 << (n * s)).astype(np.int64)
    for k in range(n * s):
        pairs = table.reshape(-1, 2, 1 << k)
        low, high = pairs[:, 0], pairs[:, 1]
        low += high
        high *= -2
        high += low
    return table


def poisson_loop(ctx: DiscrepancyContext) -> IdentityResult:
    """Character sums over the net hit cardinality exactly on the dual,
    zero elsewhere."""
    n, s = ctx.n, ctx.s
    card = ctx.cardinality
    net = ctx.packed_net
    dual_set = set(ctx.packed_dual)
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
    groups = ctx.groups
    direct_sums = len(ctx.packed_dual) <= 64
    checked = 0
    for rho_bar, members in sorted(groups.items()):
        if not any(members):
            continue
        lam0 = lambda_group_walk(ctx, rho_bar)
        count = len(lam0)
        # |Lambda0| <= 2^(|rho_bar| - s + t) for a certified deficiency t.
        t = ctx.deficiency
        if t is not None and (sum(rho_bar) < s - t or count > 2 ** (sum(rho_bar) - s + t)):
            return IdentityResult(
                "delta-identities", False, checked,
                witness={"rho_bar": rho_bar, "lambda0": count,
                         "reason": "cardinality bound"},
            )
        span = F2Subspace.from_packed(n, s, lam0)
        if count != span.cardinality:
            return IdentityResult(
                "delta-identities", False, checked,
                witness={"rho_bar": rho_bar, "lambda0": count,
                         "reason": "not a subgroup"},
            )
        rev_basis = [_rev_packed(b, n, s) for b in span.basis]
        rev_members = [_rev_packed(p, n, s) for p in members]
        rev_rep = _rev_packed(min(members), n, s)
        rev_lam0 = [_rev_packed(p, n, s) for p in lam0]
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
    return IdentityResult("delta-identities", True, checked)


def delta_tables(ctx: DiscrepancyContext) -> IdentityResult:
    """Group slice identities from two whole-grid Walsh-Hadamard tables
    per nonzero group: two-valued indicator, unit grid average,
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
    size = _within_cap(2, n * s)
    groups = ctx.groups
    checked = 0
    for rho_bar, members in sorted(groups.items()):
        if not any(members):
            continue
        lambda0 = lambda_group_walk(ctx, rho_bar)
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


def grid_words(Y, s: int, n: int) -> tuple[int, tuple[int, ...]]:
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
# its evaluations of `_chi_num` go through one shared cache.
_chi_num_cached = lru_cache(maxsize=1 << 20)(_chi_num)


def box_kernel(ctx: DiscrepancyContext, g: int, us) -> tuple[int, int]:
    """Net points in the box [0, us/2^g) and the truncated-kernel sum.

    The points are the context's listing with its shift applied here.
    The kernel term of a point is its cell's overlap with the box, in
    units of 2^-g per coordinate; it is positive exactly when the point
    lies in the box.
    """
    step = 1 << (g - ctx.s)
    shift = _index(ctx.shift, 1 << ctx.s)
    count = 0
    kernel = 0
    for p in ctx.packed_net:
        prod = 1
        for w, u in zip(_unpack(p ^ shift, ctx.n, ctx.s), us):
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
    g, us = grid_words(Y, ctx.s, ctx.n)
    _, kernel = box_kernel(ctx, g, us)
    num = (kernel << (ctx.s * ctx.n)) - ctx.cardinality * math.prod(us)
    return Fraction(num, 1 << (g * ctx.n))


def m_dual_sum(ctx: DiscrepancyContext, Y) -> Fraction:
    """Dual route: cardinality times the character-weighted coefficient sum
    over the nonzero dual indices."""
    g, us = grid_words(Y, ctx.s, ctx.n)
    shift = _index(ctx.shift, 1 << ctx.s)
    total = 0
    for p in ctx.packed_dual:
        if not p:
            continue
        L = _unpack(p, ctx.n, ctx.s)
        prod = 1
        for l, u in zip(L, us):
            prod *= _chi_num_cached(l, u, g)
            if prod == 0:
                break
        if prod:
            total += _character(_rev_packed(p, ctx.n, ctx.s), shift) * prod
    return Fraction(ctx.cardinality * total, 1 << (g * ctx.n))


def route_loop(ctx: DiscrepancyContext) -> IdentityResult:
    """The kernel-sum and dual-sum evaluations agree exactly on the full
    dyadic grid of the net's resolution, visited in packed order."""
    n, s = ctx.n, ctx.s
    values = [Fraction(w, 1 << s) for w in range(1 << s)]
    checked = 0
    for v in range(1 << (n * s)):
        Y = tuple(values[w] for w in _unpack(v, n, s))
        a = m_direct(ctx, Y)
        b = m_dual_sum(ctx, Y)
        checked += 1
        if a != b:
            return IdentityResult(
                "route-equivalence", False, checked,
                witness={"Y": [str(y) for y in Y],
                         "direct": str(a), "dual_sum": str(b)},
            )
    return IdentityResult("route-equivalence", True, checked)


def route_cells_loop(ctx: DiscrepancyContext) -> IdentityResult:
    """The two routes' cells agree on every cell of the net's grid,
    visited in packed order: the shifted net's points in the cell less
    N 2^-ns, and N 2^-ns times the sum, over the nonzero dual listing
    (repeats add up), of the shift's character times the tensor Walsh
    function on the cell."""
    n, s = ctx.n, ctx.s
    vol = Fraction(ctx.cardinality, 1 << (n * s))
    values = [Fraction(w, 1 << s) for w in range(1 << s)]
    shift = _index(ctx.shift, 1 << s)
    points = Counter(p ^ shift for p in ctx.packed_net)
    dual = [_unpack(p, n, s) for p in ctx.packed_dual if p]
    shift_point = [values[w] for w in ctx.shift]
    signs = [walsh_nd(L, shift_point) for L in dual]
    for v in range(1 << (n * s)):
        X = [values[w] for w in _unpack(v, n, s)]
        direct = points[v] - vol
        dual_sum = vol * sum(sign * walsh_nd(L, X) for sign, L in zip(signs, dual))
        if direct != dual_sum:
            return IdentityResult(
                "route-equivalence", False, v + 1,
                witness={"cell": [str(x) for x in X],
                         "direct": str(direct), "dual_sum": str(dual_sum)},
            )
    return IdentityResult("route-equivalence", True, 1 << (n * s))


def gap_loop(ctx: DiscrepancyContext) -> GapReport:
    """Largest |discrepancy - truncated approximation| over the exhaustive
    dyadic grid two digits finer than the net, visited in packed order."""
    if ctx.deficiency is None:
        raise ValueError("gap bound needs a certified deficiency")
    bound = ctx.n * (1 << ctx.deficiency)
    g = ctx.s + 2
    den = 1 << (g * ctx.n)
    worst = Fraction(-1)
    argmax: tuple[Fraction, ...] = ()
    checked = 0
    card = ctx.cardinality
    for v in range(1 << (g * ctx.n)):
        us = _unpack(v, ctx.n, g)
        count, kernel = box_kernel(ctx, g, us)
        vol = math.prod(us)
        d_num = count * den - card * vol
        m_num = (kernel << (ctx.s * ctx.n)) - card * vol
        gap = Fraction(abs(d_num - m_num), den)
        checked += 1
        if gap > worst:
            worst = gap
            argmax = tuple(Fraction(u, 1 << g) for u in us)
    return GapReport(worst, bound, argmax, checked)


def dual_table_modes(ctx: DiscrepancyContext) -> list[int]:
    """2^(ns) times the dual route at every point of the net's grid, flat
    in packed order: N times one int64 mode product per axis of the signed
    indicator of the nonzero dual indices (repeats add up) with the rows
    of the matrix `_chi_num(l, u, s)` that some index holds.  The sign of
    an index is the shift's character there, with the shift reversed."""
    n, s = ctx.n, ctx.s
    dual = ctx.packed_dual
    rev_shift = _rev_packed(_index(ctx.shift, 1 << s), n, s)
    indicator = np.zeros(1 << (n * s), dtype=np.int64)
    np.add.at(indicator, np.array(dual, dtype=np.int64),
              [_character(rev_shift, p) for p in dual])
    indicator[0] = 0
    rows = sorted({l for p in dual for l in _unpack(p, n, s)})
    chi = np.array([[_chi_num(l, u, s) for u in range(1 << s)] for l in rows],
                   dtype=np.int64)
    table = indicator.reshape((1 << s,) * n)
    for axis in range(n):
        table = np.tensordot(table.take(rows, axis), chi, axes=(axis, 0))
        table = np.moveaxis(table, -1, axis)
    return [ctx.cardinality * int(v) for v in table.reshape(-1)]


def gap_table(ctx: DiscrepancyContext) -> GapReport:
    """The gap report from the whole fine grid g = s + 2: 2^(ng) times count
    minus truncated kernel of every box [0, u/2^g), one int64 box table of
    cells, and its first maximum in packed order.  A point's kernel term,
    its cell's overlap with the box in units of 2^-g per axis, spreads it
    over the 4^n fine cells of its cell; the count puts it at the cell's
    corner x * 2^(g-s)."""
    if ctx.deficiency is None:
        raise ValueError("gap bound needs a certified deficiency")
    n, s, g = ctx.n, ctx.s, ctx.s + 2
    size = _within_cap(2, n * g)
    words = np.array(ctx.packed_net, dtype=np.int64) ^ _index(ctx.shift, 1 << s)
    points = np.bincount(words, minlength=1 << (n * s)).reshape((1 << s,) * n)
    cells = np.empty((1 << g,) * n, dtype=np.int64)
    cells.reshape((1 << s, 4) * n)[...] = -(points << (n * s)).reshape((1 << s, 1) * n)
    cells[(slice(None, None, 4),) * n] += points << (n * g)
    table = np.pad(cells[(slice(None, -1),) * n], [(1, 0)] * n)
    del cells
    for axis in range(n):
        np.cumsum(table, axis=axis, out=table)
    gap = np.abs(table.reshape(-1))
    v = int(np.argmax(gap))
    return GapReport(Fraction(int(gap[v]), size), n << ctx.deficiency,
                     tuple(Fraction(u, 1 << g) for u in _unpack(v, n, g)), size)
