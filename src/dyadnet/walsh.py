"""Walsh and Rademacher characters on [0,1) with exact dyadic arithmetic.

Indices decompose into (leading-bit position, leading digit, truncation);
the interval-indicator coefficients come out of the classical sawtooth
closed form, evaluated in integers over a power-of-two denominator, and
step functions on dyadic grids carry the exact conditional-expectation
calculus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .f2core import DyadicCoord, DyadicPoint, _character, bit_reverse, parity


def as_fraction(x) -> Fraction:
    """Exact rational view of a coordinate-like input (floats convert exactly)."""
    if isinstance(x, DyadicCoord):
        return x.value
    return Fraction(x)


def digit_word(x: Fraction, k: int) -> int:
    """First k binary digits of x in [0,1), most significant first: floor(x*2^k)."""
    return (x.numerator << k) // x.denominator


def rademacher(i: int, x) -> int:
    """Sign of binary digit i: +1 if the digit is 0, -1 if it is 1."""
    if i < 1:
        raise ValueError("digit index must be >= 1")
    fx = as_fraction(x)
    if not 0 <= fx < 1:
        raise ValueError(f"{x} outside [0,1)")
    return -1 if digit_word(fx, i) & 1 else 1


def walsh_1d(l: int, x) -> int:
    """Walsh character w_l(x) in {+1,-1}: parity of digits of x selected by l."""
    if l < 0:
        raise ValueError("index must be nonnegative")
    if l == 0:
        return 1
    fx = as_fraction(x)
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


@dataclass(frozen=True)
class IndexDecomposition:
    """l split at its most significant binary digit."""

    rho: int    # 1-based position of the leading digit; 0 for l = 0
    lead: int   # the leading digit itself (1 unless l = 0)
    trunc: int  # l with the leading digit cleared

    def recompose(self) -> int:
        if self.rho == 0:
            return 0
        return self.trunc | (self.lead << (self.rho - 1))


def decompose(l: int) -> IndexDecomposition:
    if l < 0:
        raise ValueError("index must be nonnegative")
    if l == 0:
        return IndexDecomposition(0, 0, 0)
    rho = l.bit_length()
    return IndexDecomposition(rho, 1, l ^ (1 << (rho - 1)))


def rho_index(l: int) -> int:
    """Position of the most significant binary digit (0 for l = 0)."""
    if l < 0:
        raise ValueError("index must be nonnegative")
    return l.bit_length()


def rho_vector(L) -> tuple[int, ...]:
    return tuple(rho_index(l) for l in L)


def omega(m: int, y) -> Fraction:
    """Piecewise-linear sawtooth with period 2^(1-m), rising 0 -> 2 -> 0.

    Equals 2^(m+1) times the running integral of the m-th digit sign;
    the degenerate m = 0 case is the linear ramp 2y on [0,1].
    """
    if m < 0:
        raise ValueError("order must be >= 0")
    fy = as_fraction(y)
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
    fy = as_fraction(y)
    if not 0 <= fy <= 1:
        raise ValueError(f"{y} outside [0,1]")
    if l < 0:
        raise ValueError("index must be nonnegative")
    den = fy.denominator
    if den & (den - 1):
        raise ValueError(f"{y} is not dyadic; exact routes need dyadic input")
    g = max(den.bit_length() - 1, l.bit_length())
    return Fraction(_chi_num(l, digit_word(fy, g), g), 1 << g)


def fine_coefficient_nd(L, Y) -> Fraction:
    """Product of per-coordinate interval coefficients."""
    if isinstance(Y, DyadicPoint):
        ys = Y.values()
    else:
        ys = tuple(Y)
    L = tuple(L)
    if len(L) != len(ys):
        raise ValueError(f"index length {len(L)} != point dimension {len(ys)}")
    out = Fraction(1)
    for l, y in zip(L, ys):
        out *= fine_coefficient(l, y)
        if out == 0:
            return out
    return out


@dataclass(frozen=True)
class StepFunction:
    """Function constant on the 2^resolution dyadic cells of [0,1).

    `values[t]` is the (exact) cell average on [t*h, (t+1)*h), h = 2^-resolution.
    """

    resolution: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if self.resolution < 0:
            raise ValueError("resolution must be >= 0")
        if len(self.values) != 1 << self.resolution:
            raise ValueError("value count must be 2^resolution")

    @classmethod
    def constant(cls, c, resolution: int = 0) -> "StepFunction":
        return cls(resolution, (Fraction(c),) * (1 << resolution))

    def __call__(self, x) -> Fraction:
        fx = as_fraction(x)
        if not 0 <= fx < 1:
            raise ValueError(f"{x} outside [0,1)")
        return self.values[digit_word(fx, self.resolution)]

    def integral(self) -> Fraction:
        return sum(self.values, Fraction(0)) / (1 << self.resolution)

    def walsh_coefficient(self, l: int) -> Fraction:
        """Exact inner product with w_l (refines cells when l needs more digits)."""
        if l < 0:
            raise ValueError("index must be nonnegative")
        r = max(self.resolution, l.bit_length())
        den = 1 << r
        up = r - self.resolution
        acc = Fraction(0)
        for t in range(den):
            acc += self.values[t >> up] * walsh_1d(l, Fraction(t, den))
        return acc / den


def truncated_projection(f: StepFunction, s: int) -> StepFunction:
    """Conditional expectation of f on dyadic cells of length 2^-s.

    Coincides with the order-2^s Walsh partial sum of f; refining (s above
    the stored resolution) leaves the function unchanged.
    """
    if s < 0:
        raise ValueError("resolution must be >= 0")
    if s >= f.resolution:
        reps = 1 << (s - f.resolution)
        return StepFunction(s, tuple(v for v in f.values for _ in range(reps)))
    block = 1 << (f.resolution - s)
    vals = tuple(
        sum(f.values[t * block:(t + 1) * block], Fraction(0)) / block
        for t in range(1 << s)
    )
    return StepFunction(s, vals)


def sawtooth_distance(x) -> Fraction:
    """Distance from x to the nearest integer, exactly."""
    fx = as_fraction(x) % 1
    return min(fx, 1 - fx)


def sawtooth_identity_check(x) -> bool:
    """Distance-to-nearest-integer equals the digit-sign series closed form.

    The series (1/2)(1 - sum_i 2^-i r_1(x) r_i(x)) collapses to a quarter
    of the order-1 sawtooth, which is evaluated exactly.
    """
    fx = as_fraction(x) % 1
    return sawtooth_distance(fx) == omega(1, fx) / 4
