"""Independent evaluations kept only as test oracles.

Each function here is a second route to a quantity that the library
evaluates one way in production; tests compare the two.

- `walsh_nd`, the product of one-dimensional characters `walsh_1d`, is
  the oracle of the packed tensor character `f2core._character`.
- `omega`, the sawtooth factor, gives the closed form
  `2^(-rho-1) w_tau(y) omega_rho(y)` of the interval coefficient, the
  oracle of the integer evaluation `walsh._chi_num`.
"""

from __future__ import annotations

from fractions import Fraction

from dyadnet.f2core import DyadicPoint
from dyadnet.walsh import walsh_1d


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
