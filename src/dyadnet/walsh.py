"""Walsh analysis on [0,1) with exact dyadic arithmetic.

The interval coefficient, the integral of the Walsh character w_l over
[0, y), is evaluated in integers over a power-of-two denominator
(`_chi_num`).  The tensor character lives in `f2core._character`, and the
leading-digit position of an index is its `int.bit_length()`.
"""

from __future__ import annotations

from .f2core import _character, bit_reverse


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

