"""Walsh analysis on [0,1) with exact dyadic arithmetic.

On the grid of 2^k cells the Walsh characters are the rows of the
Hadamard matrix, and `synthesis` sums them, weighted by integer
coefficients, at every cell at once: one butterfly over lists of Python
ints.  The interval coefficient of w_l, its integral over [0, y), is the
running sum of w_l over the cells below y, so a whole grid of interval
coefficients is the box table (`discrepancy._box_table`) of a synthesis.
The tensor character lives in `f2core._character`, and the leading-digit
position of an index is its `int.bit_length()`.
"""

from __future__ import annotations

from operator import add, sub


def synthesis(coefficients: list[int]) -> list[int]:
    """Entry c of the result sums coefficients[q] * (-1)^parity(q & c)
    over q, for a list of length 2^k: the Walsh-Hadamard transform in
    natural order.

    Each of the k passes pairs neighbours and writes their sums, then
    their differences (Good's factorization, J. R. Stat. Soc. B 20,
    1958): a pass consumes the lowest bit of the index and places its
    partner bit on top, so after k passes every bit is back in place.
    """
    table = coefficients
    for _ in range(len(coefficients).bit_length() - 1):
        low, high = table[0::2], table[1::2]
        table = list(map(add, low, high))
        table += map(sub, low, high)
    return table
