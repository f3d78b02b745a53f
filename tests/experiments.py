"""Synthetic digit-sign experiments: Khinchin-type and hyperbolic ratio
estimates for sums of independent fair signs (the square-function step of
Chang, Wilson and Wolff, Comment. Math. Helv. 60, 1985).

No command samples these sums; the net's own norms are `dyadnet.norms`.
They draw through `norms._block_moments`, the block driver of the
production samplers, so a seeded run is reproducible byte for byte.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from dyadnet.norms import _block_moments, q_grid


class RatioEstimate(NamedTuple):
    q: float
    ratio: float
    stderr: float
    samples: int


def khinchin_ratios(coeffs: Sequence[float], qs: Sequence[float], samples: int,
                    seed: int) -> list[RatioEstimate]:
    """Norm of a digit-sign series over sqrt(q) times the coefficient norm.

    The independent fair signs are drawn directly; evaluating the digit
    signs at a uniform point gives the same law.  The ratio is calibrated
    for q >= 2 only.
    """
    qs = q_grid(qs)
    if qs[0] < 2:
        raise ValueError("ratio is calibrated for q >= 2")
    c = np.asarray(coeffs, dtype=np.float64)
    if c.size == 0 or not np.any(c):
        raise ValueError("coefficient vector must be nonzero")
    c2 = float(np.sqrt((c * c).sum()))

    def eval_block(rng: np.random.Generator, size: int) -> np.ndarray:
        signs = rng.integers(0, 2, size=(size, c.size)).astype(np.float64) * 2 - 1
        return signs @ c

    norms = _block_moments(eval_block, qs, samples, seed)
    return [
        RatioEstimate(e.q, e.value / (math.sqrt(e.q) * c2),
                      e.stderr / (math.sqrt(e.q) * c2), e.samples)
        for e in norms
    ]


def hyperbolic_lp_ratios(coeffs: dict[tuple[int, ...], float], offset: Sequence[int],
                         qs: Sequence[float], samples: int,
                         seed: int) -> list[RatioEstimate]:
    """Hyperbolic digit-sign sums: norm over q^((n-1)/2) times coefficient norm.

    Coefficients are indexed by positive integer vectors of one common
    length sum; each term is the product over coordinates of the digit
    sign at the index shifted by the offset vector.
    """
    if not coeffs:
        raise ValueError("empty coefficient set")
    offset = tuple(int(v) for v in offset)
    n = len(offset)
    idx = sorted(coeffs)
    sums = {sum(i) for i in idx}
    if len(sums) != 1:
        raise ValueError("all index vectors must share one entry sum")
    if any(len(i) != n or min(i) < 1 for i in idx):
        raise ValueError("index vectors must be positive and match the offset length")
    k = sums.pop()
    if k < n:
        raise ValueError("entry sum must be at least the dimension")
    c = np.array([coeffs[i] for i in idx], dtype=np.float64)
    if not np.any(c):
        raise ValueError("coefficient vector must be nonzero")
    c2 = float(np.sqrt((c * c).sum()))
    digit_counts = [max(i[j] + offset[j] for i in idx) for j in range(n)]

    def eval_block(rng: np.random.Generator, size: int) -> np.ndarray:
        signs = [
            rng.integers(0, 2, size=(size, digit_counts[j])).astype(np.float64) * 2 - 1
            for j in range(n)
        ]
        vals = np.zeros(size, dtype=np.float64)
        for ci, i in enumerate(idx):
            term = np.full(size, coeffs[i], dtype=np.float64)
            for j in range(n):
                term = term * signs[j][:, i[j] + offset[j] - 1]
            vals += term
        return vals

    norms = _block_moments(eval_block, qs, samples, seed)
    scale = (n - 1) / 2
    return [
        RatioEstimate(e.q, e.value / (e.q**scale * c2),
                      e.stderr / (e.q**scale * c2), e.samples)
        for e in norms
    ]
