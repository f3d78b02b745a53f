"""Monte Carlo L^q norms with standard errors, the exponential-Orlicz
estimate over a moment grid, an exact second-moment oracle for the
truncated discrepancy approximation, and digit-sign (Khinchin-type)
ratio experiments.

Sampling is counter-based: each fixed-size block owns a jumped Philox
substream, and block moments are reduced with compensated summation in
block order, so a seeded run is reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .discrepancy import DiscrepancyContext
from .nets import PointSet, _compositions

DEFAULT_Q_GRID = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0)
_BLOCK = 4096


def q_grid(values: Sequence[float]) -> tuple[float, ...]:
    """Validated moment grid: sorted, distinct, every exponent finite and >= 1."""
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ValueError("moment grid must be nonempty")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("moment exponents must be finite")
    if any(v < 1 for v in vals):
        raise ValueError("moment exponents must be >= 1")
    if sorted(set(vals)) != list(vals):
        raise ValueError("moment grid must be sorted and distinct")
    return vals


@dataclass(frozen=True)
class LqEstimate:
    q: float
    value: float
    stderr: float
    samples: int


@dataclass(frozen=True)
class OrliczEstimate:
    value: float
    theta: float
    at_q: float


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed).jumped(block))


def _block_moments(eval_block: Callable[[np.random.Generator, int], np.ndarray],
                   qs: Sequence[float], samples: int, seed: int) -> list[LqEstimate]:
    """(mean |f|^q)^(1/q) for every q in the grid, f sampled blockwise.

    Block b evaluates `eval_block` on its own jumped substream and
    accumulates the q-th and 2q-th absolute moments; the block sums are
    reduced in block order with compensated sums.  Together these make a
    seeded result byte-identical across runs.  The standard error of the
    norm comes from the delta method applied to the q-th moment.
    """
    qs = q_grid(qs)
    if samples < 1:
        raise ValueError("need at least one sample")
    per_block = []
    for b, start in enumerate(range(0, samples, _BLOCK)):
        size = min(_BLOCK, samples - start)
        vals = np.abs(np.asarray(eval_block(_block_rng(seed, b), size), dtype=np.float64))
        sums = []
        for q in qs:
            p = vals**q
            sums.append((float(p.sum()), float((p * p).sum())))
        per_block.append(sums)

    results = []
    for qi, q in enumerate(qs):
        m1 = math.fsum(pb[qi][0] for pb in per_block) / samples
        m2 = math.fsum(pb[qi][1] for pb in per_block) / samples
        var_mean = max(m2 - m1 * m1, 0.0) / samples
        value = m1 ** (1.0 / q)
        stderr = (value / (q * m1)) * math.sqrt(var_mean) if m1 > 0 else 0.0
        results.append(LqEstimate(q, value, stderr, samples))
    return results


def lq_norms_mc(f: Callable[[np.ndarray], np.ndarray], dims: int,
                qs: Sequence[float], samples: int, seed: int,
                stratified: bool = False) -> list[LqEstimate]:
    """(mean |f|^q)^(1/q) over uniform samples, for every q in the grid."""

    def eval_block(rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random((size, dims))
        if stratified:
            # Per-axis equal strata within the block (latin hypercube).
            for j in range(dims):
                perm = rng.permutation(size)
                u[:, j] = (perm + u[:, j]) / size
        return f(u)

    return _block_moments(eval_block, qs, samples, seed)


def dn_sampler(points: PointSet) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized discrepancy of a fixed point set at uniform queries."""
    arr = points.array
    size = points.size

    def f(y: np.ndarray) -> np.ndarray:
        inside = np.ones((size, y.shape[0]), dtype=bool)
        for j in range(points.n):
            inside &= arr[:, j][:, None] < y[None, :, j]
        return inside.sum(axis=0) - size * y.prod(axis=1)

    return f


def _net_words(ctx: DiscrepancyContext) -> list[tuple[int, ...]]:
    """The unshifted distribution's words; the context's own shift is
    undone, since the sampler and the oracle draw or average the shift."""
    return [tuple(w ^ t for w, t in zip(p, ctx.shift.words)) for p in ctx.point_words]


def m_sampler(ctx: DiscrepancyContext) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized truncated approximation over joint (query, shift) samples.

    Input columns: n query coordinates, then n uniforms that are floored
    to grid words acting as the random digit shift.  Evaluated as the
    kernel sum over the XOR-shifted net,
    M(y, t) = sum_x prod_j clip(2^s y_j - (x_j xor t_j), 0, 1) - N prod_j y_j,
    one net point at a time so a block's working set stays O(block * n).
    """
    n, s = ctx.n, ctx.s
    card = float(ctx.cardinality)
    net = _net_words(ctx)

    def f(u: np.ndarray) -> np.ndarray:
        y = u[:, :n]
        scaled = np.ascontiguousarray((y * (1 << s)).T)
        twords = np.ascontiguousarray(
            np.minimum((u[:, n:] * (1 << s)).astype(np.int64), (1 << s) - 1).T)
        total = np.zeros(u.shape[0], dtype=np.float64)
        for x in net:
            term = np.clip(scaled[0] - (twords[0] ^ x[0]), 0.0, 1.0)
            for j in range(1, n):
                term *= np.clip(scaled[j] - (twords[j] ^ x[j]), 0.0, 1.0)
            total += term
        return total - card * y.prod(axis=1)

    return f


def l2_m_exact(ctx: DiscrepancyContext) -> Fraction:
    """Exact squared L^2 norm of the truncated approximation, jointly in
    query and shift.

    Over the nonzero dual this is N^2/3^n times the sum of 4^-rho(L); by
    Poisson summation it equals N^2/3^n ((1/N) sum_x prod_j (1 + f_s(x_j)) - 1)
    over the N unshifted points, with the digit-shift-invariant kernel
    f_s(x) = 1/2 - 3 2^(-a-1) at leading-digit position a of x, and
    f_s(0) = 1/2 - 2^(-s-1) (Dick & Pillichshammer, Acta Arith. 117, 2005).
    Each factor is kept as the integer 2^(s+1) (1 + f_s(x_j)).
    """
    n, s = ctx.n, ctx.s
    full = 3 << s
    total = 0
    for x in _net_words(ctx):
        prod = 1
        for w in x:
            prod *= full - (3 << (w.bit_length() - 1)) if w else full - 1
        total += prod
    card = ctx.cardinality
    return Fraction(card, 3**n) * (Fraction(total, 1 << ((s + 1) * n)) - card)


def exp_orlicz_estimate(estimates: Sequence[LqEstimate], theta: float) -> OrliczEstimate:
    """Grid sup of q^-theta times the q-norm.

    The grid-restricted supremum is a lower bound for the true one.
    """
    if not estimates:
        raise ValueError("empty moment grid")
    best = max(estimates, key=lambda e: e.q**-theta * e.value)
    return OrliczEstimate(best.q**-theta * best.value, theta, best.q)


def normalized_ratio(value: float, q: float, s: int, n: int) -> float:
    """Norm divided by q^((n+1)/2) s^((n-1)/2), the moment growth profile."""
    return value / (q ** ((n + 1) / 2) * s ** ((n - 1) / 2))


@dataclass(frozen=True)
class RatioEstimate:
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


def hyperbolic_indices(n: int, k: int) -> list[tuple[int, ...]]:
    """All positive integer vectors of length n with entries summing to k."""
    if n < 1 or k < n:
        raise ValueError("need k >= n >= 1 for positive entries")
    return [tuple(d + 1 for d in c) for c in _compositions(k - n, n)]


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
