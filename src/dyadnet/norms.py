"""Monte Carlo L^q norms with standard errors, the samplers of a net's
discrepancy and of its truncated approximation, an exact second-moment
oracle for that approximation, and the exponential-Orlicz estimate over a
moment grid.  The synthetic digit-sign ratio experiments, which sample no
net, are test code (`tests/experiments.py`).

Sampling is counter-based: each fixed-size block owns a jumped Philox
substream, and block moments are reduced with compensated summation in
block order, so a seeded run is reproducible byte for byte.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .discrepancy import DiscrepancyContext
from .f2core import _unpack

DEFAULT_Q_GRID = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0)
_BLOCK = 4096
# Net points compared with a block's queries at a time in `dn_sampler`.
_DN_CHUNK = 4096


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


class LqEstimate(NamedTuple):
    q: float
    value: float
    stderr: float
    samples: int


class OrliczEstimate(NamedTuple):
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
    norm comes from the delta method applied to the q-th moment.  A block
    sum that is not finite raises OverflowError naming its q.
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
            with np.errstate(over="ignore"):  # reported below, naming q
                p = vals**q
                sums.append((float(p.sum()), float((p * p).sum())))
            if not all(map(math.isfinite, sums[-1])):
                raise OverflowError(f"moment sums at q={q} are not finite in float64")
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


def dn_sampler(ctx: DiscrepancyContext) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized discrepancy of the context's shifted net at uniform queries.

    A point is its net word XOR the context's shift, over 2^s in float64,
    which is exact for s <= 53.  The points below each query are counted
    `_DN_CHUNK` points at a time and the integer counts added, so a block's
    working set is O(_DN_CHUNK * block) whatever the size of the net.
    """
    n, s = ctx.n, ctx.s
    words = np.array([_unpack(p, n, s) for p in ctx.packed_net], dtype=np.int64)
    arr = (words ^ np.array(ctx.shift, dtype=np.int64)) / (1 << s)
    size = ctx.cardinality

    def f(y: np.ndarray) -> np.ndarray:
        counts = np.zeros(y.shape[0], dtype=np.int64)
        for chunk in np.split(arr, range(_DN_CHUNK, size, _DN_CHUNK)):
            inside = np.ones((len(chunk), y.shape[0]), dtype=bool)
            for j in range(n):
                inside &= chunk[:, j][:, None] < y[None, :, j]
            counts += inside.sum(axis=0)
        return counts - size * y.prod(axis=1)

    return f


def m_sampler(ctx: DiscrepancyContext) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized truncated approximation over joint (query, shift) samples.

    Input columns: n query coordinates, then n uniforms that are floored
    to grid words acting as the random digit shift, which replaces the
    context's own.  Evaluated as the kernel sum over the XOR-shifted net,
    M(y, t) = sum_x prod_j clip(2^s y_j - (x_j xor t_j), 0, 1) - N prod_j y_j,
    one net point at a time so a block's working set stays O(block * n).
    """
    n, s = ctx.n, ctx.s
    card = float(ctx.cardinality)
    net = [_unpack(p, n, s) for p in ctx.packed_net]

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
    for x in ctx.packed_net:
        prod = 1
        for w in _unpack(x, n, s):
            prod *= full - (3 << (w.bit_length() - 1)) if w else full - 1
        total += prod
    card = ctx.cardinality
    return Fraction(card, 3**n) * (Fraction(total, 1 << ((s + 1) * n)) - card)


def exp_orlicz_estimate(estimates: Sequence[LqEstimate], theta: float) -> OrliczEstimate:
    """Grid sup of q^-theta times the q-norm.

    The grid-restricted supremum is a lower bound for the true one.  The
    sup is meaningful only for a finite theta > 0.
    """
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be finite and > 0, got {theta}")
    if not estimates:
        raise ValueError("empty moment grid")
    best = max(estimates, key=lambda e: e.q**-theta * e.value)
    return OrliczEstimate(best.q**-theta * best.value, theta, best.q)


def normalized_ratio(value: float, q: float, s: int, n: int) -> float:
    """Norm divided by q^((n+1)/2) s^((n-1)/2), the moment growth profile."""
    return value / (q ** ((n + 1) / 2) * s ** ((n - 1) / 2))

