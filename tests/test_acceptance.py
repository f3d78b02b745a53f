"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

from dyadnet.discrepancy import (
    DiscrepancyContext,
    approximation_gap,
    lambda_group,
)
from dyadnet.f2core import F2Subspace
from dyadnet.nets import (
    random_shift,
    sobol_generators,
    van_der_corput_generators,
)
from dyadnet.norms import (
    dn_sampler,
    l2_m_exact,
    lq_norms_mc,
    m_sampler,
    normalized_ratio,
)
from dyadnet.verify import (
    check_poisson,
    check_route_equivalence,
)
from experiments import khinchin_ratios
from oracles import (
    check_fine_closed_form,
    check_fine_square_norm,
    delta_indicator,
    iter_grid,
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_report_handle(capsysbinary):
    global _CAPTURE
    # The `cli` fixture reads capsysbinary, and pytest allows one capture
    # fixture a test.
    _CAPTURE = capsysbinary
    yield
    _CAPTURE = None


def _report(criterion: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = (f"ACCEPTANCE {criterion:02d}: {status} - {detail} "
            f"[{elapsed:.2f}s / budget {budget:.0f}s]")
    if _CAPTURE is not None:
        # Escape pytest's capture so the line lands on the real stdout.
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_01_poisson_summation():
    t0 = time.time()
    cases = [
        ("van-der-corput", van_der_corput_generators(4)),
        ("sobol n=2", sobol_generators(2, 4)),
        ("sobol n=3", sobol_generators(3, 3)),
    ]
    checked = 0
    for name, gen in cases:
        res = check_poisson(DiscrepancyContext.build(gen.subspace))
        assert res.passed, (name, res.witness)
        checked += res.checked
    _report(1, True, f"character sums exact over {checked} index/point cases",
            time.time() - t0, 10.0)


def test_criterion_02_duality_involution():
    t0 = time.time()
    rng = random.Random(2024)
    for _ in range(100):
        n, s = rng.randint(1, 3), rng.randint(1, 5)
        vecs = [rng.getrandbits(n * s) for _ in range(rng.randint(0, n * s))]
        sub = F2Subspace.from_packed(n, s, vecs)
        d = sub.dual()
        assert sub.dim + d.dim == n * s
        assert d.dual() == sub
    _report(2, True, "dual involution and dimension formula on 100 random subspaces",
            time.time() - t0, 5.0)


def test_criterion_03_fine_closed_form():
    t0 = time.time()
    res = check_fine_closed_form()
    _report(3, res.passed,
            f"interval coefficients exact vs quadrature on {res.checked} cases",
            time.time() - t0, 10.0)


def test_criterion_04_fine_square_norm():
    t0 = time.time()
    res = check_fine_square_norm()
    _report(4, res.passed,
            "squared coefficient integrals equal 4^-rho/3 for indices below 64",
            time.time() - t0, 5.0)


def test_criterion_05_route_equivalence():
    t0 = time.time()
    total = 0
    for s in range(1, 5):
        ctx = DiscrepancyContext.build(
            van_der_corput_generators(s).subspace, random_shift(2, s, seed=50 + s)
        )
        res = check_route_equivalence(ctx)
        assert res.passed, res.witness
        total += res.checked
    for s in range(1, 5):
        ctx = DiscrepancyContext.build(
            sobol_generators(3, s).subspace, random_shift(3, s, seed=60 + s)
        )
        res = check_route_equivalence(ctx)
        assert res.passed, res.witness
        total += res.checked
    _report(5, True, f"kernel and dual routes identical on {total} grid queries",
            time.time() - t0, 60.0)


def test_criterion_06_approximation_gap():
    t0 = time.time()
    worst = Fraction(0)
    for s in range(1, 6):
        gen = van_der_corput_generators(s)
        for k in range(5):
            ctx = DiscrepancyContext.build(gen.subspace,
                                           random_shift(2, s, seed=600 + 10 * s + k))
            rep = approximation_gap(ctx)  # exhaustive at s + 2 digits
            assert rep.bound == 2 * (1 << ctx.deficiency)
            assert rep.within_bound, (s, k, rep.max_gap)
            worst = max(worst, rep.max_gap / rep.bound)
    _report(6, True,
            f"approximation gap within n*2^deficiency (worst fill {float(worst):.3f})",
            time.time() - t0, 60.0)


def test_criterion_07_delta_identities():
    t0 = time.time()
    checked = 0
    for s in range(1, 5):
        ctx = DiscrepancyContext.build(van_der_corput_generators(s).subspace)
        grid = list(iter_grid(2, s))
        for rho_bar, members in sorted(ctx.groups.items()):
            if not any(members):
                continue
            lam0 = lambda_group(ctx, rho_bar)
            exponent = sum(rho_bar) - s + ctx.deficiency
            assert exponent >= 0 and len(lam0) <= 2 ** exponent, rho_bar
            total = 0
            for Y in grid:
                val = delta_indicator(ctx, rho_bar, Y)
                assert val in (0, len(lam0)), (rho_bar, Y.words, val)
                total += val
                checked += 1
            assert Fraction(total, len(grid)) == 1, rho_bar
    _report(7, True, f"two-valued indicator, unit average, cardinality bound "
            f"({checked} exact evaluations)", time.time() - t0, 30.0)


def test_criterion_08_l2_oracle():
    t0 = time.time()
    devs = []
    for name, gen in (("van-der-corput s=4", van_der_corput_generators(4)),
                      ("sobol n=3 s=4", sobol_generators(3, 4))):
        ctx = DiscrepancyContext.build(gen.subspace)
        target = float(l2_m_exact(ctx)) ** 0.5
        est = lq_norms_mc(m_sampler(ctx), 2 * ctx.n, [2.0], 100000, seed=8)[0]
        dev = abs(est.value - target) / est.stderr
        assert dev <= 3.0, (name, est.value, target, dev)
        devs.append(dev)
    _report(8, True,
            f"Monte Carlo second moment within 3 stderr of the exact oracle "
            f"(deviations {devs[0]:.2f}, {devs[1]:.2f} sigma)",
            time.time() - t0, 60.0)


def test_criterion_09_khinchin_constants():
    t0 = time.time()
    rng = np.random.default_rng(99)
    qs = [float(q) for q in range(2, 33)]
    worst = 0.0
    worst_q2_dev = 0.0
    for trial in range(50):
        m = int(rng.integers(1, 65))
        c = rng.standard_normal(m)
        while not np.any(c):
            c = rng.standard_normal(m)
        ests = khinchin_ratios(c, qs, 100000, seed=9000 + trial)
        for e in ests:
            assert e.ratio <= 1.1, (trial, e.q, e.ratio)
            worst = max(worst, e.ratio)
        at2 = ests[0]
        dev = abs(at2.ratio - 1 / math.sqrt(2)) / at2.stderr if at2.stderr else 0.0
        assert dev <= 3.0, (trial, at2.ratio, dev)
        worst_q2_dev = max(worst_q2_dev, dev)
    _report(9, True,
            f"digit-sign ratios <= 1.1 (max {worst:.3f}); q=2 value exact within "
            f"3 stderr (worst {worst_q2_dev:.2f} sigma)",
            time.time() - t0, 120.0)


def test_criterion_10_scaling_experiment():
    t0 = time.time()
    qs = (2.0, 4.0, 8.0)
    samples = 20000
    spreads = []
    for n in (2, 3):
        medians = {q: [] for q in qs}
        for s in range(4, 11):
            gen = van_der_corput_generators(s) if n == 2 else sobol_generators(3, s)
            per_q = {q: [] for q in qs}
            for r in range(8):
                shift = random_shift(n, s, seed=7919 * s + r)
                ctx = DiscrepancyContext.build(gen.subspace, shift)
                ests = lq_norms_mc(dn_sampler(ctx), n, qs, samples,
                                   seed=104729 * s + r)
                for e in ests:
                    per_q[e.q].append(normalized_ratio(e.value, e.q, s, n))
            for q in qs:
                medians[q].append(statistics.median(per_q[q]))
        for q in qs:
            spread = max(medians[q]) / min(medians[q])
            assert spread < 4.0, (n, q, medians[q])
            spreads.append(spread)
    # Moment growth of the truncated approximation at one fixed resolution.
    growth_ok = []
    for n, s in ((2, 6), (3, 4)):
        gen = van_der_corput_generators(s) if n == 2 else sobol_generators(3, s)
        ctx = DiscrepancyContext.build(gen.subspace)
        ests = lq_norms_mc(m_sampler(ctx), 2 * n, qs, 100000, seed=31)
        for lo, hi in zip(ests, ests[1:]):
            cap = (hi.q / lo.q) ** ((n + 1) / 2)
            ratio = (hi.value + 3 * hi.stderr) / max(lo.value - 3 * lo.stderr, 1e-12)
            assert ratio <= cap, (n, s, lo.q, hi.q, ratio, cap)
            growth_ok.append(ratio / cap)
    _report(10, True,
            f"normalized-ratio spread < 4 across resolutions "
            f"(max {max(spreads):.2f}); moment growth below the q profile "
            f"(max fill {max(growth_ok):.2f})",
            time.time() - t0, 600.0)


def test_criterion_11_determinism(cli, tmp_path):
    t0 = time.time()
    jobs = [
        ["gen", "--net", "sobol", "--n", "3", "--s", "6", "--shift-seed", "4"],
        ["gen", "--net", "sobol", "--n", "3", "--s", "6", "--count", "40"],
        ["certify", "--net", "sobol", "--n", "3", "--s", "5"],
        ["norms", "--net", "van-der-corput", "--s", "5", "--samples", "20000",
         "--q-grid", "2,8", "--seed", "2"],
        ["sweep", "--net", "van-der-corput", "--s-min", "4", "--s-max", "6",
         "--shifts", "3", "--samples", "5000", "--seed", "6"],
        ["verify", "--net", "van-der-corput", "--s", "3"],
    ]
    for k, args in enumerate(jobs):
        a = tmp_path / f"a{k}.out"
        b = tmp_path / f"b{k}.out"
        for path in (a, b):
            res = cli(args + ["--out", str(path)])
            assert (res.code, res.stdout, res.stderr) == (0, b"", ""), args
        assert a.read_bytes() == b.read_bytes(), args
    _report(11, True,
            "byte-identical reruns for every command",
            time.time() - t0, 120.0)
