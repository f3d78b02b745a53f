import math
from fractions import Fraction

import numpy as np
import pytest

from dyadnet import discrepancy
from dyadnet.discrepancy import DiscrepancyContext, RouteUnavailableError
from dyadnet.nets import (
    DigitShift,
    load_generators,
    net_points,
    random_shift,
    sobol_generators,
    van_der_corput_generators,
)
from dyadnet.norms import (
    DEFAULT_Q_GRID,
    dn_sampler,
    exp_orlicz_estimate,
    l2_m_exact,
    lq_norms_mc,
    m_sampler,
    normalized_ratio,
    q_grid,
)
from experiments import hyperbolic_lp_ratios, khinchin_ratios
from oracles import (
    discrepancy_exact,
    dn_points_sampler,
    dual_words,
    full_subspace,
    hyperbolic_indices,
    m_direct,
    m_dual_sum,
)


class TestLqNormMc:
    def test_dyadic_constant_is_exact(self):
        est = lq_norms_mc(lambda u: np.full(u.shape[0], 0.5), 1, [2.0], 5000, seed=0)[0]
        assert est.value == 0.5
        assert est.stderr == 0.0

    def test_unimodular_sign(self):
        def f(u):
            return np.where(u[:, 0] < 0.5, 1.0, -1.0)

        for q in (1.0, 3.0, 7.0):
            est = lq_norms_mc(f, 1, [q], 4000, seed=1)[0]
            assert est.value == 1.0

    def test_identity_second_moment(self):
        est = lq_norms_mc(lambda u: u[:, 0], 1, [2.0], 100000, seed=2)[0]
        assert abs(est.value - 1 / math.sqrt(3)) <= 3 * est.stderr

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            lq_norms_mc(lambda u: u[:, 0], 1, [2.0], 0, seed=0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            q_grid([2.0, 1.0])
        with pytest.raises(ValueError):
            q_grid([0.5])
        with pytest.raises(ValueError):
            q_grid([])
        for bad in ([math.nan], [2.0, math.inf], [math.inf]):
            with pytest.raises(ValueError, match="finite"):
                q_grid(bad)
        assert q_grid(DEFAULT_Q_GRID) == DEFAULT_Q_GRID

    def test_non_finite_moment_names_the_exponent(self):
        big = lambda u: np.full(u.shape[0], 1e10)
        assert lq_norms_mc(big, 1, [1.0, 15.0], 64, seed=0)[1].value == pytest.approx(1e10)
        with pytest.raises(OverflowError, match="q=16.0"):
            lq_norms_mc(big, 1, [1.0, 16.0], 64, seed=0)  # (1e10)^32 overflows
        nan = lambda u: np.full(u.shape[0], np.nan)
        with pytest.raises(OverflowError, match="q=1.0"):
            lq_norms_mc(nan, 1, [1.0], 64, seed=0)

    def test_power_mean_monotone(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(5).subspace,
                                       random_shift(2, 5, 3))
        ests = lq_norms_mc(dn_sampler(ctx), 2, (1.0, 2.0, 4.0, 8.0), 20000, seed=4)
        for lo, hi in zip(ests, ests[1:]):
            assert hi.value >= lo.value - 3 * (lo.stderr + hi.stderr)

    def test_seeded_reproducibility(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(4).subspace,
                                       random_shift(2, 4, 1))
        a = lq_norms_mc(dn_sampler(ctx), 2, (2.0, 8.0), 20000, seed=9)
        b = lq_norms_mc(dn_sampler(ctx), 2, (2.0, 8.0), 20000, seed=9)
        assert [(e.value, e.stderr) for e in a] == [(e.value, e.stderr) for e in b]
        c = lq_norms_mc(dn_sampler(ctx), 2, (2.0, 8.0), 20000, seed=10)
        assert a[0].value != c[0].value

    def test_stratified_reduces_variance_on_smooth_target(self):
        f = lambda u: u[:, 0]
        plain = [
            lq_norms_mc(f, 1, [1.0], 4096, seed=s)[0].value for s in range(20)
        ]
        strat = [
            lq_norms_mc(f, 1, [1.0], 4096, seed=s, stratified=True)[0].value
            for s in range(20)
        ]
        spread = lambda xs: max(xs) - min(xs)
        assert spread(strat) < spread(plain)


# Every builtin net with n * s <= 12, and Sobol (3,13), whose 8192
# points are two of the oracle's chunks.
DN_NETS = [
    *(("van-der-corput", 2, s) for s in range(1, 7)),
    *(("sobol", n, s) for n in range(1, 11) for s in range(1, 12 // n + 1)),
    ("sobol", 3, 13),
]


class TestDnSampler:
    def test_counts_on_8192_points_match_the_exact_count(self):
        # Queries k/2^15 are exact in float64, and so is the sampler's
        # value at them.
        gen, shift = sobol_generators(3, 13), random_shift(3, 13, 2)
        pts = net_points(gen, shift)
        ctx = DiscrepancyContext.build(gen.subspace, shift)
        assert ctx.cardinality == 8192
        ks = np.random.default_rng(13).integers(0, (1 << 15) + 1, size=(24, 3))
        ks[0] = 1 << 15  # the whole cube holds every point
        values = dn_sampler(ctx)(ks / (1 << 15))
        for k, value in zip(ks, values):
            assert value == discrepancy_exact(pts, [Fraction(int(v), 1 << 15) for v in k])
        assert values[0] == 0

    @pytest.mark.parametrize("net, n, s", DN_NETS)
    def test_context_words_match_the_point_set_oracle(self, net, n, s):
        # Uniform queries, then queries on a grid one digit finer than the
        # net, where half the coordinates sit on a point's coordinate.
        gen = load_generators(net, n, s)
        rng = np.random.default_rng(1000 * n + s)
        grid = 1 << (s + 1)
        ys = np.vstack([rng.random((256, n)),
                        rng.integers(0, grid + 1, size=(256, n)) / grid])
        for seed in (0, 1):
            shift = random_shift(n, s, seed)
            got = dn_sampler(DiscrepancyContext.build(gen.subspace, shift))(ys)
            want = dn_points_sampler(net_points(gen, shift))(ys)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("net, n, s", DN_NETS)
    def test_m_at_grid_queries_and_the_context_shift_is_dn(self, net, n, s):
        # At y = k/2^s the ramp clip(k - w, 0, 1) is the step [k > w], and
        # the shift columns (t_j + 1/2)/2^s floor to the context's shift.
        gen = load_generators(net, n, s)
        rng = np.random.default_rng(1000 * n + s)
        ks = np.vstack([np.zeros(n, dtype=np.int64), np.full(n, 1 << s),
                        rng.integers(0, (1 << s) + 1, size=(254, n))])
        y = ks / (1 << s)
        for seed in (0, 1):
            ctx = DiscrepancyContext.build(gen.subspace, random_shift(n, s, seed))
            t = np.broadcast_to((np.array(ctx.shift) + 0.5) / (1 << s), y.shape)
            assert np.array_equal(m_sampler(ctx)(np.hstack([y, t])), dn_sampler(ctx)(y))


class TestExactSecondMoment:
    def test_trivial_distribution(self):
        ctx = DiscrepancyContext.build(full_subspace(2, 3))
        assert l2_m_exact(ctx) == 0

    def test_value_vdc_s3(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3).subspace)
        exact = l2_m_exact(ctx)
        # Independent recomputation from the dual inventory.
        acc = Fraction(0)
        for L in dual_words(ctx):
            if any(L):
                rho = sum(l.bit_length() for l in L)
                acc += Fraction(1, 4**rho)
        assert exact == Fraction(64, 9) * acc

    def test_term_monotonicity(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3).subspace)
        partial = Fraction(0)
        full = l2_m_exact(ctx)
        for L in dual_words(ctx):
            if any(L):
                rho = sum(l.bit_length() for l in L)
                term = Fraction(ctx.cardinality**2, 3**ctx.n) * Fraction(1, 4**rho)
                assert term > 0
                partial += term
        assert partial == full

    @pytest.mark.parametrize("gen", [van_der_corput_generators(3), sobol_generators(3, 3)])
    def test_monte_carlo_cross_check(self, gen):
        ctx = DiscrepancyContext.build(gen.subspace)
        target = float(l2_m_exact(ctx)) ** 0.5
        est = lq_norms_mc(m_sampler(ctx), 2 * ctx.n, [2.0], 60000, seed=12)[0]
        assert abs(est.value - target) <= 3 * est.stderr


def _dual_l2(ctx):
    """The squared L^2 norm of M summed over the enumerated nonzero dual."""
    acc = Fraction(0)
    for L in dual_words(ctx):
        if any(L):
            acc += Fraction(1, 4 ** sum(l.bit_length() for l in L))
    return Fraction(ctx.cardinality**2, 3**ctx.n) * acc


class TestNetSideOracle:
    @pytest.mark.parametrize("source", [
        *(sobol_generators(n, s).subspace for n in (2, 3, 4) for s in range(1, 6)),
        full_subspace(2, 3),
    ])
    def test_closed_form_equals_dual_sum(self, source):
        ctx = DiscrepancyContext.build(source)
        assert l2_m_exact(ctx) == _dual_l2(ctx)

    def test_context_shift_does_not_enter(self):
        # The sampler draws the shift and the oracle averages over it.
        gen = sobol_generators(3, 4)
        plain = DiscrepancyContext.build(gen.subspace)
        u = np.random.default_rng(2).random((128, 6))
        for seed in range(4):
            shifted = DiscrepancyContext.build(gen.subspace, random_shift(3, 4, seed))
            assert l2_m_exact(shifted) == l2_m_exact(plain)
            assert np.array_equal(m_sampler(shifted)(u), m_sampler(plain)(u))

    def test_net_side_routes_leave_the_dual_unenumerated(self):
        ctx = DiscrepancyContext.build(sobol_generators(3, 5).subspace)
        m_sampler(ctx)(np.random.default_rng(0).random((256, 6)))
        l2_m_exact(ctx)
        assert "packed_dual" not in vars(ctx)
        assert len(ctx.packed_dual) == 1 << 10
        assert "packed_dual" in vars(ctx)

    def test_net_side_routes_leave_the_certificate_and_dual_uncomputed(self):
        ctx = DiscrepancyContext.build(sobol_generators(3, 5).subspace,
                                       random_shift(3, 5, 1))
        m_sampler(ctx)(np.random.default_rng(0).random((256, 6)))
        dn_sampler(ctx)(np.random.default_rng(1).random((256, 3)))
        l2_m_exact(ctx)
        assert not {"deficiency", "packed_dual"} & set(vars(ctx))
        assert "packed_net" in vars(ctx)

    def test_above_the_cap(self, monkeypatch):
        monkeypatch.setattr(discrepancy, "ENUM_CAP", 8)
        ctx = DiscrepancyContext.build(sobol_generators(3, 4).subspace)
        for name in ("packed_dual", "groups"):
            with pytest.raises(RouteUnavailableError, match="above the enumeration cap"):
                getattr(ctx, name)
        # A cached property that raises stores nothing: no dual was listed.
        assert not {"packed_dual", "groups"} & set(vars(ctx))
        u = np.random.default_rng(1).random((128, 6))
        capped = l2_m_exact(ctx), m_sampler(ctx)(u)
        monkeypatch.undo()
        full = DiscrepancyContext.build(sobol_generators(3, 4).subspace)
        assert capped[0] == l2_m_exact(full)
        assert np.array_equal(capped[1], m_sampler(full)(u))


def _sampler_nets():
    nets = [("van-der-corput", 2, s) for s in range(3, 7)]
    # Sobol n = 2..4 with s <= 6, where the dual oracle has at most 2^12 elements.
    nets += [("sobol", n, s) for n in (2, 3, 4) for s in range(2, 7)
             if (n - 1) * s <= 12]
    return nets


class TestNetSideSampler:
    @pytest.mark.parametrize("net, n, s", _sampler_nets())
    def test_matches_the_exact_dual_route(self, net, n, s):
        gen = load_generators(net, n, s)
        rng = np.random.default_rng(1000 * n + s)
        k = rng.integers(0, 1 << (s + 2), size=(6, n))
        ut = rng.random((6, n))
        values = m_sampler(DiscrepancyContext.build(gen.subspace))(
            np.hstack([k / (1 << (s + 2)), ut]))
        for ki, ti, value in zip(k, ut, values):
            t = tuple(min(int(x * (1 << s)), (1 << s) - 1) for x in ti)
            ctx_t = DiscrepancyContext.build(gen.subspace, DigitShift(t, s))
            Y = tuple(Fraction(int(v), 1 << (s + 2)) for v in ki)
            exact = m_dual_sum(ctx_t, Y)
            assert m_direct(ctx_t, Y) == exact
            assert abs(value - float(exact)) <= 1e-12 * max(1.0, abs(value))


class TestExpOrlicz:
    def test_constant_function(self):
        ests = lq_norms_mc(lambda u: np.full(u.shape[0], 0.25), 1,
                           (1.0, 2.0, 4.0), 1000, seed=0)
        for theta in (0.5, 1.5, 3.0):
            orl = exp_orlicz_estimate(ests, theta=theta)
            assert orl.value == 0.25
            assert orl.at_q == 1.0

    def test_grid_restriction_is_lower_bound(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(4).subspace,
                                       random_shift(2, 4, 5))
        coarse = lq_norms_mc(dn_sampler(ctx), 2, (1.0, 4.0), 30000, seed=3)
        fine = lq_norms_mc(dn_sampler(ctx), 2, (1.0, 2.0, 4.0), 30000, seed=3)
        theta = 1.5
        assert (
            exp_orlicz_estimate(coarse, theta=theta).value
            <= exp_orlicz_estimate(fine, theta=theta).value
        )

    @pytest.mark.parametrize("theta", [0.0, -1.0, math.nan, math.inf])
    def test_theta_must_be_finite_and_positive(self, theta):
        ests = lq_norms_mc(lambda u: np.full(u.shape[0], 0.25), 1, (1.0, 2.0), 100, seed=0)
        with pytest.raises(ValueError, match="theta"):
            exp_orlicz_estimate(ests, theta=theta)


class TestKhinchin:
    def test_single_coefficient_exact(self):
        for q in (2.0, 8.0, 32.0):
            est = khinchin_ratios([3.0], [q], 2000, seed=0)[0]
            assert est.ratio == pytest.approx(1 / math.sqrt(q), abs=1e-12)
            # Constant |f|; only cancellation residue can appear.
            assert est.stderr <= 1e-9 * est.ratio

    def test_q2_parseval(self):
        est = khinchin_ratios([1.0, -2.0, 0.5, 4.0], [2.0], 100000, seed=1)[0]
        assert abs(est.ratio - 1 / math.sqrt(2)) <= 3 * est.stderr

    def test_bounded_across_sign_vectors(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            m = int(rng.integers(2, 64))
            c = rng.choice([-1.0, 1.0], size=m)
            for est in khinchin_ratios(c, (2.0, 8.0, 16.0, 32.0), 20000, seed=trial):
                assert est.ratio <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            khinchin_ratios([0.0, 0.0], [2.0], 100, seed=0)
        with pytest.raises(ValueError):
            khinchin_ratios([1.0], [1.0], 100, seed=0)
        with pytest.raises(ValueError, match="q >= 2"):
            khinchin_ratios([1.0], [1.0, 2.0], 100, seed=0)


class TestHyperbolic:
    def test_index_enumeration(self):
        assert hyperbolic_indices(2, 4) == [(1, 3), (2, 2), (3, 1)]
        assert len(hyperbolic_indices(3, 6)) == 10
        with pytest.raises(ValueError):
            hyperbolic_indices(3, 2)

    def test_single_index_is_unimodular(self):
        est = hyperbolic_lp_ratios({(2, 3): 1.5}, (0, 0), [4.0], 5000, seed=0)[0]
        assert est.ratio == pytest.approx(4.0 ** -0.5, abs=1e-12)

    def test_q2_parseval(self):
        idx = hyperbolic_indices(2, 5)
        coeffs = {i: 1.0 + 0.25 * k for k, i in enumerate(idx)}
        est = hyperbolic_lp_ratios(coeffs, (1, 2), [2.0], 100000, seed=2)[0]
        assert abs(est.ratio - 2.0 ** -0.5) <= 3 * est.stderr

    def test_all_ones_lower_bound(self):
        # The cube where every sign is positive gives a rigorous floor.
        for k in (4, 6):
            idx = hyperbolic_indices(2, k)
            coeffs = {i: 1.0 for i in idx}
            est = hyperbolic_lp_ratios(coeffs, (0, 0), [float(k)], 200000, seed=3)[0]
            value = est.ratio * (k ** ((2 - 1) / 2)) * math.sqrt(len(idx))
            floor = len(idx) * 2.0**-2
            assert value >= floor - 3 * est.stderr * (k ** 0.5) * math.sqrt(len(idx))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            hyperbolic_lp_ratios({}, (0, 0), [2.0], 100, seed=0)
        with pytest.raises(ValueError):
            hyperbolic_lp_ratios({(1, 2): 1.0, (2, 2): 1.0}, (0, 0), [2.0], 100, seed=0)
        with pytest.raises(ValueError):
            hyperbolic_lp_ratios({(0, 3): 1.0}, (0, 0), [2.0], 100, seed=0)


class TestNormalizedRatio:
    def test_profile(self):
        assert normalized_ratio(8.0, 4.0, 4, 2) == 8.0 / (4.0**1.5 * 2.0)
