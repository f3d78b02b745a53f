import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dyadnet.discrepancy import (
    DiscrepancyContext,
    RouteUnavailableError,
    _box_kernel,
    approximation_gap,
    delta_indicator,
    discrepancy_exact,
    lambda_group,
    m_direct,
    m_dual_sum,
)
from dyadnet.f2core import DyadicPoint, F2Subspace, iter_grid
from dyadnet.nets import (
    net_points,
    random_shift,
    sobol_generators,
    van_der_corput_generators,
)
from dyadnet.norms import dn_sampler
from dyadnet.walsh import fine_coefficient, rho_vector, walsh_1d
from oracles import walsh_nd


def brute_discrepancy(points, Y):
    """Naive double loop with plain comparisons."""
    count = 0
    for p in points:
        if all(float(c) < float(y) for c, y in zip(p, Y)):
            count += 1
    vol = 1.0
    for y in Y:
        vol *= float(y)
    return count - len(points) * vol


class TestDiscrepancyExact:
    def test_full_cube_is_zero(self):
        pts = net_points(van_der_corput_generators(3))
        assert discrepancy_exact(pts, (1, 1)) == 0

    def test_zero_volume_box(self):
        pts = net_points(van_der_corput_generators(3))
        assert discrepancy_exact(pts, (0, Fraction(1, 2))) == 0

    def test_against_brute_force(self):
        rng = random.Random(17)
        for seed in range(5):
            gen = van_der_corput_generators(4)
            pts = net_points(gen, random_shift(2, 4, seed))
            for _ in range(20):
                Y = (Fraction(rng.randint(0, 64), 64), Fraction(rng.randint(0, 64), 64))
                got = discrepancy_exact(pts, Y)
                assert abs(float(got) - brute_discrepancy(pts.points, Y)) < 1e-9

    def test_domain_check(self):
        pts = net_points(van_der_corput_generators(2))
        with pytest.raises(ValueError):
            discrepancy_exact(pts, (1.5, 0.5))

    @pytest.mark.parametrize("gen", [van_der_corput_generators(5), sobol_generators(3, 6),
                                     sobol_generators(4, 5)],
                             ids=lambda g: f"{g.name}-{g.n}-{g.s}")
    def test_box_counts_match_the_sampler_and_the_kernel(self, gen):
        # Queries k/2^(s+2) are exact in float64, and a quarter of their
        # coordinates fall on the net's grid, where an inclusive count differs.
        n, s = gen.n, gen.s
        g = s + 2
        rng = np.random.default_rng(100 * n + s)
        for seed in range(3):
            shift = random_shift(n, s, seed)
            pts = net_points(gen, shift)
            ctx = DiscrepancyContext.build(gen, shift)
            ks = rng.integers(0, (1 << g) + 1, size=(200, n))
            sampled = dn_sampler(pts)(ks / (1 << g))
            for k, value in zip(ks, sampled):
                Y = tuple(Fraction(int(v), 1 << g) for v in k)
                exact = discrepancy_exact(pts, Y)
                assert value == exact
                count, _ = _box_kernel(ctx, g, tuple(int(v) for v in k))
                assert count - ctx.cardinality * Fraction(math.prod(int(v) for v in k),
                                                          1 << (g * n)) == exact


def full_space_context(n, s):
    return DiscrepancyContext.build(F2Subspace.full(n, s))


class TestApproximationRoutes:
    def test_trivial_distribution_zero(self):
        ctx = full_space_context(2, 3)
        assert ctx.dual.dim == 0
        for Y in iter_grid(2, 3):
            assert m_dual_sum(ctx, Y) == 0
            assert m_direct(ctx, Y) == 0

    def test_zero_query(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3))
        assert m_dual_sum(ctx, DyadicPoint.zero(2, 3)) == 0
        assert m_direct(ctx, DyadicPoint.zero(2, 3)) == 0

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_route_equivalence_vdc(self, s):
        ctx = DiscrepancyContext.build(
            van_der_corput_generators(s), random_shift(2, s, seed=s)
        )
        for Y in iter_grid(2, s):
            assert m_direct(ctx, Y) == m_dual_sum(ctx, Y)

    def test_route_equivalence_off_grid(self):
        ctx = DiscrepancyContext.build(
            van_der_corput_generators(3), random_shift(2, 3, seed=5)
        )
        for Y in iter_grid(2, 5):
            assert m_direct(ctx, Y) == m_dual_sum(ctx, Y)

    def test_dual_route_formula(self):
        # Independent evaluation of the dual sum with library scalar parts.
        gen = van_der_corput_generators(3)
        t = random_shift(2, 3, seed=9)
        ctx = DiscrepancyContext.build(gen, t)
        tvals = t.point.values()
        for Y in list(iter_grid(2, 3))[::7]:
            acc = Fraction(0)
            for L in ctx.dual_points:
                if not any(L):
                    continue
                acc += walsh_nd(L, tvals) * Fraction(
                    fine_coefficient(L[0], Y.values()[0])
                ) * fine_coefficient(L[1], Y.values()[1])
            assert m_dual_sum(ctx, Y) == 8 * acc

    def test_kernel_matches_character_expansion(self):
        # One-coordinate truncated kernel: cell overlap equals the partial
        # character sum, for queries finer than the net grid.
        s, g = 3, 5
        for u in range(1 << g):
            y = Fraction(u, 1 << g)
            for t in range(1 << s):
                x = Fraction(t, 1 << s)
                overlap = max(min(y - x, Fraction(1, 1 << s)), 0) * (1 << s)
                partial = sum(
                    (fine_coefficient(l, y) * walsh_1d(l, x) for l in range(1 << s)),
                    Fraction(0),
                )
                assert overlap == partial

    def test_cap_raises(self):
        ctx = DiscrepancyContext.build(sobol_generators(3, 4), cap=8)
        with pytest.raises(RouteUnavailableError):
            m_dual_sum(ctx, DyadicPoint.zero(3, 4))

    def test_non_dyadic_rejected(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(2))
        with pytest.raises(ValueError):
            m_direct(ctx, (Fraction(1, 3), Fraction(1, 2)))

    def test_query_dimension_mismatch_rejected(self):
        ctx = DiscrepancyContext.build(sobol_generators(3, 3))
        short = [(Fraction(1, 2),), DyadicPoint.from_values([Fraction(1, 2)] * 2, 3)]
        for Y in short:
            for route in (m_direct, m_dual_sum):
                with pytest.raises(ValueError, match="query dimension mismatch"):
                    route(ctx, Y)
        with pytest.raises(ValueError, match="query dimension mismatch"):
            delta_indicator(ctx, (1, 1, 1), (Fraction(1, 2),))
        with pytest.raises(ValueError, match="query dimension mismatch"):
            delta_indicator(ctx, (1, 1, 1), DyadicPoint.zero(4, 3))

    def test_shift_sign_rejects_out_of_range_index(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3))
        for L in ((8, 0), (0, -1)):
            with pytest.raises(ValueError):
                ctx.shift_sign(L)


class TestApproximationGap:
    def test_one_dimensional_grid_distribution(self):
        ctx = full_space_context(1, 1)
        rep = approximation_gap(ctx)
        assert rep.bound == 1
        assert rep.within_bound

    def test_vdc_shifted_exhaustive(self):
        gen = van_der_corput_generators(4)
        rep = approximation_gap(
            DiscrepancyContext.build(gen, random_shift(2, 4, seed=21))
        )
        assert rep.bound == 2
        assert rep.within_bound
        assert rep.points_checked == 1 << 12

    def test_sobol_positive_deficiency(self):
        gen = sobol_generators(3, 3)
        ctx = DiscrepancyContext.build(gen, random_shift(3, 3, seed=3))
        rep = approximation_gap(ctx)
        assert rep.bound == 3 * (1 << ctx.quality.deficiency)
        assert rep.within_bound


class TestLambdaGroups:
    def test_partition(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3))
        groups = ctx.groups()
        assert sum(len(v) for v in groups.values()) == len(ctx.dual_points)
        for rho_bar, members in groups.items():
            for L in members:
                assert rho_vector(L) == rho_bar

    def test_zero_vector_group(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3))
        grp = lambda_group(ctx, (0, 0))
        assert grp.members == ((0, 0),)
        assert grp.lambda0 == ((0, 0),)

    def test_cardinality_bound_small_nets(self):
        for gen in (van_der_corput_generators(3), van_der_corput_generators(4),
                    sobol_generators(3, 3), sobol_generators(3, 4)):
            ctx = DiscrepancyContext.build(gen)
            for rho_bar, members in ctx.groups().items():
                if not any(any(L) for L in members):
                    continue
                grp = lambda_group(ctx, rho_bar)
                assert grp.cardinality_bound_ok is True
                assert grp.representative == min(members)

    def test_lambda0_is_subgroup_and_translate(self):
        ctx = DiscrepancyContext.build(sobol_generators(3, 3))
        dual_set = set(ctx.dual_points)
        for rho_bar, members in ctx.groups().items():
            grp = lambda_group(ctx, rho_bar)
            lam0 = set(grp.lambda0)
            # Subgroup: closed under coordinatewise XOR.
            for a in lam0:
                for b in lam0:
                    assert tuple(x ^ y for x, y in zip(a, b)) in lam0
            # Affine translate: members = representative + lambda0.
            if grp.representative is not None and any(any(L) for L in members):
                rep = grp.representative
                translate = {
                    tuple(x ^ y for x, y in zip(rep, L)) for L in grp.members
                }
                assert translate == lam0

    def test_range_validation(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3))
        with pytest.raises(ValueError):
            lambda_group(ctx, (5, 0))
        with pytest.raises(ValueError):
            lambda_group(ctx, (1,))
        # delta_indicator validates the position vector the same way.
        for bad in ((1,), (9, 0), (1, 2, 3)):
            with pytest.raises(ValueError):
                delta_indicator(ctx, bad, (Fraction(1, 2), Fraction(1, 4)))


class TestDeltaIndicator:
    def test_zero_query_counts_subgroup(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3))
        for rho_bar, members in ctx.groups().items():
            if not any(any(L) for L in members):
                continue
            grp = lambda_group(ctx, rho_bar)
            val = delta_indicator(ctx, rho_bar, DyadicPoint.zero(2, 3))
            assert val == grp.lambda0_count

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_two_valued_and_unit_average(self, s):
        ctx = DiscrepancyContext.build(van_der_corput_generators(s))
        grid = list(iter_grid(2, s))
        for rho_bar, members in sorted(ctx.groups().items()):
            if not any(any(L) for L in members):
                continue
            grp = lambda_group(ctx, rho_bar)
            total = 0
            for Y in grid:
                val = delta_indicator(ctx, rho_bar, Y)
                assert val in (0, grp.lambda0_count)
                total += val
            assert Fraction(total, len(grid)) == 1

    def test_truncation_of_fine_queries(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3))
        rho_bar = next(
            rb for rb, ms in ctx.groups().items() if any(any(L) for L in ms)
        )
        for Y in list(iter_grid(2, 5))[:64]:
            coarse = Y.truncate(3)
            assert delta_indicator(ctx, rho_bar, Y) == delta_indicator(
                ctx, rho_bar, coarse
            )

    def test_representative_factorization(self):
        ctx = DiscrepancyContext.build(sobol_generators(3, 3))
        for rho_bar, members in ctx.groups().items():
            if not any(any(L) for L in members):
                continue
            grp = lambda_group(ctx, rho_bar)
            for Y in list(iter_grid(3, 3))[::17]:
                lhs = sum(walsh_nd(L, Y) for L in members)
                rep = walsh_nd(grp.representative, Y)
                assert lhs == rep * delta_indicator(ctx, rho_bar, Y)


class TestPoissonSummation:
    @pytest.mark.parametrize("n,s", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
    def test_exhaustive(self, n, s):
        gen = van_der_corput_generators(s) if n == 2 else sobol_generators(n, s)
        ctx = DiscrepancyContext.build(gen)
        dual_set = set(ctx.dual_points)
        dual_packed = set(ctx.dual.enumerate_packed())
        net = [tuple(p.words) for p in ctx.subspace.enumerate_points()]
        card = ctx.cardinality
        for L in iter_grid(n, s):
            total = sum(walsh_nd(L.words, DyadicPoint(X, s)) for X in net)
            assert total == (card if L.words in dual_set else 0)
        for X in iter_grid(n, s):
            total = sum(walsh_nd(L, X) for L in net)
            assert total == (card if X.pack() in dual_packed else 0)


class TestDecoupling:
    def test_grid_sum_invariant_under_translation(self):
        # XOR translation permutes the grid, so exact grid sums agree.
        ctx = DiscrepancyContext.build(
            van_der_corput_generators(3), random_shift(2, 3, seed=1)
        )
        rng = random.Random(2)
        Z = DyadicPoint(tuple(rng.getrandbits(3) for _ in range(2)), 3)
        plain = sum(m_dual_sum(ctx, Y) for Y in iter_grid(2, 3))
        moved = sum(m_dual_sum(ctx, Y ^ Z) for Y in iter_grid(2, 3))
        assert plain == moved


class TestNegativeControls:
    def test_corrupted_dual_breaks_route_equality(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3))
        bad = list(ctx.dual_points)
        bad[1] = (1, 1) if bad[1] != (1, 1) else (2, 1)
        corrupted = ctx.with_dual_points(tuple(dict.fromkeys(bad)))
        mismatches = sum(
            m_direct(corrupted, Y) != m_dual_sum(corrupted, Y)
            for Y in iter_grid(2, 3)
        )
        assert mismatches > 0
