import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dyadnet import discrepancy
from dyadnet.discrepancy import (
    DiscrepancyContext,
    RouteUnavailableError,
    approximation_gap,
)
from dyadnet.f2core import _index, _rank, _unpack
from dyadnet.nets import (
    SOBOL_MAX_DIM,
    _leading_digits_mask,
    certify_deficiency,
    load_generators,
    net_points,
    random_shift,
    sobol_generators,
    van_der_corput_generators,
)
from dyadnet.norms import dn_sampler
from dyadnet.verify import check_route_equivalence
from oracles import (
    DyadicPoint,
    box_kernel,
    delta_indicator,
    discrepancy_exact,
    dual_words,
    fine_coefficient,
    full_subspace,
    iter_grid,
    lambda_group_walk,
    m_direct,
    m_dual_sum,
    truncate,
    walsh_1d,
    walsh_nd,
    with_dual_points,
)


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

    @pytest.mark.parametrize("net, n, s", [("van-der-corput", 2, 5), ("sobol", 3, 6),
                                           ("sobol", 4, 5)])
    def test_box_counts_match_the_sampler_and_the_kernel(self, net, n, s):
        # Queries k/2^(s+2) are exact in float64, and a quarter of their
        # coordinates fall on the net's grid, where an inclusive count differs.
        gen = load_generators(net, n, s)
        g = s + 2
        rng = np.random.default_rng(100 * n + s)
        for seed in range(3):
            shift = random_shift(n, s, seed)
            pts = net_points(gen, shift)
            ctx = DiscrepancyContext.build(gen.subspace, shift)
            ks = rng.integers(0, (1 << g) + 1, size=(200, n))
            sampled = dn_sampler(ctx)(ks / (1 << g))
            for k, value in zip(ks, sampled):
                Y = tuple(Fraction(int(v), 1 << g) for v in k)
                exact = discrepancy_exact(pts, Y)
                assert value == exact
                count, _ = box_kernel(ctx, g, tuple(int(v) for v in k))
                assert count - ctx.cardinality * Fraction(math.prod(int(v) for v in k),
                                                          1 << (g * n)) == exact


def full_space_context(n, s):
    return DiscrepancyContext.build(full_subspace(n, s))


class TestApproximationRoutes:
    def test_trivial_distribution_zero(self):
        ctx = full_space_context(2, 3)
        assert ctx.subspace.dual().dim == 0
        for Y in iter_grid(2, 3):
            assert m_dual_sum(ctx, Y) == 0
            assert m_direct(ctx, Y) == 0

    def test_zero_query(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3).subspace)
        assert m_dual_sum(ctx, DyadicPoint.zero(2, 3)) == 0
        assert m_direct(ctx, DyadicPoint.zero(2, 3)) == 0

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_route_equivalence_vdc(self, s):
        ctx = DiscrepancyContext.build(
            van_der_corput_generators(s).subspace, random_shift(2, s, seed=s)
        )
        for Y in iter_grid(2, s):
            assert m_direct(ctx, Y) == m_dual_sum(ctx, Y)

    def test_route_equivalence_off_grid(self):
        ctx = DiscrepancyContext.build(
            van_der_corput_generators(3).subspace, random_shift(2, 3, seed=5)
        )
        for Y in iter_grid(2, 5):
            assert m_direct(ctx, Y) == m_dual_sum(ctx, Y)

    def test_dual_route_formula(self):
        # Independent evaluation of the dual sum with library scalar parts.
        gen = van_der_corput_generators(3)
        t = random_shift(2, 3, seed=9)
        ctx = DiscrepancyContext.build(gen.subspace, t)
        tvals = DyadicPoint(t.words, t.s).values()
        for Y in list(iter_grid(2, 3))[::7]:
            acc = Fraction(0)
            for L in dual_words(ctx):
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

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setattr(discrepancy, "ENUM_CAP", 8)
        ctx = DiscrepancyContext.build(sobol_generators(3, 4).subspace)
        with pytest.raises(RouteUnavailableError):
            m_dual_sum(ctx, DyadicPoint.zero(3, 4))

    def test_non_dyadic_rejected(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(2).subspace)
        with pytest.raises(ValueError):
            m_direct(ctx, (Fraction(1, 3), Fraction(1, 2)))

    def test_query_dimension_mismatch_rejected(self):
        ctx = DiscrepancyContext.build(sobol_generators(3, 3).subspace)
        short = [(Fraction(1, 2),), DyadicPoint.from_values([Fraction(1, 2)] * 2, 3)]
        for Y in short:
            for route in (m_direct, m_dual_sum):
                with pytest.raises(ValueError, match="query dimension mismatch"):
                    route(ctx, Y)
        with pytest.raises(ValueError, match="query dimension mismatch"):
            delta_indicator(ctx, (1, 1, 1), (Fraction(1, 2),))
        with pytest.raises(ValueError, match="query dimension mismatch"):
            delta_indicator(ctx, (1, 1, 1), DyadicPoint.zero(4, 3))

    def test_build_takes_a_digit_shift_or_none(self):
        gen = van_der_corput_generators(3)
        assert DiscrepancyContext.build(gen.subspace).shift == (0, 0)
        t = random_shift(2, 3, seed=9)
        ctx = DiscrepancyContext.build(gen.subspace, t)
        assert ctx.shift == t.words
        # The net is listed unshifted; only its point counts apply the shift.
        assert set(ctx.packed_net) == {_index(p, 8) for p in gen.point_words}
        for other in (t.words, DyadicPoint(t.words, 3)):
            with pytest.raises(TypeError, match="DigitShift"):
                DiscrepancyContext.build(gen.subspace, other)
        with pytest.raises(ValueError, match="shift grid"):
            DiscrepancyContext.build(gen.subspace, random_shift(2, 4, seed=9))

    def test_build_stores_only_its_input(self):
        gen = sobol_generators(3, 4)
        ctx = DiscrepancyContext.build(gen.subspace, random_shift(3, 4, seed=2))
        assert set(vars(ctx)) == {"subspace", "shift"}
        assert (ctx.n, ctx.s, ctx.cardinality) == (3, 4, 16)
        assert ctx.deficiency == certify_deficiency(gen.subspace)
        assert len(ctx.packed_dual) == ctx.subspace.dual().cardinality

    def test_net_is_listed_once_in_enumeration_order(self):
        sub = sobol_generators(3, 5).subspace
        plain = DiscrepancyContext.build(sub)
        shifted = DiscrepancyContext.build(sub, random_shift(3, 5, seed=4))
        assert plain.packed_net == tuple(sub.enumerate_packed())
        assert shifted.packed_net == plain.packed_net
        assert "packed_net" in vars(shifted)


class TestApproximationGap:
    def test_one_dimensional_grid_distribution(self):
        ctx = full_space_context(1, 1)
        rep = approximation_gap(ctx)
        assert rep.bound == 1
        assert rep.within_bound

    def test_vdc_shifted_exhaustive(self):
        gen = van_der_corput_generators(4)
        rep = approximation_gap(
            DiscrepancyContext.build(gen.subspace, random_shift(2, 4, seed=21))
        )
        assert rep.bound == 2
        assert rep.within_bound
        assert rep.points_checked == 1 << 12

    def test_sobol_positive_deficiency(self):
        gen = sobol_generators(3, 3)
        ctx = DiscrepancyContext.build(gen.subspace, random_shift(3, 3, seed=3))
        rep = approximation_gap(ctx)
        assert rep.bound == 3 * (1 << ctx.deficiency)
        assert rep.within_bound


# Every builtin net with ns <= 12: van der Corput s = 1..6 and Sobol in
# each supported dimension.
BUILTIN_NETS = ([("van-der-corput", 2, s) for s in range(1, 7)]
                + [("sobol", n, s) for n in range(1, SOBOL_MAX_DIM + 1)
                   for s in range(1, 12 // n + 1)])


class TestPackedDual:
    @pytest.mark.parametrize("net, n, s", [("van-der-corput", 2, 3), ("sobol", 3, 3)])
    def test_one_listing_in_enumeration_order(self, net, n, s):
        ctx = DiscrepancyContext.build(load_generators(net, n, s).subspace,
                                       random_shift(n, s, 4))
        assert check_route_equivalence(ctx).passed
        assert ctx.packed_dual == tuple(ctx.subspace.dual().enumerate_packed())
        # The shift signs each index where the dual table is built.
        assert "dual_signs" not in vars(ctx)
        # The groups partition the listing, each group in dual order.
        groups = ctx.groups
        assert sorted(p for ms in groups.values() for p in ms) == sorted(ctx.packed_dual)
        for members in groups.values():
            kept = set(members)
            assert members == tuple(p for p in ctx.packed_dual if p in kept)


class TestLambdaGroups:
    @pytest.mark.parametrize("seed", [None, 1], ids=lambda t: f"shift-{t}")
    @pytest.mark.parametrize("net, n, s", BUILTIN_NETS)
    def test_size_is_the_rank_identity(self, net, n, s, seed):
        # Lambda0 is the dual inside the box of shape d, the annihilator of
        # the net's leading d_j digits, so it has 2^(|d| - rank_d) words.
        ctx = DiscrepancyContext.build(load_generators(net, n, s).subspace,
                                       None if seed is None else random_shift(n, s, seed))
        for rho_bar, members in ctx.groups.items():
            if not any(members):
                continue
            d = [max(r - 1, 0) for r in rho_bar]
            rank = _rank(b & _leading_digits_mask(d, s) for b in ctx.subspace.basis)
            assert len(lambda_group_walk(ctx, rho_bar)) == 1 << (sum(d) - rank), rho_bar

    def test_groups_are_cached_and_recomputed_on_copies(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3).subspace)
        assert ctx.groups is ctx.groups
        assert "groups" in vars(ctx)
        kept = [L for L in dual_words(ctx) if L != (7, 7)]
        copy = with_dual_points(ctx, kept)
        assert "groups" not in vars(copy)
        assert sorted(ctx.groups[(3, 3)]) == [_index((5, 5), 8), _index((7, 7), 8)]
        assert copy.groups[(3, 3)] == (_index((5, 5), 8),)
        assert sum(map(len, copy.groups.values())) == len(kept)

    def test_partition(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3).subspace)
        groups = ctx.groups
        assert sum(len(v) for v in groups.values()) == len(ctx.packed_dual)
        for rho_bar, members in groups.items():
            for p in members:
                assert tuple(w.bit_length() for w in _unpack(p, 2, 3)) == rho_bar

    def test_zero_vector_group(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3).subspace)
        assert ctx.groups[(0, 0)] == (0,)
        assert lambda_group_walk(ctx, (0, 0)) == (0,)

    def test_cardinality_bound_small_nets(self):
        for gen in (van_der_corput_generators(3), van_der_corput_generators(4),
                    sobol_generators(3, 3), sobol_generators(3, 4)):
            ctx = DiscrepancyContext.build(gen.subspace)
            for rho_bar, members in ctx.groups.items():
                if not any(members):
                    continue
                exponent = sum(rho_bar) - ctx.s + ctx.deficiency
                assert exponent >= 0
                assert len(lambda_group_walk(ctx, rho_bar)) <= 2 ** exponent

    def test_lambda0_is_subgroup_and_translate(self):
        ctx = DiscrepancyContext.build(sobol_generators(3, 3).subspace)
        for rho_bar, members in ctx.groups.items():
            lam0 = set(lambda_group_walk(ctx, rho_bar))
            # Subgroup: closed under XOR of packed words.
            for a in lam0:
                for b in lam0:
                    assert a ^ b in lam0
            # Affine translate: members = representative + lambda0.
            if any(members):
                translate = {min(members) ^ p for p in members}
                assert translate == lam0

    def test_range_validation(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3).subspace)
        with pytest.raises(ValueError):
            lambda_group_walk(ctx, (5, 0))
        with pytest.raises(ValueError):
            lambda_group_walk(ctx, (1,))
        # delta_indicator validates the position vector the same way.
        for bad in ((1,), (9, 0), (1, 2, 3)):
            with pytest.raises(ValueError):
                delta_indicator(ctx, bad, (Fraction(1, 2), Fraction(1, 4)))


class TestDeltaIndicator:
    def test_zero_query_counts_subgroup(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3).subspace)
        for rho_bar, members in ctx.groups.items():
            if not any(members):
                continue
            val = delta_indicator(ctx, rho_bar, DyadicPoint.zero(2, 3))
            assert val == len(lambda_group_walk(ctx, rho_bar))

    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_two_valued_and_unit_average(self, s):
        ctx = DiscrepancyContext.build(van_der_corput_generators(s).subspace)
        grid = list(iter_grid(2, s))
        for rho_bar, members in sorted(ctx.groups.items()):
            if not any(members):
                continue
            count = len(lambda_group_walk(ctx, rho_bar))
            total = 0
            for Y in grid:
                val = delta_indicator(ctx, rho_bar, Y)
                assert val in (0, count)
                total += val
            assert Fraction(total, len(grid)) == 1

    def test_truncation_of_fine_queries(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3).subspace)
        rho_bar = next(
            rb for rb, ms in ctx.groups.items() if any(ms)
        )
        for Y in list(iter_grid(2, 5))[:64]:
            coarse = truncate(Y, 3)
            assert delta_indicator(ctx, rho_bar, Y) == delta_indicator(
                ctx, rho_bar, coarse
            )

    def test_representative_factorization(self):
        ctx = DiscrepancyContext.build(sobol_generators(3, 3).subspace)
        for rho_bar, members in ctx.groups.items():
            if not any(members):
                continue
            for Y in list(iter_grid(3, 3))[::17]:
                lhs = sum(walsh_nd(_unpack(p, 3, 3), Y) for p in members)
                rep = walsh_nd(_unpack(min(members), 3, 3), Y)
                assert lhs == rep * delta_indicator(ctx, rho_bar, Y)


class TestPoissonSummation:
    @pytest.mark.parametrize("n,s", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
    def test_exhaustive(self, n, s):
        gen = van_der_corput_generators(s) if n == 2 else sobol_generators(n, s)
        ctx = DiscrepancyContext.build(gen.subspace)
        dual_set = set(dual_words(ctx))
        dual_packed = set(ctx.subspace.dual().enumerate_packed())
        net = [_unpack(p, n, s) for p in ctx.subspace.enumerate_packed()]
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
            van_der_corput_generators(3).subspace, random_shift(2, 3, seed=1)
        )
        rng = random.Random(2)
        z = tuple(rng.getrandbits(3) for _ in range(2))
        plain = sum(m_dual_sum(ctx, Y) for Y in iter_grid(2, 3))
        moved = sum(m_dual_sum(ctx, DyadicPoint(tuple(w ^ t for w, t in zip(Y.words, z)), 3))
                    for Y in iter_grid(2, 3))
        assert plain == moved


class TestNegativeControls:
    def test_corrupted_dual_breaks_route_equality(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(3).subspace)
        bad = list(dual_words(ctx))
        bad[1] = (1, 1) if bad[1] != (1, 1) else (2, 1)
        corrupted = with_dual_points(ctx, tuple(dict.fromkeys(bad)))
        mismatches = sum(
            m_direct(corrupted, Y) != m_dual_sum(corrupted, Y)
            for Y in iter_grid(2, 3)
        )
        assert mismatches > 0
