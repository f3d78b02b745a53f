import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from dyadnet import discrepancy, verify
from dyadnet.discrepancy import (
    DiscrepancyContext,
    RouteUnavailableError,
    _box_table,
    _dual_table,
    _grid_size,
    approximation_gap,
)
from dyadnet.f2core import _character, _pack, _rev_packed, _unpack
from dyadnet.nets import (
    SOBOL_MAX_DIM,
    random_shift,
    sobol_generators,
    van_der_corput_generators,
)
from dyadnet.verify import (
    _character_table,
    check_approximation_gap,
    check_delta_identities,
    check_poisson,
    check_route_equivalence,
    run_net_suite,
)
from oracles import (
    box_kernel,
    character_sum,
    delta_loop,
    describe,
    dual_words,
    gap_loop,
    m_direct,
    m_dual_sum,
    poisson_loop,
    route_loop,
    with_dual_points,
)


@pytest.fixture(scope="module")
def vdc_ctx():
    return DiscrepancyContext.build(
        van_der_corput_generators(3).subspace, random_shift(2, 3, seed=1)
    )


@pytest.fixture(scope="module")
def sobol_ctx():
    return DiscrepancyContext.build(
        sobol_generators(3, 3).subspace, random_shift(3, 3, seed=2)
    )


class TestSuitesPass:
    def test_vdc_suite(self, vdc_ctx):
        for result in run_net_suite(vdc_ctx):
            assert result.passed, describe(result)

    def test_sobol_suite(self, sobol_ctx):
        for result in run_net_suite(sobol_ctx):
            assert result.passed, describe(result)

    def test_gap_details(self, vdc_ctx):
        res = check_approximation_gap(vdc_ctx)
        assert res.passed
        assert approximation_gap(vdc_ctx).bound == 2


# The builtin nets with ns <= 12 on which the tables meet the loops:
# van der Corput s = 2..6, Sobol (2, s <= 6), (3, s <= 4) and (4, 3).
ORACLE_NETS = ([("van-der-corput", 2, s) for s in range(2, 7)]
               + [("sobol", 2, s) for s in range(1, 7)]
               + [("sobol", 3, s) for s in range(1, 5)]
               + [("sobol", 4, 3)])


def oracle_context(name, n, s, shifted):
    gen = van_der_corput_generators(s) if name == "van-der-corput" else sobol_generators(n, s)
    return DiscrepancyContext.build(gen.subspace,
                                    random_shift(n, s, seed=s) if shifted else None)


def outcome(result):
    return result.passed, result.checked, result.witness


@pytest.mark.parametrize("shifted", [False, True], ids=["plain", "shifted"])
@pytest.mark.parametrize("net", ORACLE_NETS, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
class TestTablesAgainstLoops:
    def test_character_table_matches_the_per_point_sums(self, net, shifted):
        ctx = oracle_context(*net, shifted)
        n, s = ctx.n, ctx.s
        words = list(ctx.subspace.enumerate_packed())
        loop = [character_sum(words, _rev_packed(v, n, s)) for v in range(1 << (n * s))]
        table = _character_table(words, n, s)
        assert table.dtype == np.int64
        assert table.tolist() == loop

    def test_checks_match_the_loops(self, net, shifted):
        ctx = oracle_context(*net, shifted)
        poisson, delta = check_poisson(ctx), check_delta_identities(ctx)
        assert poisson.passed and delta.passed
        assert outcome(poisson) == outcome(poisson_loop(ctx))
        assert (delta.passed, delta.checked) == outcome(delta_loop(ctx))[:2]


@pytest.mark.parametrize("n,s", [(2, 3), (3, 2)])
def test_one_word_table_is_its_character_row(n, s):
    # A single nonzero word goes through the butterfly; the zero word
    # takes the constant table.
    words = list(sobol_generators(n, s).subspace.enumerate_packed())
    assert 0 in words
    for w in words:
        row = [character_sum([w], _rev_packed(v, n, s)) for v in range(1 << (n * s))]
        table = _character_table([w], n, s)
        assert table.dtype == np.int64
        assert table.tolist() == row, w


@pytest.mark.parametrize("k", [2, 5])
def test_zero_words_give_the_constant_table(k):
    table = _character_table([0] * k, 2, 3)
    assert table.dtype == np.int64
    assert table.tolist() == [k] * (1 << 6)


class TestGridGuard:
    def test_grid_above_the_cap_is_unavailable(self, monkeypatch):
        # 2^8 grid points against a cap of 128; the dual (16 elements) fits.
        monkeypatch.setattr(discrepancy, "ENUM_CAP", 128)
        ctx = DiscrepancyContext.build(van_der_corput_generators(4).subspace)
        for check in (check_poisson, check_route_equivalence, check_delta_identities):
            with pytest.raises(RouteUnavailableError, match="grid has 2\\^8 points"):
                check(ctx)
        with pytest.raises(RouteUnavailableError, match="grid has 2\\^12 points"):
            approximation_gap(ctx)
        assert "packed_dual" not in vars(ctx)  # raised before the dual was enumerated

    def test_grid_at_the_cap_runs(self, monkeypatch):
        monkeypatch.setattr(discrepancy, "ENUM_CAP", 256)
        ctx = DiscrepancyContext.build(van_der_corput_generators(4).subspace)
        assert check_poisson(ctx).checked == 256
        assert check_route_equivalence(ctx).checked == 256
        assert check_delta_identities(ctx).passed
        monkeypatch.setattr(discrepancy, "ENUM_CAP", 1 << 12)
        ctx = DiscrepancyContext.build(van_der_corput_generators(4).subspace)
        assert approximation_gap(ctx).points_checked == 1 << 12

    def test_suite_refuses_its_gap_grid_before_any_check(self, monkeypatch):
        # The 2^8 grid of the character checks fits; the 2^12 gap grid does not.
        monkeypatch.setattr(discrepancy, "ENUM_CAP", 1 << 11)
        ctx = DiscrepancyContext.build(van_der_corput_generators(4).subspace)
        with pytest.raises(RouteUnavailableError, match="grid has 2\\^12 points"):
            run_net_suite(ctx)
        assert "packed_dual" not in vars(ctx)

    def test_tables_that_could_leave_int64_are_unavailable(self, monkeypatch):
        # With the cap raised out of the way, the square of the grid decides:
        # the 2^50-point grid of route equivalence or the 2^70-point gap grid.
        monkeypatch.setattr(discrepancy, "ENUM_CAP", 1 << 80)
        ctx = DiscrepancyContext.build(sobol_generators(10, 5).subspace)
        for route in (approximation_gap, check_route_equivalence, run_net_suite):
            with pytest.raises(RouteUnavailableError, match="could leave int64"):
                route(ctx)
        assert "packed_dual" not in vars(ctx)
        # The bound is 2^(ng) * 2^(ng) < 2^63: a 2^31-point grid fits.
        ctx = DiscrepancyContext.build(sobol_generators(1, 31).subspace)
        assert _grid_size(ctx, 31) == 1 << 31
        with pytest.raises(RouteUnavailableError, match="could leave int64"):
            _grid_size(ctx, 32)

    def test_suite_refuses_before_its_first_check(self, monkeypatch):
        # Sobol (3, 11): the character checks' 2^33 grid could leave int64.
        monkeypatch.setattr(discrepancy, "ENUM_CAP", 1 << 80)
        ran = []

        def spy(ctx):
            ran.append(ctx)
            return verify.IdentityResult("poisson-summation", True, 0)

        monkeypatch.setattr(verify, "check_poisson", spy)
        ctx = DiscrepancyContext.build(sobol_generators(3, 11).subspace)
        with pytest.raises(RouteUnavailableError, match="could leave int64"):
            run_net_suite(ctx)
        assert not ran
        assert "packed_dual" not in vars(ctx)

    def test_one_size_rule_bounds_every_table(self):
        # Every entry and intermediate of a table with `terms` dual indices
        # per entry is at most terms * N * 2^(ng), with N = 2^dim and terms
        # at most the dual's 2^(ns - dim); the grid's square bounds them all.
        for n in range(1, 5):
            for s in range(1, 13):
                for g in (s, s + 2):
                    if 1 << (2 * n * g) >= 1 << 63:
                        continue
                    for dim in range(s + 1):
                        for terms in (1, 1 << (n * s - dim)):
                            assert (terms << dim) << (n * g) < 1 << 63, (n, s, g, dim)


# Every builtin net with ns <= 12: van der Corput s = 1..6 and Sobol in
# each supported dimension, each unshifted and at two seeded shifts.
BUILTIN_NETS = ([("van-der-corput", 2, s) for s in range(1, 7)]
                + [("sobol", n, s) for n in range(1, SOBOL_MAX_DIM + 1)
                   for s in range(1, 12 // n + 1)])
SHIFTS = (None, 1, 2)
# The loop oracles run over the whole grid where queries times the terms
# each query sums stays within this budget; above it they meet the tables
# at sampled queries, since a full loop takes up to minutes.
LOOP_BUDGET = 1 << 20
SAMPLED_QUERIES = 64


def builtin_context(name, n, s, seed):
    gen = van_der_corput_generators(s) if name == "van-der-corput" else sobol_generators(n, s)
    return DiscrepancyContext.build(gen.subspace,
                                    None if seed is None else random_shift(n, s, seed))


def sampled_queries(ctx, g):
    rng = random.Random(ctx.n * 1000 + g)
    return [rng.randrange(1 << (ctx.n * g)) for _ in range(SAMPLED_QUERIES)]


@pytest.mark.parametrize("seed", SHIFTS, ids=lambda t: f"shift-{t}")
@pytest.mark.parametrize("net", BUILTIN_NETS, ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}")
class TestBoxTablesAgainstLoops:
    def test_route_equivalence_matches_the_loop(self, net, seed):
        ctx = builtin_context(*net, seed)
        n, s = ctx.n, ctx.s
        result = check_route_equivalence(ctx)
        assert result.passed and result.checked == 1 << (n * s)
        if (1 << (n * s)) * (ctx.cardinality + len(ctx.packed_dual)) <= LOOP_BUDGET:
            assert result == route_loop(ctx)
            return
        kernel, dual = _box_table(ctx, s, kernel=True), _dual_table(ctx)
        den = 1 << (n * s)
        for v in sampled_queries(ctx, s):
            Y = tuple(Fraction(u, 1 << s) for u in _unpack(v, n, s))
            volume = int(np.prod(_unpack(v, n, s), dtype=object))
            assert m_direct(ctx, Y) == Fraction(
                int(kernel[v]) * den - ctx.cardinality * volume, den)
            assert m_dual_sum(ctx, Y) == Fraction(ctx.cardinality * int(dual[v]), den)

    def test_gap_matches_the_loop(self, net, seed):
        ctx = builtin_context(*net, seed)
        n, g = ctx.n, ctx.s + 2
        if 1 << (n * g) > discrepancy.ENUM_CAP:
            with pytest.raises(RouteUnavailableError, match=f"grid has 2\\^{n * g} points"):
                approximation_gap(ctx)
            return
        report = approximation_gap(ctx)
        assert report.within_bound and report.points_checked == 1 << (n * g)
        if (1 << (n * g)) * ctx.cardinality <= LOOP_BUDGET:
            assert report == gap_loop(ctx)
            return
        count, kernel = _box_table(ctx, g, kernel=False), _box_table(ctx, g, kernel=True)
        for v in sampled_queries(ctx, g):
            assert (int(count[v]), int(kernel[v])) == box_kernel(ctx, g, _unpack(v, n, g))


def corrupted_duals(ctx):
    """Replacements for the enumerated dual of a context, by what they do."""
    dual = dual_words(ctx)
    nonzero = [L for L in dual if any(L)]
    zero = dual[0]
    grid = [_unpack(v, ctx.n, ctx.s) for v in range(1 << (ctx.n * ctx.s))]
    foreign = next(L for L in grid if L not in dual)
    dropped = random.Random(len(dual)).choice(nonzero)
    return {
        "drop the largest": [L for L in dual if L != max(dual)],
        "drop a random member": [L for L in dual if L != dropped],
        "repeat a member": list(dual) + [nonzero[-1]],
        "repeat every member": list(dual) * 2,
        "zero in place of a member": [zero if L == nonzero[0] else L for L in dual],
        "zero held twice": list(dual) + [zero],
        "without zero": nonzero,
        "foreign member": list(dual) + [foreign],
        "foreign in place of a member": [foreign if L == nonzero[-1] else L for L in dual],
        "first half": list(dual)[: len(dual) // 2],
        "zero alone": [zero],
        "every index": grid,
    }


class TestCorruptedTablesAgainstLoops:
    def test_route_failures_match_the_loop(self, vdc_ctx, sobol_ctx):
        failed = 0
        for ctx in (vdc_ctx, sobol_ctx):
            for reason, dual in corrupted_duals(ctx).items():
                corrupted = with_dual_points(ctx, dual)
                res = check_route_equivalence(corrupted)
                assert res == route_loop(corrupted), reason
                failed += not res.passed
        assert failed >= 10

    def test_gap_failures_match_the_loop(self, vdc_ctx, sobol_ctx):
        # Piling every point onto one cell breaks the net property, so the
        # gap exceeds n * 2^deficiency.
        for ctx in (vdc_ctx, sobol_ctx):
            for k in (0, 3, -1):
                corrupted = DiscrepancyContext(ctx.subspace, ctx.shift)
                # A copy is equal by value but shares none of the cache.
                assert (corrupted == ctx and hash(corrupted) == hash(ctx)
                        and "packed_net" not in vars(corrupted))
                vars(corrupted)["packed_net"] = (ctx.packed_net[k],) * ctx.cardinality
                report = approximation_gap(corrupted)
                assert not report.within_bound
                assert report == gap_loop(corrupted)
                res = check_approximation_gap(corrupted)
                assert res.witness == {"Y": [str(y) for y in report.argmax],
                                       "gap": str(report.max_gap)}


class TestNegativeControls:
    def test_corrupted_dual_fails_poisson_with_witness(self, vdc_ctx):
        bad = [L for L in dual_words(vdc_ctx) if any(L)][:-1]  # drop one member
        corrupted = with_dual_points(vdc_ctx, [(0, 0)] + bad)
        res = check_poisson(corrupted)
        assert not res.passed
        assert outcome(res) == outcome(poisson_loop(corrupted))
        missing = next(L for L in dual_words(vdc_ctx) if any(L) and L not in bad)
        assert res.witness["L"] == missing
        assert (res.witness["sum"], res.witness["expected"]) == (vdc_ctx.cardinality, 0)

    def test_foreign_vector_fails_poisson(self, vdc_ctx):
        dual_set = set(dual_words(vdc_ctx))
        intruder = next(
            (a, b)
            for a in range(8)
            for b in range(8)
            if (a, b) not in dual_set
        )
        corrupted = with_dual_points(vdc_ctx, list(dual_words(vdc_ctx)) + [intruder])
        res = check_poisson(corrupted)
        assert not res.passed
        assert res.witness["expected"] in (0, vdc_ctx.cardinality)
        assert outcome(res) == outcome(poisson_loop(corrupted))

    def test_corrupted_dual_fails_route_equivalence(self, vdc_ctx):
        bad = list(dual_words(vdc_ctx))
        bad.remove(max(bad))
        corrupted = with_dual_points(vdc_ctx, bad)
        res = check_route_equivalence(corrupted)
        assert not res.passed
        assert res.witness is not None

    def test_corrupted_dual_fails_delta_cardinality_bound(self, vdc_ctx):
        # A member with the wrong leading positions grows the strictly-below
        # subgroup of its group past the cardinality bound.
        bad = list(dual_words(vdc_ctx)) + [(1, 1)]
        corrupted = with_dual_points(vdc_ctx, dict.fromkeys(bad))
        res = check_delta_identities(corrupted)
        assert not res.passed
        assert res.witness["reason"] == "cardinality bound"
        assert (res.passed, res.checked) == outcome(delta_loop(corrupted))[:2]

    @pytest.mark.parametrize("gen, dropped, rho_bar", [
        (van_der_corput_generators(4), (6, 6), (4, 4)),
        (sobol_generators(3, 3), (2, 1, 3), (3, 2, 3)),
    ])
    def test_dropped_word_fails_delta_subgroup(self, gen, dropped, rho_bar):
        # Dropping a nonzero word of some strictly-below subgroup leaves it
        # with three elements, within the cardinality bound but not a subgroup.
        ctx = DiscrepancyContext.build(gen.subspace)
        corrupted = with_dual_points(ctx, [L for L in dual_words(ctx) if L != dropped])
        res = check_delta_identities(corrupted)
        assert res.witness == {"rho_bar": rho_bar, "lambda0": 3, "reason": "not a subgroup"}
        assert res == delta_loop(corrupted)

    def test_foreign_member_fails_delta_factorization(self, vdc_ctx):
        # (4, 4) has the leading positions of (7, 7) but is not in the dual,
        # so the group sum of (3, 3) no longer factors at some grid point.
        bad = [(4, 4) if L == (7, 7) else L for L in dual_words(vdc_ctx)]
        corrupted = with_dual_points(vdc_ctx, bad)
        res, loop = check_delta_identities(corrupted), delta_loop(corrupted)
        assert not res.passed
        assert res.checked == loop.checked
        assert res.witness.items() >= loop.witness.items()

    def test_delta_witness_keeps_the_representative_sign(self):
        # A foreign member whose witness point has chi_rep = -1 and neither
        # side of the factorization 0, so a dropped sign shows on both.
        ctx = DiscrepancyContext.build(van_der_corput_generators(4).subspace)
        n, s = ctx.n, ctx.s
        words = dual_words(ctx)

        def corruptions():
            # Replacing the largest members first finds one within a few
            # hundred tries.
            for i in reversed(range(len(words))):
                for f in product(range(1 << s), repeat=n):
                    if f not in words:
                        c = with_dual_points(ctx, words[:i] + (f,) + words[i + 1:])
                        yield c, check_delta_identities(c)

        def rep_sign(c, witness):
            rep = min(c.groups[witness["rho_bar"]])
            return _character(_rev_packed(rep, n, s), _pack(witness["Y"], s))

        corrupted, res = next(
            (c, r) for c, r in corruptions()
            if r.witness and r.witness.get("group_sum") and r.witness["factored"]
            and rep_sign(c, r.witness) == -1)
        loop = delta_loop(corrupted)
        assert res.checked == loop.checked
        assert res.witness.items() >= loop.witness.items()

    def test_describe_mentions_failure(self, vdc_ctx):
        corrupted = with_dual_points(vdc_ctx, list(dual_words(vdc_ctx))[:-1])
        res = check_poisson(corrupted)
        assert "FAIL" in describe(res)
        assert outcome(res) == outcome(poisson_loop(corrupted))
