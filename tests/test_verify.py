import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from dyadnet import discrepancy, verify, walsh
from dyadnet.discrepancy import (
    DiscrepancyContext,
    RouteUnavailableError,
    _box_table,
    _point_counts,
    approximation_gap,
)
from dyadnet.f2core import F2Subspace, _character, _index, _rev_packed, _unpack
from dyadnet.nets import (
    SOBOL_MAX_DIM,
    random_shift,
    sobol_generators,
    van_der_corput_generators,
)
from dyadnet.verify import (
    _dual_cells,
    check_approximation_gap,
    check_delta_identities,
    check_poisson,
    check_route_equivalence,
    run_net_suite,
)
from oracles import (
    _character_table,
    box_kernel,
    character_sum,
    delta_loop,
    delta_tables,
    describe,
    dual_table_modes,
    dual_words,
    gap_loop,
    gap_table,
    m_direct,
    m_dual_sum,
    poisson_loop,
    route_cells_loop,
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
        assert delta == delta_tables(ctx)


@pytest.mark.parametrize("n,s", [(2, 3), (3, 2)])
def test_one_word_table_is_its_character_row(n, s):
    # Every word goes through the butterfly; the zero word's table is the
    # constant 1.
    words = list(sobol_generators(n, s).subspace.enumerate_packed())
    assert 0 in words
    for w in words:
        row = [character_sum([w], _rev_packed(v, n, s)) for v in range(1 << (n * s))]
        table = _character_table([w], n, s)
        assert table.dtype == np.int64
        assert table.tolist() == row, w


class TestGridGuard:
    def test_grid_above_the_cap_is_unavailable(self, monkeypatch):
        # 2^8 grid points against a cap of 128; the dual (16 elements) fits.
        monkeypatch.setattr(discrepancy, "ENUM_CAP", 128)
        ctx = DiscrepancyContext.build(van_der_corput_generators(4).subspace)
        with pytest.raises(RouteUnavailableError, match="grid has 2\\^8 points"):
            check_route_equivalence(ctx)
        with pytest.raises(RouteUnavailableError, match="grid has 17\\^2 points"):
            approximation_gap(ctx)
        assert "packed_dual" not in vars(ctx)  # raised before the dual was enumerated
        # The group checks build no grid table; only the dual listing bounds them.
        assert check_poisson(ctx) == verify.IdentityResult("poisson-summation", True, 256)
        res = check_delta_identities(ctx)
        assert res.passed and res.checked == 256 * (len(ctx.groups) - 1)
        monkeypatch.setattr(discrepancy, "ENUM_CAP", 8)
        for check in (check_poisson, check_delta_identities):
            with pytest.raises(RouteUnavailableError, match="dual has 2\\^4 elements"):
                check(DiscrepancyContext.build(ctx.subspace))

    def test_grid_at_the_cap_runs(self, monkeypatch):
        monkeypatch.setattr(discrepancy, "ENUM_CAP", 256)
        ctx = DiscrepancyContext.build(van_der_corput_generators(4).subspace)
        assert check_poisson(ctx).checked == 256
        assert check_route_equivalence(ctx).checked == 256
        assert check_delta_identities(ctx).passed
        # The gap builds its box table on the 17^2 grid, and covers the
        # 2^12 points of the fine grid.
        monkeypatch.setattr(discrepancy, "ENUM_CAP", 17 ** 2)
        ctx = DiscrepancyContext.build(van_der_corput_generators(4).subspace)
        assert approximation_gap(ctx).points_checked == 1 << 12

    def test_suite_refuses_its_gap_check_alone(self, monkeypatch):
        # The 2^8 grid of route equivalence fits; the gap's 17^2 box table
        # does not, so the gap check gives a refused row and the others run.
        for cap in (1 << 8, 17 ** 2 - 1):
            monkeypatch.setattr(discrepancy, "ENUM_CAP", cap)
            ctx = DiscrepancyContext.build(van_der_corput_generators(4).subspace)
            poisson, route, gap, delta = run_net_suite(ctx)
            assert gap == verify.IdentityResult(
                "approximation-gap", False, 0,
                witness={"refused": "grid has 17^2 points, above the enumeration cap"})
            assert [poisson, route, delta] == [
                check_poisson(ctx), check_route_equivalence(ctx), check_delta_identities(ctx)]
            assert poisson.passed and route.passed and delta.passed

    def test_suite_runs_past_its_refused_checks(self, monkeypatch):
        # Sobol (3, 11): the 2^33 cells of route equivalence and the gap's
        # 2049^3 box table are above the cap.  Each grid check gives its
        # refused row before any table or dual listing, and the group checks
        # still run; spies stand in for them, which would refuse the
        # 2^22-element dual.
        ran = []

        def spy(name):
            def check(ctx):
                ran.append((name, ctx))
                return verify.IdentityResult(name, True, 0)
            return check

        monkeypatch.setattr(verify, "check_poisson", spy("poisson-summation"))
        monkeypatch.setattr(verify, "check_delta_identities", spy("delta-identities"))
        ctx = DiscrepancyContext.build(sobol_generators(3, 11).subspace)
        results = run_net_suite(ctx)
        assert [r.name for r in results] == ["poisson-summation", "route-equivalence",
                                             "approximation-gap", "delta-identities"]
        for r, grid in zip(results[1:3], ("2^33", "2049^3")):
            assert (r.passed, r.checked) == (False, 0)
            assert r.witness == {"refused": f"grid has {grid} points, above the "
                                            "enumeration cap"}
        assert results[0].passed and results[-1].passed
        assert ran == [("poisson-summation", ctx), ("delta-identities", ctx)]
        assert "packed_dual" not in vars(ctx)


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
        # The box tables of the cells that `check_route_equivalence` compares.
        den = 1 << (n * s)
        cells = [(c << (n * s)) - ctx.cardinality for c in _point_counts(ctx, 1 << s)]
        direct = _box_table(cells, (1 << s,) * n)
        dual = _box_table(_dual_cells(ctx), (1 << s,) * n)
        for v in sampled_queries(ctx, s):
            Y = tuple(Fraction(u, 1 << s) for u in _unpack(v, n, s))
            assert m_direct(ctx, Y) == Fraction(direct[v], den)
            assert m_dual_sum(ctx, Y) == Fraction(dual[v], den)

    def test_dual_table_is_the_mode_products(self, net, seed):
        ctx = builtin_context(*net, seed)
        sides = (1 << ctx.s,) * ctx.n
        assert _box_table(_dual_cells(ctx), sides) == dual_table_modes(ctx)

    def test_gap_matches_the_loop(self, net, seed):
        ctx = builtin_context(*net, seed)
        n, g = ctx.n, ctx.s + 2
        # The gap's (2^s + 1)^n table is within the cap on every net here,
        # 3^12 entries at most.
        report = approximation_gap(ctx)
        assert report.within_bound and report.points_checked == 1 << (n * g)
        if 1 << (n * g) > discrepancy.ENUM_CAP:
            # Sobol n >= 9 at s = 1: the fine grid is above the cap of the
            # fine-grid oracle, so the gap meets the per-box count and
            # kernel at its argmax and at sampled fine points.
            with pytest.raises(RouteUnavailableError):
                gap_table(ctx)
            argmax = [int(y * (1 << g)) for y in report.argmax]
            assert fine_gap(ctx, argmax) == report.max_gap
            for v in sampled_queries(ctx, g):
                assert fine_gap(ctx, _unpack(v, n, g)) <= report.max_gap
            return
        # The maximum and its first point in packed order: unshifted nets
        # reach the maximum at many cells.
        assert report == gap_table(ctx)
        if (1 << (n * g)) * ctx.cardinality <= LOOP_BUDGET:
            assert report == gap_loop(ctx)


@pytest.mark.parametrize("shape", [
    (1,), (2,), (7,), (16,), (3, 3), (2, 5), (4, 4), (3, 3, 3), (2, 3, 4),
    (4, 4, 4), (2, 2, 2, 2), (3, 3, 3, 3), (5, 2, 3, 4),
], ids=lambda shape: "x".join(map(str, shape)))
def test_box_table_is_the_exclusive_prefix_sum(shape):
    # Odd sides such as (s+1)^n are the Delta check's grid of group sizes.
    # The flat list is in packed order: coordinate 0, the first side, fastest.
    rng = random.Random(len(shape) * 100 + sum(shape))
    sides = shape[::-1]
    cells = [rng.randrange(-1 << 20, 1 << 20) for _ in range(np.prod(shape))]
    table = _box_table(cells, sides)
    grid = np.array(cells, dtype=np.int64).reshape(shape)
    assert len(table) == len(cells)
    for u in product(*map(range, shape)):
        below = grid[tuple(slice(0, k) for k in u)]
        assert table[np.ravel_multi_index(u, shape)] == sum(int(c) for c in below.flat), u


def fine_gap(ctx, us):
    """|discrepancy - truncated approximation| of the box [0, us/2^g) on the
    fine grid g = s + 2, from its point count and kernel sum."""
    g = ctx.s + 2
    count, kernel = box_kernel(ctx, g, us)
    return Fraction(abs((count << (ctx.n * g)) - (kernel << (ctx.n * ctx.s))),
                    1 << (ctx.n * g))


def test_route_equivalence_peaks_at_its_cells():
    # The check keeps the point counts and the dual cells, and the
    # synthesis's lists while it runs; it builds no box table.  About 75
    # bytes per cell here, where two box tables took about 167.
    ctx = builtin_context("sobol", 3, 5, 1)
    # List the net and the dual first, so that the peak counts the tables.
    assert len(ctx.packed_net) == ctx.cardinality and ctx.packed_dual
    bound = 100 << (ctx.n * ctx.s)
    tracemalloc.start()
    try:
        result = check_route_equivalence(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < bound, peak / bound


def test_gap_peaks_at_coarse_grid_tables():
    # The gap reads tables on the net's own (2^s + 1)^n grid, never one on
    # the fine grid, 4^n times as many points.  A table entry is a list
    # slot and an int: at most 8 + 32 bytes.
    ctx = builtin_context("sobol", 3, 5, 1)
    # Certify and list the net first, so that the peak counts the tables.
    assert ctx.deficiency is not None and len(ctx.packed_net) == ctx.cardinality
    bound = 3 * 40 * ((1 << ctx.s) + 1) ** ctx.n
    # One fine-grid table of 8-byte entries would break the bound alone.
    assert 8 << (ctx.n * (ctx.s + 2)) > bound
    tracemalloc.start()
    try:
        approximation_gap(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, peak / bound


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


# Nets whose corrupted duals the group check meets against its table
# oracle; unshifted, since a shift leaves the dual as it is.
CORRUPTION_NETS = ([van_der_corput_generators(s) for s in (2, 3, 4)]
                   + [sobol_generators(n, s) for n, s in ((2, 3), (3, 2), (2, 4), (3, 3))])


def random_corruption(dual, grid, rng):
    """The dual with one word replaced by a random grid index, dropped,
    joined by a random index, or repeated."""
    dual = list(dual)
    i = rng.randrange(len(dual))
    kind = rng.randrange(4)
    if kind == 0:
        dual[i] = rng.choice(grid)
    elif kind == 1:
        del dual[i]
    else:
        dual.append(rng.choice(grid) if kind == 2 else dual[i])
    return dual


def repeated_word_listings(ctx):
    """Copies of `ctx` whose net listing is its first, fourth or last word
    repeated N times; piling every point onto one cell breaks the net
    property."""
    for k in (0, 3, -1):
        corrupted = DiscrepancyContext(ctx.subspace, ctx.shift)
        # A copy is equal by value but shares none of the cache.
        assert (corrupted == ctx and hash(corrupted) == hash(ctx)
                and "packed_net" not in vars(corrupted))
        vars(corrupted)["packed_net"] = (ctx.packed_net[k],) * ctx.cardinality
        yield corrupted


class TestCorruptedTablesAgainstLoops:
    def test_delta_failures_match_the_table_oracle(self):
        # Every index as the dual of Sobol (3, 2) is the one case apart: only
        # the rank identity rejects it (see TestNegativeControls).
        failed = 0
        for gen in CORRUPTION_NETS:
            ctx = DiscrepancyContext.build(gen.subspace)
            for reason, dual in corrupted_duals(ctx).items():
                corrupted = with_dual_points(ctx, dual)
                res, tables = check_delta_identities(corrupted), delta_tables(corrupted)
                if (gen.n, gen.s, reason) == (3, 2, "every index"):
                    assert (res.passed, tables.passed) == (False, True)
                    continue
                assert res.passed == tables.passed, (gen.n, gen.s, reason)
                failed += not res.passed
        assert failed >= 60

    def test_delta_random_failures_match_the_table_oracle(self):
        rng = random.Random(28)
        failed = 0
        for gen in CORRUPTION_NETS:
            ctx = DiscrepancyContext.build(gen.subspace)
            grid = [_unpack(v, ctx.n, ctx.s) for v in range(1 << (ctx.n * ctx.s))]
            for _ in range(120):
                corrupted = with_dual_points(
                    ctx, random_corruption(dual_words(ctx), grid, rng))
                res, tables = check_delta_identities(corrupted), delta_tables(corrupted)
                assert res.passed == tables.passed, (gen.n, gen.s, res, tables)
                failed += not res.passed
        assert failed >= 600

    def test_corrupted_dual_tables_are_the_mode_products(self):
        # Shifted as well, so that each index's sign counts: the named
        # corruptions and 20 seeded random ones per net and shift.
        rng = random.Random(35)
        for gen in CORRUPTION_NETS:
            grid = [_unpack(v, gen.n, gen.s) for v in range(1 << (gen.n * gen.s))]
            for seed in (None, 1):
                ctx = DiscrepancyContext.build(
                    gen.subspace, None if seed is None else random_shift(gen.n, gen.s, seed))
                duals = list(corrupted_duals(ctx).items()) + [
                    ("random", random_corruption(dual_words(ctx), grid, rng))
                    for _ in range(20)]
                for reason, dual in duals:
                    corrupted = with_dual_points(ctx, dual)
                    assert (_box_table(_dual_cells(corrupted), (1 << gen.s,) * gen.n)
                            == dual_table_modes(corrupted)), (gen.n, gen.s, seed, reason)

    def test_route_failures_match_the_loop(self, vdc_ctx, sobol_ctx):
        failed = 0
        for ctx in (vdc_ctx, sobol_ctx):
            for reason, dual in corrupted_duals(ctx).items():
                corrupted = with_dual_points(ctx, dual)
                res = check_route_equivalence(corrupted)
                assert res == route_cells_loop(corrupted), reason
                failed += not res.passed
        assert failed >= 10

    def test_route_equivalence_builds_no_box_table(self, monkeypatch, vdc_ctx, sobol_ctx):
        # Neither on a pass nor on a failure.
        def refuse(cells, sides):
            raise AssertionError("route equivalence built a box table")

        monkeypatch.setattr(discrepancy, "_box_table", refuse)
        monkeypatch.setattr(verify, "_box_table", refuse)
        for ctx in (vdc_ctx, sobol_ctx):
            assert check_route_equivalence(ctx).passed
            bad = list(dual_words(ctx))
            bad.remove(max(bad))
            corrupted = with_dual_points(ctx, bad)
            assert check_route_equivalence(corrupted) == route_cells_loop(corrupted)

    def test_top_face_cell_fails_route_equivalence(self, monkeypatch, sobol_ctx):
        # A box table sums the cells below each grid point, so it never
        # reads a cell on the top face, where some c_j = 2^s - 1: a dual cell
        # perturbed there leaves the dual table as it was.  The cell
        # comparison names that cell.
        n, s = sobol_ctx.n, sobol_ctx.s
        cell = (2, (1 << s) - 1, 5)
        top = _index(cell, 1 << s)
        synthesis = walsh.synthesis

        def perturbed(coefficients):
            cells = synthesis(coefficients)
            cells[top] += 1
            return cells

        sides = (1 << s,) * n
        clean = _dual_cells(sobol_ctx)
        monkeypatch.setattr(walsh, "synthesis", perturbed)
        assert _box_table(_dual_cells(sobol_ctx), sides) == _box_table(clean, sides)
        res = check_route_equivalence(sobol_ctx)
        assert (res.passed, res.checked) == (False, top + 1)
        assert res.witness["cell"] == [str(Fraction(w, 1 << s)) for w in cell]
        direct, dual_sum = Fraction(res.witness["direct"]), Fraction(res.witness["dual_sum"])
        assert dual_sum - direct == Fraction(1, 1 << (n * s))
        assert direct == Fraction(clean[top], 1 << (n * s))

    def test_gap_failures_match_the_loop(self, vdc_ctx, sobol_ctx):
        # A net listing piled onto one cell has a gap above n * 2^deficiency.
        for ctx in (vdc_ctx, sobol_ctx):
            for corrupted in repeated_word_listings(ctx):
                report = approximation_gap(corrupted)
                assert not report.within_bound
                assert report == gap_loop(corrupted)
                res = check_approximation_gap(corrupted)
                assert res.witness == {"Y": [str(y) for y in report.argmax],
                                       "gap": str(report.max_gap)}

    def test_poisson_failures_match_the_loop(self):
        # The loop sums the characters of the net listing at every grid
        # point, as the table does; the group check must agree on every
        # corrupted dual and on 120 seeded random ones per net.
        rng = random.Random(5)
        failed = 0
        for gen in CORRUPTION_NETS:
            ctx = DiscrepancyContext.build(gen.subspace)
            grid = [_unpack(v, ctx.n, ctx.s) for v in range(1 << (ctx.n * ctx.s))]
            duals = list(corrupted_duals(ctx).items()) + [
                ("random", random_corruption(dual_words(ctx), grid, rng))
                for _ in range(120)]
            for reason, dual in duals:
                corrupted = with_dual_points(ctx, dual)
                res = check_poisson(corrupted)
                assert res.passed == poisson_loop(corrupted).passed, (gen.n, gen.s, reason)
                failed += not res.passed
        assert failed >= 600

    def test_poisson_net_listing_failures_match_the_loop(self, vdc_ctx, sobol_ctx):
        # The zero word repeated is a subgroup of one word, whose annihilator
        # is the whole grid; any other word repeated is no subgroup.
        for ctx in (vdc_ctx, sobol_ctx):
            reasons = []
            for corrupted in repeated_word_listings(ctx):
                res = check_poisson(corrupted)
                assert (res.passed, res.checked) == (False, 0)
                assert not poisson_loop(corrupted).passed
                reasons.append(res.witness)
            assert reasons == [{"reason": "dual size"}] + [{"reason": "net not a subgroup"}] * 2

    def test_poisson_rejects_uneven_net_listings(self, vdc_ctx, sobol_ctx):
        # The net listed twice has N words too many.  Its first half in
        # enumeration order is a subgroup; listed unevenly in N words
        # against its own annihilator, every size but the counts fits.
        for ctx in (vdc_ctx, sobol_ctx):
            n, s, net = ctx.n, ctx.s, ctx.packed_net
            half = net[: len(net) // 2]
            half_dual = F2Subspace.from_packed(n, s, half).dual().enumerate_packed()
            for listing, dual in ((net * 2, dual_words(ctx)),
                                  (half[:1] * (len(half) + 1) + half[1:],
                                   [_unpack(p, n, s) for p in half_dual])):
                corrupted = with_dual_points(ctx, dual)
                vars(corrupted)["packed_net"] = listing
                res = check_poisson(corrupted)
                assert not poisson_loop(corrupted).passed
                assert res == verify.IdentityResult("poisson-summation", False, 0,
                                                    witness={"reason": "net not a subgroup"})


class TestNegativeControls:
    def test_corrupted_dual_fails_poisson_with_witness(self, vdc_ctx):
        bad = [L for L in dual_words(vdc_ctx) if any(L)][:-1]  # drop one member
        corrupted = with_dual_points(vdc_ctx, [(0, 0)] + bad)
        res = check_poisson(corrupted)
        assert res.passed == poisson_loop(corrupted).passed
        assert res == verify.IdentityResult("poisson-summation", False, 0,
                                            witness={"reason": "dual size"})

    def test_foreign_vector_fails_poisson(self, vdc_ctx):
        dual_set = set(dual_words(vdc_ctx))
        intruder = next(
            (a, b)
            for a in range(8)
            for b in range(8)
            if (a, b) not in dual_set
        )
        # Joining the dual, the intruder makes it too large; in place of a
        # member it is the one dual word off the net's annihilator.
        joined = with_dual_points(vdc_ctx, list(dual_words(vdc_ctx)) + [intruder])
        swapped = with_dual_points(vdc_ctx, list(dual_words(vdc_ctx))[:-1] + [intruder])
        for corrupted, witness in ((joined, {"reason": "dual size"}),
                                   (swapped, {"reason": "not orthogonal", "L": intruder})):
            res = check_poisson(corrupted)
            assert res.passed == poisson_loop(corrupted).passed
            assert (res.passed, res.checked, res.witness) == (False, 0, witness)

    def test_corrupted_dual_fails_route_equivalence(self, vdc_ctx):
        bad = list(dual_words(vdc_ctx))
        bad.remove(max(bad))
        corrupted = with_dual_points(vdc_ctx, bad)
        res = check_route_equivalence(corrupted)
        assert not res.passed
        assert res.witness is not None

    @pytest.mark.parametrize("n", [3, 4])
    def test_odd_support_sign_flip_fails_route_equivalence(self, monkeypatch, n):
        # The dual route's sign, mutated: every coefficient whose index has
        # an odd number of nonzero coordinates (reversal keeps the count)
        # is negated before the synthesis.  Sobol' nets in 3 and 4
        # dimensions have such dual words, so every shift fails.
        synthesis = walsh.synthesis
        for s in range(2, 5):
            def flipped(coefficients, s=s):
                return synthesis([-c if sum(map(bool, _unpack(q, n, s))) % 2 else c
                                  for q, c in enumerate(coefficients)])

            monkeypatch.setattr(walsh, "synthesis", flipped)
            for seed in (0, 3, 5):
                ctx = DiscrepancyContext.build(sobol_generators(n, s).subspace,
                                               random_shift(n, s, seed))
                assert not check_route_equivalence(ctx).passed, (n, s, seed)

    @pytest.mark.parametrize("s", range(1, 9))
    def test_planar_dual_words_have_both_coordinates_nonzero(self, s):
        # So an odd-support sign flip never reaches a dual word of the
        # planar builtin, and the default (planar) verify bundle cannot
        # see it; the 3-D and 4-D nets above do.
        dual = van_der_corput_generators(s).subspace.dual().enumerate_packed()
        assert all(all(_unpack(p, 2, s)) for p in dual if p)

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
        # with three elements, within the cardinality bound but not a
        # subgroup of the table oracle; the check meets the same group first
        # by the net's ranks, which give it four.
        ctx = DiscrepancyContext.build(gen.subspace)
        corrupted = with_dual_points(ctx, [L for L in dual_words(ctx) if L != dropped])
        tables = delta_tables(corrupted)
        assert tables.witness == {"rho_bar": rho_bar, "lambda0": 3,
                                  "reason": "not a subgroup"}
        assert tables == delta_loop(corrupted)
        assert check_delta_identities(corrupted) == tables._replace(
            witness={"rho_bar": rho_bar, "lambda0": 3, "reason": "rank identity"})

    def test_foreign_member_fails_delta_factorization(self, vdc_ctx):
        # (4, 4) has the leading positions of (7, 7) but is not in the dual,
        # so the group sum of (3, 3) no longer factors at some grid point of
        # the table oracle; the check finds (4, 4) XOR (5, 5) outside the dual.
        bad = [(4, 4) if L == (7, 7) else L for L in dual_words(vdc_ctx)]
        corrupted = with_dual_points(vdc_ctx, bad)
        tables, loop = delta_tables(corrupted), delta_loop(corrupted)
        assert not tables.passed
        assert tables.checked == loop.checked
        assert tables.witness.items() >= loop.witness.items()
        assert check_delta_identities(corrupted).witness == {
            "rho_bar": (3, 3), "lambda0": 2, "reason": "not a coset"}

    def test_swapped_pair_fails_delta_subgroup(self):
        # Van der Corput s = 4: Lambda0 of (4, 4) keeps its four words but
        # holds the foreign (4, 4) in place of (6, 6), and the group its
        # coset, so sizes, ranks and coset hold and only the span is wrong.
        ctx = DiscrepancyContext.build(van_der_corput_generators(4).subspace)
        rep = min(ctx.groups[(4, 4)])
        out = {(6, 6), _unpack(rep ^ _index((6, 6), 16), 2, 4)}
        into = [(4, 4), _unpack(rep ^ _index((4, 4), 16), 2, 4)]
        corrupted = with_dual_points(
            ctx, [L for L in dual_words(ctx) if L not in out] + into)
        res = check_delta_identities(corrupted)
        assert res.witness == {"rho_bar": (4, 4), "lambda0": 4, "reason": "not a subgroup"}
        assert not delta_tables(corrupted).passed

    def test_every_index_fails_delta_rank_identity(self):
        # Sobol (3, 2) with every grid index as its dual: each Lambda0 is a
        # whole box, a subgroup within the cardinality bound whose groups are
        # its cosets, so the tables and the loop pass it; only the net's
        # ranks show that the box holds too many words.
        ctx = DiscrepancyContext.build(sobol_generators(3, 2).subspace)
        corrupted = with_dual_points(ctx, [_unpack(v, 3, 2) for v in range(1 << 6)])
        res = check_delta_identities(corrupted)
        assert res == verify.IdentityResult(
            "delta-identities", False, 64,
            witness={"rho_bar": (0, 0, 2), "lambda0": 2, "reason": "rank identity"})
        assert delta_tables(corrupted).passed and delta_loop(corrupted).passed

    def test_delta_witness_keeps_the_representative_sign(self):
        # A foreign member whose witness point in the table oracle has
        # chi_rep = -1 and neither side of the factorization 0, so a dropped
        # sign shows on both.
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
                        yield c, delta_tables(c)

        def rep_sign(c, witness):
            rep = min(c.groups[witness["rho_bar"]])
            return _character(_rev_packed(rep, n, s), _index(witness["Y"], 1 << s))

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
        assert "FAIL" in describe(res) and "dual size" in describe(res)
        assert res.passed == poisson_loop(corrupted).passed
