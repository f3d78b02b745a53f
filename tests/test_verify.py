import numpy as np
import pytest

from dyadnet.discrepancy import DiscrepancyContext, RouteUnavailableError
from dyadnet.f2core import _character_table, _rev_packed
from dyadnet.nets import random_shift, sobol_generators, van_der_corput_generators
from dyadnet.verify import (
    check_approximation_gap,
    check_delta_identities,
    check_poisson,
    check_route_equivalence,
    run_net_suite,
)
from oracles import character_sum, delta_loop, poisson_loop


@pytest.fixture(scope="module")
def vdc_ctx():
    return DiscrepancyContext.build(
        van_der_corput_generators(3), random_shift(2, 3, seed=1)
    )


@pytest.fixture(scope="module")
def sobol_ctx():
    return DiscrepancyContext.build(
        sobol_generators(3, 3), random_shift(3, 3, seed=2)
    )


class TestSuitesPass:
    def test_vdc_suite(self, vdc_ctx):
        for result in run_net_suite(vdc_ctx):
            assert result.passed, result.describe()

    def test_sobol_suite(self, sobol_ctx):
        for result in run_net_suite(sobol_ctx):
            assert result.passed, result.describe()

    def test_gap_details(self, vdc_ctx):
        res = check_approximation_gap(vdc_ctx)
        assert res.passed
        assert res.details["bound"] == 2


# The builtin nets with ns <= 12 on which the tables meet the loops:
# van der Corput s = 2..6, Sobol (2, s <= 6), (3, s <= 4) and (4, 3).
ORACLE_NETS = ([("van-der-corput", 2, s) for s in range(2, 7)]
               + [("sobol", 2, s) for s in range(1, 7)]
               + [("sobol", 3, s) for s in range(1, 5)]
               + [("sobol", 4, 3)])


def oracle_context(name, n, s, shifted):
    gen = van_der_corput_generators(s) if name == "van-der-corput" else sobol_generators(n, s)
    return DiscrepancyContext.build(gen, random_shift(n, s, seed=s) if shifted else None)


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


class TestGridGuard:
    def test_grid_above_the_cap_is_unavailable(self):
        # 2^8 grid points against a cap of 128; the dual (16 elements) fits.
        ctx = DiscrepancyContext.build(van_der_corput_generators(4), cap=128)
        for check in (check_poisson, check_delta_identities):
            with pytest.raises(RouteUnavailableError, match="grid has 2\\^8 points"):
                check(ctx)
        assert "dual_points" not in vars(ctx)  # raised before the dual was enumerated

    def test_grid_at_the_cap_runs(self):
        ctx = DiscrepancyContext.build(van_der_corput_generators(4), cap=256)
        assert check_poisson(ctx).checked == 256
        assert check_delta_identities(ctx).passed


class TestNegativeControls:
    def test_corrupted_dual_fails_poisson_with_witness(self, vdc_ctx):
        bad = [L for L in vdc_ctx.dual_points if any(L)][:-1]  # drop one member
        corrupted = vdc_ctx.with_dual_points([(0, 0)] + bad)
        res = check_poisson(corrupted)
        assert not res.passed
        assert outcome(res) == outcome(poisson_loop(corrupted))
        missing = next(L for L in vdc_ctx.dual_points if any(L) and L not in bad)
        assert res.witness["L"] == missing
        assert (res.witness["sum"], res.witness["expected"]) == (vdc_ctx.cardinality, 0)

    def test_foreign_vector_fails_poisson(self, vdc_ctx):
        dual_set = set(vdc_ctx.dual_points)
        intruder = next(
            (a, b)
            for a in range(8)
            for b in range(8)
            if (a, b) not in dual_set
        )
        corrupted = vdc_ctx.with_dual_points(list(vdc_ctx.dual_points) + [intruder])
        res = check_poisson(corrupted)
        assert not res.passed
        assert res.witness["expected"] in (0, vdc_ctx.cardinality)
        assert outcome(res) == outcome(poisson_loop(corrupted))

    def test_corrupted_dual_fails_route_equivalence(self, vdc_ctx):
        bad = list(vdc_ctx.dual_points)
        bad.remove(max(bad))
        corrupted = vdc_ctx.with_dual_points(bad)
        res = check_route_equivalence(corrupted)
        assert not res.passed
        assert res.witness is not None

    def test_corrupted_dual_fails_delta_partition(self, vdc_ctx):
        # A member with the wrong leading positions breaks the group laws.
        bad = list(vdc_ctx.dual_points) + [(1, 1)]
        corrupted = vdc_ctx.with_dual_points(dict.fromkeys(bad))
        res = check_delta_identities(corrupted)
        assert not res.passed
        assert (res.passed, res.checked) == outcome(delta_loop(corrupted))[:2]

    def test_foreign_member_fails_delta_factorization(self, vdc_ctx):
        # (4, 4) has the leading positions of (7, 7) but is not in the dual,
        # so the group sum of (3, 3) no longer factors at some grid point.
        bad = [(4, 4) if L == (7, 7) else L for L in vdc_ctx.dual_points]
        corrupted = vdc_ctx.with_dual_points(bad)
        res, loop = check_delta_identities(corrupted), delta_loop(corrupted)
        assert not res.passed
        assert res.checked == loop.checked
        assert res.witness.items() >= loop.witness.items()

    def test_describe_mentions_failure(self, vdc_ctx):
        corrupted = vdc_ctx.with_dual_points(list(vdc_ctx.dual_points)[:-1])
        res = check_poisson(corrupted)
        assert "FAIL" in res.describe()
        assert outcome(res) == outcome(poisson_loop(corrupted))
