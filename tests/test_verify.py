import pytest

from dyadnet.discrepancy import DiscrepancyContext
from dyadnet.nets import random_shift, sobol_generators, van_der_corput_generators
from dyadnet.verify import (
    check_approximation_gap,
    check_delta_identities,
    check_fine_closed_form,
    check_fine_square_norm,
    check_poisson,
    check_route_equivalence,
    run_net_suite,
)


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

    def test_fine_checks(self):
        closed = check_fine_closed_form()
        assert closed.passed
        assert closed.checked == 64 * 257
        square = check_fine_square_norm()
        assert square.passed
        assert square.checked == 64

    def test_gap_details(self, vdc_ctx):
        res = check_approximation_gap(vdc_ctx)
        assert res.passed
        assert res.details["bound"] == 2


class TestNegativeControls:
    def test_corrupted_dual_fails_poisson_with_witness(self, vdc_ctx):
        bad = [L for L in vdc_ctx.dual_points if any(L)][:-1]  # drop one member
        corrupted = vdc_ctx.with_dual_points([(0, 0)] + bad)
        res = check_poisson(corrupted)
        assert not res.passed
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

    def test_describe_mentions_failure(self, vdc_ctx):
        bad = list(vdc_ctx.dual_points)[:-1]
        res = check_poisson(vdc_ctx.with_dual_points(bad))
        assert "FAIL" in res.describe()
