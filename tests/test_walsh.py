import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadnet.f2core import DyadicCoord, DyadicPoint
from dyadnet.walsh import (
    StepFunction,
    decompose,
    fine_coefficient,
    fine_coefficient_nd,
    omega,
    rademacher,
    rho_index,
    sawtooth_distance,
    sawtooth_identity_check,
    truncated_projection,
    walsh_1d,
    walsh_nd,
)


def frac(t, g):
    return Fraction(t, 1 << g)


def omega_series_oracle(m: int, y: Fraction, g: int) -> Fraction:
    """Digit-sign series with its closed-form geometric tail.

    For y on the 2^-g grid every digit beyond g vanishes, so signs past g
    are +1 and the tail sums exactly.
    """
    assert (y * (1 << g)).denominator == 1
    if y == 1:
        return Fraction(0) if m >= 1 else Fraction(2)
    acc = Fraction(0)
    rm = rademacher(m, y) if m <= g else 1
    for i in range(1, g - m + 1):
        acc += Fraction(1, 1 << i) * rm * rademacher(m + i, y)
    if g - m >= 0:
        acc += Fraction(rm, 1 << (g - m)) if g > m else Fraction(rm)
    else:
        acc = Fraction(1)
    return 1 - acc


def chi_quadrature_oracle(l: int, y: Fraction, res: int) -> Fraction:
    """Riemann sum of the character over dyadic cells, exact for cell-aligned y."""
    den = 1 << res
    t_end = int(y * den)
    assert Fraction(t_end, den) == y
    acc = Fraction(0)
    for t in range(t_end):
        acc += Fraction(walsh_1d(l, Fraction(t, den)), den)
    return acc


class TestWalsh1d:
    def test_index_zero_is_one(self):
        for x in (0, 0.3, Fraction(7, 8)):
            assert walsh_1d(0, x) == 1

    def test_hand_value(self):
        assert walsh_1d(3, Fraction(1, 4)) == -1

    def test_power_of_two_is_digit_sign(self):
        for s in range(1, 7):
            for t in range(1 << s):
                x = frac(t, s)
                for k in range(0, s):
                    assert walsh_1d(1 << k, x) == rademacher(k + 1, x)

    def test_domain(self):
        with pytest.raises(ValueError):
            walsh_1d(1, 1)
        with pytest.raises(ValueError):
            walsh_1d(1, -0.25)
        with pytest.raises(ValueError):
            walsh_1d(-1, 0.5)

    @settings(max_examples=300, derandomize=True)
    @given(st.integers(0, 1023), st.integers(0, 1023), st.integers(0, 1023))
    def test_character_laws(self, l, k, t):
        x = frac(t, 10)
        assert walsh_1d(l ^ k, x) == walsh_1d(l, x) * walsh_1d(k, x)

    @settings(max_examples=300, derandomize=True)
    @given(st.integers(0, 1023), st.integers(0, 1023), st.integers(0, 1023))
    def test_group_character_in_x(self, l, tx, ty):
        x, y = DyadicCoord(tx, 10), DyadicCoord(ty, 10)
        both = (x ^ y).value
        assert walsh_1d(l, both) == walsh_1d(l, x.value) * walsh_1d(l, y.value)


class TestWalshNd:
    def test_index_zero(self):
        assert walsh_nd((0, 0), DyadicPoint.zero(2, 3)) == 1

    def test_at_origin(self):
        assert walsh_nd((5, 2, 7), DyadicPoint.zero(3, 3)) == 1

    def test_product_structure(self):
        rng = random.Random(5)
        for _ in range(50):
            s = rng.randint(1, 6)
            n = rng.randint(1, 3)
            L = tuple(rng.randrange(1 << s) for _ in range(s))[:n]
            L = tuple(rng.randrange(1 << s) for _ in range(n))
            X = DyadicPoint(tuple(rng.getrandbits(s) for _ in range(n)), s)
            want = 1
            for l, c in zip(L, X.values()):
                want *= walsh_1d(l, c)
            assert walsh_nd(L, X) == want

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            walsh_nd((1, 2, 3), DyadicPoint.zero(2, 3))


class TestRademacher:
    def test_examples(self):
        assert rademacher(1, 0.3) == 1
        assert rademacher(1, 0.6) == -1
        assert rademacher(2, Fraction(1, 4)) == -1

    def test_bad_index(self):
        with pytest.raises(ValueError):
            rademacher(0, 0.5)

    def test_constant_on_cells(self):
        for i in (1, 2, 3):
            step = Fraction(1, 1 << i)
            for t in range(1 << i):
                left = t * step
                vals = {rademacher(i, left + k * step / 4) for k in range(4)}
                assert len(vals) == 1


class TestDecompose:
    def test_single_bit(self):
        d = decompose(1)
        assert (d.rho, d.lead, d.trunc) == (1, 1, 0)

    def test_six(self):
        d = decompose(6)
        assert (d.rho, d.lead, d.trunc) == (3, 1, 2)

    def test_zero(self):
        d = decompose(0)
        assert (d.rho, d.trunc) == (0, 0)

    @settings(max_examples=200, derandomize=True)
    @given(st.integers(0, 1 << 20))
    def test_recompose_and_bounds(self, l):
        d = decompose(l)
        assert d.recompose() == l
        if l:
            assert d.trunc < 1 << (d.rho - 1)
            assert l == d.trunc + (1 << (d.rho - 1))


class TestOmega:
    def test_errors(self):
        with pytest.raises(ValueError):
            omega(-1, 0.5)
        with pytest.raises(ValueError):
            omega(1, 1.5)

    def test_node_values(self):
        for m in range(1, 7):
            assert omega(m, 0) == 0
            assert omega(m, Fraction(1, 1 << m)) == 2
            if m >= 2:
                assert omega(m, Fraction(1, 1 << (m - 1))) == 0

    def test_order_zero_ramp(self):
        assert omega(0, Fraction(3, 8)) == Fraction(3, 4)
        assert omega(0, 1) == 2

    def test_range_and_periodicity(self):
        for m in (1, 2, 3):
            period = Fraction(1, 1 << (m - 1))
            for t in range(1 << 6):
                y = frac(t, 6)
                v = omega(m, y)
                assert 0 <= v <= 2
                if y + period <= 1:
                    assert omega(m, y + period) == v

    def test_series_oracle(self):
        g = 6
        for m in range(1, g + 2):
            for t in range((1 << g) + 1):
                y = frac(t, g)
                assert omega(m, y) == omega_series_oracle(m, y, g), (m, y)


class TestFineCoefficient:
    def test_zero_index_is_identity(self):
        for y in (0, Fraction(3, 8), 1):
            assert fine_coefficient(0, y) == Fraction(y)

    def test_vanishes_at_one(self):
        for l in range(1, 40):
            assert fine_coefficient(l, 1) == 0

    def test_against_quadrature_oracle(self):
        res = 6
        for l in range(32):
            for t in range((1 << res) + 1):
                y = frac(t, res)
                assert fine_coefficient(l, y) == chi_quadrature_oracle(l, y, res)

    def test_matches_sawtooth_closed_form(self):
        # Oracle: 2^(-rho-1) w_tau(y) omega_rho(y), with the index split at
        # its leading digit; indices up to one digit finer than y's grid.
        for g in range(8):
            for l in range(1, 1 << min(g + 1, 7)):
                d = decompose(l)
                for t in range((1 << g) + 1):
                    y = frac(t, g)
                    w = omega(d.rho, y)
                    want = Fraction(walsh_1d(d.trunc, y), 1 << (d.rho + 1)) * w if w else 0
                    assert fine_coefficient(l, y) == want, (l, y)

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            fine_coefficient(3, Fraction(1, 3))
        with pytest.raises(ValueError):
            fine_coefficient(0, Fraction(2, 3))

    def test_index_addition_matches_xor(self):
        # Expansion indices add a bit above the leading digit, so ordinary
        # addition and XOR coincide there.
        for l in range(1, 1 << 10):
            rho = rho_index(l)
            for i in range(1, 9):
                bit = 1 << (rho + i - 1)
                assert l + bit == l ^ bit

    def test_nd_product(self):
        assert fine_coefficient_nd((0, 0), (Fraction(1, 2), Fraction(3, 4))) == Fraction(3, 8)
        assert fine_coefficient_nd((3, 1), (1, 1)) == 0
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 3)
            L = tuple(rng.randrange(16) for _ in range(n))
            Y = tuple(frac(rng.randint(0, 64), 6) for _ in range(n))
            want = Fraction(1)
            for l, y in zip(L, Y):
                want *= fine_coefficient(l, y)
            assert fine_coefficient_nd(L, Y) == want

    def test_square_norm_identity(self):
        # Exact piecewise-quadratic integration of the coefficient profile.
        for l in range(64):
            r = max(l.bit_length(), 1)
            den = 1 << r
            vals = [fine_coefficient(l, Fraction(t, den)) for t in range(den + 1)]
            acc = Fraction(0)
            for a, b in zip(vals, vals[1:]):
                acc += (a * a + a * b + b * b) / (3 * den)
            assert acc == Fraction(1, 3 * (1 << (2 * rho_index(l))))


class TestOrthonormality:
    def test_grid_quadrature(self):
        # Exact integer Gram matrices over the full tensor grid.
        for s in (1, 2, 3):
            size = 1 << s
            w1 = np.array(
                [[walsh_1d(l, frac(t, s)) for t in range(size)] for l in range(size)],
                dtype=np.int64,
            )
            gram = w1 @ w1.T
            assert (gram == size * np.eye(size, dtype=np.int64)).all()
            w2 = np.kron(w1, w1)
            gram2 = w2 @ w2.T
            assert (gram2 == size * size * np.eye(size * size, dtype=np.int64)).all()


class TestStepFunctions:
    def test_constant_projection(self):
        f = StepFunction.constant(Fraction(5, 8), 3)
        g = truncated_projection(f, 1)
        assert set(g.values) == {Fraction(5, 8)}
        h = truncated_projection(f, 5)
        assert h(Fraction(17, 32)) == Fraction(5, 8)

    def test_identity_averages(self):
        # Cell averages of x at a fine grid, projected down to one digit.
        m = 5
        f = StepFunction(m, tuple(Fraction(2 * t + 1, 1 << (m + 1)) for t in range(1 << m)))
        g = truncated_projection(f, 1)
        assert g.values == (Fraction(1, 4), Fraction(3, 4))

    def test_projection_equals_walsh_partial_sum(self):
        rng = random.Random(13)
        for s in range(0, 5):
            res = 5
            f = StepFunction(res, tuple(Fraction(rng.randint(-8, 8), 4) for _ in range(1 << res)))
            proj = truncated_projection(f, s)
            for t in range(1 << res):
                x = frac(t, res)
                partial = sum(
                    (f.walsh_coefficient(l) * walsh_1d(l, x) for l in range(1 << s)),
                    Fraction(0),
                )
                assert partial == proj(x)

    def test_integral_preserved(self):
        rng = random.Random(14)
        f = StepFunction(4, tuple(Fraction(rng.randint(0, 9)) for _ in range(16)))
        assert truncated_projection(f, 2).integral() == f.integral()


class TestSawtooth:
    def test_endpoints(self):
        assert sawtooth_distance(0) == 0
        assert sawtooth_distance(Fraction(1, 2)) == Fraction(1, 2)
        assert sawtooth_identity_check(0)
        assert sawtooth_identity_check(Fraction(1, 2))

    def test_exhaustive_grid(self):
        for t in range(1 << 8):
            assert sawtooth_identity_check(frac(t, 8))
