import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadnet import walsh
from oracles import (
    DyadicPoint,
    check_fine_closed_form,
    check_fine_square_norm,
    digit_word,
    fine_coefficient,
    omega,
    walsh_1d,
    walsh_nd,
)


def frac(t, g):
    return Fraction(t, 1 << g)


def digit_sign(i: int, y: Fraction) -> int:
    """Sign of binary digit i of y: +1 if the digit is 0, -1 if it is 1."""
    return -1 if digit_word(y, i) & 1 else 1


def omega_series_oracle(m: int, y: Fraction, g: int) -> Fraction:
    """Digit-sign series with its closed-form geometric tail.

    For y on the 2^-g grid every digit beyond g vanishes, so signs past g
    are +1 and the tail sums exactly.
    """
    assert (y * (1 << g)).denominator == 1
    if y == 1:
        return Fraction(0) if m >= 1 else Fraction(2)
    acc = Fraction(0)
    rm = digit_sign(m, y) if m <= g else 1
    for i in range(1, g - m + 1):
        acc += Fraction(1, 1 << i) * rm * digit_sign(m + i, y)
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
                    assert walsh_1d(1 << k, x) == digit_sign(k + 1, x)

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
        both, vx, vy = (Fraction(w, 1 << 10) for w in (tx ^ ty, tx, ty))
        assert walsh_1d(l, both) == walsh_1d(l, vx) * walsh_1d(l, vy)


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
                rho = l.bit_length()
                tau = l ^ (1 << (rho - 1))
                for t in range((1 << g) + 1):
                    y = frac(t, g)
                    w = omega(rho, y)
                    want = Fraction(walsh_1d(tau, y), 1 << (rho + 1)) * w if w else 0
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
            rho = l.bit_length()
            for i in range(1, 9):
                bit = 1 << (rho + i - 1)
                assert l + bit == l ^ bit

    def test_square_norm_identity(self):
        # Exact piecewise-quadratic integration of the coefficient profile.
        for l in range(64):
            r = max(l.bit_length(), 1)
            den = 1 << r
            vals = [fine_coefficient(l, Fraction(t, den)) for t in range(den + 1)]
            acc = Fraction(0)
            for a, b in zip(vals, vals[1:]):
                acc += (a * a + a * b + b * b) / (3 * den)
            assert acc == Fraction(1, 3 * (1 << (2 * l.bit_length())))

    def test_self_checks(self):
        closed = check_fine_closed_form()
        assert closed.passed
        assert closed.checked == 64 * 257
        square = check_fine_square_norm()
        assert square.passed
        assert square.checked == 64


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


@pytest.mark.parametrize("bits", range(7))
def test_synthesis_is_the_character_sum_at_every_cell(bits):
    # Any integer coefficients, big and negative among them: entry c sums
    # coefficient q times (-1)^parity(q & c).
    rng = random.Random(bits)
    coefficients = [rng.randrange(-1 << 70, 1 << 70) for _ in range(1 << bits)]
    want = [sum(a if (q & c).bit_count() % 2 == 0 else -a
                for q, a in enumerate(coefficients))
            for c in range(1 << bits)]
    assert walsh.synthesis(coefficients) == want
