import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dyadnet.f2core import (
    DimensionMismatchError,
    DyadicCoord,
    DyadicPoint,
    EnumerationCapError,
    F2Subspace,
    UndefinedWeightError,
    _character,
    _rev_packed,
    iter_grid,
    oplus,
    pairing,
    rt_weight,
)
import dyadnet
from dyadnet.nets import van_der_corput_generators, as_subspace, net_points
from dyadnet.walsh import walsh_nd


def coord(v, s):
    return DyadicCoord.from_value(Fraction(v), s)


def pairing_oracle(x: DyadicCoord, y: DyadicCoord) -> int:
    # Defining digit sum, written out without bit tricks.
    s = x.s
    return sum(x.xi(i) * y.xi(s - i + 1) for i in range(1, s + 1)) % 2


def point_pairing_oracle(x: DyadicPoint, y: DyadicPoint) -> int:
    return sum(pairing_oracle(x.coord(j), y.coord(j)) for j in range(x.n)) % 2


class TestOplus:
    def test_half_plus_three_quarters(self):
        assert (coord("1/2", 2) ^ coord("3/4", 2)).value == Fraction(1, 4)

    def test_self_inverse(self):
        for s in (1, 3, 5):
            for w in range(0, 1 << s, 3):
                x = DyadicCoord(w, s)
                assert (x ^ x).word == 0

    def test_pointwise(self):
        a = DyadicPoint.from_values([Fraction(1, 2), Fraction(1, 8)], 3)
        b = DyadicPoint.from_values([Fraction(1, 4), Fraction(1, 8)], 3)
        assert oplus(a, b).values() == (Fraction(3, 4), Fraction(0))

    def test_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            coord("1/2", 2) ^ coord("1/2", 3)
        with pytest.raises(DimensionMismatchError):
            DyadicPoint.zero(2, 3) ^ DyadicPoint.zero(3, 3)

    def test_commutative_associative(self):
        rng = random.Random(0)
        for _ in range(50):
            s = rng.randint(1, 8)
            a, b, c = (DyadicCoord(rng.getrandbits(s), s) for _ in range(3))
            assert (a ^ b).word == (b ^ a).word
            assert ((a ^ b) ^ c).word == (a ^ (b ^ c)).word


class TestPairing:
    def test_hand_values(self):
        assert pairing(coord("1/2", 2), coord("1/2", 2)) == 0
        assert pairing(coord("1/2", 2), coord("1/4", 2)) == 1

    def test_zero_annihilates(self):
        rng = random.Random(1)
        for _ in range(20):
            s = rng.randint(1, 6)
            n = rng.randint(1, 3)
            x = DyadicPoint(tuple(rng.getrandbits(s) for _ in range(n)), s)
            assert pairing(x, DyadicPoint.zero(n, s)) == 0

    def test_against_digit_oracle_exhaustive(self):
        for s in (1, 2, 3, 4):
            for wx in range(1 << s):
                for wy in range(1 << s):
                    x, y = DyadicCoord(wx, s), DyadicCoord(wy, s)
                    assert pairing(x, y) == pairing_oracle(x, y)
                    assert pairing(x, y) == pairing(y, x)

    @settings(max_examples=200, derandomize=True)
    @given(st.integers(0, 1023), st.integers(0, 1023), st.integers(0, 1023))
    def test_bilinear(self, wa, wb, wc):
        a, b, c = DyadicCoord(wa, 10), DyadicCoord(wb, 10), DyadicCoord(wc, 10)
        assert pairing(a ^ b, c) == (pairing(a, c) + pairing(b, c)) % 2

    def test_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pairing(DyadicPoint.zero(2, 2), DyadicPoint.zero(2, 3))


class TestRTWeight:
    def test_zero(self):
        assert rt_weight(DyadicCoord(0, 3)) == 0
        assert rt_weight(DyadicPoint.zero(2, 5)) == 0

    def test_examples(self):
        assert rt_weight(coord("1/2", 3)) == 3
        assert rt_weight(coord("1/8", 3)) == 1
        p = DyadicPoint.from_values([Fraction(1, 2), Fraction(1, 8)], 3)
        assert rt_weight(p) == 4

    def test_digit_oracle(self):
        # Position of the last nonzero reversed digit, straight from digits.
        for s in (1, 3, 5):
            for w in range(1 << s):
                x = DyadicCoord(w, s)
                want = max((i for i in range(1, s + 1) if x.xi(i)), default=0)
                assert rt_weight(x) == want

    def test_theta_compatibility(self):
        # The grid word doubles as the integer index; weights must agree.
        for s in (2, 4):
            for w in range(1 << s):
                assert rt_weight(DyadicCoord(w, s)) == w.bit_length()

    def test_triangle_inequality_exhaustive(self):
        for s in range(1, 7):
            for wx in range(1 << s):
                for wy in range(1 << s):
                    x, y = DyadicCoord(wx, s), DyadicCoord(wy, s)
                    rxy = rt_weight(x ^ y)
                    rx, ry = rt_weight(x), rt_weight(y)
                    assert rxy <= max(rx, ry) <= rx + ry

    def test_positive_iff_nonzero(self):
        for s in (1, 4):
            for w in range(1 << s):
                assert (rt_weight(DyadicCoord(w, s)) == 0) == (w == 0)


def random_subspace(rng: random.Random, n: int, s: int) -> F2Subspace:
    k = rng.randint(0, n * s)
    vecs = [rng.getrandbits(n * s) for _ in range(k)]
    return F2Subspace.from_packed(n, s, vecs)


def dual_oracle(sub: F2Subspace) -> set:
    """Brute-force annihilator over the whole ambient grid."""
    basis_pts = [DyadicPoint.from_packed(b, sub.n, sub.s) for b in sub.basis]
    out = set()
    for x in iter_grid(sub.n, sub.s):
        if all(pairing(x, b) == 0 for b in basis_pts):
            out.add(x.words)
    return out


class TestSubspace:
    def test_dual_of_zero_and_full(self):
        z = F2Subspace.zero(2, 3)
        f = F2Subspace.full(2, 3)
        assert z.dual() == f
        assert f.dual() == z

    def test_vdc_dual_example(self):
        sub = as_subspace(van_der_corput_generators(2))
        d = sub.dual()
        assert d.dim == 2
        assert d.min_weight() == 3
        assert dual_oracle(sub) == {p.words for p in d.enumerate_points()}

    def test_dual_against_oracle_random(self):
        rng = random.Random(7)
        for _ in range(25):
            n, s = rng.randint(1, 2), rng.randint(1, 3)
            sub = random_subspace(rng, n, s)
            assert dual_oracle(sub) == {p.words for p in sub.dual().enumerate_points()}

    def test_involution_and_dimension_formula(self):
        rng = random.Random(42)
        for _ in range(100):
            n, s = rng.randint(1, 3), rng.randint(1, 5)
            sub = random_subspace(rng, n, s)
            d = sub.dual()
            assert sub.dim + d.dim == n * s
            assert d.dual() == sub

    def test_rref_canonical(self):
        rng = random.Random(9)
        for _ in range(30):
            sub = random_subspace(rng, 2, 4)
            if sub.dim == 0:
                continue
            # Re-generate from random combinations of the basis.
            combos = []
            for _ in range(3 * sub.dim):
                mask = rng.randint(1, sub.cardinality - 1)
                v = 0
                for i in range(sub.dim):
                    if (mask >> i) & 1:
                        v ^= sub.basis[i]
                combos.append(v)
            again = F2Subspace.from_packed(2, 4, combos)
            if again.dim == sub.dim:
                assert again == sub

    def test_enumerate_dim0(self):
        assert list(F2Subspace.zero(2, 3).enumerate_packed()) == [0]

    def test_enumerate_counts_and_distinct(self):
        rng = random.Random(3)
        for _ in range(10):
            sub = random_subspace(rng, 2, 4)
            elems = list(sub.enumerate_packed())
            assert len(elems) == sub.cardinality == len(set(elems))

    def test_enumerate_matches_net_points(self):
        gen = van_der_corput_generators(2)
        sub = as_subspace(gen)
        from_net = {p for p in net_points(gen).points}
        from_enum = {p.values() for p in sub.enumerate_points()}
        assert from_net == from_enum

    def test_enumeration_cap(self):
        sub = F2Subspace.full(3, 5)
        with pytest.raises(EnumerationCapError) as err:
            list(sub.enumerate_packed(cap=1 << 10))
        assert err.value.required == 1 << 15

    def test_min_weight_zero_space(self):
        with pytest.raises(UndefinedWeightError):
            F2Subspace.zero(2, 3).min_weight()

    def test_contains(self):
        sub = as_subspace(van_der_corput_generators(3))
        for p in sub.enumerate_points():
            assert sub.contains(p)
        assert not sub.contains(DyadicPoint.from_values([Fraction(1, 2), 0], 3))


class TestCharacterCompatibility:
    def test_walsh_equals_pairing_exhaustive(self):
        # Tensor character at the grid index of Y vs the bilinear form.
        s, n = 3, 2
        for x in iter_grid(n, s):
            for y in iter_grid(n, s):
                lhs = walsh_nd(y.words, x)
                rhs = -1 if pairing(x, y) else 1
                assert lhs == rhs
                # The packed character; the reversal may sit on either side.
                assert _character(_rev_packed(y.pack(), n, s), x.pack()) == lhs
                assert _character(_rev_packed(x.pack(), n, s), y.pack()) == lhs


class TestOneCharacter:
    def test_no_hand_written_character_outside_f2core(self):
        # The tensor character is f2core._character; outside f2core no
        # function pairs a bit reversal with parity by hand.  walsh_1d
        # stays as the independent test oracle.
        reversals = {"bit_reverse", "_rev_packed", "_rev_words"}
        offenders = []
        for path in sorted(Path(dyadnet.__file__).parent.glob("*.py")):
            if path.stem == "f2core":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                called = {
                    c.func.id if isinstance(c.func, ast.Name) else c.func.attr
                    for c in ast.walk(node)
                    if isinstance(c, ast.Call)
                    and isinstance(c.func, (ast.Name, ast.Attribute))
                }
                name = f"{path.stem}.{node.name}"
                if ("parity" in called and called & reversals
                        and name != "walsh.walsh_1d"):
                    offenders.append(name)
        assert offenders == []
