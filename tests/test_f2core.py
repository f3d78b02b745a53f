import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from dyadnet.f2core import (
    F2Subspace,
    UndefinedWeightError,
    _character,
    _index,
    _packed_weight,
    _rank,
    _reduce,
    _rev_packed,
    _span,
    _unpack,
)
from dyadnet.nets import (
    _leading_digits_mask,
    net_points,
    sobol_generators,
    van_der_corput_generators,
)
from oracles import DyadicPoint, full_subspace, iter_grid, walsh_nd, zero_subspace


def coord(v, s):
    """A coordinate: the one-dimensional point at value v."""
    return DyadicPoint.from_values([Fraction(v)], s)


def xi(w: int, i: int) -> int:
    """Digit i of the word w, counted from the least significant end."""
    return (w >> (i - 1)) & 1


def pairing_oracle(x: DyadicPoint, y: DyadicPoint) -> int:
    # Defining digit sum over the coordinates, written out without bit tricks.
    s = x.s
    return sum(xi(a, i) * xi(b, s - i + 1)
               for a, b in zip(x.words, y.words) for i in range(1, s + 1)) % 2


def pairing(x: DyadicPoint, y: DyadicPoint) -> int:
    """The bit-reversed pairing in GF(2), read off the production character."""
    return (1 - _character(_rev_packed(x.pack(), x.n, x.s), y.pack())) // 2


def rt_weight(x: DyadicPoint) -> int:
    """The production Rosenbloom-Tsfasman weight of a point."""
    return _packed_weight(x.pack(), x.n, x.s)


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
                    x, y = DyadicPoint((wx,), s), DyadicPoint((wy,), s)
                    assert pairing(x, y) == pairing_oracle(x, y)
                    assert pairing(x, y) == pairing(y, x)

    @settings(max_examples=200, derandomize=True)
    @given(st.integers(0, 1023), st.integers(0, 1023), st.integers(0, 1023))
    def test_bilinear(self, wa, wb, wc):
        a, b, c = (DyadicPoint((w,), 10) for w in (wa, wb, wc))
        a_plus_b = DyadicPoint((wa ^ wb,), 10)
        assert pairing(a_plus_b, c) == (pairing(a, c) + pairing(b, c)) % 2


class TestRTWeight:
    def test_zero(self):
        assert rt_weight(DyadicPoint((0,), 3)) == 0
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
                want = max((i for i in range(1, s + 1) if xi(w, i)), default=0)
                assert rt_weight(DyadicPoint((w,), s)) == want

    def test_theta_compatibility(self):
        # The grid word doubles as the integer index; weights must agree.
        for s in (2, 4):
            for w in range(1 << s):
                assert rt_weight(DyadicPoint((w,), s)) == w.bit_length()

    def test_triangle_inequality_exhaustive(self):
        for s in range(1, 7):
            for wx in range(1 << s):
                for wy in range(1 << s):
                    x, y = DyadicPoint((wx,), s), DyadicPoint((wy,), s)
                    rxy = rt_weight(DyadicPoint((wx ^ wy,), s))
                    rx, ry = rt_weight(x), rt_weight(y)
                    assert rxy <= max(rx, ry) <= rx + ry

    def test_positive_iff_nonzero(self):
        for s in (1, 4):
            for w in range(1 << s):
                assert (rt_weight(DyadicPoint((w,), s)) == 0) == (w == 0)


def random_subspace(rng: random.Random, n: int, s: int) -> F2Subspace:
    k = rng.randint(0, n * s)
    vecs = [rng.getrandbits(n * s) for _ in range(k)]
    return F2Subspace.from_packed(n, s, vecs)


def dual_oracle(sub: F2Subspace) -> set:
    """Brute-force annihilator over the whole ambient grid."""
    basis_pts = [DyadicPoint(_unpack(b, sub.n, sub.s), sub.s) for b in sub.basis]
    out = set()
    for x in iter_grid(sub.n, sub.s):
        if all(pairing(x, b) == 0 for b in basis_pts):
            out.add(x.words)
    return out


class TestSubspace:
    def test_dual_of_zero_and_full(self):
        z = zero_subspace(2, 3)
        f = full_subspace(2, 3)
        assert z.dual() == f
        assert f.dual() == z

    def test_vdc_dual_example(self):
        sub = van_der_corput_generators(2).subspace
        d = sub.dual()
        assert d.dim == 2
        assert d.min_weight() == 3
        assert dual_oracle(sub) == {_unpack(p, 2, 2) for p in d.enumerate_packed()}

    def test_dual_against_oracle_random(self):
        rng = random.Random(7)
        for _ in range(25):
            n, s = rng.randint(1, 2), rng.randint(1, 3)
            sub = random_subspace(rng, n, s)
            assert dual_oracle(sub) == {_unpack(p, n, s)
                                        for p in sub.dual().enumerate_packed()}

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
        assert list(zero_subspace(2, 3).enumerate_packed()) == [0]

    def test_enumerate_counts_and_distinct(self):
        rng = random.Random(3)
        for _ in range(10):
            sub = random_subspace(rng, 2, 4)
            elems = list(sub.enumerate_packed())
            assert len(elems) == sub.cardinality == len(set(elems))

    def test_enumerate_matches_net_points(self):
        gen = van_der_corput_generators(2)
        sub = gen.subspace
        from_net = {p for p in net_points(gen).points}
        from_enum = {DyadicPoint(_unpack(p, 2, 2), 2).values()
                     for p in sub.enumerate_packed()}
        assert from_net == from_enum

    def test_enumerate_is_the_span_of_the_basis(self):
        rng = random.Random(22)
        for _ in range(20):
            sub = random_subspace(rng, 2, 4)
            assert list(_span(sub.basis)) == list(sub.enumerate_packed())

    def test_span_element_i_follows_the_gray_code_of_i(self):
        words = (0b1011, 0b0110, 0b1000, 0b0001)
        for i, v in enumerate(_span(words)):
            gray = i ^ (i >> 1)
            want = 0
            for k, w in enumerate(words):
                if (gray >> k) & 1:
                    want ^= w
            assert v == want

    def test_span_of_dependent_words_repeats(self):
        # 3 ^ 5 == 6: three words span four elements, each listed twice.
        elems = list(_span((3, 5, 6)))
        assert len(elems) == 8
        assert sorted(elems) == [0, 0, 3, 3, 5, 5, 6, 6]
        assert list(_span((7, 7))) == [0, 7, 0, 7]
        assert list(_span(())) == [0]

    def test_min_weight_zero_space(self):
        with pytest.raises(UndefinedWeightError):
            zero_subspace(2, 3).min_weight()


class TestRank:
    def test_rank_is_the_length_of_the_reduced_basis(self):
        rng = random.Random(2410)
        for _ in range(500):
            width = rng.randint(1, 12)
            words = [rng.getrandbits(width) for _ in range(rng.randint(0, 8))]
            # Zeros, repeats and sums of earlier words make the list dependent.
            for _ in range(rng.randint(0, 4)):
                kind = rng.randrange(3)
                if kind == 0 or not words:
                    words.append(0)
                elif kind == 1:
                    words.append(rng.choice(words))
                else:
                    words.append(rng.choice(words) ^ rng.choice(words))
            rng.shuffle(words)
            assert _rank(iter(words)) == len(_reduce(words)), words


class TestCharacterCompatibility:
    def test_walsh_equals_pairing_exhaustive(self):
        # Tensor character at the grid index of Y vs the bilinear form.
        s, n = 3, 2
        for x in iter_grid(n, s):
            for y in iter_grid(n, s):
                lhs = walsh_nd(y.words, x)
                rhs = -1 if pairing_oracle(x, y) else 1
                assert lhs == rhs
                # The packed character; the reversal may sit on either side.
                assert _character(_rev_packed(y.pack(), n, s), x.pack()) == lhs
                assert _character(_rev_packed(x.pack(), n, s), y.pack()) == lhs


class TestPackedOrder:
    """`_index` is the one packed-order position: a base-side numeral,
    coordinate 0 fastest, and `_unpack`'s inverse at side 2^s; the words
    it lays out for `_rev_packed` and `_leading_digits_mask` agree with a
    bit-by-bit construction."""

    @pytest.mark.parametrize("side", range(2, 10))
    def test_index_is_the_base_side_numeral(self, side):
        for n in range(1, 4):
            for w in product(range(side), repeat=n):
                assert _index(w, side) == sum(wj * side**j for j, wj in enumerate(w)), w

    @pytest.mark.parametrize("n, s", [(1, 1), (1, 6), (2, 3), (3, 2), (3, 4), (4, 3)])
    def test_unpack_inverts_index(self, n, s):
        for w in product(range(1 << s), repeat=n):
            assert _unpack(_index(w, 1 << s), n, s) == w

    @staticmethod
    def _packed(bits, n, s):
        # bits(j, i) is digit i + 1 of coordinate j, bit s - 1 - i of its word.
        return sum(1 << (j * s + s - 1 - i)
                   for j in range(n) for i in range(s) if bits(j, i))

    @pytest.mark.parametrize("gen", [van_der_corput_generators(s) for s in range(1, 7)]
                             + [sobol_generators(3, 4), sobol_generators(4, 3)],
                             ids=lambda g: f"{g.n}-{g.s}")
    def test_rev_packed_and_leading_mask_match_bits(self, gen):
        n, s = gen.n, gen.s
        for d in product(range(s + 1), repeat=n):
            # The leading d_j digits of coordinate j; reversed, the trailing.
            assert _leading_digits_mask(d, s) == self._packed(lambda j, i: i < d[j], n, s), d
            lead = [(1 << s) - (1 << (s - dj)) for dj in d]
            assert _rev_packed(_index(lead, 1 << s), n, s) == self._packed(
                lambda j, i: i >= s - d[j], n, s), d
        for w in gen.point_words:
            assert _rev_packed(_index(w, 1 << s), n, s) == self._packed(
                lambda j, i: (w[j] >> i) & 1, n, s), w

