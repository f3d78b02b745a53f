import random
from fractions import Fraction
from pathlib import Path

import pytest

from dyadnet.nets import (
    GeneratorFormatError,
    GeneratorSet,
    InjectivityError,
    PointSet,
    RescaleError,
    as_subspace,
    certify_deficiency,
    format_generator_file,
    load_generators,
    net_points,
    parse_generator_file,
    random_shift,
    rescale_to_N,
    sobol_generators,
    van_der_corput_generators,
    verify_box_counts,
)


class TestNetPoints:
    def test_vdc_s2_exact_points(self):
        pts = net_points(van_der_corput_generators(2))
        want = {
            (Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 4)),
            (Fraction(3, 4), Fraction(3, 4)),
        }
        assert set(pts.points) == want

    def test_zero_point_membership(self):
        for gen in (van_der_corput_generators(4), sobol_generators(3, 5)):
            assert (Fraction(0),) * gen.n in set(net_points(gen).points)

    def test_shift_is_bijection(self):
        gen = van_der_corput_generators(3)
        t = random_shift(2, 3, seed=2)
        shifted = net_points(gen, t)
        assert shifted.size == 8
        assert len(set(shifted.points)) == 8
        if any(t.point.words):
            assert (Fraction(0), Fraction(0)) not in set(shifted.points)

    def test_cardinality(self):
        for s in range(1, 9):
            assert net_points(van_der_corput_generators(s)).size == 1 << s

    def test_singular_rejected(self):
        rows = (0b011, 0b011, 0b011)  # rank 1
        gen = GeneratorSet(1, 3, (rows,))
        with pytest.raises(InjectivityError):
            as_subspace(gen)
        with pytest.raises(InjectivityError):
            net_points(gen)


class TestAsSubspace:
    def test_vdc_dims(self):
        sub = as_subspace(van_der_corput_generators(2))
        assert sub.dim == 2
        assert sub.dual().dim == (2 - 1) * 2

    def test_round_trip(self):
        for gen in (van_der_corput_generators(3), sobol_generators(3, 3)):
            sub = as_subspace(gen)
            enum = {p.values() for p in sub.enumerate_points()}
            assert enum == set(net_points(gen).points)


class TestCertify:
    def test_vdc_deficiency_zero(self):
        for s in range(1, 9):
            q = certify_deficiency(van_der_corput_generators(s))
            assert q.deficiency == 0
            assert q.dual_rt_weight == s + 1

    def test_sobol_high_dim_positive_deficiency(self):
        q = certify_deficiency(sobol_generators(4, 6))
        assert q.deficiency > 0

    def test_quality_invariant(self):
        for n, s in ((2, 4), (3, 4), (4, 4)):
            q = certify_deficiency(sobol_generators(n, s))
            assert q.dual_rt_weight == s - q.deficiency + 1

    def test_agrees_with_box_counting(self):
        cases = [van_der_corput_generators(s) for s in range(2, 7)]
        cases += [sobol_generators(3, s) for s in range(2, 7)]
        cases += [sobol_generators(4, 4), sobol_generators(4, 5)]
        for gen in cases:
            q = certify_deficiency(gen)
            pts = net_points(gen)
            assert verify_box_counts(pts, q.deficiency)
            if q.deficiency > 0:
                # Certified deficiency is minimal.
                assert not verify_box_counts(pts, q.deficiency - 1)


def _dual_weight_oracle(gen: GeneratorSet) -> int:
    """Minimum RT weight of the nonzero dual by enumeration; s + 1 when the
    dual is zero."""
    dual = as_subspace(gen).dual()
    return gen.s + 1 if dual.dim == 0 else dual.min_weight()


def _random_injective_generators(rng: random.Random, n: int, s: int) -> GeneratorSet:
    while True:
        rows = tuple(tuple(rng.getrandbits(s) for _ in range(s)) for _ in range(n))
        gen = GeneratorSet(n, s, rows)
        try:
            as_subspace(gen)
        except InjectivityError:
            continue
        return gen


class TestRankCertificateAgainstDualOracle:
    """The rank certificate equals the exhaustive dual weight."""

    def _check(self, gen: GeneratorSet):
        q = certify_deficiency(gen)
        want = _dual_weight_oracle(gen)
        assert (q.deficiency, q.dual_rt_weight) == (gen.s + 1 - want, want), (
            gen.name, gen.n, gen.s, gen.rows)
        assert certify_deficiency(as_subspace(gen)) == q

    def test_sobol(self):
        for n in range(1, 7):
            for s in range(1, 9):
                if (n - 1) * s <= 18:  # dual has at most 2^18 elements
                    self._check(sobol_generators(n, s))

    def test_van_der_corput(self):
        for s in range(1, 9):
            self._check(van_der_corput_generators(s))

    def test_random_generator_sets(self):
        rng = random.Random(1306)
        for _ in range(200):
            self._check(_random_injective_generators(rng, rng.randint(1, 4),
                                                     rng.randint(1, 6)))

    def test_subspace_of_wrong_dimension_rejected(self):
        sub = as_subspace(sobol_generators(3, 4))
        with pytest.raises(ValueError):
            certify_deficiency(sub.dual())


class TestBoxCounts:
    def test_vdc_strict(self):
        assert verify_box_counts(net_points(van_der_corput_generators(3)), 0)

    def test_diagonal_fails(self):
        for s in (2, 3, 4):
            den = 1 << s
            diag = PointSet(
                tuple((Fraction(k, den), Fraction(k, den)) for k in range(den)), 2
            )
            assert not verify_box_counts(diag, 0)
            assert verify_box_counts(diag, s)

    def test_full_box_trivial(self):
        pts = net_points(sobol_generators(3, 3))
        assert verify_box_counts(pts, 3)

    def test_shift_invariance(self):
        gen = van_der_corput_generators(4)
        for seed in range(5):
            shifted = net_points(gen, random_shift(2, 4, seed))
            assert verify_box_counts(shifted, 0)

    def test_requires_power_of_two(self):
        pts = PointSet(((Fraction(0), Fraction(0)),) * 1 + ((Fraction(1, 2), Fraction(1, 4)),
                       (Fraction(1, 4), Fraction(1, 2))), 2)
        with pytest.raises(ValueError):
            verify_box_counts(pts, 0)


class TestRandomShift:
    def test_deterministic(self):
        a = random_shift(3, 5, seed=11)
        b = random_shift(3, 5, seed=11)
        assert a.point == b.point
        assert a.seed == 11

    def test_dimensions(self):
        t = random_shift(4, 6, seed=0)
        assert t.point.n == 4 and t.point.s == 6

    def test_digit_means(self):
        draws = 10000
        n, s = 2, 8
        ones = [0] * (n * s)
        for seed in range(draws):
            t = random_shift(n, s, seed)
            for j, w in enumerate(t.point.words):
                for i in range(s):
                    ones[j * s + i] += (w >> i) & 1
        # Binomial(10^4, 1/2): 3 sigma = 150.
        for c in ones:
            assert abs(c - draws / 2) <= 3 * (draws**0.5) / 2


class TestRescale:
    def test_power_of_two_identity(self):
        gen = van_der_corput_generators(3)
        res = rescale_to_N(gen, 8)
        assert res.divisor == 1
        assert set(res.points.points) == set(net_points(gen).points)

    def test_one_point_net(self):
        gen = GeneratorSet(2, 0, ((), ()))
        res = rescale_to_N(gen, 1)
        assert res.points.points == ((Fraction(0), Fraction(0)),)

    def test_count_monotone_in_threshold(self):
        pts = net_points(van_der_corput_generators(4), random_shift(2, 4, 3))
        thresholds = sorted({max(p) for p in pts.points}) + [Fraction(1)]
        counts = [
            sum(1 for p in pts.points if max(p) <= a) for a in thresholds
        ]
        assert counts == sorted(counts)

    def test_exact_counts_with_retries(self):
        # Corner counts (2^s - 1 etc.) need the coset to own specific extreme
        # points, so higher-dimensional nets want a deeper retry budget.
        gens = [(van_der_corput_generators(s), 64) for s in range(2, 9)]
        gens += [(sobol_generators(3, s), 4096) for s in range(2, 6)]
        for gen, retries in gens:
            lo, hi = 1 << (gen.s - 1), 1 << gen.s
            for count in range(lo, hi):
                res = rescale_to_N(gen, count, shift_retries=retries)
                assert res.points.size == count
                arr = res.points.points
                assert all(0 <= c < 1 for p in arr for c in p)
                assert Fraction(1, 2) < res.divisor <= 1

    def test_tie_failure_without_retries(self):
        # Unshifted planar net at s=2: counts jump 1 -> 3, so 2 is cut off.
        with pytest.raises(RescaleError):
            rescale_to_N(van_der_corput_generators(2), 2)

    def test_range_validation(self):
        gen = van_der_corput_generators(3)
        with pytest.raises(ValueError):
            rescale_to_N(gen, 3)
        with pytest.raises(ValueError):
            rescale_to_N(gen, 9)


class TestGeneratorFiles:
    def test_round_trip(self, tmp_path: Path):
        gen = sobol_generators(3, 5)
        text = format_generator_file(gen)
        back = parse_generator_file(text)
        assert back.rows == gen.rows
        path = tmp_path / "net.txt"
        path.write_text(text)
        loaded = load_generators(f"file:{path}")
        assert loaded.rows == gen.rows

    def test_malformed_row_names_line(self):
        text = "2 3\n\n101\n010\n001\n\n111\n01\n001\n"
        with pytest.raises(GeneratorFormatError) as err:
            parse_generator_file(text)
        assert "line 8" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(GeneratorFormatError):
            parse_generator_file("weird\n")
        with pytest.raises(GeneratorFormatError):
            parse_generator_file("2\n")

    def test_missing_rows(self):
        with pytest.raises(GeneratorFormatError):
            parse_generator_file("1 3\n\n101\n010\n")

    def test_trailing_garbage(self):
        with pytest.raises(GeneratorFormatError):
            parse_generator_file("1 1\n\n1\n\nextra\n")


class TestLoadGenerators:
    def test_builtin_vdc(self):
        gen = load_generators("van-der-corput", s=4)
        ident, anti = gen.rows
        assert ident == (1, 2, 4, 8)
        assert anti == (8, 4, 2, 1)

    def test_sobol_injective(self):
        gen = load_generators("sobol", n=3, s=8)
        assert net_points(gen).size == 256

    def test_sobol_dimension_range(self):
        with pytest.raises(ValueError):
            load_generators("sobol", n=11, s=4)

    def test_unknown_source(self):
        with pytest.raises(ValueError):
            load_generators("latin-hypercube", s=3)

    def test_requested_shape_mismatch(self):
        with pytest.raises(ValueError):
            load_generators("van-der-corput", n=3, s=4)
