import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dyadnet.discrepancy import DiscrepancyContext
from dyadnet.f2core import F2Subspace, _unpack
from dyadnet.nets import (
    SOBOL_MAX_DIM,
    DigitShift,
    GeneratorFormatError,
    GeneratorSet,
    InjectivityError,
    RescaleError,
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
from oracles import DyadicPoint, box_counts_by_keys, certify_by_reduce, point_words_loop


def from_rows(n: int, s: int, rows) -> GeneratorSet:
    """The generator set spelled by matrix rows: rows[j][i] is row i + 1 of
    matrix j, a bitmask whose bit k multiplies index bit k and gives digit
    i + 1 (bit s - 1 - i of the column words)."""
    return GeneratorSet(n, s, tuple(
        tuple(sum(((r >> k) & 1) << (s - 1 - i) for i, r in enumerate(block))
              for k in range(s))
        for block in rows))


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
        if any(t.words):
            assert (Fraction(0), Fraction(0)) not in set(shifted.points)

    def test_cardinality(self):
        for s in range(1, 9):
            assert net_points(van_der_corput_generators(s)).size == 1 << s

    def test_singular_rejected(self):
        rows = (0b011, 0b011, 0b011)  # rank 1
        message = "generator map has rank 1 < 3; the net would collapse"
        with pytest.raises(InjectivityError, match=message):
            from_rows(1, 3, (rows,))
        with pytest.raises(InjectivityError, match=message):
            parse_generator_file("1 3\n\n110\n110\n110\n")
        # The map is tested as a whole: no coordinate alone is injective here.
        assert GeneratorSet(2, 3, ((4, 2, 6), (1, 2, 1))).point_words[0] == (0, 0)
        with pytest.raises(InjectivityError, match="rank 2 < 3"):
            GeneratorSet(2, 3, ((4, 2, 6), (1, 2, 3)))

    def test_columns_are_stored_as_a_tuple_of_ints(self):
        gen = GeneratorSet(2, 2, [[1, 2], (np.int64(2), 1)])
        assert gen.columns == ((1, 2), (2, 1))
        assert all(type(w) is int for block in gen.columns for w in block)
        assert gen == GeneratorSet(2, 2, ((1, 2), (2, 1)))
        assert hash(gen) == hash(GeneratorSet(2, 2, ((1, 2), (2, 1))))

    def test_columns_are_the_images_of_the_unit_index_words(self):
        for gen in (van_der_corput_generators(4), sobol_generators(3, 5)):
            for k in range(gen.s):
                # Gray-code position 2^(k+1) - 1 holds index word 1 << k.
                assert gen.point_words[(2 << k) - 1] == tuple(
                    block[k] for block in gen.columns)

    @pytest.mark.parametrize("columns, match", [
        (((1, 2),), "expected n blocks of s columns"),
        (((1, 2), (1, 2, 4)), "expected n blocks of s columns"),
        (((1, 4), (1, 2)), "matrix column wider than s bits"),
    ])
    def test_malformed_columns_rejected(self, columns, match):
        with pytest.raises(GeneratorFormatError, match=match):
            GeneratorSet(2, 2, columns)


class TestSubspace:
    def test_vdc_dims(self):
        sub = van_der_corput_generators(2).subspace
        assert sub.dim == 2
        assert sub.dual().dim == (2 - 1) * 2

    def test_round_trip(self):
        for gen in (van_der_corput_generators(3), sobol_generators(3, 3)):
            sub = gen.subspace
            enum = {DyadicPoint(_unpack(p, sub.n, sub.s), sub.s).values()
                    for p in sub.enumerate_packed()}
            assert enum == set(net_points(gen).points)

    def test_consumers_take_the_subspace(self):
        gen = van_der_corput_generators(3)
        assert "subspace" not in repr(gen)
        with pytest.raises(TypeError, match="F2Subspace"):
            DiscrepancyContext.build(gen)


@pytest.mark.parametrize("make, field", [
    (lambda: sobol_generators(3, 4).subspace, "basis"),
    (lambda: sobol_generators(3, 4), "columns"),
    (lambda: DigitShift((1, 2), 2, seed=3), "words"),
    (lambda: net_points(van_der_corput_generators(2)), "points"),
    (lambda: DiscrepancyContext.build(sobol_generators(3, 4).subspace,
                                      random_shift(3, 4, seed=2)), "shift"),
], ids=["F2Subspace", "GeneratorSet", "DigitShift", "PointSet", "DiscrepancyContext"])
def test_value_types_are_immutable_values(make, field):
    value, twin = make(), make()
    assert value is not twin
    assert value == twin and hash(value) == hash(twin) and repr(value) == repr(twin)
    assert value != getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == twin


class TestCertify:
    def test_vdc_deficiency_zero(self):
        for s in range(1, 9):
            assert certify_deficiency(van_der_corput_generators(s).subspace) == 0

    def test_sobol_high_dim_positive_deficiency(self):
        assert certify_deficiency(sobol_generators(4, 6).subspace) > 0

    def test_agrees_with_box_counting(self):
        cases = [van_der_corput_generators(s) for s in range(2, 7)]
        cases += [sobol_generators(3, s) for s in range(2, 7)]
        cases += [sobol_generators(4, 4), sobol_generators(4, 5)]
        for gen in cases:
            deficiency = certify_deficiency(gen.subspace)
            words = gen.point_words
            assert verify_box_counts(words, gen.s, deficiency)
            if deficiency > 0:
                # Certified deficiency is minimal.
                assert not verify_box_counts(words, gen.s, deficiency - 1)


def _dual_weight_oracle(gen: GeneratorSet) -> int:
    """Minimum RT weight of the nonzero dual by enumeration; s + 1 when the
    dual is zero."""
    dual = gen.subspace.dual()
    return gen.s + 1 if dual.dim == 0 else dual.min_weight()


def _random_injective_generators(rng: random.Random, n: int, s: int) -> GeneratorSet:
    while True:
        rows = tuple(tuple(rng.getrandbits(s) for _ in range(s)) for _ in range(n))
        try:
            return from_rows(n, s, rows)
        except InjectivityError:
            continue


class TestRankCertificateAgainstDualOracle:
    """The rank certificate equals the exhaustive dual weight."""

    def _check(self, gen: GeneratorSet):
        deficiency = certify_deficiency(gen.subspace)
        assert gen.s + 1 - deficiency == _dual_weight_oracle(gen), (
            gen.n, gen.s, gen.columns)

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
        sub = sobol_generators(3, 4).subspace
        with pytest.raises(ValueError):
            certify_deficiency(sub.dual())

    def test_builtins_against_reduced_bases(self):
        gens = [van_der_corput_generators(s) for s in range(1, 11)]
        gens += [sobol_generators(n, s)
                 for n in range(1, SOBOL_MAX_DIM + 1) for s in range(1, 11)]
        for gen in gens:
            assert certify_deficiency(gen.subspace) == certify_by_reduce(gen.subspace), (
                gen.n, gen.s)


def shifted_words(gen: GeneratorSet, shift: DigitShift) -> list[tuple[int, ...]]:
    """Digit words of the shifted net, read back from its exact points."""
    return [DyadicPoint.from_values(p, gen.s).words for p in net_points(gen, shift).points]


class TestBoxCounts:
    def test_vdc_strict(self):
        assert verify_box_counts(van_der_corput_generators(3).point_words, 3, 0)

    def test_diagonal_fails(self):
        for s in (2, 3, 4):
            diag = [(k, k) for k in range(1 << s)]
            assert not verify_box_counts(diag, s, 0)
            assert verify_box_counts(diag, s, s)

    def test_full_box_trivial(self):
        assert verify_box_counts(sobol_generators(3, 3).point_words, 3, 3)

    def test_shift_invariance(self):
        gen = van_der_corput_generators(4)
        for seed in range(5):
            assert verify_box_counts(shifted_words(gen, random_shift(2, 4, seed)), 4, 0)

    def test_shifted_sobol_keeps_its_deficiency(self):
        gen = sobol_generators(3, 5)
        deficiency = certify_deficiency(gen.subspace)
        assert deficiency > 0
        for seed in range(3):
            words = shifted_words(gen, random_shift(3, 5, seed))
            assert verify_box_counts(words, 5, deficiency)
            assert not verify_box_counts(words, 5, deficiency - 1)

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            verify_box_counts([(0, 0), (2, 1), (1, 2)], 2, 0)

    @pytest.mark.parametrize("words, s", [
        ([], 2),
        ([(0, 0), (1, 1)], 2),
        ([(k, k) for k in range(8)], 2),
        ([(0,)], 0),
    ], ids=["empty", "too-few", "too-many", "zero-resolution"])
    def test_rejects_a_count_other_than_two_to_the_s(self, words, s):
        with pytest.raises(ValueError, match="box counting needs 2\\^s points"):
            verify_box_counts(words, s, 0)

    def test_rejects_bad_words(self):
        with pytest.raises(ValueError, match="out of range"):
            verify_box_counts([(0, 0), (1, 2)], 1, 0)
        with pytest.raises(ValueError, match="one dimension"):
            verify_box_counts([(0, 0), (1,)], 1, 0)


def _oracle_nets() -> list[GeneratorSet]:
    """Every builtin with s <= 8, 200 random nets, and a net whose
    coordinates are each singular (only the stacked map is injective)."""
    gens = [van_der_corput_generators(s) for s in range(1, 9)]
    gens += [sobol_generators(n, s) for n in range(1, SOBOL_MAX_DIM + 1) for s in range(1, 9)]
    rng = random.Random(2208)
    gens += [_random_injective_generators(rng, rng.randint(1, 4), rng.randint(1, 6))
             for _ in range(200)]
    gens.append(GeneratorSet(2, 3, ((4, 2, 6), (1, 2, 1))))
    return gens


class TestListingAndBoxesAgainstOracles:
    """The per-coordinate `_span` listing and the mask-keyed box count
    against the routes they replaced."""

    def test_net_with_singular_coordinates(self):
        gen = GeneratorSet(2, 3, ((4, 2, 6), (1, 2, 1)))
        assert all(len(set(col)) < 8 for col in zip(*gen.point_words))
        assert len(set(gen.point_words)) == 8

    def test_point_words(self):
        for gen in _oracle_nets():
            assert gen.point_words == point_words_loop(gen), (gen.n, gen.s, gen.columns)

    def test_box_counts_on_nets(self):
        for k, gen in enumerate(_oracle_nets()):
            n, s = gen.n, gen.s
            # All deficiencies together check comb(s + n, n) box shapes.
            if math.comb(s + n, n) > 1000:
                continue
            shift = random_shift(n, s, k).words
            for words in (gen.point_words,
                          [tuple(w ^ t for w, t in zip(p, shift)) for p in gen.point_words]):
                got = [verify_box_counts(words, s, d) for d in range(s + 1)]
                assert got == [box_counts_by_keys(words, s, d) for d in range(s + 1)]
                assert got[certify_deficiency(gen.subspace)], (n, s, gen.columns)

    def test_box_counts_on_random_word_lists(self):
        rng = random.Random(2209)
        for _ in range(200):
            n, s = rng.randint(1, 4), rng.randint(1, 6)
            words = [tuple(rng.getrandbits(s) for _ in range(n)) for _ in range(1 << s)]
            for d in range(s + 1):
                assert verify_box_counts(words, s, d) == box_counts_by_keys(words, s, d)


class TestRandomShift:
    def test_deterministic(self):
        a = random_shift(3, 5, seed=11)
        b = random_shift(3, 5, seed=11)
        assert a.words == b.words
        assert a.seed == 11

    def test_dimensions(self):
        t = random_shift(4, 6, seed=0)
        assert t.n == 4 and t.s == 6 and len(t.words) == 4

    def test_negative_seed_rejected(self):
        # random.Random(-5) would draw the words of seed 5 and record -5.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            random_shift(2, 3, -5)

    def test_digit_means(self):
        draws = 10000
        n, s = 2, 8
        ones = [0] * (n * s)
        for seed in range(draws):
            t = random_shift(n, s, seed)
            for j, w in enumerate(t.words):
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

    def test_zero_resolution_rejected(self):
        # Every grid has s >= 1; there is no one-point net to rescale.
        with pytest.raises(ValueError):
            GeneratorSet(2, 0, ((), ()))
        with pytest.raises(ValueError):
            DiscrepancyContext.build(F2Subspace(2, 0, ()))

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

    def test_retry_shifts_are_drawn_only_when_needed(self, monkeypatch):
        import dyadnet.nets as nets_mod

        real = nets_mod.random_shift
        draws = []

        def spy(n, s, seed):
            draws.append(seed)
            return real(n, s, seed)

        first = random_shift(3, 10, 0)
        monkeypatch.setattr(nets_mod, "random_shift", spy)
        # The given shift cuts at 1000 points: a budget of a million
        # retries draws none of them.
        res = rescale_to_N(sobol_generators(3, 10), 1000, first, shift_retries=10**6)
        assert res.shift is first
        assert draws == []
        # Unshifted, count 2 at s=2 ties; retries 5 and 6 are drawn in
        # order and the draws stop at the first one that cuts.
        res = rescale_to_N(van_der_corput_generators(2), 2, shift_retries=10**6,
                           retry_seed=5)
        assert draws == [5, 6]
        assert res.shift.seed == 6

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

    def test_negative_retries_rejected(self):
        # Count 2 at s=2 ties unshifted, so -1 would otherwise fail as
        # "after 0 shift(s)".
        with pytest.raises(ValueError, match="shift_retries must be >= 0"):
            rescale_to_N(van_der_corput_generators(2), 2, shift_retries=-1)


class TestDigitShift:
    def test_holds_words_resolution_and_seed(self):
        t = DigitShift((5, 0, 7), 3, seed=4)
        assert (t.words, t.n, t.s, t.seed) == ((5, 0, 7), 3, 3, 4)
        assert DigitShift((1,), 1).seed is None

    @pytest.mark.parametrize("words, s, match", [
        ((0, 1), 0, "resolution must be >= 1"),
        ((), 3, "dimension must be >= 1"),
        ((8, 0), 3, "digit word 8 out of range"),
        ((0, -1), 3, "digit word -1 out of range"),
    ], ids=["zero-resolution", "no-words", "word-too-wide", "negative-word"])
    def test_rejects_invalid(self, words, s, match):
        with pytest.raises(ValueError, match=match):
            DigitShift(words, s)

    def test_words_are_stored_as_a_tuple_of_ints(self):
        t = DigitShift([1, 2, np.int64(3)], 3)
        assert t == DigitShift((1, 2, 3), 3)
        assert hash(t) == hash(DigitShift((1, 2, 3), 3))
        assert type(t.words) is tuple and all(type(w) is int for w in t.words)
        ctx = DiscrepancyContext.build(sobol_generators(3, 3).subspace, t)
        assert ctx.shift == (1, 2, 3) and type(ctx.shift) is tuple
        with pytest.raises(TypeError):
            DigitShift((1.0, 2), 3)

    def test_net_points_reject_a_mismatched_shift(self):
        with pytest.raises(ValueError, match="shift grid"):
            net_points(van_der_corput_generators(3), DigitShift((1, 2), 4))


class TestGeneratorFiles:
    def test_round_trip(self, tmp_path: Path):
        gen = sobol_generators(3, 5)
        text = format_generator_file(gen)
        back = parse_generator_file(text)
        assert back.columns == gen.columns
        path = tmp_path / "net.txt"
        path.write_text(text)
        loaded = load_generators(f"file:{path}")
        assert loaded.columns == gen.columns

    def test_every_small_builtin_round_trips(self, tmp_path: Path):
        gens = [van_der_corput_generators(s) for s in range(1, 9)]
        gens += [sobol_generators(n, s) for n in range(1, 11) for s in range(1, 9)]
        for k, gen in enumerate(gens):
            text = format_generator_file(gen)
            assert parse_generator_file(text) == gen
            path = tmp_path / f"net-{k}.txt"
            path.write_text(text)
            assert load_generators(f"file:{path}") == gen
            assert load_generators(path, n=gen.n, s=gen.s) == gen

    def test_file_rows_are_matrix_rows(self):
        # Row i holds digit i + 1; its k-th character multiplies index bit k.
        text = "2 3\n\n100\n010\n001\n\n001\n010\n100\n"
        gen = parse_generator_file(text)
        assert gen == van_der_corput_generators(3)
        assert gen == from_rows(2, 3, ((1, 2, 4), (4, 2, 1)))
        assert format_generator_file(gen) == text

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

    @pytest.mark.parametrize("text, message", [
        ("", "empty generator file"),
        ("2\n", "line 1: header must be 'n s'"),
        ("\n2 x\n", "line 2: header must be 'n s'"),
        ("0 2\n", "line 1: need n >= 1 and s >= 1"),
        ("1 2\n10\n\n01\n", "line 3: block 1 has fewer than 2 rows"),
        ("1 2\n10\n", "line 3: block 1 has fewer than 2 rows"),
        ("2 2\n10\n01\n", "line 4: block 2 has fewer than 2 rows"),
        ("1 2\n12\n01\n", "line 2: expected 2 characters of 0/1, got '12'"),
        ("1 2\n10\n01\n\n11\n", "line 5: trailing content"),
    ])
    def test_error_messages(self, tmp_path: Path, text, message):
        path = tmp_path / "net.txt"
        path.write_text(text)
        for read in (lambda: parse_generator_file(text),
                     lambda: load_generators(path),
                     lambda: load_generators(f"file:{path}")):
            with pytest.raises(GeneratorFormatError) as err:
                read()
            assert str(err.value) == message


class TestLoadGenerators:
    def test_builtin_vdc(self):
        gen = load_generators("van-der-corput", s=4)
        assert gen == from_rows(2, 4, ((1, 2, 4, 8), (8, 4, 2, 1)))

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
