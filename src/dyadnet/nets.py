"""Binary digital nets: generator matrices, deficiency certification, digit
shifts, and the rescaling that produces arbitrary-N point sets.

A generator set holds n square s x s matrices over GF(2) by their
columns, the images of the unit index words; index word a maps to the
point whose coordinate-j digits are C_j a.  Builtins cover
the classical two-dimensional identity/bit-reversal pair and Sobol'
direction numbers up to dimension 10.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property
from itertools import chain
from operator import index
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .f2core import F2Subspace, _pack, _rank, _span, _Value

if TYPE_CHECKING:
    from fractions import Fraction


class GeneratorFormatError(ValueError):
    """Malformed generator-matrix source."""


class InjectivityError(ValueError):
    """Generator map is singular: fewer than 2^s distinct points."""


class RescaleError(RuntimeError):
    """No admissible scaling threshold yields the requested count."""


class GeneratorSet(_Value):
    """n generator matrices over GF(2), each s x s, stored by columns.

    columns[j][k] is column k+1 of the j-th matrix: the digit word of
    coordinate j for index word 1 << k (digit i+1 is bit s-1-i of the
    word).  The map must be injective, so a generator set is a net of
    2^s distinct points once built; a singular one raises InjectivityError.
    `subspace` is the net as a subspace of Q^n(2^s), reduced once here; it
    is not a field, so equality, hashing and `repr` leave it out.
    """

    _fields = ("n", "s", "columns")

    def __init__(self, n: int, s: int, columns: Sequence[Sequence[int]]):
        self._assign(n, s, tuple(tuple(map(index, c)) for c in columns))
        if self.n < 1 or self.s < 1:
            raise ValueError("need n >= 1 and s >= 1")
        if len(self.columns) != self.n or any(len(c) != self.s for c in self.columns):
            raise GeneratorFormatError("expected n blocks of s columns")
        if any(not 0 <= w < 1 << self.s for block in self.columns for w in block):
            raise GeneratorFormatError("matrix column wider than s bits")
        sub = F2Subspace.from_packed(self.n, self.s,
                                     (_pack(w, self.s) for w in zip(*self.columns)))
        if sub.dim != self.s:
            raise InjectivityError(
                f"generator map has rank {sub.dim} < {self.s}; the net would collapse"
            )
        object.__setattr__(self, "subspace", sub)

    @cached_property
    def point_words(self) -> tuple[tuple[int, ...], ...]:
        """Digit words of all 2^s net points, in Gray-code order of the
        index word.  Each coordinate walks its own columns with `_span`, so
        one whose matrix alone is singular repeats words."""
        return tuple(zip(*map(_span, self.columns)))


class DigitShift(_Value):
    """XOR translation of a net on Q^n(2^s): one digit word per coordinate,
    with seed provenance when randomly drawn."""

    _fields = ("words", "s", "seed")

    def __init__(self, words: Sequence[int], s: int, seed: int | None = None):
        self._assign(tuple(map(index, words)), s, seed)
        if len(self.words) < 1:
            raise ValueError("dimension must be >= 1")
        if self.s < 1:
            raise ValueError("resolution must be >= 1")
        top = 1 << self.s
        for w in self.words:
            if not 0 <= w < top:
                raise ValueError(f"digit word {w} out of range for s={self.s}")

    @property
    def n(self) -> int:
        return len(self.words)


class PointSet(_Value):
    """Finite multiset-free point list in [0,1)^n with exact coordinates."""

    _fields = ("points", "n")

    def __init__(self, points: tuple[tuple[Fraction, ...], ...], n: int):
        self._assign(points, n)
        for p in self.points:
            if len(p) != self.n:
                raise ValueError("point dimension mismatch")
            for c in p:
                if not 0 <= c < 1:
                    raise ValueError(f"coordinate {c} outside [0,1)")

    @property
    def size(self) -> int:
        return len(self.points)


def net_points(gen: GeneratorSet, shift: DigitShift | None = None) -> PointSet:
    """All 2^s net points, XOR-translated when a shift is given."""
    # Imported here, so that `certify` never loads the rational module.
    from fractions import Fraction

    t = _shift_words(gen, shift)
    den = 1 << gen.s
    return PointSet(tuple(
        tuple(Fraction(w ^ tw, den) for w, tw in zip(x, t)) for x in gen.point_words
    ), gen.n)


def _shift_words(net: GeneratorSet | F2Subspace,
                 shift: DigitShift | None) -> tuple[int, ...]:
    """The shift's digit words, zeros without a shift; the shift must be a
    `DigitShift` on the net's grid."""
    if shift is None:
        return (0,) * net.n
    if not isinstance(shift, DigitShift):
        raise TypeError(f"shift must be a DigitShift or None, not {type(shift).__name__}")
    if shift.n != net.n or shift.s != net.s:
        raise ValueError("shift grid does not match the net")
    return shift.words


def certify_deficiency(sub: F2Subspace) -> int:
    """Exact deficiency of a net, given as its subspace
    (`GeneratorSet.subspace`), from rank conditions on the leading digits.

    The deficiency is the whole certificate: every dyadic box of volume
    2^(deficiency-s) holds exactly 2^deficiency points, and the minimum RT
    weight of the nonzero dual is s + 1 - deficiency.

    Boxes of volume 2^-m are fair exactly when, for every composition
    d_1 + ... + d_n = m, the leading d_j digits of the coordinates are
    independent over GF(2): the net's basis masked to those digits has
    rank m, `_shape_rank(sub, d)`.  The condition only weakens as m
    drops, so the first failing m gives deficiency s + 1 - m and is the
    minimum dual RT weight; no dual is enumerated.
    """
    n, s = sub.n, sub.s
    if sub.dim != s:
        raise ValueError(f"a subspace of dimension {sub.dim} is not a net of 2^{s} points")
    m = 1
    while m <= s and all(_shape_rank(sub, d) == m for d in _compositions(m, n)):
        m += 1
    return s + 1 - m


def _leading_digits_mask(shape: Sequence[int], s: int) -> int:
    """Packed-word mask keeping the leading shape[j] digits of coordinate j."""
    mask = 0
    for j, d in enumerate(shape):
        mask |= ((1 << d) - 1) << (s - d + j * s)
    return mask


def _shape_rank(sub: F2Subspace, shape: Sequence[int]) -> int:
    """GF(2) rank of the subspace's basis masked to the leading shape[j]
    digits of coordinate j, by `_leading_digits_mask`: the boxes of this
    shape are fair when it is |shape|, and the dual words inside the box
    of this shape number 2^(|shape| - rank)."""
    return _rank(map(_leading_digits_mask(shape, sub.s).__and__, sub.basis))


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def verify_box_counts(words: Sequence[Sequence[int]], s: int, deficiency: int) -> bool:
    """Check that the 2^s points with these digit words put exactly
    2^deficiency points in every dyadic box of volume 2^(deficiency-s),
    over all box shapes and offsets.

    A box of shape d keeps the leading d_j digits of each coordinate's
    word, and a point's box is its packed word masked by
    `_leading_digits_mask(d, s)`, the mask under which `_shape_rank`
    ranks the net's basis for the rank certificate.
    """
    size = len(words)
    if s < 1 or size != 1 << s:
        raise ValueError(f"box counting needs 2^s points for s >= 1, got {size} at s={s}")
    if not 0 <= deficiency <= s:
        raise ValueError("deficiency out of range")
    n = len(words[0])
    if n < 1 or any(len(p) != n for p in words):
        raise ValueError("points must share one dimension >= 1")
    if any(w < 0 or w >> s for p in words for w in p):
        raise ValueError(f"digit word out of range for s={s}")
    packed = [_pack(p, s) for p in words]
    want = 1 << deficiency
    for shape in _compositions(s - deficiency, n):
        boxes = Counter(map(_leading_digits_mask(shape, s).__and__, packed))
        if any(v != want for v in boxes.values()):
            return False
    return True


def random_shift(n: int, s: int, seed: int) -> DigitShift:
    """Uniform digit shift on Q^n(2^s); n*s fair bits, reproducible by a
    seed >= 0."""
    if seed < 0:
        raise ValueError(f"shift seed must be >= 0, got {seed}")
    rng = random.Random(seed)
    return DigitShift([rng.getrandbits(s) for _ in range(n)], s, seed)


class RescaleResult(NamedTuple):
    points: PointSet
    divisor: Fraction
    shift: DigitShift | None


def rescale_to_N(gen: GeneratorSet, count: int, shift: DigitShift | None = None,
                 shift_retries: int = 0, retry_seed: int = 0) -> RescaleResult:
    """Cut the (shifted) net down to `count` points and rescale to [0,1)^n.

    Finds a threshold a > 1/2 whose closed corner box [0,a]^n holds exactly
    `count` points, then divides every kept coordinate by a.  The divisor is
    taken strictly inside the stability window between consecutive
    max-coordinate values, so rescaled points stay below 1.

    Ties in the max-coordinate order can make `count` unreachable for a
    given shift; with shift_retries > 0 further seeded shifts are tried
    deterministically before giving up; retry k draws its shift with seed
    retry_seed + k, and only when the tries before it have failed.
    """
    s = gen.s
    if not (1 << (s - 1)) <= count <= (1 << s):
        raise ValueError(f"count {count} outside [2^(s-1), 2^s] for s={s}")
    if shift_retries < 0:
        raise ValueError(f"shift_retries must be >= 0, got {shift_retries}")
    attempts = chain(
        [shift], (random_shift(gen.n, s, retry_seed + k) for k in range(shift_retries))
    )
    for att in attempts:
        try:
            return _rescale_once(gen, count, att)
        except RescaleError as exc:
            failure = str(exc)
    raise RescaleError(
        f"no admissible threshold for count={count} after {shift_retries + 1} shift(s): "
        + failure
    )


def _rescale_once(gen: GeneratorSet, count: int, shift: DigitShift | None) -> RescaleResult:
    from fractions import Fraction

    den = 1 << gen.s
    if count == den:
        return RescaleResult(net_points(gen, shift), Fraction(1), shift)
    # Rank on integer words; an XOR shift keeps the points distinct.
    t = _shift_words(gen, shift)
    ranked = sorted(
        (tuple(w ^ tw for w, tw in zip(x, t)) for x in gen.point_words), key=max
    )
    threshold = max(ranked[count - 1])
    nxt = max(ranked[count])
    if nxt == threshold:
        raise RescaleError(
            f"tie at max-coordinate {Fraction(threshold, den)}: counts jump past {count}"
        )
    half = den >> 1
    if nxt <= half:
        raise RescaleError(f"threshold window below 1/2 (next={Fraction(nxt, den)})")
    # Divisor a = (max(threshold, 1/2) + next) / 2, so w/den / a = 2w / (that sum).
    twice_a = max(threshold, half) + nxt
    kept = tuple(tuple(Fraction(2 * w, twice_a) for w in p) for p in ranked[:count])
    return RescaleResult(PointSet(kept, gen.n), Fraction(twice_a, 2 * den), shift)


# Primitive-polynomial degree, encoded interior coefficients, and initial
# odd direction values, one row per Sobol' dimension beyond the first.
_SOBOL_ROWS: tuple[tuple[int, int, tuple[int, ...]], ...] = (
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
    (5, 4, (1, 1, 5, 5, 5)),
    (5, 7, (1, 1, 7, 11, 19)),
)

SOBOL_MAX_DIM = len(_SOBOL_ROWS) + 1


def _sobol_direction_words(dim_index: int, s: int) -> list[int]:
    """Direction numbers m_k 2^(s-k) for one Sobol' coordinate, as digit
    words: the columns of its generator matrix."""
    if dim_index == 0:
        return [1 << (s - k) for k in range(1, s + 1)]
    deg, a, m_init = _SOBOL_ROWS[dim_index - 1]
    m = list(m_init[:s])
    for i in range(len(m), s):
        v = m[i - deg] ^ (m[i - deg] << deg)
        for k in range(1, deg):
            if (a >> (deg - 1 - k)) & 1:
                v ^= m[i - k] << k
        m.append(v)
    return [m[k - 1] << (s - k) for k in range(1, s + 1)]


def van_der_corput_generators(s: int) -> GeneratorSet:
    """The classical planar pair: identity and bit-reversal matrices."""
    ident = tuple(1 << (s - 1 - k) for k in range(s))
    anti = tuple(1 << k for k in range(s))
    return GeneratorSet(2, s, (ident, anti))


def sobol_generators(n: int, s: int) -> GeneratorSet:
    """Sobol' generator matrices from tabulated direction numbers."""
    if not 1 <= n <= SOBOL_MAX_DIM:
        raise ValueError(f"sobol builtin supports 1 <= n <= {SOBOL_MAX_DIM}")
    return GeneratorSet(n, s, tuple(_sobol_direction_words(j, s) for j in range(n)))


def parse_generator_file(text: str) -> GeneratorSet:
    """Parse the plain-text matrix format: header `n s`, then n blank-line
    separated blocks of s rows of s characters in {0,1}.  Row i holds
    digit i of every column, so column k is the k-th characters read
    down the block."""
    lines = text.splitlines()
    # Non-blank line indices, then len(lines); block j starts at filled[1 + j*s].
    filled = [k for k, line in enumerate(lines) if line.strip()] + [len(lines)]
    if len(filled) == 1:
        raise GeneratorFormatError("empty generator file")
    head = filled[0] + 1
    try:
        n, s = map(int, lines[filled[0]].split())
    except ValueError as exc:
        raise GeneratorFormatError(f"line {head}: header must be 'n s'") from exc
    if n < 1 or s < 1:
        raise GeneratorFormatError(f"line {head}: need n >= 1 and s >= 1")
    blocks = []
    for j in range(n):
        start = filled[1 + j * s]
        rows = []
        for k in range(start, start + s):
            row = lines[k].strip() if k < len(lines) else ""
            if not row:
                raise GeneratorFormatError(
                    f"line {k + 1}: block {j + 1} has fewer than {s} rows"
                )
            if len(row) != s or any(ch not in "01" for ch in row):
                raise GeneratorFormatError(
                    f"line {k + 1}: expected {s} characters of 0/1, got {row!r}"
                )
            rows.append(row)
        blocks.append(tuple(int("".join(col), 2) for col in zip(*rows)))
    if filled[1 + n * s] < len(lines):
        raise GeneratorFormatError(f"line {filled[1 + n * s] + 1}: trailing content")
    return GeneratorSet(n, s, blocks)


def format_generator_file(gen: GeneratorSet) -> str:
    """Inverse of parse_generator_file, bit-exact."""
    out = [f"{gen.n} {gen.s}"]
    for block in gen.columns:
        out.append("")
        out.extend(map("".join, zip(*(format(w, f"0{gen.s}b") for w in block))))
    return "\n".join(out) + "\n"


def load_generators(source: str | Path, n: int | None = None,
                    s: int | None = None) -> GeneratorSet:
    """Builtin name ('van-der-corput', 'sobol'), 'file:PATH', or a path.

    Builtins need s (and n for sobol).
    """
    gen: GeneratorSet
    if isinstance(source, str) and source.startswith("file:"):
        source = Path(source[5:])
    if isinstance(source, Path):
        gen = parse_generator_file(source.read_text())
    elif source == "van-der-corput":
        if s is None:
            raise ValueError("van-der-corput builtin needs s")
        if n not in (None, 2):
            raise ValueError("van-der-corput builtin is two-dimensional")
        gen = van_der_corput_generators(s)
    elif source == "sobol":
        if s is None or n is None:
            raise ValueError("sobol builtin needs n and s")
        gen = sobol_generators(n, s)
    else:
        raise ValueError(
            f"unknown net source {source!r}: use van-der-corput, sobol, or file:PATH"
        )
    if n is not None and gen.n != n:
        raise ValueError(f"source has n={gen.n}, requested n={n}")
    if s is not None and gen.s != s:
        raise ValueError(f"source has s={gen.s}, requested s={s}")
    return gen
