"""Binary digital nets: generator matrices, quality certification, digit
shifts, and the rescaling that produces arbitrary-N point sets.

A generator set holds n square s x s matrices over GF(2); index word a
maps to the point whose coordinate-j digits are C_j a.  Builtins cover
the classical two-dimensional identity/bit-reversal pair and Sobol'
direction numbers up to dimension 10.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .f2core import (
    DyadicPoint,
    F2Subspace,
    _reduce,
    parity,
)
from .walsh import digit_word


class GeneratorFormatError(ValueError):
    """Malformed generator-matrix source."""


class InjectivityError(ValueError):
    """Generator map is singular: fewer than 2^s distinct points."""


class RescaleError(RuntimeError):
    """No admissible scaling threshold yields the requested count."""


@dataclass(frozen=True)
class GeneratorSet:
    """n generator matrices over GF(2), each s x s.

    rows[j][i] is row i+1 of the j-th matrix as a bitmask over index-word
    bits (bit k-1 multiplies word bit k-1), producing digit i+1 of
    coordinate j.
    """

    n: int
    s: int
    rows: tuple[tuple[int, ...], ...]
    name: str = "custom"

    def __post_init__(self):
        if self.n < 1 or self.s < 0:
            raise ValueError("need n >= 1 and s >= 0")
        if len(self.rows) != self.n or any(len(r) != self.s for r in self.rows):
            raise GeneratorFormatError("expected n blocks of s rows")
        top = 1 << self.s
        for block in self.rows:
            for r in block:
                if not 0 <= r < top:
                    raise GeneratorFormatError("matrix row wider than s bits")

    def coord_word(self, j: int, a: int) -> int:
        """Digit word of coordinate j for index word a."""
        w = 0
        for row in self.rows[j]:
            w = (w << 1) | parity(row & a)
        return w

    def point(self, a: int) -> DyadicPoint:
        return DyadicPoint(tuple(self.coord_word(j, a) for j in range(self.n)), self.s)

    def basis_images(self) -> list[DyadicPoint]:
        return [self.point(1 << k) for k in range(self.s)]

    @cached_property
    def point_words(self) -> tuple[tuple[int, ...], ...]:
        """Digit words of all 2^s net points, in Gray-code order of the
        index word; raises InjectivityError if two points coincide."""
        images = [p.words for p in self.basis_images()]
        cur = [0] * self.n
        words = [tuple(cur)]
        for i in range(1, 1 << self.s):
            img = images[(i & -i).bit_length() - 1]
            for j in range(self.n):
                cur[j] ^= img[j]
            words.append(tuple(cur))
        if len(set(words)) != len(words):
            raise InjectivityError("generator map is singular (duplicate points)")
        return tuple(words)


@dataclass(frozen=True)
class NetQuality:
    """Exact deficiency certificate: every dyadic box of volume
    2^(deficiency-s) holds exactly 2^deficiency points, and the minimum RT
    weight of the nonzero dual is s + 1 - deficiency."""

    deficiency: int
    dual_rt_weight: int


@dataclass(frozen=True)
class DigitShift:
    """XOR translation of a net, with seed provenance when randomly drawn."""

    point: DyadicPoint
    seed: int | None = None

    @property
    def n(self) -> int:
        return self.point.n

    @property
    def s(self) -> int:
        return self.point.s


@dataclass(frozen=True)
class PointSet:
    """Finite multiset-free point list in [0,1)^n with exact coordinates."""

    points: tuple[tuple[Fraction, ...], ...]
    n: int

    def __post_init__(self):
        for p in self.points:
            if len(p) != self.n:
                raise ValueError("point dimension mismatch")
            for c in p:
                if not 0 <= c < 1:
                    raise ValueError(f"coordinate {c} outside [0,1)")

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def array(self) -> np.ndarray:
        return np.array([[float(c) for c in p] for p in self.points], dtype=np.float64)


def net_points(gen: GeneratorSet, shift: DigitShift | None = None) -> PointSet:
    """All 2^s net points, XOR-translated when a shift is given."""
    t = _shift_words(gen, shift)
    den = 1 << gen.s
    return PointSet(tuple(
        tuple(Fraction(w ^ tw, den) for w, tw in zip(x, t)) for x in gen.point_words
    ), gen.n)


def _shift_words(gen: GeneratorSet, shift: DigitShift | None) -> tuple[int, ...]:
    if shift is None:
        return (0,) * gen.n
    if shift.n != gen.n or shift.s != gen.s:
        raise ValueError("shift grid does not match the generator set")
    return shift.point.words


def as_subspace(gen: GeneratorSet) -> F2Subspace:
    """The net as a subspace of Q^n(2^s); raises unless the map is injective."""
    sub = F2Subspace.from_points(gen.basis_images(), n=gen.n, s=gen.s)
    if sub.dim != gen.s:
        raise InjectivityError(
            f"generator map has rank {sub.dim} < {gen.s}; the net would collapse"
        )
    return sub


def certify_deficiency(net: GeneratorSet | F2Subspace) -> NetQuality:
    """Exact deficiency from rank conditions on the leading digits.

    Boxes of volume 2^-m are fair exactly when, for every composition
    d_1 + ... + d_n = m, the leading d_j digits of the coordinates are
    independent over GF(2): the net's basis masked to those digits has
    rank m.  The condition only weakens as m drops, so the first failing
    m gives deficiency s + 1 - m and is the minimum dual RT weight; no
    dual is enumerated.
    """
    sub = as_subspace(net) if isinstance(net, GeneratorSet) else net
    n, s = sub.n, sub.s
    if sub.dim != s:
        raise ValueError(f"a subspace of dimension {sub.dim} is not a net of 2^{s} points")
    m = 1
    while m <= s and all(
        len(_reduce(b & _leading_digits_mask(d, s) for b in sub.basis)) == m
        for d in _compositions(m, n)
    ):
        m += 1
    return NetQuality(s + 1 - m, m)


def _leading_digits_mask(shape: Sequence[int], s: int) -> int:
    """Packed-word mask keeping the leading shape[j] digits of coordinate j."""
    mask = 0
    for j, d in enumerate(shape):
        mask |= ((1 << d) - 1) << (s - d + j * s)
    return mask


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def verify_box_counts(points: PointSet, deficiency: int) -> bool:
    """Check that every dyadic box of volume 2^(deficiency-s) holds exactly
    2^deficiency points, over all box shapes and offsets."""
    size = points.size
    s = size.bit_length() - 1
    if size != 1 << s:
        raise ValueError("box counting needs a power-of-two point count")
    if not 0 <= deficiency <= s:
        raise ValueError("deficiency out of range")
    m = s - deficiency
    want = 1 << deficiency
    for shape in _compositions(m, points.n):
        buckets: dict[tuple[int, ...], int] = {}
        for p in points.points:
            key = tuple(digit_word(c, d) for c, d in zip(p, shape))
            buckets[key] = buckets.get(key, 0) + 1
        if any(v != want for v in buckets.values()):
            return False
    return True


def random_shift(n: int, s: int, seed: int) -> DigitShift:
    """Uniform digit shift on Q^n(2^s); n*s fair bits, reproducible by seed."""
    rng = random.Random(seed)
    words = tuple(rng.getrandbits(s) for _ in range(n))
    return DigitShift(DyadicPoint(words, s), seed)


@dataclass(frozen=True)
class RescaleResult:
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
    deterministically before giving up.
    """
    s = gen.s
    if s == 0:
        if count != 1:
            raise ValueError("the one-point net only yields count=1")
    elif not (1 << (s - 1)) <= count <= (1 << s):
        raise ValueError(f"count {count} outside [2^(s-1), 2^s] for s={s}")
    attempts: list[DigitShift | None] = [shift]
    if s > 0:
        attempts.extend(
            random_shift(gen.n, s, retry_seed + k) for k in range(shift_retries)
        )
    failures: list[str] = []
    for att in attempts:
        try:
            return _rescale_once(gen, count, att)
        except RescaleError as exc:
            failures.append(str(exc))
    raise RescaleError(
        f"no admissible threshold for count={count} after {len(attempts)} shift(s): "
        + failures[-1]
    )


def _rescale_once(gen: GeneratorSet, count: int, shift: DigitShift | None) -> RescaleResult:
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
    """Direction numbers m_k 2^(s-k) for one Sobol' coordinate, as digit words."""
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


def _matrix_from_columns(cols: Sequence[int], s: int) -> tuple[int, ...]:
    """Rows of the s x s matrix whose k-th column is the digit word cols[k]."""
    rows = []
    for i in range(1, s + 1):
        r = 0
        for k, col in enumerate(cols):
            if (col >> (s - i)) & 1:
                r |= 1 << k
        rows.append(r)
    return tuple(rows)


def van_der_corput_generators(s: int) -> GeneratorSet:
    """The classical planar pair: identity and bit-reversal matrices."""
    ident = tuple(1 << (i - 1) for i in range(1, s + 1))
    anti = tuple(1 << (s - i) for i in range(1, s + 1))
    return GeneratorSet(2, s, (ident, anti), name="van-der-corput")


def sobol_generators(n: int, s: int) -> GeneratorSet:
    """Sobol' generator matrices from tabulated direction numbers."""
    if not 1 <= n <= SOBOL_MAX_DIM:
        raise ValueError(f"sobol builtin supports 1 <= n <= {SOBOL_MAX_DIM}")
    blocks = tuple(
        _matrix_from_columns(_sobol_direction_words(j, s), s) for j in range(n)
    )
    return GeneratorSet(n, s, blocks, name="sobol")


def parse_generator_file(text: str) -> GeneratorSet:
    """Parse the plain-text matrix format: header `n s`, then n blank-line
    separated blocks of s rows of s characters in {0,1}."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx == len(lines):
        raise GeneratorFormatError("empty generator file")
    header = lines[idx].split()
    idx += 1
    if len(header) != 2:
        raise GeneratorFormatError(f"line {idx}: header must be 'n s'")
    try:
        n, s = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GeneratorFormatError(f"line {idx}: header must be 'n s'") from exc
    if n < 1 or s < 1:
        raise GeneratorFormatError(f"line {idx}: need n >= 1 and s >= 1")
    blocks = []
    for j in range(n):
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
        rows = []
        for i in range(s):
            if idx >= len(lines) or not lines[idx].strip():
                raise GeneratorFormatError(
                    f"line {idx + 1}: block {j + 1} has fewer than {s} rows"
                )
            row = lines[idx].strip()
            idx += 1
            if len(row) != s or any(ch not in "01" for ch in row):
                raise GeneratorFormatError(
                    f"line {idx}: expected {s} characters of 0/1, got {row!r}"
                )
            rows.append(int(row[::-1], 2))
        blocks.append(tuple(rows))
    while idx < len(lines):
        if lines[idx].strip():
            raise GeneratorFormatError(f"line {idx + 1}: trailing content")
        idx += 1
    return GeneratorSet(n, s, tuple(blocks), name="file")


def format_generator_file(gen: GeneratorSet) -> str:
    """Inverse of parse_generator_file, bit-exact."""
    out = [f"{gen.n} {gen.s}"]
    for block in gen.rows:
        out.append("")
        for r in block:
            out.append("".join("1" if (r >> k) & 1 else "0" for k in range(gen.s)))
    return "\n".join(out) + "\n"


def load_generators(source: str | Path, n: int | None = None,
                    s: int | None = None) -> GeneratorSet:
    """Builtin name ('van-der-corput', 'sobol'), 'file:PATH', or a path.

    Builtins need s (and n for sobol); the map is injectivity-checked.
    """
    gen: GeneratorSet
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
    elif source.startswith("file:"):
        gen = parse_generator_file(Path(source[5:]).read_text())
    else:
        raise ValueError(
            f"unknown net source {source!r}: use van-der-corput, sobol, or file:PATH"
        )
    if n is not None and gen.n != n:
        raise ValueError(f"source has n={gen.n}, requested n={n}")
    if s is not None and gen.s != s:
        raise ValueError(f"source has s={gen.s}, requested s={s}")
    as_subspace(gen)  # injectivity check at load
    return gen
