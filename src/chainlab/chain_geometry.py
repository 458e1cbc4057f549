"""Monotone polylines in the unit cube and their 1-dimensional measure.

A chain (a set in which any two points are componentwise comparable) is
represented here by its finitely-describable workhorse: a polyline with
rational, componentwise nondecreasing vertices.  Arc length doubles as
1-dimensional Hausdorff measure for these curves.  It is exact whenever
every segment is axis-parallel; skew segments contribute square roots,
carried as floats, and inequality tests against such lengths use
explicit slack.  The float error is small in absolute terms only, about
2**-53 per coordinate difference, not relative: under cancellation a
tiny skew segment can lose every bit (with D = 3**40, the segment from
((D-2)/D, (D-2)/D) to ((D-1)/D, (D-1)/D) has length sqrt(2)/D but
measures 0.0, as both ends round to 1.0).

Storage.  A polyline keeps one common denominator D, the least one, and
one tuple of integer numerators per vertex: vertex i is numerators[i] / D.
`polyline` and the polyline-file loader (`io.polyline_from_dict`) build
them through one reader, `_columns`, which scales the coordinates over D
by `config.over_common_denominator`, under `Config.max_table_bytes`.
Validation, lengths and clipping run on these integers; `vertices`
builds the `Fraction` view on each access and keeps nothing.  An
axis-parallel segment adds an integer difference, and a length becomes
a `Fraction` once, at the end.  A skew segment takes its float
differences as y/D - x/D.  Python's int true division is correctly
rounded, so y/D gives the float nearest the rational y/D, which is also
what float(Fraction(y, D)) gives; the lengths are therefore bit-identical
to those of the same polyline in `Fraction` arithmetic.  The rounded
difference (y-x)/D would not be: it changes the last bits of some skew
lengths.

The anti-diagonal decomposition clips a polyline at the hyperplanes
where the coordinate sum is an integer; the coordinate sum itself is a
1-Lipschitz-inverse parametrisation of any chain, which is what caps the
length of each clipped piece at 1 and the total length at n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from operator import sub, truediv
from typing import NamedTuple, Optional, Sequence

from .config import Config, over_common_denominator
from .errors import DomainError, Frozen
from .rational import as_rational, parse_quotients, RationalLike

Point = tuple[Fraction, ...]
#: The numerators of one vertex over the polyline's denominator.
Numerators = tuple[int, ...]


def _columns(
    vertices: Sequence[Sequence[RationalLike]], context: str, config: Config
) -> tuple[list[Numerators], int]:
    """The vertices as integer numerators over the lcm of their denominators.

    A list of plain "P/Q" strings is read whole by `parse_quotients`, any
    other one value by value through `as_rational`, whose errors are
    prefixed with `context`.  The coordinates are charged, as one integer
    of the lcm's bits each, by `over_common_denominator` (a coordinate in
    [0, 1] scales to a numerator no longer than the lcm).
    """
    flat = list(chain.from_iterable(vertices))
    parsed = parse_quotients(flat)
    if parsed is None:
        try:
            values = list(map(as_rational, flat))
        except DomainError as exc:
            raise DomainError(f"{context}{exc}") from exc
        parsed = [v.numerator for v in values], [v.denominator for v in values]
    count = len(flat)
    scaled, den = over_common_denominator(*parsed, count, 0, f"{count} polyline coordinates", config)
    widths = set(map(len, vertices))
    if len(widths) == 1 and 0 not in widths:
        return list(zip(*[iter(scaled)] * widths.pop())), den
    rest = iter(scaled)
    return [tuple(islice(rest, width)) for width in map(len, vertices)], den


def _first_fault(n: int, numerators: Sequence[Sequence[int]], den: int) -> str:
    # The first fault in vertex order, to word the error the whole-set
    # checks found.
    prev = None
    for v in numerators:
        if len(v) != n:
            return "vertex dimension does not match n"
        for x in v:
            if type(x) is not int:
                return f"numerator {x!r} is not an integer"
            if not 0 <= x <= den:
                return f"coordinate {Fraction(x, den)} outside [0, 1]"
        if prev is not None and any(y < x for x, y in zip(prev, v)):
            return "vertices are not componentwise nondecreasing"
        prev = v
    raise AssertionError("no fault found; validation bug")


class MonotonePolyline(Frozen):
    """Componentwise nondecreasing rational vertices in [0,1]^n.

    Vertex i is numerators[i] / denominator: integer numerators over one
    positive denominator.  The numerators are stored as tuples, reduced
    over the least common denominator, so equal polylines compare equal.
    `polyline` builds one from rational vertices.
    """

    __slots__ = _fields = ("n", "numerators", "denominator")

    n: int
    numerators: tuple[Numerators, ...]
    denominator: int

    def __init__(self, n: int, numerators: Sequence[Sequence[int]], denominator: int = 1) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)
        # Looked up on the instance, so that a wrapper set on the class runs.
        self.__post_init__()

    def __post_init__(self) -> None:
        """Store the numerators as tuples, check them, and reduce them."""
        object.__setattr__(self, "numerators", tuple(map(tuple, self.numerators)))
        n, den, nums = self.n, self.denominator, self.numerators
        if type(n) is not int:
            raise DomainError(f"n must be an integer, got {n!r}")
        if n < 1:
            raise DomainError(f"dimension must be >= 1, got {n}")
        if type(den) is not int or den < 1:
            raise DomainError(f"denominator must be a positive integer, got {den!r}")
        # Whole-set checks; the offending vertex is looked up only to word
        # the error.  Bools are not numerators.
        flat = list(chain.from_iterable(nums))
        if (
            set(map(len, nums)) - {n}
            or set(map(type, flat)) - {int}
            or (flat and not 0 <= min(flat) <= max(flat) <= den)
            or any(col != sorted(col) for col in (flat[j::n] for j in range(n)))
        ):
            raise DomainError(_first_fault(n, nums, den))
        # The gcd g of den and every numerator divides gcd(den, sum(flat)),
        # so one gcd of two ints settles most polylines; the gcd over every
        # numerator, whose cost grows with their count times their size
        # squared, runs only when that one exceeds 1.
        g = math.gcd(den, sum(flat))
        if g > 1 and (g := math.gcd(g, *flat)) > 1:
            object.__setattr__(self, "denominator", den // g)
            object.__setattr__(self, "numerators", tuple(tuple(x // g for x in v) for v in nums))

    @property
    def vertices(self) -> tuple[Point, ...]:
        """The vertices as Fractions, built on each access."""
        den = self.denominator
        return tuple(tuple(Fraction(x, den) for x in v) for v in self.numerators)

    def __len__(self) -> int:
        return len(self.numerators)


def polyline(
    vertices: Sequence[Sequence[RationalLike]], n: int | None = None, config: Config = Config()
) -> MonotonePolyline:
    """The polyline through rational vertices (ints, Fractions or "P/Q"
    strings), over the lcm of their denominators.

    n defaults to the length of the first vertex.  The numerators, one
    per coordinate, must fit `config.max_table_bytes`.
    """
    vertices = tuple(vertices)
    if n is None:
        if not vertices:
            raise DomainError("cannot infer dimension of an empty polyline")
        n = len(vertices[0])
    return MonotonePolyline(n, *_columns(vertices, "", config))


def h1_length(p: MonotonePolyline) -> Fraction | float:
    """Arc length of the polyline: exact Fraction for staircases, else float.

    The work runs in C-level passes over the flattened numerators, where
    entry i*n + j is coordinate j of vertex i: one subtraction of the
    list from itself shifted by n gives every segment's advance along
    every axis, and regrouping n at a time (`zip(*[it] * n)`) gives each
    segment's entries.  Summing a segment's truth values counts the axes
    it moves.  A segment moving at most one axis has the exact length of
    its advance, so the exact part, over the polyline's denominator D, is
    the total advance less that of the skew segments.  A skew segment's
    length is the square root of the fsum of its squared float
    differences y/D - x/D over all n coordinates; a coordinate that does
    not move adds 0.0, which leaves an fsum unchanged.  The parts are
    combined with one fsum.  The int division y/D is correctly rounded,
    as float(Fraction(y, D)) is, and fsum rounds only its exact sum once,
    so every float is bit-identical to that of the same computation in
    Fraction arithmetic, segment by segment.  The passes make a few C
    calls per segment and none per axis, so a polyline of many axes and
    few vertices is no slower per coordinate than the other way round.
    """
    den, n, nums = p.denominator, p.n, p.numerators
    if len(nums) < 2:
        return Fraction(0)
    flat = list(chain.from_iterable(nums))
    deltas = list(map(sub, flat[n:], flat[:-n]))
    skew = list(map((1).__lt__, map(sum, zip(*[map(bool, deltas)] * n))))
    exact = sum(flat[-n:]) - sum(flat[:n])
    if not any(skew):
        return Fraction(exact, den)
    exact -= sum(compress(map(sum, zip(*[iter(deltas)] * n)), skew))
    y = list(map(truediv, flat, repeat(den)))
    squares = map(pow, map(sub, y[n:], y[:-n]), repeat(2))
    float_parts = list(map(math.sqrt, map(math.fsum, compress(zip(*[squares] * n), skew))))
    if exact:
        float_parts.append(exact / den)
    return math.fsum(float_parts)


def coordinate_sum(x: Sequence[RationalLike]) -> Fraction:
    """Sum of the coordinates; the injective chain parametrisation.

    For comparable points a <= b the Euclidean distance is at most
    coordinate_sum(b) - coordinate_sum(a), since the l2 norm of a
    nonnegative vector never exceeds its l1 norm.
    """
    return sum((as_rational(c) for c in x), Fraction(0))


def antichain_slab_membership(x: Sequence[RationalLike], t: RationalLike) -> bool:
    """Exact test of coordinate_sum(x) == t on rationals."""
    t = as_rational(t)
    n = len(x)
    if not 0 <= t <= n:
        raise DomainError(f"level t must lie in [0, {n}], got {t}")
    return coordinate_sum(x) == t


class AntidiagonalPiece(NamedTuple):
    """The part of a polyline with coordinate sum between index-1 and index."""

    index: int
    piece: Optional[MonotonePolyline]
    #: Range of (coordinate sum) - (index - 1) over the piece, within [0, 1].
    s_interval: Optional[tuple[Fraction, Fraction]]

    @property
    def s_interval_length(self) -> Fraction:
        if self.s_interval is None:
            return Fraction(0)
        return self.s_interval[1] - self.s_interval[0]


def _cut(a: Numerators, b: Numerators, sa: int, sb: int, level: int) -> tuple[Numerators, int]:
    # The point of the segment a -> b whose numerator sum is `level`, with
    # sa <= level < sb the numerator sums of a and b: numerators over
    # den * scale, where den is the polyline's denominator, in lowest terms
    # for scale.  An axis-parallel segment gives scale 1.
    span, t = sb - sa, level - sa
    point = [x * span + t * (y - x) for x, y in zip(a, b)]
    g = math.gcd(span, *point)
    return tuple(c // g for c in point), span // g


def antidiagonal_decompose(p: MonotonePolyline) -> tuple[AntidiagonalPiece, ...]:
    """Clip the polyline at the hyperplanes of integer coordinate sum.

    Returns the n pieces in order: piece i holds the sub-polyline with
    coordinate sum in [i-1, i].  The clipping vertices are exact
    rational intersections and appear in both adjacent pieces.  One
    forward walk assigns every segment: the coordinate sum is
    nondecreasing along a monotone polyline, so the active piece index
    only ever advances.  The walk compares integer
    numerator sums with index * D, for D the polyline's denominator.
    """
    n, den, nums = p.n, p.denominator, p.numerators
    # Bucket entries are (numerators, scale): a point over den * scale.
    buckets: list[list[tuple[Numerators, int]]] = [[] for _ in range(n + 1)]
    if nums:
        sums = list(map(sum, nums))
        level, rest = divmod(sums[0], den)
        index = max(1, min(n, level)) if rest == 0 else level + 1
        buckets[index].append((nums[0], 1))
        for a, b, sa, sb in zip(nums, nums[1:], sums, sums[1:]):
            while sb > index * den and index < n:
                cut = _cut(a, b, sa, sb, index * den)
                buckets[index].append(cut)
                index += 1
                buckets[index].append(cut)
            buckets[index].append((b, 1))

    pieces = []
    for i in range(1, n + 1):
        bucket = buckets[i]
        if not bucket:
            pieces.append(AntidiagonalPiece(index=i, piece=None, s_interval=None))
            continue
        # Only the first and the last entry of a bucket can be cuts; the
        # piece's denominator is den * scale.
        scale = math.lcm(bucket[0][1], bucket[-1][1])
        verts = [v if s == scale else tuple(x * (scale // s) for x in v) for v, s in bucket]
        # A vertex on a hyperplane is also the cut there, and input
        # vertices may repeat: drop consecutive duplicates.
        verts[1:] = [v for u, v in zip(verts, verts[1:]) if v != u]
        piece_den = den * scale
        offset = (i - 1) * piece_den
        s_lo = Fraction(sum(verts[0]) - offset, piece_den)
        s_hi = Fraction(sum(verts[-1]) - offset, piece_den)
        sub = MonotonePolyline(n, verts, piece_den)
        pieces.append(AntidiagonalPiece(index=i, piece=sub, s_interval=(s_lo, s_hi)))
    return tuple(pieces)


def extremal_chain(n: int) -> MonotonePolyline:
    """The length-n staircase: fill coordinates one at a time, left to right."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    verts = [(1,) * i + (0,) * (n - i) for i in range(n + 1)]
    return MonotonePolyline(n, verts)
