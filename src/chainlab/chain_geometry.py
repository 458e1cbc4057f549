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
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, compress, groupby, islice, repeat
from operator import itemgetter, mul, sub, truediv
from typing import NamedTuple, Optional, Sequence

from .config import Config, over_common_denominator
from .errors import DomainError, Frozen, check_dimension
from .io import parse_quotients
from .rational import as_rational, RationalLike

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

    _fields = ("n", "numerators", "denominator")
    #: `_skew_parts` of the numerators, kept once `_segment_parts` measures them.
    __slots__ = (*_fields, "_parts")

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
        check_dimension(n)
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
        self._reduce(flat)

    @classmethod
    def _valid(cls, n: int, numerators: list[Numerators], denominator: int) -> "MonotonePolyline":
        """The polyline of numerator tuples known to pass the checks of
        `__post_init__`, which are not run again; it is only reduced."""
        p = object.__new__(cls)
        for name, value in zip(cls._fields, (n, tuple(numerators), denominator)):
            object.__setattr__(p, name, value)
        p._reduce(list(chain.from_iterable(numerators)))
        return p

    def _reduce(self, flat: list[int]) -> None:
        # The gcd g of den and every numerator divides gcd(den, sum(flat)),
        # so one gcd of two ints settles most polylines; the gcd over every
        # numerator, whose cost grows with their count times their size
        # squared, runs only when that one exceeds 1.
        den = self.denominator
        g = math.gcd(den, sum(flat))
        if g > 1 and (g := math.gcd(g, *flat)) > 1:
            object.__setattr__(self, "denominator", den // g)
            nums = tuple(tuple(x // g for x in v) for v in self.numerators)
            object.__setattr__(self, "numerators", nums)

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
    den, nums = p.denominator, p.numerators
    if len(nums) < 2:
        return Fraction(0)
    _, advances, floats = _segment_parts(p)
    return _length(sum(nums[-1]) - sum(nums[0]) - sum(advances), den, floats)


def _segment_parts(p: MonotonePolyline) -> tuple[list[bool], list[int], list[float]]:
    """`_skew_parts` of the polyline, measured once: `chain decompose`
    needs them for the whole polyline's length and for its pieces'."""
    try:
        return p._parts
    except AttributeError:
        parts = _skew_parts(list(chain.from_iterable(p.numerators)), p.n, p.denominator)
        object.__setattr__(p, "_parts", parts)
        return parts


def _skew_parts(flat: list[int], n: int, den: int) -> tuple[list[bool], list[int], list[float]]:
    """Which segments of the flat numerators are skew, and the advance (a
    numerator sum) and the float length of each skew segment, in order;
    see `h1_length`."""
    deltas = list(map(sub, flat[n:], flat[:-n]))
    skew = list(map((1).__lt__, map(sum, zip(*[map(bool, deltas)] * n))))
    if not any(skew):
        return skew, [], []
    advances = list(compress(map(sum, zip(*[iter(deltas)] * n)), skew))
    y = list(map(truediv, flat, repeat(den)))
    squares = map(pow, map(sub, y[n:], y[:-n]), repeat(2))
    floats = list(map(math.sqrt, map(math.fsum, compress(zip(*[squares] * n), skew))))
    return skew, advances, floats


def _length(exact: int, den: int, floats: list[float]) -> Fraction | float:
    # The length of segments whose exact part is exact / den and whose skew
    # parts are `floats`, as `h1_length` combines them.
    return math.fsum([*floats, exact / den]) if floats else Fraction(exact, den)


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
    #: h1_length(piece), and 0 for an empty piece.
    length: Fraction | float

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


def _skew_length(a: tuple[Numerators, int], b: tuple[Numerators, int], den: int) -> float:
    # The float length of the skew segment between points (numerators,
    # scale) over den * scale, as `h1_length` measures it.
    (u, s), (v, t) = a, b
    return math.sqrt(math.fsum([(y / (den * t) - x / (den * s)) ** 2 for x, y in zip(u, v)]))


def antidiagonal_decompose(p: MonotonePolyline) -> tuple[AntidiagonalPiece, ...]:
    """Clip the polyline at the hyperplanes of integer coordinate sum.

    Returns the n pieces in order: piece i holds the sub-polyline with
    coordinate sum in [i-1, i].  The clipping vertices are exact
    rational intersections and appear in both adjacent pieces.  The
    coordinate sum is nondecreasing along a monotone polyline, so the
    segment that crosses the hyperplane of sum i is found by bisecting
    the vertices' numerator sums at i * D, for D the polyline's
    denominator.  A piece takes the polyline's checked vertices as they
    are, rescaled only when a cut needs a larger denominator, and is
    reduced but not checked again.  Its length comes from the polyline's
    per-segment parts (`_skew_parts`); only the cut segments are
    measured anew.  It equals `h1_length(piece)`, floats bit for bit:
    y/D is correctly rounded however the rational y/D is written, and
    fsum is exactly rounded.
    """
    n, den, nums = p.n, p.denominator, p.numerators
    pieces = [AntidiagonalPiece(i, None, None, Fraction(0)) for i in range(1, n + 1)]
    if not nums:
        return tuple(pieces)
    skew, advances, floats = _segment_parts(p)
    rank = list(accumulate(skew, initial=0))  # the skew segments before each vertex
    sums = list(map(sum, nums))
    level, rest = divmod(sums[0], den)
    first = max(1, min(n, level)) if rest == 0 else level + 1
    # A cut is (numerators, scale), over den * scale.  Piece i holds the
    # vertices lo..hi-1, after the cut `start` at sum i-1 (none in the
    # first piece) and before the cut `end` at sum i (none in the last).
    start, lo = None, 0
    for i in range(first, n + 1):
        hi = bisect_right(sums, i * den) if i < n else len(nums)
        end = None
        if hi < len(nums):
            end = _cut(nums[hi - 1], nums[hi], sums[hi - 1], sums[hi], i * den)
        if lo < hi:
            parts = floats[rank[lo] : rank[hi - 1]]
            exact = sums[hi - 1] - sums[lo] - sum(advances[rank[lo] : rank[hi - 1]])
            cut_segments = [(lo - 1, start, (nums[lo], 1)), (hi - 1, (nums[hi - 1], 1), end)]
        else:  # both cuts on segment lo - 1
            parts, exact, cut_segments = [], 0, [(lo - 1, start, end)]
        for k, a, b in cut_segments:
            if a is not None and b is not None:
                advance = sum(b[0]) // b[1] - sum(a[0]) // a[1]
                if not skew[k]:
                    exact += advance
                elif advance:
                    parts.append(_skew_length(a, b, den))
        scale = math.lcm(*[q[1] for q in (start, end) if q is not None])
        inner = nums[lo:hi]
        if scale > 1:
            inner = zip(*[map(mul, chain.from_iterable(inner), repeat(scale))] * n)
        head = [] if start is None else [tuple(x * (scale // start[1]) for x in start[0])]
        tail = [] if end is None else [tuple(x * (scale // end[1]) for x in end[0])]
        # A vertex on a hyperplane is also the cut there, and input
        # vertices may repeat: drop consecutive duplicates.
        verts = list(map(itemgetter(0), groupby(chain(head, inner, tail))))
        piece_den = den * scale
        offset = (i - 1) * piece_den
        s_lo = Fraction(sum(verts[0]) - offset, piece_den)
        s_hi = Fraction(sum(verts[-1]) - offset, piece_den)
        piece = MonotonePolyline._valid(n, verts, piece_den)
        pieces[i - 1] = AntidiagonalPiece(i, piece, (s_lo, s_hi), _length(exact, den, parts))
        if end is None:
            break
        start, lo = end, hi
    return tuple(pieces)


def extremal_chain(n: int) -> MonotonePolyline:
    """The length-n staircase: fill coordinates one at a time, left to right."""
    check_dimension(n)
    verts = [(1,) * i + (0,) * (n - i) for i in range(n + 1)]
    return MonotonePolyline(n, verts)
