"""Monotone polylines in the unit cube and their 1-dimensional measure.

A chain (a set in which any two points are componentwise comparable) is
represented here by its finitely-describable workhorse: a polyline with
rational, componentwise nondecreasing vertices.  Arc length doubles as
1-dimensional Hausdorff measure for these curves.  It is exact whenever
every segment is axis-parallel; skew segments contribute square roots,
carried as floats with relative error below 2**-50 (comfortably inside
the documented 2**-40 budget), and inequality tests against such
lengths use explicit slack.

The anti-diagonal decomposition clips a polyline at the hyperplanes
where the coordinate sum is an integer; the coordinate sum itself is a
1-Lipschitz-inverse parametrisation of any chain, which is what caps the
length of each clipped piece at 1 and the total length at n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError
from .rational import as_rational, RationalLike

Point = tuple[Fraction, ...]


def _as_point(coords: Sequence[RationalLike]) -> Point:
    return tuple(
        c if type(c) is Fraction else as_rational(c) for c in coords
    )


def validate_monotone(vertices: Sequence[Sequence[RationalLike]]) -> bool:
    """True iff `MonotonePolyline` accepts the vertices (an empty list does)."""
    if not vertices:
        return True
    try:
        MonotonePolyline(n=len(vertices[0]), vertices=tuple(vertices))
    except DomainError:
        return False
    return True


@dataclass(frozen=True)
class MonotonePolyline:
    """Componentwise nondecreasing rational vertices in [0,1]^n."""

    n: int
    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"dimension must be >= 1, got {self.n}")
        pts = tuple(_as_point(v) for v in self.vertices)
        object.__setattr__(self, "vertices", pts)
        prev: Point | None = None
        for p in pts:
            if len(p) != self.n:
                raise DomainError("vertex dimension does not match n")
            for c in p:
                if c < 0 or c > 1:
                    raise DomainError(f"coordinate {c} outside [0, 1]")
            if prev is not None:
                for x, y in zip(prev, p):
                    if y < x:
                        raise DomainError("vertices are not componentwise nondecreasing")
            prev = p

    @classmethod
    def _trusted(cls, n: int, vertices: tuple[Point, ...]) -> "MonotonePolyline":
        # internal fast path for vertices already validated by construction
        obj = object.__new__(cls)
        object.__setattr__(obj, "n", n)
        object.__setattr__(obj, "vertices", vertices)
        return obj

    def __len__(self) -> int:
        return len(self.vertices)


def polyline(vertices: Sequence[Sequence[RationalLike]], n: int | None = None) -> MonotonePolyline:
    """Build a polyline, inferring the dimension from the first vertex."""
    pts = tuple(_as_point(v) for v in vertices)
    if n is None:
        if not pts:
            raise DomainError("cannot infer dimension of an empty polyline")
        n = len(pts[0])
    return MonotonePolyline(n=n, vertices=pts)


def segment_length(a: Point, b: Point) -> Fraction | float:
    """Euclidean length of one segment; exact when at most one coordinate moves."""
    moving = [(x, y) for x, y in zip(a, b) if x is not y and y != x]
    if not moving:
        return Fraction(0)
    if len(moving) == 1:
        x, y = moving[0]
        return abs(y - x)
    return math.sqrt(math.fsum((float(y) - float(x)) ** 2 for x, y in moving))


def h1_length(p: MonotonePolyline) -> Fraction | float:
    """Arc length of the polyline: exact Fraction for staircases, else float.

    The float value carries relative error below 2**-50: each square
    root is correctly rounded from exactly representable differences of
    rounded coordinates, and the parts are combined with fsum.
    """
    exact_parts: list[Fraction] = []
    float_parts: list[float] = []
    verts = p.vertices
    for a, b in zip(verts, verts[1:]):
        length = segment_length(a, b)
        if type(length) is Fraction:
            if length:
                exact_parts.append(length)
        else:
            float_parts.append(length)
    exact_total = sum(exact_parts, Fraction(0))
    if not float_parts:
        return exact_total
    if exact_total:
        float_parts.append(float(exact_total))
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


@dataclass(frozen=True)
class AntidiagonalPiece:
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


@dataclass(frozen=True)
class AntidiagonalDecomposition:
    pieces: tuple[AntidiagonalPiece, ...]


def _interpolate(a: Point, b: Point, sa: Fraction, sb: Fraction, target: Fraction) -> Point:
    # Point on the segment a->b whose coordinate sum equals target.
    t = (target - sa) / (sb - sa)
    return tuple(x + t * (y - x) for x, y in zip(a, b))


def antidiagonal_decompose(p: MonotonePolyline) -> AntidiagonalDecomposition:
    """Clip the polyline at the hyperplanes of integer coordinate sum.

    Piece i holds the sub-polyline with coordinate sum in [i-1, i]; the
    clipping vertices are exact rational intersections and appear in
    both adjacent pieces.  One forward walk assigns every segment: the
    coordinate sum is nondecreasing along a monotone polyline, so the
    active piece index only ever advances.
    """
    n = p.n
    buckets: list[list[Point] | None] = [None] * (n + 1)

    def push(i: int, pt: Point) -> None:
        bucket = buckets[i]
        if bucket is None:
            bucket = buckets[i] = []
        if not bucket or bucket[-1] != pt:
            bucket.append(pt)

    if p.vertices:
        sums = [coordinate_sum(v) for v in p.vertices]
        s0 = sums[0]
        if s0 == int(s0):
            index = max(1, min(n, int(s0)))
        else:
            index = int(s0) + 1
        push(index, p.vertices[0])
        for (a, b), (sa, sb) in zip(
            zip(p.vertices, p.vertices[1:]), zip(sums, sums[1:])
        ):
            push(index, a)
            while sb > index and index < n:
                cut = _interpolate(a, b, sa, sb, Fraction(index))
                push(index, cut)
                index += 1
                push(index, cut)
            push(index, b)

    pieces = []
    for i in range(1, n + 1):
        bucket = buckets[i]
        if bucket is None:
            pieces.append(AntidiagonalPiece(index=i, piece=None, s_interval=None))
            continue
        sub = MonotonePolyline._trusted(n, tuple(bucket))
        s_lo = coordinate_sum(bucket[0]) - (i - 1)
        s_hi = coordinate_sum(bucket[-1]) - (i - 1)
        pieces.append(AntidiagonalPiece(index=i, piece=sub, s_interval=(s_lo, s_hi)))
    return AntidiagonalDecomposition(pieces=tuple(pieces))


def extremal_chain(n: int) -> MonotonePolyline:
    """The length-n staircase: fill coordinates one at a time, left to right."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    verts = [tuple(Fraction(1) if j < i else Fraction(0) for j in range(n)) for i in range(n + 1)]
    return MonotonePolyline(n=n, vertices=tuple(verts))
