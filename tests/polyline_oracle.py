"""Fraction-arithmetic reference for the polyline kernels, and per-value
readers of the "P/Q" values of polyline and weights files.

These are the `Fraction` versions of `segment_length`, `h1_length` and
`antidiagonal_decompose` that chainlab ran before polylines were stored
as integer numerators over one denominator.  They work on tuples of
`Fraction` vertices, and the tests require the integer kernels to give
the same Fractions and the same floats, bit for bit.

`numerator_and_denominator`, `polyline_from_dict` and
`weighted_grid_from_dict` read a file's values one at a time, as
chainlab did before it read them as one list; the tests require the
whole-list readers to give the same objects and the same errors.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from chainlab import MonotonePolyline, WeightedGrid, format_rational
from chainlab.errors import DomainError, check_grid, check_grid_points
from chainlab.io import _check_entries, _rational_field, _require

Point = tuple[Fraction, ...]


def segment_length(a: Point, b: Point) -> Fraction | float:
    moving = [(x, y) for x, y in zip(a, b) if x is not y and y != x]
    if not moving:
        return Fraction(0)
    if len(moving) == 1:
        x, y = moving[0]
        return abs(y - x)
    return math.sqrt(math.fsum((float(y) - float(x)) ** 2 for x, y in moving))


def h1_length(vertices: tuple[Point, ...]) -> Fraction | float:
    exact_parts: list[Fraction] = []
    float_parts: list[float] = []
    for a, b in zip(vertices, vertices[1:]):
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


def _interpolate(a: Point, b: Point, sa: Fraction, sb: Fraction, target: Fraction) -> Point:
    t = (target - sa) / (sb - sa)
    return tuple(x + t * (y - x) for x, y in zip(a, b))


def antidiagonal_decompose(
    n: int, vertices: tuple[Point, ...]
) -> list[tuple[int, tuple[Point, ...] | None, tuple[Fraction, Fraction] | None]]:
    """(index, piece vertices, s_interval) for index 1..n; None when empty."""
    buckets: list[list[Point] | None] = [None] * (n + 1)

    def push(i: int, pt: Point) -> None:
        bucket = buckets[i]
        if bucket is None:
            bucket = buckets[i] = []
        if not bucket or bucket[-1] != pt:
            bucket.append(pt)

    if vertices:
        sums = [sum(v, Fraction(0)) for v in vertices]
        s0 = sums[0]
        if s0 == int(s0):
            index = max(1, min(n, int(s0)))
        else:
            index = int(s0) + 1
        push(index, vertices[0])
        for (a, b), (sa, sb) in zip(zip(vertices, vertices[1:]), zip(sums, sums[1:])):
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
            pieces.append((i, None, None))
            continue
        s_lo = sum(bucket[0], Fraction(0)) - (i - 1)
        s_hi = sum(bucket[-1], Fraction(0)) - (i - 1)
        pieces.append((i, tuple(bucket), (s_lo, s_hi)))
    return pieces


def chain_payload(action: str, n: int, vertices: tuple[Point, ...]) -> dict:
    """The JSON object `chainlab chain ACTION` prints for these vertices."""
    length = h1_length(vertices)
    if action == "length":
        exact = isinstance(length, Fraction)
        return {
            "n": n,
            "h1_float": float(length),
            "h1_exact": format_rational(length) if exact else None,
            "exact": exact,
        }
    pieces = []
    for index, piece, s_interval in antidiagonal_decompose(n, vertices):
        if piece is None:
            pieces.append(
                {"index": index, "s_lo": None, "s_hi": None, "piece_h1_float": 0.0, "vertices": None}
            )
            continue
        pieces.append(
            {
                "index": index,
                "s_lo": format_rational(s_interval[0]),
                "s_hi": format_rational(s_interval[1]),
                "piece_h1_float": float(h1_length(piece)),
                "vertices": [[format_rational(c) for c in v] for v in piece],
            }
        )
    return {"n": n, "h1_float": float(length), "pieces": pieces}


#: Denominators for random coordinates: small ones put many vertices on
#: the hyperplanes of integer coordinate sum, large odd ones make floats
#: round.
DENOMINATORS = (1, 2, 3, 4, 6, 7, 12, 16, 97, 1000, 10**9 + 7, 3**40, 2**60 + 1)


def _coordinate(rng: random.Random, lo: Fraction) -> Fraction:
    # A random coordinate in [lo, 1], with a random denominator.
    d = rng.choice(DENOMINATORS)
    return Fraction(rng.randint(math.ceil(lo * d), d), d)


def random_vertices(rng: random.Random, n: int, kind: str, max_vertices: int = 30) -> tuple[Point, ...]:
    """Random monotone Fraction vertices of mixed reduced denominators.

    kind "staircase": each segment moves one axis; "skew": each
    coordinate is an independent sorted sample.  Some vertices repeat.
    """
    count = rng.randint(0, max_vertices)
    if kind == "staircase":
        point = [Fraction(0)] * n
        vertices = [tuple(point)] if count else []
        for _ in range(count - 1):
            j = rng.randrange(n)
            point[j] = _coordinate(rng, point[j])
            vertices.append(tuple(point))
    else:
        columns = [sorted(_coordinate(rng, Fraction(0)) for _ in range(count)) for _ in range(n)]
        vertices = list(zip(*columns))
    for _ in range(rng.randint(0, 3) if vertices else 0):
        k = rng.randrange(len(vertices))
        vertices.insert(k, vertices[k])
    return tuple(vertices)


def quotient(value: object) -> tuple[int, int] | None:
    """(int(P), int(Q)) for a str "P/Q" of ASCII digits with Q > 0, else None."""
    if type(value) is str and value.isascii():
        p, sep, q = value.partition("/")
        if sep and p.isdigit() and q.isdigit():
            try:
                num, den = int(p), int(q)
            except ValueError:  # past int's limit on string digits
                return None
            if den:
                return num, den
    return None


def numerator_and_denominator(value: object) -> tuple[int, int]:
    """One polyline coordinate: `quotient`, else through `as_rational`."""
    pair = quotient(value)
    if pair is not None:
        return pair
    c = _rational_field(value, "polyline vertex")
    return c.numerator, c.denominator


def polyline_from_dict(data: dict) -> MonotonePolyline:
    n = _require(data, "n", "polyline")
    vertices = _require(data, "vertices", "polyline")
    _check_entries(vertices, list, "polyline vertices")
    pairs = [[numerator_and_denominator(c) for c in v] for v in vertices]
    den = math.lcm(*{q for v in pairs for _, q in v})
    numerators = [tuple(p * (den // q) for p, q in v) for v in pairs]
    return MonotonePolyline(n=n, numerators=numerators, denominator=den)


def weighted_grid_from_dict(data: dict) -> WeightedGrid:
    n = _require(data, "n", "weights")
    m = _require(data, "m", "weights")
    entries = _require(data, "weights", "weights")
    _check_entries(entries, dict, "weights")
    points = [_require(entry, "point", "weights entry") for entry in entries]
    _check_entries(points, list, "weights points")
    check_grid(n, m)
    check_grid_points(points, n, m, "point")
    weights: dict[tuple[int, ...], Fraction] = {}
    for entry, point in zip(entries, map(tuple, points)):
        if point in weights:
            raise DomainError(f"weights file lists point {point} twice")
        weights[point] = _rational_field(
            _require(entry, "w", "weights entry"), f"weight at {point}"
        )
    return WeightedGrid(n=n, m=m, weights=weights, points_checked=True)
