"""JSON file formats shared by the CLI, the tests and the demo scripts.

All rational scalars travel as "P/Q" strings so that no file ever
depends on float formatting.

* cell set file:  {"n": 2, "M": 4, "cells": [[0, 1], ...]}
* polyline file:  {"n": 2, "vertices": [["0/1", "1/2"], ...]}
* weights file:   {"n": 2, "m": 2, "weights": [{"point": [0, 1], "w": "5/1"}, ...]}
* cube chain:     {"n": 2, "m": 10, "cubes": [[0, 0], [1, 1], ...]}

Every file is read by `config.read_json_object`.  Cell, weights and
cube-chain files pass the point checks of `errors`, so a fault is worded
alike in the three; a weights file lists each point once, and a cube
chain gives n.  Each point is checked once: the weights and the cube
chain are handed on with `points_checked=True`, and the cubes' range is
checked by `build_chain_through_cubes`.

Polyline coordinates and weights are "P/Q" strings, read as one list
by `rational.parse_quotients`: a whole-list check that every value is a
str of ASCII digits with one "/" and Q > 0, then one `map(int, ...)`
over the terms.  The coordinates load straight into the
integer-numerator form of `MonotonePolyline`, over the lcm of their
denominators; the weights become `Fraction(P, Q)`.  A list that fails
the check (an int, a string with a sign, spaces or an underscore, "P/0",
digits past `int`'s string limit, a vertex of the wrong length, a
missing "w" or a repeated point) is read one value at a time through
`as_rational`, as before, so the accepted values, the first fault in
file order and the error messages are those of `Fraction(str)` and of
the per-entry checks.

Cell set files are read through `CellSet`, which stores the cells as
row runs; `write_cellset` writes them back in the layout of
`json.dump(..., sort_keys=True, indent=1)` straight from the runs.
`cellset_to_dict` with `dump_json` writes the same bytes through the
JSON encoder.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain, repeat
from operator import floordiv, mul
from typing import Any

from .chain_geometry import MonotonePolyline
from .config import read_json_object
from .errors import DomainError, check_dimension, check_grid, check_grid_points, check_points
from .gridposet import ChainOfPoints, WeightedGrid
from .rational import as_rational, format_quotient, parse_quotients
from .verifier import CellSet


def _require(data: dict, key: str, context: str) -> Any:
    if key not in data:
        raise DomainError(f"{context} file is missing the {key!r} field")
    return data[key]


def load_json(path: str) -> dict:
    return read_json_object(path, "input file")


def _rational_field(value: object, context: str) -> Fraction:
    try:
        return as_rational(value)
    except (ValueError, TypeError) as exc:
        raise DomainError(f"{context}: {exc}") from exc


def dump_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def cellset_to_dict(a: CellSet) -> dict:
    return {"n": a.n, "M": a.M, "cells": list(map(list, a.points()))}


def write_cellset(path: str, a: CellSet) -> None:
    """Write a cell set file: the bytes of dump_json(path, cellset_to_dict(a)).

    The text is built without the JSON encoder, in the layout of
    indent=1: the cells of a run share every line but the one of their
    last coordinate, so each run is one join of those coordinates.
    """
    runs = []
    last_prefix = None
    for prefix, lo, hi in a.cells.runs():
        if prefix is not last_prefix:
            last_prefix = prefix
            head = "  [\n" + "".join(f"   {c},\n" for c in prefix) + "   "
        runs.append(head + f"\n  ],\n{head}".join(map(str, range(lo, hi))) + "\n  ]")
    cells = "[\n" + ",\n".join(runs) + "\n ]" if runs else "[]"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "M": {a.M},\n "cells": {cells},\n "n": {a.n}\n}}\n')


def cellset_from_dict(data: dict) -> CellSet:
    return CellSet(
        n=_require(data, "n", "cell set"),
        M=_require(data, "M", "cell set"),
        cells=_require(data, "cells", "cell set"),
    )


def polyline_to_dict(p: MonotonePolyline) -> dict:
    den = p.denominator
    return {
        "n": p.n,
        "vertices": [[format_quotient(x, den) for x in v] for v in p.numerators],
    }


def _check_entries(items: object, kind: type, what: str) -> None:
    # Whole-list check; the offending entry is looked up only for the message.
    if type(items) is not list:
        raise DomainError(f"{what} must be a list, got {items!r}")
    if set(map(type, items)) - {kind}:
        bad = next(v for v in items if type(v) is not kind)
        raise DomainError(f"{what}: {bad!r} is not a {kind.__name__}")


def polyline_from_dict(data: dict) -> MonotonePolyline:
    n = _require(data, "n", "polyline")
    vertices = _require(data, "vertices", "polyline")
    _check_entries(vertices, list, "polyline vertices")
    parsed = None
    if type(n) is int and n >= 1 and set(map(len, vertices)) <= {n}:
        parsed = parse_quotients(list(chain.from_iterable(vertices)))
    if parsed is None:
        fractions = [[_rational_field(c, "polyline vertex") for c in v] for v in vertices]
        return MonotonePolyline(n, fractions)
    numerators, denominators = parsed
    den = math.lcm(*set(denominators))
    scaled = map(mul, numerators, map(floordiv, repeat(den), denominators))
    return MonotonePolyline(n=n, numerators=list(zip(*[scaled] * n)), denominator=den)


def weighted_grid_from_dict(data: dict) -> WeightedGrid:
    n = _require(data, "n", "weights")
    m = _require(data, "m", "weights")
    entries = _require(data, "weights", "weights")
    _check_entries(entries, dict, "weights")
    points = [_require(entry, "point", "weights entry") for entry in entries]
    _check_entries(points, list, "weights points")
    # Checked here, not by WeightedGrid: the points key a dict first.
    check_grid(n, m)
    check_grid_points(points, n, m, "point")
    parsed = parse_quotients(list(map(dict.get, entries, repeat("w"))))
    if parsed is not None:
        weights = dict(zip(map(tuple, points), map(Fraction, *parsed)))
        if len(weights) == len(points):
            return WeightedGrid(n=n, m=m, weights=weights, points_checked=True)
    # The first fault in file order, worded per entry.
    weights = {}
    for entry, point in zip(entries, map(tuple, points)):
        if point in weights:
            raise DomainError(f"weights file lists point {point} twice")
        weights[point] = _rational_field(
            _require(entry, "w", "weights entry"), f"weight at {point}"
        )
    return WeightedGrid(n=n, m=m, weights=weights, points_checked=True)


def cube_chain_from_dict(data: dict) -> tuple[ChainOfPoints, int, int]:
    """The chain of coarse cubes with its grid's n and m (m and the cubes'
    range are checked by `build_chain_through_cubes`, where m = 1 is legal)."""
    n = _require(data, "n", "cube chain")
    m = _require(data, "m", "cube chain")
    cubes = _require(data, "cubes", "cube chain")
    _check_entries(cubes, list, "cube chain cubes")
    check_dimension(n)
    check_points(cubes, n, "cube")
    return ChainOfPoints(points=tuple(map(tuple, cubes)), points_checked=True), n, m
