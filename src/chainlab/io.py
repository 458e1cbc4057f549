"""JSON file formats shared by the CLI, the tests and the demo scripts.

All rational scalars travel as "P/Q" strings so that no file ever
depends on float formatting.

* cell set file:  {"n": 2, "M": 4, "cells": [[0, 1], ...]}
* polyline file:  {"n": 2, "vertices": [["0/1", "1/2"], ...]}
* weights file:   {"n": 2, "m": 2, "weights": [{"point": [0, 1], "w": "5/1"}, ...]}
* cube chain:     {"n": 2, "m": 10, "cubes": [[0, 0], [1, 1], ...]}

Polyline coordinates load straight into the integer-numerator form of
`MonotonePolyline`.  A coordinate that is a string "P/Q" of ASCII digits
with Q > 0 is split with `str.partition` and read with `int`; any other
value (an int, a string with a sign, spaces or an underscore, "P/0", or
digits past `int`'s string limit) goes through `as_rational`, so the
accepted coordinates and the error messages are those of
`Fraction(str)`.  The common denominator is the lcm of the denominators.

Cell set files are read through `CellSet`, which stores the cells as
sorted flat indices; `write_cellset` writes them back in the layout of
`json.dump(..., sort_keys=True, indent=1)` straight from those indices.
`cellset_to_dict` with `dump_json` writes the same bytes through the
JSON encoder.  `write_cellset` is the one function here that uses numpy,
and it imports it when called, so loading the other file formats does
not.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from .chain_geometry import MonotonePolyline
from .errors import DomainError
from .gridposet import ChainOfPoints, WeightedGrid
from .rational import as_rational, format_quotient
from .verifier import CellSet


def _require(data: dict, key: str, context: str) -> Any:
    if key not in data:
        raise DomainError(f"{context} file is missing the {key!r} field")
    return data[key]


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # Bad JSON, bad UTF-8, an int past the digit limit, or nesting too deep.
            raise DomainError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"{path} does not contain a JSON object")
    return data


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

    The text is built without the JSON encoder: one "%d" template per
    cell, in the layout of indent=1, repeated and filled by a single `%`
    from the coordinates of the sorted flat indices.
    """
    import numpy as np

    cell = "  [\n" + ",\n".join(["   %d"] * a.n) + "\n  ]"
    coords = np.stack(a.coordinates(), axis=1).ravel().tolist()
    cells = "[]"
    if coords:
        cells = "[\n" + ",\n".join([cell] * len(a.cells)) % tuple(coords) + "\n ]"
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


def _numerator_and_denominator(value: object) -> tuple[int, int]:
    if type(value) is str and value.isascii():
        p, sep, q = value.partition("/")
        if sep and p.isdigit() and q.isdigit():
            try:
                num, den = int(p), int(q)
            except ValueError:  # past int's limit on string digits
                pass
            else:
                if den:
                    return num, den
    c = _rational_field(value, "polyline vertex")
    return c.numerator, c.denominator


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
    numerators = [[_numerator_and_denominator(c) for c in v] for v in vertices]
    den = math.lcm(*{q for v in numerators for _, q in v})
    # In place, so that the (P, Q) pairs of a vertex are freed as its
    # numerators are made: the two forms never coexist whole.
    for i, v in enumerate(numerators):
        numerators[i] = tuple(p * (den // q) for p, q in v)
    return MonotonePolyline(n=n, numerators=numerators, denominator=den)


def weighted_grid_from_dict(data: dict) -> WeightedGrid:
    entries = _require(data, "weights", "weights")
    _check_entries(entries, dict, "weights")
    points = [_require(entry, "point", "weights entry") for entry in entries]
    _check_entries(points, list, "weights points")
    weights: dict[tuple[int, ...], Fraction] = {}
    try:
        for entry, point in zip(entries, map(tuple, points)):
            weights[point] = _rational_field(
                _require(entry, "w", "weights entry"), f"weight at {point}"
            )
    except TypeError as exc:  # a coordinate that cannot be hashed
        raise DomainError(f"weights points must hold integer coordinates: {exc}") from exc
    return WeightedGrid(
        n=_require(data, "n", "weights"),
        m=_require(data, "m", "weights"),
        weights=weights,
    )


def cube_chain_from_dict(data: dict) -> tuple[ChainOfPoints, int]:
    cubes = _require(data, "cubes", "cube chain")
    _check_entries(cubes, list, "cube chain cubes")
    return ChainOfPoints(points=tuple(map(tuple, cubes))), _require(data, "m", "cube chain")
