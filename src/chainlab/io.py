"""JSON file formats shared by the CLI, the tests and the demo scripts.

All rational scalars travel as "P/Q" strings so that no file ever
depends on float formatting.

* cell set file:  {"n": 2, "M": 4, "cells": [[0, 1], ...]}
* polyline file:  {"n": 2, "vertices": [["0/1", "1/2"], ...]}
* weights file:   {"n": 2, "m": 2, "weights": [{"point": [0, 1], "w": "5/1"}, ...]}
* cube chain:     {"n": 2, "m": 10, "cubes": [[0, 0], [1, 1], ...]}
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .chain_geometry import MonotonePolyline
from .errors import DomainError
from .gridposet import ChainOfPoints, WeightedGrid
from .rational import as_rational, format_rational
from .verifier import CellSet


def _require(data: dict, key: str, context: str) -> Any:
    if key not in data:
        raise DomainError(f"{context} file is missing the {key!r} field")
    return data[key]


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
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
    return {"n": a.n, "M": a.M, "cells": sorted(list(c) for c in a.cells)}


def cellset_from_dict(data: dict) -> CellSet:
    return CellSet(
        n=_require(data, "n", "cell set"),
        M=_require(data, "M", "cell set"),
        cells=_require(data, "cells", "cell set"),
    )


def polyline_to_dict(p: MonotonePolyline) -> dict:
    return {
        "n": p.n,
        "vertices": [[format_rational(c) for c in v] for v in p.vertices],
    }


def polyline_from_dict(data: dict) -> MonotonePolyline:
    return MonotonePolyline(
        n=_require(data, "n", "polyline"),
        vertices=tuple(
            tuple(_rational_field(c, "polyline vertex") for c in v)
            for v in _require(data, "vertices", "polyline")
        ),
    )


def weighted_grid_from_dict(data: dict) -> WeightedGrid:
    weights: dict[tuple[int, ...], Fraction] = {}
    for entry in _require(data, "weights", "weights"):
        point = tuple(_require(entry, "point", "weights entry"))
        weights[point] = _rational_field(
            _require(entry, "w", "weights entry"), f"weight at {point}"
        )
    return WeightedGrid(
        n=_require(data, "n", "weights"),
        m=_require(data, "m", "weights"),
        weights=weights,
    )


def cube_chain_from_dict(data: dict) -> tuple[ChainOfPoints, int]:
    cubes = tuple(tuple(c) for c in _require(data, "cubes", "cube chain"))
    return ChainOfPoints(points=cubes), _require(data, "m", "cube chain")
