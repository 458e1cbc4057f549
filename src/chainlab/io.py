"""JSON file formats shared by the CLI, the tests and the demo scripts.

All rational scalars travel as "P/Q" strings so that no file ever
depends on float formatting.

* cell set file:  {"n": 2, "M": 4, "cells": [[0, 1], ...]}
                  or {"n": 2, "M": 4, "runs": [1, 2, 4, 6, ...]}
* polyline file:  {"n": 2, "vertices": [["0/1", "1/2"], ...]}
* weights file:   {"n": 2, "m": 2, "weights": [{"point": [0, 1], "w": "5/1"}, ...]}
* cube chain:     {"n": 2, "m": 10, "cubes": [[0, 0], [1, 1], ...]}

Every file is read by `config.read_json_object`.  Cell, weights and
cube-chain files pass the point checks of `errors`, so a fault is worded
alike in the three; a weights file lists each point once, and a cube
chain gives n.  Each loader checks the points in its file's wording
first.  Weights that pass the whole-list checks go straight into the
grid's integer columns; the per-entry path builds `WeightedGrid`, and
the cube chain `ChainOfPoints`, through its constructor, which checks
the points again (a cube chain has at most n(m-1)+1 of them).  The
cubes' range is checked by `build_chain_through_cubes`.

Polyline coordinates and weights are "P/Q" strings, read as one list
by `parse_quotients`: a whole-list check that every value is a str of
ASCII digits with one "/" and Q > 0, then one JSON scan of the terms
(one `map(int, ...)` where JSON refuses a leading zero).  A list that
fails the check (an int, a string with a sign, spaces or an underscore,
"P/0", digits past `int`'s string limit) is read one value at a time
through `as_rational`, so the accepted values, the first fault in file
order and the error messages are those of `Fraction(str)`.  Polyline
coordinates take both paths through the reader that
`chain_geometry.polyline` uses (`chain_geometry._columns`), which loads
them straight into the integer-numerator form of `MonotonePolyline`,
over the lcm of their denominators.  The weights go straight into the
integer columns of `WeightedGrid` (flat indices, and numerators and
denominators in lowest terms), with no `Fraction` built; a weights
list that fails the check, or has a missing "w" or a repeated point, is
read entry by entry, so the first fault in file order is worded by the
per-entry checks.

A polyline file is charged against `Config.max_table_bytes` as one
integer of the lcm's bits per coordinate, at each step of building the
lcm (`config.over_common_denominator`), so an oversized file raises
`ResourceLimitError` before any numerator is scaled.  A weights file is
charged by `max_weight_chain`, which scales its weights.

Polyline vertices are written by `rational.format_quotients`, in
whole-list passes over the numerators and the polyline's one
denominator.  Each loader imports the type it builds when it runs, so a
command loads only the module of its own file kind: a cell file loads
`cellset`, and `maxchain` never loads it.

A cell set file gives n, M and exactly one of `cells`, the coordinate
lists of its cells in any order (repeats allowed; the form people write
by hand), and `runs`, the flat list [s_0, e_0, s_1, e_1, ...] of the
row runs a `CellSet` stores: cells with flat index in [s_i, e_i), each
run inside one row, in the one canonical order.  `write_cellset` writes
`runs`, on one line, through the JSON encoder; `CellRuns.checked` reads
it back in whole-list passes, with no list per cell.  `cellset_grid`
checks a file's n and M alone, so that `verify` can check its caps
before it builds the set.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any, Optional

from .config import Config, read_json_object
from .errors import DomainError, check_dimension, check_grid, check_grid_points, check_points
from .rational import as_rational, format_quotients

if TYPE_CHECKING:
    from .cellset import CellSet
    from .chain_geometry import MonotonePolyline
    from .gridposet import ChainOfPoints, WeightedGrid


def _require(data: dict, key: str, context: str) -> Any:
    if key not in data:
        raise DomainError(f"{context} file is missing the {key!r} field")
    return data[key]


def load_json(path: str) -> dict:
    return read_json_object(path, "input file")


def _rational_field(value: object, context: str) -> Fraction:
    try:
        return as_rational(value)
    except DomainError as exc:
        raise DomainError(f"{context}: {exc}") from exc


def parse_quotients(values: list) -> Optional[tuple[list[int], list[int]]]:
    """Read a whole list of "P/Q" strings as (numerators, denominators).

    Every value must be a str of ASCII digits, one "/" and Q > 0; then
    each pair is (int(P), int(Q)), unreduced.  The checks run over the
    whole list at C level: the set of types, the count of "/" in each
    value (so that ["1/2/3", "4"] is not read as 1/2 and 3/4), one ASCII
    and one digit test of the joined text, and one test for a zero
    denominator.  The terms are read as one JSON array, whose C scanner
    makes each int without a str per term; JSON refuses a leading zero,
    which `int` reads, so a list that JSON refuses takes one `map(int,
    ...)` over its terms, and gets the same ints.  Any other list gives
    None, and the caller reads its values one at a time with
    `as_rational`.
    """
    if not values:
        return [], []
    if set(map(type, values)) != {str} or set(map(str.count, values, repeat("/"))) != {1}:
        return None
    # Each value holds one "/", so the terms of the joined text alternate P, Q.
    text = "/".join(values)
    if not text.isascii() or not text.replace("/", "").isdigit():
        return None
    try:
        terms = json.loads("[" + text.replace("/", ",") + "]")
    except ValueError:
        try:
            terms = list(map(int, text.split("/")))
        except ValueError:  # an empty term, or one past int's limit on string digits
            return None
    denominators = terms[1::2]
    if 0 in denominators:
        return None
    return terms[0::2], denominators


def dump_json(path: str, payload: dict) -> None:
    # One line: json's indenting encoder is pure Python, its compact one C.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def cellset_to_dict(a: CellSet) -> dict:
    return {"M": a.M, "n": a.n, "runs": list(a.cells.bounds)}


def write_cellset(path: str, a: CellSet) -> None:
    dump_json(path, cellset_to_dict(a))


def cellset_grid(data: dict) -> tuple[int, int]:
    """The n and M of a cell set file, checked, without reading its cells.

    The file must give exactly one of `cells` and `runs`.
    """
    from .cellset import check_cell_grid

    n = _require(data, "n", "cell set")
    M = _require(data, "M", "cell set")
    if ("cells" in data) == ("runs" in data):
        raise DomainError("cell set file must give exactly one of 'cells' and 'runs'")
    check_cell_grid(n, M)
    return n, M


def cellset_from_dict(data: dict) -> CellSet:
    from .cellset import CellRuns, CellSet

    n, M = cellset_grid(data)
    if "runs" in data:
        return CellSet(n, M, CellRuns.checked(n, M, data["runs"]))
    return CellSet(n, M, data["cells"])


def polyline_to_dict(p: MonotonePolyline) -> dict:
    text = iter(format_quotients(list(chain.from_iterable(p.numerators)), p.denominator))
    return {"n": p.n, "vertices": list(map(list, zip(*[text] * p.n)))}


def _check_entries(items: object, kind: type, what: str) -> None:
    # Whole-list check; the offending entry is looked up only for the message.
    if type(items) is not list:
        raise DomainError(f"{what} must be a list, got {items!r}")
    if set(map(type, items)) - {kind}:
        bad = next(v for v in items if type(v) is not kind)
        raise DomainError(f"{what}: {bad!r} is not a {kind.__name__}")


def polyline_from_dict(data: dict, config: Config = Config()) -> MonotonePolyline:
    from .chain_geometry import MonotonePolyline, _columns

    n = _require(data, "n", "polyline")
    vertices = _require(data, "vertices", "polyline")
    _check_entries(vertices, list, "polyline vertices")
    # The file's n as given, so that MonotonePolyline refuses one that is
    # not a dimension (null included), which `polyline` would infer.
    return MonotonePolyline(n, *_columns(vertices, "polyline vertex: ", config))


def weighted_grid_from_dict(data: dict) -> WeightedGrid:
    from .gridposet import WeightedGrid

    n = _require(data, "n", "weights")
    m = _require(data, "m", "weights")
    entries = _require(data, "weights", "weights")
    _check_entries(entries, dict, "weights")
    points = list(map(dict.get, entries, repeat("point")))
    if None in points:  # a missing point, or a null one
        points = [_require(entry, "point", "weights entry") for entry in entries]
    _check_entries(points, list, "weights points")
    # Checked here, not by WeightedGrid: the points key a dict first.
    check_grid(n, m)
    coords = check_grid_points(points, n, m, "point")
    parsed = parse_quotients(list(map(dict.get, entries, repeat("w"))))
    if parsed is not None:
        grid = WeightedGrid._from_columns(n, m, coords, *parsed)
        if len(set(grid.index)) == len(points):
            return grid
    # The first fault in file order, worded per entry.
    weights = {}
    for entry, point in zip(entries, map(tuple, points)):
        if point in weights:
            raise DomainError(f"weights file lists point {point} twice")
        weights[point] = _rational_field(
            _require(entry, "w", "weights entry"), f"weight at {point}"
        )
    return WeightedGrid(n=n, m=m, weights=weights)


def cube_chain_from_dict(data: dict) -> tuple[ChainOfPoints, int, int]:
    """The chain of coarse cubes with its grid's n and m (m and the cubes'
    range are checked by `build_chain_through_cubes`, where m = 1 is legal)."""
    from .gridposet import ChainOfPoints

    n = _require(data, "n", "cube chain")
    m = _require(data, "m", "cube chain")
    cubes = _require(data, "cubes", "cube chain")
    _check_entries(cubes, list, "cube chain cubes")
    check_dimension(n)
    check_points(cubes, n, "cube")
    return ChainOfPoints(points=tuple(map(tuple, cubes))), n, m
