"""The shared checks of a grid {0..m-1}^n and of its points."""

import io
import itertools
import json
from fractions import Fraction

import pytest

from chainlab import (
    CellSet,
    ChainOfPoints,
    DomainError,
    EpsilonParams,
    WeightedGrid,
    build_chain_through_cubes,
    ksperner_bound_via_scd,
    ksperner_max_bruteforce,
    symmetric_chain_decomposition,
    whitney_numbers,
)
from chainlab import errors, gridposet, verifier
from chainlab import io as chainlab_io
from chainlab.cli import run

GRID_USERS = {
    "CellSet": lambda n, m: CellSet(n, m, []),
    "WeightedGrid": lambda n, m: WeightedGrid(n, m, {}),
    "EpsilonParams": lambda n, m: EpsilonParams(n, m, Fraction(1, 100), Fraction(1, 100)),
    "whitney_numbers": whitney_numbers,
    "symmetric_chain_decomposition": symmetric_chain_decomposition,
    "ksperner_bound_via_scd": lambda n, m: ksperner_bound_via_scd(n, m, 1),
    "ksperner_max_bruteforce": lambda n, m: ksperner_max_bruteforce(n, m, 1),
}


@pytest.mark.parametrize(
    "grid",
    [(0, 3), (2, 1), ("2", 3), (2, 2.0), (True, 3)],
    ids=["n-zero", "m-one", "n-string", "m-float", "n-bool"],
)
@pytest.mark.parametrize("user", sorted(GRID_USERS))
def test_bad_grid_is_a_domain_error(user, grid):
    with pytest.raises(DomainError):
        GRID_USERS[user](*grid)


@pytest.mark.parametrize(
    "point", [[0], [True, 0], [0, 4]], ids=["dimension", "bool", "range"]
)
def test_point_fault_worded_alike_in_every_file(tmp_path, point):
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps({"n": 2, "M": 8, "cells": [[0, 0]]}))
    cubes_argv = ["chainbuild", "--set", str(cells), "--epsilon", "1/10", "--cubes"]
    files = {
        "cell": (
            {"n": 2, "M": 4, "cells": [[0, 0], point]},
            ["verify", "--kappa", "1", "--m", "2", "--set"],
        ),
        "point": (
            {"n": 2, "m": 4, "weights": [{"point": point, "w": "1/1"}]},
            ["maxchain", "--weights"],
        ),
        "cube": ({"n": 2, "m": 4, "cubes": [[0, 0], point]}, cubes_argv),
    }
    messages = set()
    for what, (data, argv) in files.items():
        path = tmp_path / f"{what}.json"
        path.write_text(json.dumps(data))
        out, err = io.StringIO(), io.StringIO()
        assert run([*argv, str(path)], stdout=out, stderr=err) == 2
        message = json.loads(err.getvalue())["error"]["message"]
        assert message.startswith(f"{what} ({point[0]}"), message
        messages.add(message.removeprefix(what))
    assert len(messages) == 1, messages


def test_each_cube_and_weights_point_checked_once(tmp_path, monkeypatch):
    calls = []

    def counting(check, kind):
        def wrapper(points, n, *rest):
            count = len(points) // n if kind == "range" else len(points)
            calls.append((kind, rest[-1], count))
            return check(points, n, *rest)

        return wrapper

    for name, kind in (("check_points", "points"), ("check_in_grid", "range")):
        wrapper = counting(getattr(errors, name), kind)
        for module in (errors, chainlab_io, gridposet, verifier):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    cells = tmp_path / "cells.json"
    cells.write_text(json.dumps({"n": 2, "M": 8, "cells": [[0, 0], [7, 7]]}))
    cubes = tmp_path / "cubes.json"
    cubes.write_text(json.dumps({"n": 2, "m": 1, "cubes": [[0, 0]]}))
    weights = tmp_path / "weights.json"
    entries = [{"point": [i, j], "w": "1/1"} for i in range(3) for j in range(3)]
    weights.write_text(json.dumps({"n": 2, "m": 3, "weights": entries}))
    argvs = {
        "cube": ["chainbuild", "--cubes", str(cubes), "--set", str(cells), "--epsilon", "1/10"],
        "point": ["maxchain", "--weights", str(weights)],
    }
    for what, argv in argvs.items():
        calls.clear()
        out, err = io.StringIO(), io.StringIO()
        run(argv, stdout=out, stderr=err)
        # chainbuild's density check fails on this sparse set; the checks come first.
        points = 1 if what == "cube" else 9
        assert [c for c in calls if c[1] != "cell"] == [
            ("points", what, points),
            ("range", what, points),
        ]


def test_library_callers_still_get_domain_errors():
    a = CellSet(2, 4, [list(c) for c in itertools.product(range(4), repeat=2)])
    eps = Fraction(1, 10)
    bad_chains = [
        [(0, 0), (1, 1, 1)],
        [(0, 0), (1, 1.0)],
        [(0, True)],
        [(0, 0, 0), (1, 1, 1)],
        [(0, 0), (2, 2)],
        [(-1, 0), (1, 1)],
    ]
    for points in bad_chains:
        with pytest.raises(DomainError):
            build_chain_through_cubes(ChainOfPoints(points), a, 2, eps)
    for weights in ({(0, 0, 0): 1}, {(0, 2): 1}, {(0, 0.0): 1}, {(True, 0): 1}, {(-1, 0): 1}):
        with pytest.raises(DomainError):
            WeightedGrid(2, 2, weights)
