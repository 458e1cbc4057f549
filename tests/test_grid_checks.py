"""The shared checks of a grid {0..m-1}^n and of its points."""

import io
import json
from fractions import Fraction

import pytest

from chainlab import (
    CellSet,
    DomainError,
    EpsilonParams,
    WeightedGrid,
    ksperner_bound_via_scd,
    ksperner_max_bruteforce,
    symmetric_chain_decomposition,
    whitney_numbers,
)
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
