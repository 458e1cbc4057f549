"""The shared checks of a grid {0..m-1}^n and of its points."""

import io
import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from chainlab import (
    CellSet,
    ChainOfPoints,
    Config,
    DomainError,
    EpsilonParams,
    MonotonePolyline,
    ResourceLimitError,
    SlabSpec,
    WeightedGrid,
    build_chain_through_cubes,
    discretize_slab,
    extremal_chain,
    ksperner_bound_via_scd,
    ksperner_max_bruteforce,
    max_weight_chain,
    symmetric_chain_decomposition,
    whitney_numbers,
)
from chainlab import errors, gridposet, verifier
from chainlab import io as chainlab_io
from chainlab.cli import run
from chainlab.whitney import k_for_kappa

GRID_USERS = {
    "CellSet": lambda n, m: CellSet(n, m, []),
    "WeightedGrid": lambda n, m: WeightedGrid(n, m, {}),
    # The epsilon bundle takes n alone: a verification's m is checked with its Whitney table.
    "EpsilonParams": lambda n, m: EpsilonParams(n, Fraction(1, 100), Fraction(1, 100)),
    "whitney_numbers": whitney_numbers,
    "symmetric_chain_decomposition": symmetric_chain_decomposition,
    "ksperner_bound_via_scd": lambda n, m: ksperner_bound_via_scd(n, m, 1),
    "ksperner_max_bruteforce": lambda n, m: ksperner_max_bruteforce(n, m, 1),
}
BAD_GRIDS = {
    "n-zero": (0, 3), "m-one": (2, 1), "n-string": ("2", 3), "m-float": (2, 2.0), "n-bool": (True, 3)
}


@pytest.mark.parametrize(
    "user, grid",
    [
        pytest.param(user, grid, id=f"{user}-{fault}")
        for user in sorted(GRID_USERS)
        for fault, grid in BAD_GRIDS.items()
        if user != "EpsilonParams" or fault.startswith("n-")
    ],
)
def test_bad_grid_is_a_domain_error(user, grid):
    with pytest.raises(DomainError):
        GRID_USERS[user](*grid)


#: What takes a dimension n but no grid; `errors.check_dimension` refuses a bad n for each.
DIMENSION_USERS = {
    "SlabSpec": lambda n: SlabSpec(n, 1),
    "EpsilonParams": lambda n: EpsilonParams(n, Fraction(1, 100), Fraction(1, 100)),
    "EpsilonParams.auto": lambda n: EpsilonParams.auto(n, Fraction(1, 100)),
    "MonotonePolyline": lambda n: MonotonePolyline(n, []),
    "extremal_chain": extremal_chain,
    "k_for_kappa": lambda n: k_for_kappa(n, 3, 1),
}


@pytest.mark.parametrize("n", [0, -1, "2", 2.0, True, None])
@pytest.mark.parametrize("user", sorted(DIMENSION_USERS))
def test_bad_dimension_worded_by_the_one_check(user, n):
    with pytest.raises(DomainError) as expected:
        errors.check_dimension(n)
    with pytest.raises(DomainError) as info:
        DIMENSION_USERS[user](n)
    assert str(info.value) == str(expected.value)


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
        # Each point is checked once in its file's wording; `ChainOfPoints`
        # checks a cube chain again as plain points, at most n(m-1)+1 of them.
        points = 1 if what == "cube" else 9
        expected = [("points", what, points), ("range", what, points)]
        if what == "cube":
            expected.insert(1, ("points", "point", points))
        assert [c for c in calls if c[1] != "cell"] == expected


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


def test_grid_size_check_matches_the_power():
    # The plain comparison m**n > cap is the oracle; the caps include the
    # powers themselves and their neighbours, and caps of 63 and 64 bits.
    ms = [2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 255, 256, 257, 2**31 - 1, 2**32, 2**63 - 1, 2**63]
    ms += [2**64 + 1, 10**30, 2**200]
    wide = [2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64]
    for m in ms:
        for n in range(1, 70):
            power = m**n
            near = [power - 1, power, power + 1] if power.bit_length() <= 130 else []
            for cap in [*range(1, 40), 10**7, 12**6, *wide, *near]:
                if power > cap:
                    with pytest.raises(ResourceLimitError) as info:
                        errors.check_grid_size(n, m, cap, "points")
                    assert str(info.value) == f"{m}^{n} points exceed the cap {cap}"
                else:
                    errors.check_grid_size(n, m, cap, "points")


ERROR_SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "schemas" / "error.schema.json").read_text()
)
HUGE = 10**9


def _wide(tmp_path):
    # Config.max_dimension would refuse n = HUGE first; raise it past HUGE
    # so that the grid's size is what refuses.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"max_dimension": 2 * HUGE}))
    return ["--config", str(path)]


def _weights_argv(tmp_path, n, m):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"n": n, "m": m, "weights": []}))
    return ["maxchain", "--weights", str(path)]


@pytest.mark.parametrize(
    "argv, size",
    [
        (lambda tmp: ["scd", "--n", str(HUGE), "--m", "3", *_wide(tmp)], f"3^{HUGE}"),
        (
            lambda tmp: ["ksperner", "--n", str(HUGE), "--m", "3", "--k", "1", *_wide(tmp)],
            f"3^{HUGE}",
        ),
        (
            lambda tmp: ["raster-slab", "--n", str(HUGE), "--M", "3", "--kappa", "1",
                         "--mode", "inner", "-o", str(tmp / "cells.json"), *_wide(tmp)],
            f"3^{HUGE}",
        ),
        (lambda tmp: _weights_argv(tmp, HUGE, 3), f"3^{HUGE}"),
        # 2^20000 has more decimal digits than Python prints.
        (lambda tmp: _weights_argv(tmp, 20000, 2), "2^20000"),
    ],
    ids=["scd", "ksperner", "raster-slab", "maxchain", "maxchain-unprintable"],
)
def test_huge_grid_refused_fast_by_its_power(tmp_path, argv, size):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    code = run(argv(tmp_path), stdout=out, stderr=err)
    assert time.perf_counter() - start < 2
    assert (code, out.getvalue()) == (3, "")
    payload = json.loads(err.getvalue())
    jsonschema.validate(payload, ERROR_SCHEMA)
    assert payload["error"]["message"].startswith(f"{size} "), payload
    assert not (tmp_path / "cells.json").exists()


@pytest.mark.parametrize(
    "call",
    [
        lambda n, m: discretize_slab(n, m, 1, "inner", Config(max_grid_states=2**70)),
        lambda n, m: CellSet(n, m, []),
        lambda n, m: max_weight_chain(WeightedGrid(n, m, {})),
        symmetric_chain_decomposition,
        lambda n, m: ksperner_max_bruteforce(n, m, 1),
    ],
    ids=["discretize_slab", "CellSet", "max_weight_chain", "scd", "bruteforce"],
)
@pytest.mark.parametrize("n, m", [(HUGE, 3), (20000, 2)])
def test_huge_grid_refused_by_the_library(call, n, m):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=rf"^{m}\^{n} "):
        call(n, m)
    assert time.perf_counter() - start < 2
