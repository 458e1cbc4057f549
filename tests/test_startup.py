"""numpy is needed only by `volume --mc`.

Importing chainlab must not load numpy, and no command but `volume --mc`
(the Monte Carlo estimator) may load it: cell sets are row runs in pure
Python, so `raster-slab`, `verify` and `chainbuild` run on the standard
library alone.  That is checked twice: in a fresh interpreter, numpy
stays out of `sys.modules`, and under `python -S`, which skips
site-packages so that numpy cannot be imported at all, the cell commands
print and write the same bytes.  The test modules import numpy
themselves, so each check runs in a fresh interpreter.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

from chainlab.cli import run

ROOT = Path(__file__).resolve().parent.parent

# Runs the CLI in process on each argv of the JSON list in argv[1] and
# prints, per argv, its exit code, its stdout and whether numpy was loaded.
_PROBE = """
import io, json, sys
import chainlab, chainlab.cli
results = [["import", 0, "", "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    code = chainlab.cli.run(argv, stdout=out, stderr=err)
    results.append([argv, code, out.getvalue() + err.getvalue(), "numpy" in sys.modules])
print(json.dumps(results))
"""


def fresh_python(args, cwd, check=True):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue() + err.getvalue()


def test_grid_and_chain_commands_leave_numpy_unloaded(tmp_path):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({
        "n": 2, "m": 2,
        "weights": [{"point": [0, 1], "w": "5/1"}, {"point": [1, 1], "w": "1/2"}],
    }))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "n": 2, "vertices": [["0/1", "0/1"], ["1/3", "1/2"], ["1/1", "1/1"]],
    }))
    argvs = [
        ["volume", "--n", "3", "--kappa", "1/2"],
        ["whitney", "--n", "3", "--m", "4", "--kappa", "1/2"],
        ["converge", "--n", "2", "--kappa", "1", "--m-list", "4,8"],
        ["scd", "--n", "2", "--m", "3", "--print"],
        ["ksperner", "--n", "2", "--m", "3", "--k", "2", "--brute"],
        ["maxchain", "--weights", str(weights)],
        ["chain", "length", "--file", str(poly)],
        ["chain", "decompose", "--file", str(poly)],
    ]
    proc = fresh_python(["-c", _PROBE, json.dumps(argvs)], tmp_path)
    (_, _, _, at_import), *results = json.loads(proc.stdout)
    assert not at_import
    assert [argv for argv, *_ in results] == argvs
    for argv, code, text, numpy_loaded in results:
        assert code == 0, text
        assert not numpy_loaded, argv
        assert (code, text) == invoke(argv)


def test_array_commands_run_in_a_fresh_interpreter(tmp_path):
    cells = tmp_path / "cells.json"
    cubes = tmp_path / "cubes.json"
    cubes.write_text(json.dumps({"n": 2, "m": 4, "cubes": [[1, 1], [2, 2]]}))
    argvs = [
        ["raster-slab", "--n", "2", "--M", "40", "--kappa", "1/1",
         "--mode", "inner", "-o", str(cells)],
        ["verify", "--set", str(cells), "--kappa", "1/1", "--m", "20", "--epsilon", "1/100"],
        ["chainbuild", "--cubes", str(cubes), "--set", str(cells), "--epsilon", "1/10"],
        ["volume", "--n", "2", "--kappa", "1", "--mc", "5000", "--seed", "4"],
    ]
    fresh = []
    for argv in argvs:
        fresh.append(fresh_python(["-m", "chainlab.cli", *argv], tmp_path).stdout)
    written = cells.read_bytes()
    for argv, stdout in zip(argvs, fresh):
        assert invoke(argv) == (0, stdout)
    assert cells.read_bytes() == written


def cell_command_argvs(tmp_path, cells):
    """raster-slab, then verify and chainbuild on the cells it wrote."""
    cubes = tmp_path / "cubes.json"
    cubes.write_text(json.dumps({"n": 2, "m": 4, "cubes": [[1, 1], [2, 2]]}))
    return [
        ["raster-slab", "--n", "2", "--M", "40", "--kappa", "1/1",
         "--mode", "inner", "-o", str(cells)],
        ["verify", "--set", str(cells), "--kappa", "1/1", "--m", "20", "--epsilon", "1/100"],
        ["chainbuild", "--cubes", str(cubes), "--set", str(cells), "--epsilon", "1/10"],
    ]


def test_only_monte_carlo_loads_numpy(tmp_path):
    cells = tmp_path / "cells.json"
    argvs = cell_command_argvs(tmp_path, cells) + [
        ["volume", "--n", "2", "--kappa", "1", "--mc", "5000", "--seed", "4"],
    ]
    proc = fresh_python(["-c", _PROBE, json.dumps(argvs)], tmp_path)
    (_, _, _, at_import), *results = json.loads(proc.stdout)
    assert not at_import
    assert [argv for argv, *_ in results] == argvs
    *cell_commands, (_, mc_code, mc_text, mc_numpy) = results
    for argv, code, text, numpy_loaded in cell_commands:
        assert code == 0, text
        assert not numpy_loaded, argv
    assert mc_code == 0, mc_text
    assert mc_numpy


def test_cell_commands_run_without_site_packages(tmp_path):
    # -S leaves site-packages, and numpy with it, off sys.path.
    blocked = fresh_python(["-S", "-c", "import numpy"], tmp_path, check=False)
    assert blocked.returncode != 0
    assert "No module named 'numpy'" in blocked.stderr
    cells = tmp_path / "cells.json"
    runs = {}
    for flags in ([], ["-S"]):
        cells.unlink(missing_ok=True)
        stdouts = []
        for argv in cell_command_argvs(tmp_path, cells):
            proc = fresh_python([*flags, "-m", "chainlab.cli", *argv], tmp_path)
            assert proc.stderr == ""
            stdouts.append(proc.stdout)
        runs[tuple(flags)] = (stdouts, cells.read_bytes())
    assert runs[("-S",)] == runs[()]
