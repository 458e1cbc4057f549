"""Each command loads only the modules it runs; numpy is needed only by
`volume --mc`.

`import chainlab` loads no submodule: its public names resolve on first
use.  A command started as `python -m chainlab.cli` imports, in its
handler, only what that command calls, so `whitney` never loads the
verifier; `python -m chainlab` and the `chainlab` script take the same
path and print the same bytes.  Importing `chainlab.cli` as a module
still loads every module (see tests/test_bench_contract.py).

Importing chainlab must not load numpy, and no command but `volume --mc`
(the Monte Carlo estimator) may load it: cell sets are row runs in pure
Python, so `raster-slab`, `verify` and `chainbuild` run on the standard
library alone.  That is checked twice: in a fresh interpreter, numpy
stays out of `sys.modules`, and under `python -S`, which skips
site-packages so that numpy cannot be imported at all, the cell commands
print and write the same bytes.  The test modules import numpy
themselves, so each check runs in a fresh interpreter.
"""

import importlib
import io
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import chainlab
from chainlab import cli
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


# Runs `python -m chainlab.cli ARGV` in this interpreter, ARGV from
# sys.argv[1:], and prints on a last line its exit code and the chainlab
# modules loaded before and after it.
_RUN_AS_MAIN = """
import json, runpy, sys
import chainlab
before = sorted(m for m in sys.modules if m.startswith("chainlab"))
sys.argv = ["chainlab", *sys.argv[1:]]
try:
    runpy.run_module("chainlab.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
after = sorted(m for m in sys.modules if m.startswith("chainlab"))
print()
print(json.dumps([code, before, after]))
"""


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue() + err.getvalue()


def probe_files(tmp_path):
    """A weights file and a polyline file for maxchain and chain."""
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({
        "n": 2, "m": 2,
        "weights": [{"point": [0, 1], "w": "5/1"}, {"point": [1, 1], "w": "1/2"}],
    }))
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps({
        "n": 2, "vertices": [["0/1", "0/1"], ["1/3", "1/2"], ["1/1", "1/1"]],
    }))
    return weights, poly


def test_grid_and_chain_commands_leave_numpy_unloaded(tmp_path):
    weights, poly = probe_files(tmp_path)
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


def test_each_command_loads_only_its_modules(tmp_path):
    weights, poly = probe_files(tmp_path)
    # No grid or chain command loads a cell set module.
    cell = {"cellset", "chainmass", "verifier"}
    grid = cell | {"io", "gridposet", "chain_geometry"}
    # Only the k-Sperner bound among the grid poset commands reads the Whitney tables.
    tables = {"whitney", "slab_volume"}
    argvs = [
        (["whitney", "--n", "3", "--m", "4", "--kappa", "1/2"], grid),
        (["converge", "--n", "2", "--kappa", "1", "--m-list", "4,8"], grid),
        (["scd", "--n", "2", "--m", "3", "--print"], cell | {"chain_geometry"} | tables),
        (["ksperner", "--n", "2", "--m", "3", "--k", "2", "--brute"], cell | {"chain_geometry"}),
        (["maxchain", "--weights", str(weights)], cell | {"chain_geometry"} | tables),
        (["chain", "length", "--file", str(poly)], cell | {"gridposet"}),
        (["chain", "decompose", "--file", str(poly)], cell | {"gridposet"}),
    ]
    for argv, unloaded in argvs:
        proc = fresh_python(["-c", _RUN_AS_MAIN, *argv], tmp_path)
        *printed, _, last = proc.stdout.split("\n")[:-1]
        code, before, after = json.loads(last)
        assert (code, "\n".join(printed) + "\n") == invoke(argv)
        assert before == ["chainlab"]
        loaded = {name.removeprefix("chainlab.") for name in after}
        assert "cli" not in loaded, argv
        assert not loaded & unloaded, (argv, sorted(loaded & unloaded))


def test_cell_commands_load_only_their_modules(tmp_path):
    cells = tmp_path / "cells.json"
    # raster-slab loads the cell sets alone: neither the chain-mass DP nor
    # the proof machinery.  Only verify runs the chain-mass DP, and only
    # verify reads the Whitney tables, for the cap.
    base = {"config", "errors", "rational", "io", "cellset", "slab_volume"}
    proof = base | {"verifier"}
    expected = [base, proof | {"chainmass", "whitney"}, proof | {"gridposet", "chain_geometry"}]
    for argv, modules in zip(cell_command_argvs(tmp_path, cells), expected):
        proc = fresh_python(["-c", _RUN_AS_MAIN, *argv], tmp_path)
        *printed, _, last = proc.stdout.split("\n")[:-1]
        code, before, after = json.loads(last)
        assert (code, "\n".join(printed) + "\n") == invoke(argv)
        assert before == ["chainlab"]
        assert {name.removeprefix("chainlab.") for name in after} == {"chainlab"} | modules, argv


# Runs `python -m chainlab.cli ARGV` as _RUN_AS_MAIN does, and prints on a
# last line its exit code and every module it loaded: those not yet in
# sys.modules when the interpreter, site hooks included, had started.
_LOADED_BY_RUN = """
import sys
started = set(sys.modules)
import json, runpy
sys.argv = ["chainlab", *sys.argv[1:]]
try:
    runpy.run_module("chainlab.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print()
print(json.dumps([code, sorted(set(sys.modules) - started)]))
"""


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    # The value types are plain classes and named tuples, so nothing a
    # command runs imports dataclasses, or inspect, which it would pull in.
    # `volume --mc` is left out: numpy, which it loads, imports inspect.
    weights, poly = probe_files(tmp_path)
    argvs = [
        [],
        ["volume", "--n", "3", "--kappa", "1/2"],
        ["whitney", "--n", "3", "--m", "4", "--kappa", "1/2"],
        ["converge", "--n", "2", "--kappa", "1", "--m-list", "4,8"],
        ["scd", "--n", "2", "--m", "3", "--print"],
        ["ksperner", "--n", "2", "--m", "3", "--k", "2", "--brute"],
        ["maxchain", "--weights", str(weights)],
        ["chain", "length", "--file", str(poly)],
        ["chain", "decompose", "--file", str(poly)],
        *cell_command_argvs(tmp_path, tmp_path / "cells.json"),
    ]
    for argv in argvs:
        proc = fresh_python(["-c", _LOADED_BY_RUN, *argv], tmp_path)
        *printed, _, last = proc.stdout.split("\n")[:-1]
        code, loaded = json.loads(last)
        assert (code or 0, "\n".join(printed) + "\n") == invoke(argv), argv
        assert "chainlab.config" in loaded
        assert not {"dataclasses", "inspect"} & set(loaded), argv


def test_a_run_builds_only_its_own_parser(monkeypatch):
    built = []
    build = cli._build_parser

    def record(name):
        built.append(name)
        return build(name)

    monkeypatch.setattr(cli, "_build_parser", record)
    assert invoke(["nosuch"])[0] == 64
    assert invoke([])[0] == 0
    assert built == []
    assert invoke(["whitney", "--n", "2", "--m", "3"])[0] == 0
    assert invoke(["chain", "--help"])[0] == 0
    assert built == ["whitney", "chain"]


def test_public_names_resolve_to_their_submodules():
    names = [name for names in chainlab._EXPORTS.values() for name in names]
    assert sorted(names) == chainlab.__all__
    assert len(set(names)) == len(names)
    for module, exported in chainlab._EXPORTS.items():
        owner = importlib.import_module(f"chainlab.{module}")
        assert getattr(chainlab, module) is owner
        for name in exported:
            value = getattr(chainlab, name)
            assert value is getattr(owner, name), name
            # Each public function and class is defined in the module that
            # exports it (GridPoint, an alias of tuple, is neither).
            if type(value) is type or isinstance(value, types.FunctionType):
                assert value.__module__ == owner.__name__, name
    assert set(chainlab.__all__) <= set(dir(chainlab))
    namespace = {}
    exec("from chainlab import *", namespace)
    assert set(chainlab.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        chainlab.no_such_name


#: The public names of `chainlab`: a name joins or leaves only by an edit here.
PUBLIC_NAMES = [
    "AntidiagonalPiece",
    "CellSet",
    "ChainCertificate",
    "ChainOfPoints",
    "ChainlabError",
    "ClaimCheckReport",
    "CoefficientTable",
    "Config",
    "ConvergenceRow",
    "CoverSets",
    "DomainError",
    "EpsilonParams",
    "GridPoint",
    "MaxChainResult",
    "MonotonePolyline",
    "MonteCarloResult",
    "ResourceLimitError",
    "SlabSpec",
    "SymmetricChainDecomposition",
    "VerifyReport",
    "WeightedGrid",
    "antichain_slab_membership",
    "antidiagonal_decompose",
    "as_rational",
    "build_chain_through_cubes",
    "chain_mass_sup",
    "claim_check",
    "convergence_table",
    "coordinate_sum",
    "cover_sets",
    "discretize_slab",
    "end_to_end_verify",
    "extremal_chain",
    "format_rational",
    "h1_length",
    "is_chain",
    "ksperner_bound_via_scd",
    "ksperner_max_bruteforce",
    "max_weight_chain",
    "measure",
    "polyline",
    "slab_membership",
    "slab_volume_exact",
    "slab_volume_montecarlo",
    "staircase_mass",
    "sum_k_largest",
    "symmetric_chain_decomposition",
    "whitney_numbers",
    "whitney_sum",
]


def test_public_surface_is_pinned():
    assert chainlab.__all__ == PUBLIC_NAMES


def test_every_entry_point_prints_the_same_bytes(tmp_path):
    # -W error::RuntimeWarning fails a run in which runpy finds chainlab.cli
    # already imported, as it would if the package imported it.  The last
    # entry point is what the `chainlab` script runs.
    entry_points = (
        ["-m", "chainlab.cli"],
        ["-m", "chainlab"],
        ["-c", "from chainlab.__main__ import main; main()"],
    )
    argvs = (
        ["whitney", "--n", "2", "--m", "3"],
        [],
        ["nosuch"],
        ["raster-slab", "--n", "2", "--M", "0", "--kappa", "1", "--mode", "inner", "-o", "x.json"],
    )
    for argv in argvs:
        outcomes = set()
        for entry in entry_points:
            proc = fresh_python(["-W", "error::RuntimeWarning", *entry, *argv], tmp_path, check=False)
            outcomes.add((proc.returncode, proc.stdout, proc.stderr))
        assert len(outcomes) == 1, (argv, outcomes)
        code, out, err = outcomes.pop()
        assert (code, out + err) == invoke(argv), argv
