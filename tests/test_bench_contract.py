"""The benchmark's layer trace still fits the library it wraps.

`bench/tracing.py` wraps chainlab's module attributes by name and reads
its counters from the wrapped calls' arguments and results.  A refactor
that renames a traced function or changes what a counter reads would
silently empty a per-layer metric; these checks catch it.  The module
imports only the standard library, so it is loaded straight from its path.
"""

import importlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from chainlab import (
    CellSet,
    MonotonePolyline,
    ChainOfPoints,
    EpsilonParams,
    WeightedGrid,
    discretize_slab,
    polyline,
    staircase_mass,
)
from conftest import random_cellset

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    assert tracing.LAYERS
    for name, (module, path, hook) in tracing.LAYERS.items():
        owner = importlib.import_module(module)
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{name}: {module}.{path} does not resolve"
            owner = getattr(owner, attr)
        assert callable(owner), name
        assert hook is None or callable(hook), name


def test_cli_import_loads_every_traced_module():
    # `tracing.installed` imports chainlab.cli and then looks each traced
    # module up in sys.modules, so no traced module may load lazily.
    modules = sorted({module for module, _, _ in load_tracing().LAYERS.values()})
    probe = "import json, sys; import chainlab.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert set(modules) <= set(json.loads(proc.stdout))


def test_cell_counters_count_cells():
    tracing = load_tracing()
    rng = random.Random(77)
    sets = [
        discretize_slab(2, 30, Fraction(1), "inner"),
        discretize_slab(3, 8, Fraction(1, 2), "outer"),
        random_cellset(rng, 2, 10, density=0.4),
    ]
    for a in sets:
        count = len(a.points())
        assert len(a.cells) == count
        assert tracing._cells((), a) == {"verifier.cells": count}
        assert tracing._verify_input((a,), None) == {"verifier.cells": count}
        q = ChainOfPoints(((0,) * a.n, (1,) * a.n))
        m = a.M // 2 if a.M % 2 == 0 else a.M
        assert tracing._chainbuild((q, a, m), None)["verifier.cells"] == count


def test_every_counter_hook_reads_a_real_result(tmp_path):
    # Each hooked layer runs once, wrapped by `Tracer.wrap` as in a traced
    # run, so a change to what a layer takes or returns fails here and not
    # only in the traced benchmark run.
    tracing = load_tracing()
    slab = discretize_slab(2, 12, Fraction(1), "inner")
    full = CellSet(2, 12, [(x, y) for x in range(12) for y in range(12)])
    cubes = ChainOfPoints(((0, 0), (1, 1), (2, 2)))
    path = str(tmp_path / "payload.json")
    samples = {
        "verifier.discretize_slab": (2, 12, Fraction(1), "inner"),
        "verifier.cover_sets": (slab, 4, EpsilonParams.auto(2, Fraction(1))),
        "verifier.adversarial_chain_search": (slab,),
        "verifier.build_chain_through_cubes": (cubes, full, 4, Fraction(1, 50)),
        "verifier.end_to_end_verify": (slab, Fraction(1), 4),
        "io.dump_json": (path, {"n": 1}),
        "io.load_json": (path,),
        "gridposet.max_weight_chain": (
            WeightedGrid(n=2, m=3, weights={(0, 0): Fraction(1), (1, 2): Fraction(2)}),
        ),
        "gridposet.symmetric_chain_decomposition": (2, 3),
        "whitney.whitney_numbers": (2, 5),
        "chain_geometry.polyline_validate": (polyline([(0, 0), (Fraction(1, 2), 1)]),),
    }
    hooked = {name for name, (_, _, hook) in tracing.LAYERS.items() if hook is not None}
    assert hooked == set(samples)
    tracer = tracing.Tracer(memory=False)
    for name in sorted(hooked):
        module, path_, hook = tracing.LAYERS[name]
        owner = importlib.import_module(module)
        for attr in path_.split("."):
            owner = getattr(owner, attr)
        tracer.wrap(name, owner, hook)(*samples[name])
    assert set(tracer.counts) == set(tracing.COUNTERS)
    assert all(type(v) is int and v >= 0 for v in tracer.counts.values())
    assert tracer.counts["whitney.table_entries"] == 9
    assert tracer.counts["chain_geometry.vertices"] == 2
    assert tracer.counts["gridposet.scd_chains"] == 3
    # The two staircases the tracer re-measures after a command.
    assert len(tracer.staircases) == 2
    for cells, staircase, claimed in tracer.staircases:
        assert staircase_mass(cells, staircase) == claimed


def test_class_attribute_patches_reach_the_cli(tmp_path):
    # The tracer replaces two class attributes, `EpsilonParams.auto` and
    # `MonotonePolyline.__post_init__`; a command run through `cli.run`
    # must call the replacements, or their spans read 0.  The same holds
    # for the functions that the CLI imports from `cellset` while the
    # tracer finds them in `verifier` and `io`.
    from chainlab import cli

    tracing = load_tracing()
    poly = tmp_path / "poly.json"
    vertices = [["0/1", "0/1"], ["1/3", "1/2"], ["1/1", "1/1"]]
    poly.write_text(json.dumps({"n": 2, "vertices": vertices}))
    cells = str(tmp_path / "cells.json")
    cubes = tmp_path / "cubes.json"
    cubes.write_text(json.dumps({"n": 2, "m": 4, "cubes": [[1, 1], [2, 2]]}))
    argvs = [
        ["chain", "length", "--file", str(poly)],
        ["raster-slab", "--n", "2", "--M", "20", "--kappa", "1", "--mode", "inner", "-o", cells],
        ["verify", "--set", cells, "--kappa", "1", "--m", "4"],
        ["chainbuild", "--cubes", str(cubes), "--set", cells, "--epsilon", "1/10"],
    ]
    original = MonotonePolyline.__dict__["__post_init__"]
    tracer = tracing.Tracer(memory=False)
    outputs = []
    with tracing.installed(tracer):
        assert MonotonePolyline.__dict__["__post_init__"] is not original
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            assert cli.run(argv, stdout=out, stderr=err) == 0, err.getvalue()
            outputs.append(json.loads(out.getvalue()))
    assert MonotonePolyline.__dict__["__post_init__"] is original
    assert tracer.seconds["chain_geometry.polyline_validate"] > 0
    assert tracer.seconds["verifier.epsilon_auto"] > 0
    for span in (
        "verifier.discretize_slab",
        "verifier.cover_sets",
        "verifier.end_to_end_verify",
        "verifier.build_chain_through_cubes",
        "io.cellset_from_dict",
    ):
        assert tracer.seconds[span] > 0, span
    # Counted by discretize_slab, end_to_end_verify and chainbuild.
    assert tracer.counts["verifier.cells"] == 3 * outputs[1]["cell_count"] > 0
    # Two polylines: the file's and chainbuild's staircase.
    assert tracer.counts["chain_geometry.vertices"] == 3 + len(outputs[3]["polyline"]["vertices"])
