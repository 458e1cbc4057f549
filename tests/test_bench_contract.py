"""The benchmark's layer trace still fits the library it wraps.

`bench/tracing.py` wraps chainlab's module attributes by name and reads
its counters from the wrapped calls' arguments and results.  A refactor
that renames a traced function or changes what a counter reads would
silently empty a per-layer metric; these checks catch it.  The module
imports only the standard library, so it is loaded straight from its path.
"""

import importlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from chainlab import ChainOfPoints, discretize_slab
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
