"""Outside-in layer trace of chainlab.

The traced run executes a workload's command lines through
`chainlab.cli.run` inside this process, with a timing wrapper installed
around the public functions of each chainlab module.  Nothing in
chainlab is edited: the wrappers replace the module attributes (and the
two class attributes) for the duration of each command and are then
removed.  Every span records its inclusive wall time; counters are read
from the spans' arguments and results.  Peak memory comes from a separate
pass under tracemalloc, never from a timing pass.
"""

from __future__ import annotations

import io
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

MiB = float(1 << 20)


def _cells(args, result):
    return {"verifier.cells": len(result.cells)}


def _verify_input(args, result):
    return {"verifier.cells": len(args[0].cells)}


def _cover(args, result):
    return {"verifier.coarse_touched": len(result.touched), "verifier.coarse_dense": len(result.dense)}


def _adversarial(args, result):
    a = args[0]
    return {"verifier.corners": (a.M + 1) ** a.n}


def _chainbuild(args, result):
    q, a, m = args[0], args[1], args[2]
    w = a.M // m
    box = [(hi + 1) * w - lo * w + 1 for lo, hi in zip(q.points[0], q.points[-1])]
    return {"verifier.cells": len(a.cells), "verifier.corners": math.prod(box)}


def _file_bytes(args, result):
    return {"io.bytes": os.path.getsize(args[0])}


def _max_chain(args, result):
    grid = args[0]
    return {
        "gridposet.states": grid.m**grid.n,
        "gridposet.positives": sum(1 for w in grid.weights.values() if w > 0),
        "gridposet.witness_len": len(result.witness),
    }


def _scd(args, result):
    return {"gridposet.scd_points": args[1] ** args[0], "gridposet.scd_chains": len(result.chains)}


def _table(args, result):
    return {"whitney.table_entries": len(result.coeffs)}


def _vertices(args, result):
    return {"chain_geometry.vertices": len(args[0].vertices)}


#: Traced layer functions: metric stem -> (module, attribute, counter hook).
LAYERS: dict[str, tuple[str, str, Callable | None]] = {
    "verifier.discretize_slab": ("chainlab.verifier", "discretize_slab", _cells),
    "verifier.epsilon_auto": ("chainlab.verifier", "EpsilonParams.auto", None),
    "verifier.cover_sets": ("chainlab.verifier", "cover_sets", _cover),
    "verifier.claim_check": ("chainlab.verifier", "claim_check", None),
    "verifier.max_cell_chain_mass_upper": ("chainlab.verifier", "max_cell_chain_mass_upper", None),
    "verifier.adversarial_chain_search": ("chainlab.verifier", "adversarial_chain_search", _adversarial),
    "verifier.staircase_mass": ("chainlab.verifier", "staircase_mass", None),
    "verifier.build_chain_through_cubes": ("chainlab.verifier", "build_chain_through_cubes", _chainbuild),
    "verifier.end_to_end_verify": ("chainlab.verifier", "end_to_end_verify", _verify_input),
    "io.load_json": ("chainlab.io", "load_json", _file_bytes),
    "io.cellset_from_dict": ("chainlab.io", "cellset_from_dict", None),
    "io.cellset_to_dict": ("chainlab.io", "cellset_to_dict", None),
    "io.dump_json": ("chainlab.io", "dump_json", _file_bytes),
    "io.weighted_grid_from_dict": ("chainlab.io", "weighted_grid_from_dict", None),
    "io.polyline_from_dict": ("chainlab.io", "polyline_from_dict", None),
    "gridposet.max_weight_chain": ("chainlab.gridposet", "max_weight_chain", _max_chain),
    "gridposet.symmetric_chain_decomposition": ("chainlab.gridposet", "symmetric_chain_decomposition", _scd),
    "gridposet.ksperner_bound_via_scd": ("chainlab.gridposet", "ksperner_bound_via_scd", None),
    "whitney.whitney_numbers": ("chainlab.whitney", "whitney_numbers", _table),
    "whitney.sum_k_largest": ("chainlab.whitney", "sum_k_largest", None),
    "whitney.whitney_sum": ("chainlab.whitney", "whitney_sum", None),
    "whitney.convergence_table": ("chainlab.whitney", "convergence_table", None),
    "chain_geometry.polyline_validate": ("chainlab.chain_geometry", "MonotonePolyline.__post_init__", _vertices),
    "chain_geometry.h1_length": ("chainlab.chain_geometry", "h1_length", None),
    "chain_geometry.antidiagonal_decompose": ("chainlab.chain_geometry", "antidiagonal_decompose", None),
    "slab_volume.slab_volume_exact": ("chainlab.slab_volume", "slab_volume_exact", None),
}

#: Layers whose peak traced memory is reported: those that hold a whole
#: cell set, grid, table, decomposition or polyline.
PEAKS = (
    "verifier.discretize_slab",
    "verifier.adversarial_chain_search",
    "verifier.build_chain_through_cubes",
    "verifier.end_to_end_verify",
    "io.load_json",
    "io.cellset_from_dict",
    "io.weighted_grid_from_dict",
    "io.polyline_from_dict",
    "gridposet.max_weight_chain",
    "gridposet.symmetric_chain_decomposition",
    "whitney.whitney_numbers",
    "chain_geometry.antidiagonal_decompose",
)

COUNTERS = (
    "verifier.cells",
    "verifier.corners",
    "verifier.coarse_touched",
    "verifier.coarse_dense",
    "io.bytes",
    "gridposet.states",
    "gridposet.positives",
    "gridposet.witness_len",
    "gridposet.scd_points",
    "gridposet.scd_chains",
    "whitney.table_entries",
    "chain_geometry.vertices",
)

COMMANDS = (
    "raster-slab",
    "verify",
    "whitney",
    "converge",
    "scd",
    "ksperner",
    "maxchain",
    "chain-length",
    "chain-decompose",
    "chainbuild",
)

#: The spans of a `verify` command that the coverage figure counts: the
#: file loading and the stages that end_to_end_verify calls.
_VERIFY_IO = ("io.load_json", "io.cellset_from_dict")
_VERIFY_PARENT = "verifier.end_to_end_verify"


def metric_units() -> dict[str, str]:
    """Every per-layer metric of the traced run, with its unit."""
    units = {f"{name}_s": "s" for name in LAYERS}
    units.update({f"{name}_peak_mib": "MiB" for name in PEAKS})
    units.update({name: "count" for name in COUNTERS})
    units.update({f"cli.{command}_s": "s" for command in COMMANDS})
    units["trace.verify_coverage"] = "share"
    units["trace.overhead"] = "share"
    return units


class Tracer:
    """Spans and counters of one in-process pass."""

    def __init__(self, memory: bool) -> None:
        self.memory = memory
        self.seconds: dict[str, float] = defaultdict(float)
        self.peak_mib: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.command: str | None = None
        #: Seconds of the spans that the verify coverage counts.
        self.verify_covered = 0.0
        #: (cell set, staircase, DP mass) of each DP staircase, whose mass
        #: the library's exact oracle recomputes after the command, outside
        #: the trace.
        self.staircases: list[tuple[object, object, object]] = []
        #: Staircases whose recomputed mass differs from the DP's.
        self.mismatches: list[str] = []
        # Open spans: [name, baseline bytes, highest bytes seen].
        self._stack: list[list] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if self.memory:
                if parent is not None:
                    parent[2] = max(parent[2], tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                current = tracemalloc.get_traced_memory()[0]
                frame = [name, current, current]
            else:
                frame = [name, 0, 0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
            self.seconds[name] += elapsed
            if self.command == "verify" and (
                (parent is None and name in _VERIFY_IO)
                or (parent is not None and parent[0] == _VERIFY_PARENT)
            ):
                self.verify_covered += elapsed
            if self.memory:
                frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
                self.peak_mib[name] = max(self.peak_mib[name], (frame[2] - frame[1]) / MiB)
                if parent is not None:
                    parent[2] = max(parent[2], frame[2])
                tracemalloc.reset_peak()
            if hook is not None:
                for key, value in hook(args, result).items():
                    self.counts[key] += value
            if name == "verifier.adversarial_chain_search":
                self.staircases.append((args[0], result.witness, result.lower))
            elif name == "verifier.build_chain_through_cubes":
                self.staircases.append((args[1], result.polyline, result.mass))
            return result

        return traced


def _chainlab_modules() -> list:
    return [m for k, m in sorted(sys.modules.items()) if k == "chainlab" or k.startswith("chainlab.")]


@contextmanager
def installed(tracer: Tracer):
    """Install the tracer's wrappers on chainlab; remove them on exit."""
    import chainlab.cli  # noqa: F401  (loads every module the CLI uses)

    modules = _chainlab_modules()
    # (owner, attribute, original, wrapper)
    patches: list[tuple[object, str, object, object]] = []
    for name, (module, path, hook) in LAYERS.items():
        owner = sys.modules[module]
        *classes, attr = path.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        if classes:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patches.append((owner, attr, raw, classmethod(tracer.wrap(name, raw.__func__, hook))))
            else:
                patches.append((owner, attr, raw, tracer.wrap(name, raw, hook)))
            continue
        raw = getattr(owner, attr)
        wrapped = tracer.wrap(name, raw, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    patches.append((mod, key, raw, wrapped))
    for owner, attr, _, wrapped in patches:
        setattr(owner, attr, wrapped)
    try:
        yield
    finally:
        for owner, attr, raw, _ in reversed(patches):
            setattr(owner, attr, raw)


def run_pass(invocations, tracer: Tracer, on_output: Callable[[object, int, str, str], None]) -> float:
    """Run every invocation through chainlab.cli.run under the tracer.

    Returns the summed in-process time of the commands.  After each
    command, with the wrappers removed, the library's exact staircase
    oracle re-measures each DP staircase, so that neither its time nor its
    counters are charged to a layer: the CLI never calls it.
    """
    from chainlab import cli, verifier

    total = 0.0
    for inv in invocations:
        out, err = io.StringIO(), io.StringIO()
        with installed(tracer):
            tracer.command = inv.command
            start = time.perf_counter()
            code = cli.run(list(inv.argv), stdout=out, stderr=err)
            total += time.perf_counter() - start
            tracer.command = None
        on_output(inv, code, out.getvalue(), err.getvalue())
        for cells, staircase, claimed in tracer.staircases:
            mass = verifier.staircase_mass(cells, staircase)
            if mass != claimed:
                tracer.mismatches.append(f"{inv.command}: staircase_mass {mass} != DP mass {claimed}")
        tracer.staircases.clear()
    return total


def run_memory_pass(invocations, on_output) -> dict[str, float]:
    """Peak MiB per layer, under tracemalloc.

    tracemalloc slows allocation-heavy Python code several times over, so
    this pass runs only the first invocation of each subcommand.
    """
    seen: set[str] = set()
    firsts = [inv for inv in invocations if not (inv.command in seen or seen.add(inv.command))]
    tracer = Tracer(memory=True)
    tracemalloc.start()
    try:
        run_pass(firsts, tracer, on_output)
    finally:
        tracemalloc.stop()
    return dict(tracer.peak_mib)
