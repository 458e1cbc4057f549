"""The benchmark's workloads: seeded inputs, the chainlab invocations that
consume them, and the checks every invocation's output must pass.

A workload is a list of `Invocation`s run one after another.  The seed
fixes every input; sizes move only a little with the seed, and in
opposite directions where two invocations share a cost, so that the
work of one pass stays nearly the same from seed to seed.

Checks compare outputs with the independent computations in
`reference.py` or with properties the method must have; none compares
with a stored copy of an earlier output.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

#: Relative slack for lengths that the program reports as floats.
FLOAT_SLACK = 2.0**-40


class CheckFailed(Exception):
    """An output disagrees with its reference or breaks a required property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Invocation:
    """One chainlab command line and the check its JSON output must pass."""

    argv: tuple[str, ...]
    check: Callable[[dict], None]

    @property
    def command(self) -> str:
        """The subcommand name used for the per-command `cli.<command>_s` metric."""
        if self.argv[0] == "chain":
            return f"chain-{self.argv[1]}"
        return self.argv[0]


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# --- verify-slab -----------------------------------------------------------


def _raster_sum_range(n: int, M: int, kappa: Fraction, mode: str) -> tuple[int, int]:
    """Coordinate sums s of the cells the slab raster keeps.

    A cell with index sum s has closure sums in [s/M, (s+n)/M].  inner
    keeps the closure inside the closed slab; outer keeps cells whose
    interior meets the slab's interior.
    """
    lo = (n - kappa) / 2 * M
    hi = (n + kappa) / 2 * M
    if mode == "inner":
        s_lo, s_hi = math.ceil(lo), math.floor(hi) - n
    else:
        s_lo, s_hi = math.floor(lo) - n + 1, math.ceil(hi) - 1
    return max(s_lo, 0), min(s_hi, n * (M - 1))


def _raster_check(n: int, M: int, kappa: Fraction, mode: str) -> Callable[[dict], None]:
    s_lo, s_hi = _raster_sum_range(n, M, kappa, mode)
    count = ref.lattice_count(n, M, s_lo, s_hi)
    volume = ref.slab_volume(n, kappa)

    def check(p: dict) -> None:
        expect(p["cell_count"] == count, f"cell_count {p['cell_count']} != lattice count {count}")
        measure = Fraction(p["measure"])
        expect(measure == Fraction(count, M**n), f"measure {measure} != {count}/{M}^{n}")
        if mode == "inner":
            expect(measure <= volume, f"inner measure {measure} above the volume {volume}")
        else:
            expect(measure >= volume, f"outer measure {measure} below the volume {volume}")

    return check


def _verify_check(n: int, M: int, m: int, kappa: Fraction) -> Callable[[dict], None]:
    s_lo, s_hi = _raster_sum_range(n, M, kappa, "inner")
    count = ref.lattice_count(n, M, s_lo, s_hi)
    # Every chain meets the set in a piece whose l1 advance, hence length,
    # is at most the spread of coordinate sums over the set.
    kappa0 = Fraction(s_hi + n - s_lo, M)
    volume = ref.slab_volume(n, kappa)
    table = ref.whitney_table(n, m)

    def check(p: dict) -> None:
        expect(Fraction(p["measure"]) == Fraction(count, M**n), "verify measure != lattice count / M^n")
        expect(Fraction(p["slab_volume"]) == volume, f"slab_volume {p['slab_volume']} != {volume}")
        lower, upper = Fraction(p["adversarial_lower"]), Fraction(p["dp_upper"])
        expect(lower <= kappa0, f"adversarial_lower {lower} above the raster's kappa0 {kappa0}")
        expect(lower <= upper, f"adversarial_lower {lower} above dp_upper {upper}")
        if lower > kappa:
            verdict = "infeasible"
        elif upper <= kappa:
            verdict = "feasible"
        else:
            verdict = "indeterminate"
        expect(p["feasibility"] == verdict, f"verdict {p['feasibility']} != bracket verdict {verdict}")
        if kappa >= kappa0:
            expect(verdict != "infeasible", "a set inside a kappa0-slab called infeasible")
        eps = Fraction(p["epsilon"])
        shrink = (1 - (2 * n + 2) * eps) * (1 - eps) ** n
        expect(0 < eps < Fraction(1, 2 * n + 2) and kappa < n * shrink, f"invalid epsilon {eps}")
        kappa_prime = kappa / shrink
        expect(Fraction(p["kappa_prime"]) == kappa_prime, "kappa_prime != kappa / shrink factor")
        cap = ref.top_k_sum(table, math.ceil(kappa_prime * m + n))
        expect(p["whitney_cap"] == cap, f"whitney_cap {p['whitney_cap']} != top-k sum {cap}")
        expect(p["whitney_ok"] is True, "whitney_ok is not true")
        expect(p["measure_within_volume"] is True, "measure_within_volume is not true")

    return check


def verify_slab(rng: random.Random, work: Path) -> list[Invocation]:
    d = rng.randint(-1, 1)
    # (n, M, m, kappa): two n=2 rasters whose sizes move in opposite
    # directions with the seed, and one n=3 raster.  The outer raster
    # repeats the second case, the cheapest to rasterise.
    cases = [
        (2, 300 + 10 * d, 30 + d, Fraction(1)),
        (2, 300 - 10 * d, 30 - d, Fraction(1, 2)),
        (3, 45, 15, Fraction(1)),
    ]
    invocations = []
    for i, (n, M, m, kappa) in enumerate(cases):
        cells = str(work / f"slab{i}.json")
        raster = ("raster-slab", "--n", str(n), "--M", str(M), "--kappa", str(kappa))
        invocations.append(
            Invocation(raster + ("--mode", "inner", "-o", cells), _raster_check(n, M, kappa, "inner"))
        )
        invocations.append(
            Invocation(
                ("verify", "--set", cells, "--kappa", str(kappa), "--m", str(m)),
                _verify_check(n, M, m, kappa),
            )
        )
        if i == 1:
            invocations.append(
                Invocation(
                    raster + ("--mode", "outer", "-o", str(work / "outer.json")),
                    _raster_check(n, M, kappa, "outer"),
                )
            )
    return invocations


# --- grid-tables -----------------------------------------------------------


def _whitney_check(n: int, m: int, kappa: Fraction | None) -> Callable[[dict], None]:
    table = ref.whitney_table(n, m)

    def check(p: dict) -> None:
        coeffs = p["coeffs"]
        expect(coeffs == table, f"Whitney numbers of n={n}, m={m} differ from inclusion-exclusion")
        expect(sum(coeffs) == m**n, "Whitney numbers do not sum to m^n")
        expect(coeffs == coeffs[::-1], "Whitney numbers are not symmetric")
        if kappa is not None:
            k = math.ceil(kappa * m + n)
            expect(p["k"] == k and p["sum"] == ref.top_k_sum(table, k), "top-k sum differs")

    return check


def _converge_check(n: int, kappa: Fraction, m_list: list[int]) -> Callable[[dict], None]:
    volume = ref.slab_volume(n, kappa)
    values = [ref.top_k_sum(ref.whitney_table(n, m), math.ceil(kappa * m + n)) for m in m_list]

    def check(p: dict) -> None:
        rows = p["rows"]
        expect([row["m"] for row in rows] == m_list, "converge rows do not follow --m-list")
        for row, m, value in zip(rows, m_list, values):
            expect(row["V"] == value, f"V at m={m} is {row['V']}, top-k sum is {value}")
            ratio = Fraction(value, m**n)
            expect(Fraction(row["ratio_exact"]) == ratio, f"ratio at m={m} != V/m^n")
            expect(Fraction(row["v_n_exact"]) == volume, f"v_n at m={m} != slab volume")
            expect(Fraction(row["gap_exact"]) == abs(ratio - volume), f"gap at m={m} != |ratio - v_n|")

    return check


def _scd_check(n: int, m: int) -> Callable[[dict], None]:
    table = ref.whitney_table(n, m)
    top = n * (m - 1)

    def check(p: dict) -> None:
        lengths = p["chain_lengths"]
        expect(p["chain_count"] == len(lengths) == max(table), "chain count != largest Whitney number")
        expect(sum(lengths) == m**n, "chain lengths do not sum to m^n")
        histogram: dict[int, int] = {}
        for length in lengths:
            histogram[length] = histogram.get(length, 0) + 1
        for r in range(top // 2 + 1):
            want = table[r] - (table[r - 1] if r else 0)
            got = histogram.get(top - 2 * r + 1, 0)
            expect(got == want, f"{got} chains of length {top - 2 * r + 1}, expected {want}")

    return check


def _ksperner_check(n: int, m: int, k: int) -> Callable[[dict], None]:
    bound = ref.top_k_sum(ref.whitney_table(n, m), k)

    def check(p: dict) -> None:
        expect(p["bound"] == bound, f"k-Sperner bound {p['bound']} != top-k sum {bound}")

    return check


def grid_tables(rng: random.Random, work: Path) -> list[Invocation]:
    d = rng.randint(-2, 2)
    big_n, big_m = 8, 1200 + 10 * d
    wide_m = 5000 - 40 * d
    kappa = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2)))
    m_list = [10, 100, 1000, 6000 + 40 * d]
    k = rng.randint(3, 7)
    return [
        Invocation(
            ("whitney", "--n", str(big_n), "--m", str(big_m), "--kappa", "1"),
            _whitney_check(big_n, big_m, Fraction(1)),
        ),
        Invocation(("whitney", "--n", "3", "--m", str(wide_m)), _whitney_check(3, wide_m, None)),
        Invocation(
            ("converge", "--n", "2", "--kappa", str(kappa), "--m-list", ",".join(map(str, m_list))),
            _converge_check(2, kappa, m_list),
        ),
        Invocation(("scd", "--n", "6", "--m", "8"), _scd_check(6, 8)),
        Invocation(("ksperner", "--n", "4", "--m", "25", "--k", str(k)), _ksperner_check(4, 25, k)),
    ]


# --- chains ----------------------------------------------------------------


def _weights_file(rng: random.Random, n: int, m: int, density: float, path: Path):
    weights = {}
    for point in itertools.product(range(m), repeat=n):
        if rng.random() < density:
            weights[point] = Fraction(rng.randint(1, 9), rng.randint(1, 12))
    entries = [{"point": list(p), "w": f"{w.numerator}/{w.denominator}"} for p, w in weights.items()]
    return _write(path, {"n": n, "m": m, "weights": entries}), weights


def _maxchain_check(n: int, m: int, weights: dict) -> Callable[[dict], None]:
    total = ref.max_weight_chain_total(n, m, weights)

    def check(p: dict) -> None:
        expect(Fraction(p["total"]) == total, f"maxchain total {p['total']} != integer DP {total}")
        witness = [tuple(q) for q in p["witness"]]
        expect(all(weights.get(q, 0) > 0 for q in witness), "witness holds a point of weight 0")
        for a, b in zip(witness, witness[1:]):
            expect(a != b and all(x <= y for x, y in zip(a, b)), f"{a} -> {b} is not a strict step")
        expect(sum((weights[q] for q in witness), Fraction(0)) == total, "witness weights != total")

    return check


def _polyline(rng: random.Random, n: int, vertices: int, skew: bool, path: Path):
    """A monotone polyline from the origin; each segment moves one axis
    (staircase) or two to n axes (skew) by a few units of 1/D, with D the
    largest per-axis total, so the last vertex touches the face x_j = 1."""
    steps = []
    for _ in range(vertices - 1):
        axes = rng.sample(range(n), rng.randint(2, n)) if skew else [rng.randrange(n)]
        steps.append({j: rng.randint(1, 3) for j in axes})
    points = [[0] * n]
    for step in steps:
        point = list(points[-1])
        for j, units in step.items():
            point[j] += units
        points.append(point)
    den = max(points[-1])
    verts = [[Fraction(c, den) for c in point] for point in points]
    text = [[f"{c.numerator}/{c.denominator}" for c in v] for v in verts]
    return _write(path, {"n": n, "vertices": text}), verts


def _reference_length(verts: list, skew: bool) -> tuple[float, Fraction | None]:
    """The polyline's length as a float, and exactly for a staircase, whose
    length is the sum of its coordinate increments."""
    if skew:
        return ref.polyline_length_float(verts), None
    exact = sum((sum(b) - sum(a) for a, b in zip(verts, verts[1:])), Fraction(0))
    return float(exact), exact


def _close(value: float, want: float) -> bool:
    return abs(value - want) <= FLOAT_SLACK * want


def _length_check(n: int, verts: list, skew: bool) -> Callable[[dict], None]:
    length, exact = _reference_length(verts, skew)

    def check(p: dict) -> None:
        expect(_close(p["h1_float"], length), f"h1_float {p['h1_float']} != reference {length}")
        expect(p["h1_float"] <= n * (1 + FLOAT_SLACK), "polyline length above n")
        if skew:
            expect(p["exact"] is False and p["h1_exact"] is None, "skew polyline reported exact")
        else:
            expect(p["exact"] is True, "staircase length not exact")
            expect(Fraction(p["h1_exact"]) == exact, f"h1_exact {p['h1_exact']} != {exact}")

    return check


def _decompose_check(n: int, verts: list, skew: bool) -> Callable[[dict], None]:
    length, _ = _reference_length(verts, skew)

    def check(p: dict) -> None:
        expect(_close(p["h1_float"], length), f"h1_float {p['h1_float']} != reference {length}")
        pieces = p["pieces"]
        expect([q["index"] for q in pieces] == list(range(1, n + 1)), "pieces are not indexed 1..n")
        expect(all(q["piece_h1_float"] <= 1 + FLOAT_SLACK for q in pieces), "a piece is longer than 1")
        parts = math.fsum(q["piece_h1_float"] for q in pieces)
        expect(_close(parts, length), f"pieces sum to {parts}, the length is {length}")

    return check


def _cube_chain(rng: random.Random, n: int, m: int) -> list[tuple[int, ...]]:
    """A strictly increasing chain of coarse cubes from 0 to (m-1,...,m-1)."""
    cube = [0] * n
    chain = [tuple(cube)]
    while any(c < m - 1 for c in cube):
        open_axes = [j for j in range(n) if cube[j] < m - 1]
        for j in rng.sample(open_axes, rng.randint(1, len(open_axes))):
            cube[j] += 1
        chain.append(tuple(cube))
    return chain


def _chainbuild_check(n, M, m, eps, cubes, cells) -> Callable[[dict], None]:
    w = M // m
    factor = (1 - (2 * n + 2) * eps) * (1 - eps) ** n
    guarantee = factor * Fraction(len(cubes) - 1, m)
    start = [Fraction(c * w, M) for c in cubes[0]]
    end = [Fraction((c + 1) * w, M) for c in cubes[-1]]

    def check(p: dict) -> None:
        verts = [[Fraction(c) for c in v] for v in p["polyline"]["vertices"]]
        expect(verts[0] == start and verts[-1] == end, "staircase does not join the chain's corners")
        try:
            mass = ref.staircase_mass(M, cells, verts)
        except ValueError as exc:
            raise CheckFailed(f"chainbuild polyline: {exc}") from exc
        expect(Fraction(p["mass"]) == mass, f"mass {p['mass']} != staircase mass {mass}")
        expect(Fraction(p["guarantee"]) == guarantee, f"guarantee {p['guarantee']} != {guarantee}")
        expect(mass >= guarantee and p["passed"] is True, "mass below the guarantee")

    return check


def chains(rng: random.Random, work: Path) -> list[Invocation]:
    invocations = []
    for n, m, density in ((2, 200, 0.2), (3, 45, 0.05)):
        path, weights = _weights_file(rng, n, m, density, work / f"weights{n}.json")
        invocations.append(Invocation(("maxchain", "--weights", path), _maxchain_check(n, m, weights)))
    for skew in (False, True):
        path, verts = _polyline(rng, 3, 10000, skew, work / f"poly{int(skew)}.json")
        invocations.append(Invocation(("chain", "length", "--file", path), _length_check(3, verts, skew)))
        invocations.append(
            Invocation(("chain", "decompose", "--file", path), _decompose_check(3, verts, skew))
        )
    n, M, m = 2, 300, 15
    w = M // m
    cubes = _cube_chain(rng, n, m)
    # The chain's cubes are full; every other cell is present with
    # probability 1/10, so the set is not a plain union of cubes.
    offsets = list(itertools.product(range(w), repeat=n))
    dense = {tuple(c * w + o for c, o in zip(cube, offset)) for cube in cubes for offset in offsets}
    cells = dense | {c for c in itertools.product(range(M), repeat=n) if rng.random() < 0.1}
    eps = Fraction(1, rng.choice((10, 20, 50)))
    cells_path = _write(work / "chain_cells.json", {"n": n, "M": M, "cells": sorted(map(list, cells))})
    cubes_path = _write(work / "cubes.json", {"n": n, "m": m, "cubes": [list(c) for c in cubes]})
    invocations.append(
        Invocation(
            ("chainbuild", "--cubes", cubes_path, "--set", cells_path, "--epsilon", str(eps)),
            _chainbuild_check(n, M, m, eps, cubes, cells),
        )
    )
    return invocations


WORKLOADS: dict[str, Callable[[random.Random, Path], list[Invocation]]] = {
    "verify-slab": verify_slab,
    "grid-tables": grid_tables,
    "chains": chains,
}


def build(name: str, seed: int, work: Path) -> list[Invocation]:
    """Write the inputs of workload `name` for `seed` into `work`."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), work)
