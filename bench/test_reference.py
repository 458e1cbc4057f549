"""Tests of the benchmark's reference computations and of BENCHMARK.json.

    python3 -m pytest bench
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import reference as ref
import tracing
import workloads


def _grid(n, m):
    return list(itertools.product(range(m), repeat=n))


@pytest.mark.parametrize("kappa", [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)])
def test_slab_volume_square(kappa):
    # In the unit square the complement is two right triangles with legs 1 - kappa/2.
    assert ref.slab_volume(2, kappa) == 1 - (1 - kappa / 2) ** 2


def test_slab_volume_known_values():
    assert ref.slab_volume(1, Fraction(1, 3)) == Fraction(1, 3)
    assert ref.slab_volume(3, Fraction(1)) == Fraction(2, 3)
    assert ref.slab_volume(4, Fraction(4)) == 1


def test_slab_volume_between_lattice_brackets():
    # Cells whose closure lies in the slab, and cells meeting its interior.
    n, M, kappa = 3, 30, Fraction(1, 2)
    lo, hi = (n - kappa) / 2 * M, (n + kappa) / 2 * M
    inner = sum(1 for c in _grid(n, M) if sum(c) >= lo and sum(c) + n <= hi)
    outer = sum(1 for c in _grid(n, M) if sum(c) < hi and sum(c) + n > lo)
    assert Fraction(inner, M**n) <= ref.slab_volume(n, kappa) <= Fraction(outer, M**n)


@pytest.mark.parametrize("n,m", [(1, 4), (2, 3), (3, 4), (4, 3), (3, 6)])
def test_whitney_table_matches_enumeration(n, m):
    counts = [0] * (n * (m - 1) + 1)
    for p in _grid(n, m):
        counts[sum(p)] += 1
    assert ref.whitney_table(n, m) == counts
    for k in range(1, len(counts) + 2):
        assert ref.top_k_sum(counts, k) == sum(sorted(counts)[::-1][:k])


@pytest.mark.parametrize("n,M", [(1, 5), (2, 7), (3, 5)])
def test_lattice_count_matches_enumeration(n, M):
    sums = [sum(c) for c in _grid(n, M)]
    for s_lo in range(-1, n * (M - 1) + 2):
        for s_hi in range(s_lo - 1, n * (M - 1) + 2):
            want = sum(1 for s in sums if s_lo <= s <= s_hi)
            assert ref.lattice_count(n, M, s_lo, s_hi) == want


def _brute_max_chain(n, m, weights):
    points = _grid(n, m)

    @lru_cache(maxsize=None)
    def best(p):
        above = [best(q) for q in points if q != p and all(x <= y for x, y in zip(p, q))]
        return weights.get(p, Fraction(0)) + max(above, default=Fraction(0))

    return max(best(p) for p in points)


@pytest.mark.parametrize("n,m,seed", [(1, 6, 0), (2, 5, 1), (2, 6, 2), (3, 3, 3), (3, 4, 4)])
def test_max_weight_chain_matches_brute_force(n, m, seed):
    rng = random.Random(seed)
    weights = {
        p: Fraction(rng.randint(0, 9), rng.randint(1, 12)) for p in _grid(n, m) if rng.random() < 0.6
    }
    assert ref.max_weight_chain_total(n, m, weights) == _brute_max_chain(n, m, weights)


def test_max_weight_chain_empty_and_overflow():
    assert ref.max_weight_chain_total(2, 3, {}) == 0
    with pytest.raises(OverflowError):
        ref.max_weight_chain_total(2, 3, {(0, 0): Fraction(2**61)})


def _brute_staircase_mass(M, cells, vertices):
    # Cut every segment at the multiples of 1/M and classify each piece by
    # the cell holding its midpoint.
    total = Fraction(0)
    for a, b in zip(vertices, vertices[1:]):
        axis = next((j for j in range(len(a)) if a[j] != b[j]), None)
        if axis is None:
            continue
        cuts = {a[axis], b[axis]} | {Fraction(k, M) for k in range(M + 1) if a[axis] < Fraction(k, M) < b[axis]}
        cuts = sorted(cuts)
        for lo, hi in zip(cuts, cuts[1:]):
            mid = list(a)
            mid[axis] = (lo + hi) / 2
            cell = tuple(min(math.floor(c * M), M - 1) for c in mid)
            if cell in cells:
                total += hi - lo
    return total


def test_staircase_mass_hand_cases():
    M = 4
    full = set(_grid(2, M))
    corner = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    assert ref.staircase_mass(M, full, corner) == 2
    assert ref.staircase_mass(M, set(), corner) == 0
    # The face x_2 = 1 belongs to the last cell row, which is closed.
    top = [(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(1))]
    assert ref.staircase_mass(M, {(0, 3)}, top) == Fraction(1, 4)
    with pytest.raises(ValueError):
        ref.staircase_mass(M, full, [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))])


@pytest.mark.parametrize("seed", range(20))
def test_staircase_mass_matches_midpoint_rule(seed):
    rng = random.Random(seed)
    n, M = rng.randint(1, 3), rng.randint(2, 6)
    cells = {c for c in _grid(n, M) if rng.random() < 0.5}
    den = M * rng.randint(1, 3)
    point = [Fraction(rng.randint(0, den // 2), den) for _ in range(n)]
    vertices = [tuple(point)]
    for _ in range(rng.randint(1, 8)):
        axis = rng.randrange(n)
        point[axis] = min(Fraction(1), point[axis] + Fraction(rng.randint(0, den), den))
        vertices.append(tuple(point))
    assert ref.staircase_mass(M, cells, vertices) == _brute_staircase_mass(M, cells, vertices)


def test_polyline_length_float():
    vertices = [(Fraction(0), Fraction(0)), (Fraction(3, 5), Fraction(4, 5)), (Fraction(1), Fraction(1))]
    assert ref.polyline_length_float(vertices) == pytest.approx(1 + math.sqrt(0.16 + 0.04), rel=2**-50)


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "cpu_s", "peak_rss_mib", "setup_s"]
