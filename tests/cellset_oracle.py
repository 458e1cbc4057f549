"""Cell-set kernels on coordinate tuples: oracles for the flat-index ones.

These are the tuple-and-frozenset versions that the array kernels of
`chainlab.verifier` replaced: the rasteriser walks every cell with
`itertools.product`, the coarse counts are a dict loop, and the edge
gains test each edge cell's tuple for membership.  The tests assert the
array versions equal them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from chainlab import SlabSpec


def discretize_slab_cells(n: int, M: int, kappa: Fraction, mode: str) -> frozenset:
    """Cells of the inner or outer slab raster, by enumeration."""
    spec = SlabSpec(n=n, kappa=kappa)
    lo_times_m = spec.lower_sum * M
    hi_times_m = spec.upper_sum * M
    cells = []
    for cell in itertools.product(range(M), repeat=n):
        s = sum(cell)
        if mode == "inner":
            keep = s >= lo_times_m and s + n <= hi_times_m
        else:
            keep = s < hi_times_m and s + n > lo_times_m
        if keep:
            cells.append(cell)
    return frozenset(cells)


def coarse_counts(cells, M: int, m: int) -> dict:
    """Cells per touched coarse cube, by a dict loop over the cell tuples."""
    w = M // m
    counts: dict = {}
    for cell in cells:
        coarse = tuple(c // w for c in cell)
        counts[coarse] = counts.get(coarse, 0) + 1
    return counts


def edge_gains(cells: frozenset, M: int, lo_corner, hi_corner) -> list[bytearray]:
    """0/1 edge gains of a box, one membership test per edge cell tuple."""
    n = len(lo_corner)
    across = [[min(c, M - 1) for c in range(lo, hi + 1)] for lo, hi in zip(lo_corner, hi_corner)]
    gains = []
    for j in range(n):
        axes = across[:j] + [[-1, *range(lo_corner[j], hi_corner[j])]] + across[j + 1 :]
        gains.append(bytearray(map(cells.__contains__, itertools.product(*axes))))
    return gains


def chain_formula_max(cells, n: int) -> int:
    """M times the chain-mass supremum, by the chain formula.

    The maximum over chains P of cells of the sum over axes j of the
    number of distinct values of c_j on P, by a DP over the sorted cells:
    sorted tuples are a linear extension of the componentwise order, and
    a cell added on top of a chain brings one new value on each axis
    where it differs from the chain's top cell.
    """
    order = sorted(cells)
    best: list[int] = []
    for i, c in enumerate(order):
        value = n
        for p, b in zip(order[:i], best):
            if all(x <= y for x, y in zip(p, c)):
                value = max(value, b + sum(x != y for x, y in zip(p, c)))
        best.append(value)
    return max(best, default=0)
