"""Cell-set kernels on coordinate tuples: oracles for the flat-index ones.

These are the tuple-and-frozenset versions that the array kernels of
`chainlab.verifier` replaced: the rasteriser walks every cell with
`itertools.product`, the coarse counts are a dict loop, and the edge
gains test each edge cell's tuple for membership.  The tests assert the
array versions equal them.  `runs_of` builds a cell file's run bounds
from coordinate tuples, independently of `CellRuns`.
`row_merge_chain_mass_sup` is the chain-mass DP that the layered
`chainlab.verifier.chain_mass_sup` replaced: for each row of corners it
merges the 2^(n-1) - 1 earlier rows that its diagonal moves start in.
"""

from __future__ import annotations

import itertools
import json
import operator
from fractions import Fraction
from itertools import accumulate, product
from typing import Iterator

from chainlab import CellSet, Config, SlabSpec
from chainlab.verifier import _run_bytes, check_chain_mass_cap


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


def runs_of(cells, M: int) -> list[int]:
    """The flat run bounds [s_0, e_0, s_1, e_1, ...] of a set of cells.

    The cells are sorted as coordinate tuples; a run grows while the next
    cell has the same first n-1 coordinates and a last coordinate one
    higher.
    """
    bounds: list[int] = []
    previous = None
    for cell in sorted(set(map(tuple, cells))):
        flat = 0
        for c in cell:
            flat = flat * M + c
        if previous is not None and cell[:-1] == previous[:-1] and cell[-1] == previous[-1] + 1:
            bounds[-1] = flat + 1
        else:
            bounds += [flat, flat + 1]
        previous = cell
    return bounds


def cell_file_text(n: int, M: int, cells) -> str:
    """The bytes of a written cell file: its runs, on one line, keys sorted."""
    return json.dumps({"M": M, "n": n, "runs": runs_of(cells, M)}, sort_keys=True) + "\n"


def first_bad_run(n: int, M: int, bounds: list):
    """The index of the first run of a cell file's `runs` list that is not
    canonical, or None.

    Runs 0..k are canonical when each is a pair of ints (not bools) in
    [0, M**n] and together they are exactly `runs_of` the cells they
    cover.
    """
    size = M**n
    cells = []
    for k in range((len(bounds) + 1) // 2):
        pair = bounds[2 * k : 2 * k + 2]
        if len(pair) < 2 or any(type(b) is not int for b in pair):
            return k
        if not 0 <= pair[0] <= pair[1] <= size:
            return k
        for flat in range(pair[0], pair[1]):
            cell = []
            for _ in range(n):
                flat, c = divmod(flat, M)
                cell.append(c)
            cells.append(tuple(reversed(cell)))
        if bounds[: 2 * k + 2] != runs_of(cells, M):
            return k
    return None


def _max_rows(rows: list[Iterator[int]]) -> Iterator[int]:
    """The pointwise maximum of equally long rows."""
    best = rows[0]
    for row in rows[1:]:
        best = iter([x if x > y else y for x, y in zip(best, row)])
    return best


def row_merge_chain_mass_sup(a: CellSet, config: Config = Config()) -> Fraction:
    """The supremum over chains C of H^1(A intersect C), exactly.

    M times the supremum is g(M, ..., M), where g runs over the corners
    {0..M}^n of the fine cells:

        g(0) = 0,
        g(y) = max over s in {0,1}^n \\ {0} with s <= y of
               g(y - s) + |s| * [cell y - s is in A]

    A move y - s -> y crosses cell y - s and advances 1/M along each axis
    of s; a corner with a coordinate equal to M has no cell.

    The corners are filled one row (a run along the last axis) at a
    time.  Each earlier row y' - s', for s' in {0,1}^(n-1) \\ {0}, gives
    the moves s = (s', 0), read at the same last coordinate i, and
    s = (s', 1), read at i - 1; one scan along the row then adds the
    moves along the last axis alone.  Only the rows still to be read are
    kept.  The work is checked first, by `check_chain_mass_cap`.
    """
    n, M = a.n, a.M
    check_chain_mass_cap(n, M, config)
    width = M + 1
    # The nonzero s' with their row offsets in base M + 1 and weights |s'|;
    # s' = (1, ..., 1), the farthest back, is last.
    moves = [
        (sum(c * width ** (n - 2 - j) for j, c in enumerate(s)), sum(s), s)
        for s in product((0, 1), repeat=n - 1)
    ][1:]
    # scale[w] maps a cell byte 1 to w, for bytes.translate.
    scale = [bytes((0, w)) + bytes(254) for w in range(n + 1)]
    span = moves[-1][0] if moves else 0
    bounds = a.cells.bounds
    rows: dict[int, tuple[list[int], bytes]] = {}
    for k, y in enumerate(product(range(width), repeat=n - 1)):
        if M in y:
            bits = bytes(width)
        else:
            row = 0
            for c in y:
                row = row * M + c
            # The cells of the row, and none at corner M.
            bits = _run_bytes(bounds, row * M, row * M + M) + b"\x00"
        # The moves (s', 0) and (s', 1) from each earlier row y' - s'.
        stays: list[Iterator[int]] = []
        steps: list[Iterator[int]] = []
        for offset, w, s in moves:
            if any(map(operator.lt, y, s)):
                continue
            earlier, earlier_bits = rows[k - offset]
            stays.append(map(operator.add, earlier, earlier_bits.translate(scale[w])))
            steps.append(map(operator.add, earlier, earlier_bits.translate(scale[w + 1])))
        if stays:
            stay, step = _max_rows(stays), _max_rows(steps)
            value = next(stay)
            g = [value]
            # Corner i: the last-axis move from i - 1, stay[i] and step[i - 1].
            for x, here, back in zip(bits, stay, step):
                value += x
                if here > value:
                    value = here
                if back > value:
                    value = back
                g.append(value)
        else:
            g = list(accumulate(bits[:M], initial=0))
        # Row k - span was last read by row k.
        rows.pop(k - span, None)
        rows[k] = g, bits
    return Fraction(g[-1], M)
