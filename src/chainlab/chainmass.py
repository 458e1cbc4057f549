"""The exact supremum of chain mass over a box union, which decides feasibility.

The supremum of chain mass over a box union A (a `cellset.CellSet`) has
a closed form,

    M * sup_C H^1(A intersect C) = max over chains P of cells of A of
                                   sum_j #{distinct values of c_j on P}

A chain advances at most 1/M along axis j while x_j stays in one level
[k/M, (k+1)/M), and the cells it meets form a chain; conversely a
staircase that hugs the upper faces of the cells of P, offset inward by
1/(K*M), comes within O(1/K) of the right-hand side over M.  With closed
cells the value could be larger: a staircase along the shared face of
two incomparable cells would count in both.  `chain_mass_sup` computes
the value exactly, by a DP over the fine corners that makes each
diagonal move one axis at a time (O(n) work per corner), and
`verifier.end_to_end_verify` decides feasibility (sup <= kappa) with it
alone.  `check_chain_mass_cap` refuses, before it starts, a DP whose
work exceeds `config.max_fine_states`.
"""

from __future__ import annotations

import operator
from collections import deque
from fractions import Fraction
from itertools import product, repeat

from .cellset import CellSet, _run_bytes
from .config import Config
from .errors import ResourceLimitError


def check_chain_mass_cap(n: int, M: int, config: Config = Config()) -> None:
    """Refuse the chain-mass DP of a set of dimension n at resolution M
    when its work, (M+1)**n * n(n-1)/2 row-element updates, exceeds
    `config.max_fine_states`.  n and M pass `check_cell_grid`.  For
    n = 1 no DP runs, and nothing is charged.
    """
    if n == 1:
        return
    work = (M + 1) ** n * (n * (n - 1) // 2)
    if work > config.max_fine_states:
        raise ResourceLimitError(
            f"chain-mass DP of {work} row-element updates, cap {config.max_fine_states}"
        )


def chain_mass_sup(a: CellSet, config: Config = Config()) -> Fraction:
    """The supremum over chains C of H^1(A intersect C), exactly.

    M times the supremum is g(M, ..., M) on the corners {0..M}^n of the
    fine cells.  A move y - s -> y, s in {0,1}^n, crosses cell y - s and
    gains |s| if that cell is in A; a corner with a coordinate equal to M
    has no cell.  The axes of a move are added in increasing order, so
    that it is counted once, and D(y, j) is the best value at y partway
    through a move whose last axis so far is j:

        D(y, j) = 1 + max(g(y - e_j) if cell y - e_j is in A,
                          max over i < j of D(y - e_j, i)),
        g(0) = 0,  g(y) = max over j of g(y - e_j) and D(y, j).

    The corners are filled one row (a run along the last axis) at a
    time: the first n-1 axes read the rows y - e_j, and one scan along
    the row adds the last.  A row keeps g + [cell in A] and, for each
    axis j < n-1, the D(y + e_j, j) it hands on.  g is offset by n, so a
    move from a cell outside A starts at 0 and, gaining at most n-1,
    never wins.  The work is checked first, by `check_chain_mass_cap`.

    For n = 1 no DP runs, whatever M: every subset of [0, 1] lies on the
    chain [0, 1], so the supremum is the measure of A.
    """
    def larger(old: list[int] | None, new: list[int]) -> list[int]:
        return new if old is None else [s if s > t else t for s, t in zip(old, new)]

    n, M = a.n, a.M
    if n == 1:
        return Fraction(len(a.cells), M)
    check_chain_mass_cap(n, M, config)
    width = M + 1
    strides = [width ** (n - 2 - j) for j in range(n - 1)]
    bounds = a.cells.bounds
    # The last strides[0] rows: row y - e_j is rows[-strides[j]].
    rows: deque[tuple[list[int], list[list[int]]]] = deque(maxlen=strides[0])
    for y in product(range(width), repeat=n - 1):
        row = 0
        for c in y:
            row = row * M + c
        # The cells of the row, and none at corner M or in a row at M.
        bits = bytes(width) if M in y else _run_bytes(bounds, row * M, row * M + M) + b"\x00"
        # At each corner of the row, over the rows read so far: below, the
        # best value they bring; moves, the best D (earlier: before axis j).
        below = moves = None
        earlier = []
        for j, c in enumerate(y):
            if j:
                earlier.append(moves)
            if c:
                step_j, handed_j = rows[-strides[j]]
                below = larger(below, step_j)
                if j:
                    # D(y, 0) never exceeds g(y - e_0) + [cell y - e_0 in A].
                    below = larger(below, handed_j[j])
                moves = larger(moves, handed_j[j])
        # The first row reads none: g = n, the offset, plus its cells so far.
        below = iter(below or repeat(n, width))
        value = next(below)
        step = []
        # Corner i + 1: the last-axis moves from corner i, and below.
        for x, here, back in zip(bits, below, moves or repeat(0)):
            value += x
            step.append(value)
            if here > value:
                value = here
            if back >= value:
                value = back + 1
        step.append(value)
        # First axes of moves from the row's corners (0 outside A).
        first = list(map(operator.mul, step, bits))
        handed = [first]
        for d in earlier:
            handed.append(first if d is None else [s if s > t else t + 1 for s, t in zip(first, d)])
        rows.append((step, handed))
    return Fraction(value - n, M)
