"""The grid poset {0..m-1}^n: chains, chain DP, decompositions, oracles.

Points are plain integer tuples ordered componentwise, and the chains
the module builds (a maximum-weight chain's witness, the chains of a
decomposition) are plain tuples of them, listed bottom to top.
`ChainOfPoints` checks a chain given from outside.  The module
provides the monotone-path DP over a box with one weight per point
(n * size time), which runs both the maximum-weight chain DP and the
verifier's staircase search over a 0/1 cell mask,
a symmetric chain decomposition built by the inductive product splice
(and the same splice on chain lengths alone, for the k-Sperner bound),
and a brute-force maximiser over families with no (k+1)-element chain,
for grids small enough to enumerate every family.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import Config, charged_lcm
from .errors import (
    DomainError,
    Frozen,
    check_grid,
    check_grid_points,
    check_grid_size,
    check_points,
)
from .rational import as_rational

GridPoint = tuple[int, ...]

#: Cap on m^n for the brute-force family enumeration.
BRUTEFORCE_MAX_POINTS = 16
#: Cap on m^n for the symmetric chain decomposition output.
SCD_MAX_POINTS = 12**6

_ZERO = Fraction(0)


def dominates(a: GridPoint, b: GridPoint) -> bool:
    """Componentwise a >= b."""
    return all(x >= y for x, y in zip(a, b))


def is_chain(points: Iterable[GridPoint]) -> bool:
    """Whether every pair of points is comparable componentwise."""
    pts = list(points)
    if pts:
        check_points(pts, len(pts[0]), "point")
    pts.sort(key=lambda p: (sum(p), p))
    return all(dominates(pts[i + 1], pts[i]) for i in range(len(pts) - 1))


class ChainOfPoints(Frozen):
    """A nondecreasing sequence of distinct grid points.

    The points must be integer tuples of one dimension; pass
    `points_checked=True` only when the caller has checked that already.
    """

    __slots__ = _fields = ("points",)

    points: tuple[GridPoint, ...]

    def __init__(self, points: tuple[GridPoint, ...], points_checked: bool = False) -> None:
        object.__setattr__(self, "points", points)
        if points and not points_checked:
            check_points(points, len(points[0]), "point")
        for a, b in zip(points, points[1:]):
            if a == b or not dominates(b, a):
                raise DomainError(f"{a} -> {b} is not a strict componentwise step")

    def __len__(self) -> int:
        return len(self.points)


class WeightedGrid(Frozen):
    """Nonnegative rational weights on {0..m-1}^n; absent points weigh 0.

    The points must be integer tuples in the grid; pass
    `points_checked=True` only when the caller has checked that already.
    """

    __slots__ = _fields = ("n", "m", "weights")

    n: int
    m: int
    weights: Mapping[GridPoint, Fraction]

    def __init__(
        self, n: int, m: int, weights: Mapping[GridPoint, Fraction], points_checked: bool = False
    ) -> None:
        check_grid(n, m)
        if not points_checked:
            check_grid_points(list(weights), n, m, "point")
        # Whole-set check first; the loop words the first fault and coerces.
        values = weights.values()
        if set(map(type, values)) <= {Fraction} and (
            min(map(attrgetter("numerator"), values), default=0) >= 0
        ):
            clean = dict(weights)
        else:
            clean = {}
            for p, w in weights.items():
                w = as_rational(w)
                if w < 0:
                    raise DomainError(f"negative weight {w} at {p}")
                clean[p] = w
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "weights", clean)


class MaxChainResult(NamedTuple):
    total: Fraction
    witness: tuple[GridPoint, ...]


class SymmetricChainDecomposition(NamedTuple):
    """Partition of {0..m-1}^n into saturated rank-symmetric chains."""

    n: int
    m: int
    chains: tuple[tuple[GridPoint, ...], ...]


def monotone_path_dp(extent: Sequence[int], weight: Sequence[int]) -> list[int]:
    """Best weight of a monotone lattice path from the origin to every point.

    The points of the box with side lengths `extent` are flat row-major
    indices, and weight[x] is what a path earns at x.  The origin's
    weight is never read.  The table is

        best[0] = 0,  best[x] = weight[x] + max over j with x_j > 0 of best[x - e_j]

    filled one row (a run along the last axis) at a time: the elementwise
    max of the earlier rows the other axes step from, then one scan along
    the row adds the steps along the last axis.
    """
    n = len(extent)
    size = math.prod(extent)
    strides = [math.prod(extent[j + 1 :]) for j in range(n)]
    row = extent[-1]
    best = [0] * size
    best[:row] = itertools.accumulate(weight[1:row], initial=0)
    for start in range(row, size, row):
        arrive: list[int] = []
        for j in range(n - 1):
            if start // strides[j] % extent[j]:
                back = best[start - strides[j] : start - strides[j] + row]
                arrive = [x if x > y else y for x, y in zip(arrive, back)] if arrive else back
        value = arrive[0]
        scan = []
        for a, w in zip(arrive, weight[start : start + row]):
            if a > value:
                value = a
            value += w
            scan.append(value)
        best[start : start + row] = scan
    return best


def max_weight_chain(grid: WeightedGrid, config: Config = Config()) -> MaxChainResult:
    """Maximum total weight of a chain, with a deterministic witness.

    The weights are scaled to integers by the lcm of their denominators.
    `monotone_path_dp` runs on the reversed flat weight list: reversing a
    row-major index mirrors every coordinate, so the reversed table holds
    the best chain from each point up, less the top point's weight.

    The witness is the lexicographically smallest optimal chain among
    those whose points all carry positive weight (zero-weight points
    never change the total and are not reported).  Any strict dominator
    of a point is lexicographically larger than it, so each step of the
    walk scans on from the point chosen before: one pass over the points.
    The DP runs over m**n states, at most `config.max_grid_states`, and
    its two lists must fit `config.max_table_bytes`: the weight list and
    the table are 2*m**n ints, each of at most as many bits as the lcm,
    the largest numerator and the longest chain's n(m-1)+1 points have
    together (`charged_lcm`).
    """
    n, m, weights = grid.n, grid.m, grid.weights.values()
    check_grid_size(n, m, config.max_grid_states, "grid states")
    size = m**n
    extra = (n * (m - 1) + 1).bit_length()
    extra += max(map(int.bit_length, map(attrgetter("numerator"), weights)), default=0)
    what = f"2*{m}^{n} chain DP integers"
    scale = charged_lcm(map(attrgetter("denominator"), weights), 2 * size, extra, what, config)
    strides = [m ** (n - 1 - j) for j in range(n)]

    def mirrored(p: GridPoint) -> int:
        return size - 1 - sum(c * s for c, s in zip(p, strides))

    weight = [0] * size
    for p, w in grid.weights.items():
        weight[mirrored(p)] = w.numerator * (scale // w.denominator)
    up = monotone_path_dp([m] * n, weight)
    top = weight[0]
    optimum = up[-1] + top
    if optimum == 0:
        return MaxChainResult(total=_ZERO, witness=())

    witness: list[GridPoint] = []
    remaining = optimum
    scan = iter(sorted(p for p, w in grid.weights.items() if w > 0))
    while remaining > 0:
        for p in scan:
            if witness and not dominates(p, witness[-1]):
                continue
            i = mirrored(p)
            if up[i] + top == remaining:
                witness.append(p)
                remaining -= weight[i]
                break
        else:
            raise AssertionError("witness reconstruction failed; DP bug")
    return MaxChainResult(total=Fraction(optimum, scale), witness=tuple(witness))


def symmetric_chain_decomposition(n: int, m: int) -> SymmetricChainDecomposition:
    """Symmetric chain decomposition of {0..m-1}^n.

    Inductive product construction: each symmetric chain of the
    (n-1)-dimensional decomposition, crossed with the new length-m
    factor, is peeled into hooks (one row to its corner, then up the
    column), every hook again saturated and symmetric.
    """
    check_grid(n, m)
    check_grid_size(n, m, SCD_MAX_POINTS, "decomposition points")
    q = m - 1
    chains: list[list[GridPoint]] = [[(j,) for j in range(m)]]
    for _ in range(n - 1):
        spliced: list[list[GridPoint]] = []
        for chain in chains:
            p = len(chain) - 1
            for t in range(min(p, q) + 1):
                hook = [chain[t] + (j,) for j in range(q - t + 1)]
                hook += [chain[i] + (q - t,) for i in range(t + 1, p + 1)]
                spliced.append(hook)
        chains = spliced
    return SymmetricChainDecomposition(n=n, m=m, chains=tuple(map(tuple, chains)))


def _scd_chain_lengths(n: int, m: int) -> list[int]:
    """Chain lengths of `symmetric_chain_decomposition(n, m)`, longest first.

    The same induction on lengths alone, without building a point: the
    splice turns a chain of p+1 points into hooks of p + m - 2t points,
    t = 0..min(p, m-1).  Lengths are kept as a length -> count table,
    which has at most n(m-1)+1 entries.
    """
    check_grid(n, m)
    check_grid_size(n, m, SCD_MAX_POINTS, "decomposition points")
    counts = {m: 1}
    for _ in range(n - 1):
        spliced: dict[int, int] = defaultdict(int)
        for size, count in counts.items():
            for t in range(min(size, m)):
                spliced[size - 1 + m - 2 * t] += count
        counts = spliced
    return [size for size in sorted(counts, reverse=True) for _ in range(counts[size])]


def ksperner_bound_via_scd(n: int, m: int, k: int) -> int:
    """Upper bound sum over chains of min(k, |chain|) for k-Sperner families.

    The chains are those of the symmetric chain decomposition, of which
    only the lengths are needed.  The value must coincide with the sum
    of the k largest Whitney numbers; the equality is asserted here
    because a mismatch means one of the two computations is broken.
    """
    # Imported here, so that `scd` and `maxchain` never load the Whitney tables.
    from .whitney import sum_k_largest, whitney_numbers

    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    bound = sum(min(k, size) for size in _scd_chain_lengths(n, m))
    expected = sum_k_largest(whitney_numbers(n, m), k)
    if bound != expected:
        raise AssertionError(
            f"SCD bound {bound} != Whitney top-{k} sum {expected} for n={n}, m={m}"
        )
    return bound


def ksperner_max_bruteforce(n: int, m: int, k: int, prune: bool = True) -> int:
    """Exact maximum size of a family with no chain of k+1 points.

    Depth-first enumeration over all families, processed in a linear
    extension of the grid so the longest chain ending at each chosen
    point is fixed at insertion time.  The optional pruning is the
    extendability bound (chosen + remaining <= incumbent) and never
    changes the result.
    """
    check_grid(n, m)
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    check_grid_size(n, m, BRUTEFORCE_MAX_POINTS, "points to search by brute force")
    points = list(itertools.product(range(m), repeat=n))
    points.sort(key=lambda p: (sum(p), p))
    preds = [
        [j for j in range(i) if dominates(points[i], points[j])]
        for i in range(len(points))
    ]

    best = 0
    depth = [0] * len(points)  # longest chosen chain ending here, 0 = not chosen
    chosen_count = 0

    def visit(i: int) -> None:
        nonlocal best, chosen_count
        if i == len(points):
            if chosen_count > best:
                best = chosen_count
            return
        if prune and chosen_count + (len(points) - i) <= best:
            return
        d = 1 + max((depth[j] for j in preds[i] if depth[j]), default=0)
        if d <= k:
            depth[i] = d
            chosen_count += 1
            visit(i + 1)
            chosen_count -= 1
            depth[i] = 0
        visit(i + 1)

    visit(0)
    return best
