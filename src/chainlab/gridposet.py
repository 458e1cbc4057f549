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
from operator import add, attrgetter, floordiv, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import Config, over_common_denominator
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
    """A nondecreasing sequence of distinct grid points: integer tuples of one dimension."""

    __slots__ = _fields = ("points",)

    points: tuple[GridPoint, ...]

    def __init__(self, points: tuple[GridPoint, ...]) -> None:
        object.__setattr__(self, "points", points)
        if points:
            check_points(points, len(points[0]), "point")
        for a, b in zip(points, points[1:]):
            if a == b or not dominates(b, a):
                raise DomainError(f"{a} -> {b} is not a strict componentwise step")

    def __len__(self) -> int:
        return len(self.points)


class WeightedGrid(Frozen):
    """Nonnegative rational weights on {0..m-1}^n; absent points weigh 0.

    The points must be integer tuples in the grid.  The grid keeps
    integer columns, in the order the weights are given: `index`, each
    point's flat row-major index, and `numerators` and `denominators`,
    its weight in lowest terms.  `weights`, the dict of `Fraction`
    weights by point, is built from them on each access.
    """

    __slots__ = ("n", "m", "index", "numerators", "denominators")
    _fields = ("n", "m", "weights")

    n: int
    m: int
    index: list[int]
    numerators: list[int]
    denominators: list[int]

    def __init__(self, n: int, m: int, weights: Mapping[GridPoint, Fraction]) -> None:
        check_grid(n, m)
        points = list(weights)
        coords = check_grid_points(points, n, m, "point")
        # Whole-set check first; the loop words the first fault and coerces.
        values = list(weights.values())
        if not set(map(type, values)) <= {Fraction} or (
            min(map(attrgetter("numerator"), values), default=0) < 0
        ):
            clean = []
            for p, w in zip(points, values):
                w = as_rational(w)
                if w < 0:
                    raise DomainError(f"negative weight {w} at {p}")
                clean.append(w)
            values = clean
        self._fill(n, m, coords, [w.numerator for w in values], [w.denominator for w in values])

    @classmethod
    def _from_columns(
        cls, n: int, m: int, coords: list[int], numerators: list[int], denominators: list[int]
    ) -> "WeightedGrid":
        """The grid of checked points, given by their flat coordinates, with
        weights numerators[i] / denominators[i], P >= 0 and Q > 0."""
        grid = object.__new__(cls)
        grid._fill(n, m, coords, numerators, denominators)
        return grid

    def _fill(
        self, n: int, m: int, coords: list[int], numerators: list[int], denominators: list[int]
    ) -> None:
        # Horner's rule over the axes, and one gcd per weight, in C-level
        # passes; with no point, n can be huge.
        index = coords[0::n]
        for j in range(1, n if coords else 0):
            index = list(map(add, map(mul, index, itertools.repeat(m)), coords[j::n]))
        gcds = list(map(math.gcd, numerators, denominators))
        numerators = list(map(floordiv, numerators, gcds))
        denominators = list(map(floordiv, denominators, gcds))
        for name, value in zip(self.__slots__, (n, m, index, numerators, denominators)):
            object.__setattr__(self, name, value)

    @property
    def weights(self) -> dict[GridPoint, Fraction]:
        """The weights by point, in the order given, built on each access."""
        n, m, index = self.n, self.m, self.index
        axes = [[i // m ** (n - 1 - j) % m for i in index] for j in range(n if index else 0)]
        return dict(zip(zip(*axes), map(Fraction, self.numerators, self.denominators)))


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

    The weights are scaled to integers by the lcm of their denominators
    and scattered, by flat index, into a list of the m**n points.
    `monotone_path_dp` runs on that list reversed: reversing a row-major
    index mirrors every coordinate, so the reversed table holds the best
    chain from each point up, less the top point's weight.

    The witness is the lexicographically smallest optimal chain among
    those whose points all carry positive weight (zero-weight points
    never change the total and are not reported).  Row-major order is
    lexicographic order, and any strict dominator of a point is
    lexicographically larger than it, so each step of the walk scans on
    from the point chosen before: one pass over the sorted flat indices
    of the positive weights, which tests a point's DP value, the cheaper
    test, before its dominance of the point chosen before.
    The DP runs over m**n states, at most `config.max_grid_states`, and
    its two lists must fit `config.max_table_bytes`: the weight list and
    the table are 2*m**n ints, each of at most as many bits as the lcm,
    the largest numerator and the longest chain's n(m-1)+1 points have
    together, charged by `over_common_denominator`, which also scales the
    weights.
    """
    n, m = grid.n, grid.m
    check_grid_size(n, m, config.max_grid_states, "grid states")
    size = m**n
    extra = (n * (m - 1) + 1).bit_length()
    extra += max(map(int.bit_length, grid.numerators), default=0)
    what = f"2*{m}^{n} chain DP integers"
    scaled, scale = over_common_denominator(
        grid.numerators, grid.denominators, 2 * size, extra, what, config
    )
    weight = [0] * size
    for i, w in zip(grid.index, scaled):
        weight[i] = w
    up = monotone_path_dp([m] * n, weight[::-1])[::-1]
    top = weight[-1]
    optimum = up[0] + top
    if optimum == 0:
        return MaxChainResult(total=Fraction(0), witness=())

    strides = [m ** (n - 1 - j) for j in range(n)]
    witness: list[GridPoint] = []
    remaining = optimum
    scan = iter(sorted(itertools.compress(grid.index, grid.numerators)))
    while remaining > 0:
        for i in scan:
            if up[i] + top == remaining:
                p = tuple([i // s % m for s in strides])
                if not witness or dominates(p, witness[-1]):
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


def ksperner_bound_via_scd(n: int, m: int, k: int, config: Config = Config()) -> int:
    """Upper bound sum over chains of min(k, |chain|) for k-Sperner families.

    The chains are those of the symmetric chain decomposition, of which
    only the lengths are needed.  The value must coincide with the sum
    of the k largest Whitney numbers; the equality is asserted here
    because a mismatch means one of the two computations is broken.
    The Whitney table must fit `config.max_table_bytes`.
    """
    # Imported here, so that `scd` and `maxchain` never load the Whitney tables.
    from .whitney import sum_k_largest, whitney_numbers

    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    bound = sum(min(k, size) for size in _scd_chain_lengths(n, m))
    expected = sum_k_largest(whitney_numbers(n, m, config), k)
    if bound != expected:
        raise AssertionError(
            f"SCD bound {bound} != Whitney top-{k} sum {expected} for n={n}, m={m}"
        )
    return bound


def ksperner_max_bruteforce(n: int, m: int, k: int) -> int:
    """Exact maximum size of a family with no chain of k+1 points.

    Depth-first enumeration over all families, processed in a linear
    extension of the grid so the longest chain ending at each chosen
    point is fixed at insertion time.  A branch is cut when even all the
    points left cannot beat the incumbent (chosen + remaining <= best),
    which never changes the result.
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
        if chosen_count + (len(points) - i) <= best:
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
