"""Discretization harness for box-union sets in the unit cube.

A measurable set is represented as a union of half-open grid cubes at a
fine resolution M: cell (c_1, ..., c_n) is the product of the intervals
[c_j/M, (c_j+1)/M), except that the last interval along each axis is
closed at 1, so the cells partition [0,1]^n.  On such sets every
quantity of the discretization machinery is an exact rational:
measures, per-cell densities, chain masses along staircases, and the
covering and Whitney-sum inequalities of the proof chain.

The supremum of chain mass over a box union A has a closed form,

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
`end_to_end_verify` decides feasibility (sup <= kappa) with it alone.
Two coarser chain-mass oracles bracket it:

* `adversarial_chain_search`, the best monotone staircase along fine
  lattice edges, is a lower bound with a witness.
* `max_cell_chain_mass_upper` is an upper bound: a chain meets the
  coarse cubes in a chain of cubes, contributes at most n/m inside each,
  and only cubes meeting the set contribute.  It can be loose by up to a
  factor n.

`build_chain_through_cubes` turns a chain of dense coarse cubes into an
explicit staircase whose exactly-computed mass meets the constructive
lower bound (1-(2n+2)eps) * (1-eps)^n * (|cubes|-1)/m.

Both staircase searches run on `gridposet.monotone_path_dp`, with each
fine lattice edge scored once, as a 0/1 gain that the forward pass and
the backtrack both read.

Storage.  A `CellSet` keeps its cells as row runs (`CellRuns`): one
sorted tuple of flat-index bounds of the runs of consecutive cells
along the last axis, each run inside one row (one value of the first
n-1 coordinates).  M**n must stay below 2**63 (`ResourceLimitError`
otherwise).  Every stage works on the runs in pure Python: the slab
raster is one run per row, the coarse counts cut each run at the coarse
columns it crosses (only touched coarse cubes, computed once per
`end_to_end_verify`), membership is one bisection of the bounds, and
the chain-mass DP and the edge gains of a box read the rows they meet
as bytes, one per cell (`_run_bytes`).  A cell file holds the same
bounds as one flat list (`io.cellset_to_dict`), which `CellRuns.checked`
reads back in whole-list passes, with no list per cell.
No part of this module imports numpy, and `chain_geometry`, `gridposet`
and `whitney` are imported by the stages that use them: `raster-slab`
loads none of the three, and `verify` only `whitney`.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, cycle, islice, product, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Literal, Mapping

from .config import Config
from .errors import (
    DomainError,
    ResourceLimitError,
    check_grid,
    check_grid_points,
    check_in_grid,
    check_points,
)
from .rational import as_rational, RationalLike
from .slab_volume import SlabSpec, slab_volume_exact

if TYPE_CHECKING:
    from .chain_geometry import MonotonePolyline
    from .gridposet import ChainOfPoints, GridPoint


#: Flat cell indices stay in the int64 range, so M**n must stay below 2**63.
_FLAT_LIMIT = 2**63


def _check_flat_range(n: int, M: int) -> None:
    # Callers check M >= 2 first, so n >= 63 is out of range; testing it
    # first avoids a huge power.
    if n >= 63 or M**n >= _FLAT_LIMIT:
        raise ResourceLimitError(
            f"{M}^{n} cells exceed the int64 range of flat cell indices"
        )


def check_cell_grid(n: object, M: object) -> None:
    """Check that {0..M-1}^n is a grid of cells: `check_grid`, then M**n below 2**63."""
    check_grid(n, M, "M")
    _check_flat_range(n, M)


def _unravel(index: int, base: int, length: int) -> GridPoint:
    """The `length` digits of `index` in base `base`, most significant first."""
    digits = [0] * length
    for j in range(length - 1, -1, -1):
        index, digits[j] = divmod(index, base)
    return tuple(digits)


def _run_keys(coords: list[int], n: int, M: int) -> list[int]:
    """The key row * (M+1) + c of each cell, from the cells' flat coordinates:
    the first n-1 coordinates in base M, then the last in base M + 1."""
    # Lazy columns and maps: only the keys themselves are ever held.
    keys: Iterator[int] = islice(coords, 0, None, n)
    for j in range(1, n):
        base = repeat(M + 1 if j == n - 1 else M)
        keys = map(operator.add, map(operator.mul, keys, base), islice(coords, j, None, n))
    return list(keys)


def _first_bad_run(n: int, M: int, bounds: list) -> str:
    """The first run of `bounds` that `CellRuns.checked` refuses, and why.

    Run k is the pair bounds[2k : 2k + 2].  Only called on a failure.
    """
    size = M**n
    end = None  # the end of the run before
    for k, i in enumerate(range(0, len(bounds), 2)):
        pair = tuple(bounds[i : i + 2])
        if len(pair) < 2:
            fault = "has no end: the list has odd length"
        elif set(map(type, pair)) - {int}:
            fault = "has a bound that is not an integer"
        elif not 0 <= pair[0] < pair[1] <= size:
            fault = f"is not 0 <= start < end <= {size}"
        elif pair[0] // M != (pair[1] - 1) // M:
            fault = f"crosses the end of a row of {M} cells"
        elif end is not None and pair[0] < end:
            fault = f"starts before run {k - 1} ends, at {end}"
        elif end is not None and pair[0] == end and end % M:
            fault = f"touches run {k - 1} inside a row"
        else:
            end = pair[1]
            continue
        return f"run {k} {pair!r} {fault}"
    raise AssertionError("every run passed; the whole-list check is wrong")


@dataclass(frozen=True, repr=False)
class CellRuns:
    """The cells of a `CellSet` as row runs; a read-only view of their
    sorted flat indices.

    A row is one value of the first n-1 coordinates.  `bounds` is one
    sorted tuple (s_0, e_0, s_1, e_1, ...) of flat indices: the cells
    with flat indices in [s_i, e_i) are a run, consecutive along the last
    axis inside one row.  The runs of a row are disjoint and never touch,
    so a cell set has exactly one such tuple.  `len` is the number of
    cells, and iterating yields their flat indices in increasing order;
    neither builds a list of cells.  The constructor takes the bounds as
    they are; `from_keys` builds them from cells in any order, and
    `checked` checks a list read from a file.
    """

    n: int
    M: int
    bounds: tuple[int, ...]
    count: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", tuple(self.bounds))
        object.__setattr__(
            self, "count", sum(map(operator.sub, self.bounds[1::2], self.bounds[0::2]))
        )

    @classmethod
    def from_keys(cls, n: int, M: int, keys: list[int]) -> "CellRuns":
        """The runs of the cells with keys row * (M+1) + c, in any order,
        repeats allowed; `keys` is sorted in place.

        Keys of consecutive cells of one row differ by 1, and rows are a
        key apart, so the runs are the stretches of consecutive keys.
        """
        keys.sort()
        steps = map(operator.sub, islice(keys, 1, None), keys)
        # Positions of the first key of every run but the first.
        cuts = list(compress(range(1, len(keys)), map(operator.ne, steps, repeat(1))))
        firsts = [*keys[:1], *map(keys.__getitem__, cuts)]
        lasts = [*map(keys.__getitem__, map(operator.sub, cuts, repeat(1))), *keys[-1:]]
        if any(map(operator.le, islice(firsts, 1, None), lasts)):
            # A repeated key starts a run at the last key of the one before.
            return cls.from_keys(n, M, sorted(set(keys)))
        del keys, cuts  # for big sets, free them before the bounds are built
        # Key row * (M+1) + c is flat index row * M + c.
        width = repeat(M + 1)
        starts = map(operator.sub, firsts, map(operator.floordiv, firsts, width))
        stops = map(
            operator.sub, map(operator.add, lasts, repeat(1)), map(operator.floordiv, lasts, width)
        )
        return cls(n, M, tuple(chain.from_iterable(zip(starts, stops))))

    @classmethod
    def checked(cls, n: int, M: int, bounds: object) -> "CellRuns":
        """The runs of a cell file's flat list of bounds, checked whole.

        n and M must pass `check_cell_grid`.  `bounds` must be a list of
        ints (bools are not) of even length whose runs satisfy
        0 <= s_i < e_i <= M**n, each lie inside one row
        (s_i // M == (e_i - 1) // M), and follow each other:
        e_i <= s_{i+1}, with equality only at a row boundary.  That makes
        it the one list of its cells.  Nothing is sorted or merged;
        anything else raises a `DomainError` that names the first bad run.
        """
        check_cell_grid(n, M)
        if type(bounds) is not list:
            raise DomainError(f"cell runs must be a list of integers, got {bounds!r}")
        ok = len(bounds) % 2 == 0 and not set(map(type, bounds)) - {int}
        if ok and bounds:
            starts, stops = bounds[0::2], bounds[1::2]
            lasts = map(operator.sub, stops, repeat(1))
            # e_i where run i + 1 starts: allowed only at a row boundary.
            shared = compress(stops, map(operator.eq, stops, islice(starts, 1, None)))
            ok = (
                all(map(operator.lt, starts, stops))
                and all(map(operator.le, stops, islice(starts, 1, None)))
                and 0 <= bounds[0]
                and bounds[-1] <= M**n
                and list(map(operator.floordiv, starts, repeat(M)))
                == list(map(operator.floordiv, lasts, repeat(M)))
                and not any(map(operator.mod, shared, repeat(M)))
            )
        if not ok:
            raise DomainError(f"cell runs: {_first_bad_run(n, M, bounds)}")
        return cls(n, M, bounds)

    def runs(self) -> Iterator[tuple[GridPoint, int, int]]:
        """(prefix, lo, hi) per run, in order: the cells prefix + (c,) for c in [lo, hi).

        The runs of one row share one prefix tuple, the row's first n-1
        coordinates.
        """
        M = self.M
        pairs = iter(self.bounds)
        last_row, prefix = -1, ()
        for start, stop in zip(pairs, pairs):
            row, lo = divmod(start, M)
            if row != last_row:
                last_row, prefix = row, _unravel(row, M, self.n - 1)
            yield prefix, lo, lo + stop - start

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[int]:
        b = self.bounds
        return chain.from_iterable(map(range, islice(b, 0, None, 2), islice(b, 1, None, 2)))

    def __repr__(self) -> str:
        return f"CellRuns(n={self.n}, M={self.M}, cells={self.count}, runs={len(self.bounds) // 2})"


@dataclass(frozen=True, eq=False)
class CellSet:
    """A union of grid cubes with side 1/M, identified by their index vectors.

    `cells` may be given as any iterable of integer coordinate sequences
    (duplicates collapse) or as a `CellRuns` of the same n and M; it is
    kept as the `CellRuns` view of the sorted flat indices.  Cell
    (c_1, ..., c_n) has flat index sum c_j * M**(n-j), and sorted flat
    indices are in the order of sorted coordinate tuples.  `from_flat`
    builds a set from flat indices.
    """

    n: int
    M: int
    cells: CellRuns

    def __post_init__(self) -> None:
        n, M = self.n, self.M
        check_cell_grid(n, M)
        if isinstance(self.cells, CellRuns):
            if (self.cells.n, self.cells.M) != (n, M):
                raise DomainError(
                    f"cell runs of n={self.cells.n}, M={self.cells.M} "
                    f"given for n={n}, M={M}"
                )
            return
        # The coordinates and keys are passed on unnamed, so that each
        # list can be freed as soon as the next is made.
        runs = CellRuns.from_keys(
            n, M, _run_keys(check_grid_points(self.cells, n, M, "cell"), n, M)
        )
        object.__setattr__(self, "cells", runs)

    @classmethod
    def from_flat(cls, n: int, M: int, flat: Iterable[int]) -> "CellSet":
        """The cells with the given flat indices, in any order; duplicates collapse."""
        check_cell_grid(n, M)
        flat = list(flat)
        if set(map(type, flat)) - {int}:
            bad = next(f for f in flat if type(f) is not int)
            raise DomainError(f"flat cell indices must be integers, got {bad!r}")
        if flat and not 0 <= min(flat) <= max(flat) < M**n:
            raise DomainError(f"flat cell index outside the resolution-{M} grid")
        keys = map(operator.add, flat, map(operator.floordiv, flat, repeat(M)))
        return cls(n, M, CellRuns.from_keys(n, M, list(keys)))

    def points(self) -> list[GridPoint]:
        """The cells as coordinate tuples of Python ints, sorted."""
        points: list[GridPoint] = []
        for prefix, lo, hi in self.cells.runs():
            points += zip(*map(repeat, prefix), range(lo, hi))
        return points

    def __contains__(self, cell: object) -> bool:
        """Whether the coordinate sequence `cell` is a cell of the set.

        Coordinates must be integers (bools count as 0 and 1); a cell with
        any other coordinate, such as 1.0 or 0.5, is never a member.
        """
        try:
            cell = [operator.index(c) for c in cell]
        except TypeError:
            return False
        if len(cell) != self.n or not all(0 <= c < self.M for c in cell):
            return False
        flat = 0
        for c in cell:
            flat = flat * self.M + c
        # Inside a run exactly when an odd number of bounds are <= flat.
        return bisect_right(self.cells.bounds, flat) % 2 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellSet):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)


def measure(a: CellSet) -> Fraction:
    """Lebesgue measure of the box union: cell count over M^n."""
    return Fraction(len(a.cells), a.M**a.n)


def discretize_slab(
    n: int,
    M: int,
    kappa: RationalLike,
    mode: Literal["inner", "outer"],
    config: Config = Config(),
) -> CellSet:
    """Rasterise the diagonal slab at resolution M.

    M is an int >= 2, and M**n may not exceed `config.max_grid_states`.

    inner: cells whose closure lies inside the closed slab, so the inner
    measure never exceeds the slab volume.  outer: cells whose overlap
    with the slab has positive measure, so the outer measure is never
    below it.  Cells meeting the slab only in a boundary hyperplane do
    not count as outer; they would inflate the bracket without covering
    anything of positive measure.

    A cell with index sum s has closure sums in [s/M, (s+n)/M], so each
    mode keeps an integer range of s.  In a row whose first n-1
    coordinates sum to t, that is one run of the last coordinate.
    """
    if mode not in ("inner", "outer"):
        raise DomainError(f"mode must be 'inner' or 'outer', got {mode!r}")
    spec = SlabSpec(n=n, kappa=as_rational(kappa))
    check_grid(n, M, "M")
    if M**n > config.max_grid_states:
        raise ResourceLimitError(f"{M}^{n} cells exceed the cap {config.max_grid_states}")
    _check_flat_range(n, M)
    lo_times_m = spec.lower_sum * M
    hi_times_m = spec.upper_sum * M
    if mode == "inner":
        # s >= lo*M and s + n <= hi*M
        s_lo, s_hi = math.ceil(lo_times_m), math.floor(hi_times_m) - n
    else:
        # s < hi*M and s + n > lo*M
        s_lo, s_hi = math.floor(lo_times_m) - n + 1, math.ceil(hi_times_m) - 1
    row_sums = [0]
    for _ in range(n - 1):
        row_sums = [t + c for t in row_sums for c in range(M)]
    bounds: list[int] = []
    for start, t in zip(range(0, M**n, M), row_sums):
        lo, hi = max(s_lo - t, 0), min(s_hi - t + 1, M)
        if lo < hi:
            bounds += (start + lo, start + hi)
    return CellSet(n=n, M=M, cells=CellRuns(n, M, bounds))


def _check_epsilon(n: int, epsilon: Fraction) -> None:
    if not 0 < epsilon < Fraction(1, 2 * n + 2):
        raise DomainError(f"epsilon must lie in (0, 1/{2 * n + 2}), got {epsilon}")


def _shrink_factor(n: int, epsilon: Fraction) -> Fraction:
    return (1 - (2 * n + 2) * epsilon) * (1 - epsilon) ** n


def _density_threshold(n: int, epsilon: Fraction) -> Fraction:
    return 1 - Fraction(1, 2**n) * epsilon ** (2 * n)


@dataclass(frozen=True)
class EpsilonParams:
    """The (epsilon, m, kappa) bundle with its derived quantities.

    Validity requires 0 < epsilon < 1/(2n+2) and the smallness condition
    kappa < n * (1-(2n+2)*epsilon) * (1-epsilon)^n, which together force
    the inflated kappa_prime below n.
    """

    n: int
    m: int
    epsilon: Fraction
    kappa: Fraction

    def __post_init__(self) -> None:
        check_grid(self.n, self.m)
        eps = as_rational(self.epsilon)
        kappa = as_rational(self.kappa)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "kappa", kappa)
        _check_epsilon(self.n, eps)
        if kappa <= 0:
            raise DomainError(f"kappa must be positive, got {kappa}")
        if kappa >= self.n * self.shrink_factor:
            raise DomainError(
                f"kappa={kappa} violates the smallness condition "
                f"kappa < n*(1-(2n+2)*eps)*(1-eps)^n = {self.n * self.shrink_factor}"
            )

    @property
    def shrink_factor(self) -> Fraction:
        return _shrink_factor(self.n, self.epsilon)

    @property
    def kappa_prime(self) -> Fraction:
        return self.kappa / self.shrink_factor

    @property
    def density_threshold(self) -> Fraction:
        """Strict lower density bound defining the well-covered cubes."""
        return _density_threshold(self.n, self.epsilon)

    @property
    def delta(self) -> Fraction:
        """Measure slack traded for restricting to well-covered cubes."""
        return self.density_threshold * 2**self.n * self.epsilon

    @classmethod
    def auto(
        cls, n: int, m: int, kappa: RationalLike, config: Config = Config()
    ) -> "EpsilonParams":
        """Largest epsilon of the form 1/t satisfying both conditions.

        The shrink factor grows with t, so the t that satisfy the
        smallness condition form a tail of [2n+3, cap], with cap
        `config.epsilon_denominator_cap`; its first element is found by
        bisection.
        """
        kappa = as_rational(kappa)

        def fits(t: int) -> bool:
            return kappa < n * _shrink_factor(n, Fraction(1, t))

        lo, hi = 2 * n + 3, config.epsilon_denominator_cap
        if lo > hi or not fits(hi):
            raise DomainError(
                f"no epsilon of the form 1/t with t <= {hi} fits "
                f"kappa={kappa}; kappa must be strictly below n"
            )
        while lo < hi:
            mid = (lo + hi) // 2
            if fits(mid):
                hi = mid
            else:
                lo = mid + 1
        return cls(n=n, m=m, epsilon=Fraction(1, lo), kappa=kappa)


@dataclass(frozen=True)
class CoverSets:
    """Coarse cells meeting the set, and those where it is nearly full."""

    touched: frozenset[GridPoint]
    dense: frozenset[GridPoint]
    density: Mapping[GridPoint, Fraction]


def _coarse_counts(a: CellSet, m: int) -> dict[GridPoint, int]:
    """Cells per touched coarse cube, in sorted cube order.

    The cells of a run fall in the coarse cubes of one coarse row (the
    cubes' first n-1 coordinates).  Each run gives its two end columns
    their share and marks the whole columns between them +1/-1, and
    one sweep per coarse row adds those up.  Only touched cubes are
    ever held, never all m^n.
    """
    if type(m) is not int or m < 1:
        raise DomainError(f"coarse resolution must be a positive integer, got {m!r}")
    if a.M % m != 0:
        raise DomainError(f"coarse resolution {m} does not divide M={a.M}")
    w = a.M // m
    rows: dict[GridPoint, tuple[defaultdict[int, int], defaultdict[int, int]]] = {}
    last_prefix = None
    for prefix, lo, hi in a.cells.runs():
        if prefix is not last_prefix:
            last_prefix = prefix
            key = tuple(c // w for c in prefix)
            counts, marks = rows.setdefault(key, (defaultdict(int), defaultdict(int)))
        k0, k1 = lo // w, (hi - 1) // w
        if k0 == k1:
            counts[k0] += hi - lo
            continue
        counts[k0] += (k0 + 1) * w - lo
        counts[k1] += hi - k1 * w
        if k1 - k0 > 1:
            marks[k0 + 1] += 1
            marks[k1] -= 1
    cubes: dict[GridPoint, int] = {}
    for key in sorted(rows):
        counts, marks = rows[key]
        depth = previous = 0
        for k in sorted(marks):
            if depth:
                for column in range(previous, k):
                    counts[column] += depth * w
            depth += marks[k]
            previous = k
        columns = sorted(counts)
        cubes.update(zip(zip(*map(repeat, key), columns), map(counts.__getitem__, columns)))
    return cubes


def cover_sets(a: CellSet, m: int, params: EpsilonParams) -> CoverSets:
    """Per-coarse-cell densities and the touched/dense coarse cell sets."""
    if params.n != a.n:
        raise DomainError(f"params dimension {params.n} != cell set dimension {a.n}")
    if params.m != m:
        raise DomainError(f"params carry m={params.m} but m={m} was requested")
    counts = _coarse_counts(a, m)
    per_cube = (a.M // m) ** a.n
    density = {d: Fraction(c, per_cube) for d, c in counts.items()}
    threshold = params.density_threshold
    dense = frozenset(d for d, rho in density.items() if rho > threshold)
    return CoverSets(
        touched=frozenset(density), dense=dense, density=density
    )


@dataclass(frozen=True)
class ClaimCheckReport:
    """Exact evaluation of the covering inequality.

    The inequality measure(A) <= measure(dense cover) + delta is a
    theorem whenever the covering defect measure(touched cover) -
    measure(A) is below epsilon^(2n+1); `covering_defect_ok` records
    whether that hypothesis held, and `passed` whether the inequality
    itself did.
    """

    measure_a: Fraction
    touched_measure: Fraction
    dense_measure: Fraction
    delta: Fraction
    bound: Fraction
    passed: bool
    slack: Fraction
    covering_defect: Fraction
    covering_defect_ok: bool


def claim_check(
    a: CellSet, m: int, params: EpsilonParams, cover: CoverSets | None = None
) -> ClaimCheckReport:
    """Check measure(A) <= measure(dense cover) + delta, exactly."""
    if cover is None:
        cover = cover_sets(a, m, params)
    mn = m**a.n
    measure_a = measure(a)
    touched_measure = Fraction(len(cover.touched), mn)
    dense_measure = Fraction(len(cover.dense), mn)
    bound = dense_measure + params.delta
    defect = touched_measure - measure_a
    return ClaimCheckReport(
        measure_a=measure_a,
        touched_measure=touched_measure,
        dense_measure=dense_measure,
        delta=params.delta,
        bound=bound,
        passed=measure_a <= bound,
        slack=bound - measure_a,
        covering_defect=defect,
        covering_defect_ok=defect < params.epsilon ** (2 * a.n + 1),
    )


def _run_bytes(bounds: tuple[int, ...], start: int, stop: int) -> bytes:
    """One byte per flat index in [start, stop): 1 inside a run of `bounds`, else 0.

    Between the run bounds inside [start, stop), stretches of zeros and
    ones alternate, starting with ones if start is in a run.  They are
    joined at most 1024 at a time, which bounds the temporary memory.
    """
    i, j = bisect_right(bounds, start), bisect_left(bounds, stop)
    if j - i > 1024:
        cuts = [start, *bounds[i + 1024 : j : 1024], stop]
        return b"".join([_run_bytes(bounds, lo, hi) for lo, hi in zip(cuts, cuts[1:])])
    edges = [start, *bounds[i:j], stop]
    fill = cycle((b"\x01", b"\x00") if i % 2 else (b"\x00", b"\x01"))
    return b"".join(map(operator.mul, fill, map(operator.sub, edges[1:], edges)))


def check_chain_mass_cap(n: int, M: int, config: Config = Config()) -> None:
    """Refuse the chain-mass DP of a set of dimension n at resolution M
    when its work, (M+1)**n * max(1, n(n-1)/2) row-element updates,
    exceeds `config.max_fine_states`.  n and M pass `check_cell_grid`.
    """
    work = (M + 1) ** n * max(1, n * (n - 1) // 2)
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
    """
    def larger(old: list[int] | None, new: list[int]) -> list[int]:
        return new if old is None else [s if s > t else t for s, t in zip(old, new)]

    n, M = a.n, a.M
    check_chain_mass_cap(n, M, config)
    width = M + 1
    strides = [width ** (n - 2 - j) for j in range(n - 1)]
    bounds = a.cells.bounds
    # The last strides[0] rows: row y - e_j is rows[-strides[j]].
    rows: deque[tuple[list[int], list[list[int]]]] = deque(maxlen=max(strides, default=0))
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
        # First axes of moves from the row's corners (0 outside A); n = 1 reads none.
        first = list(map(operator.mul, step, bits)) if strides else []
        handed = [first]
        for d in earlier:
            handed.append(first if d is None else [s if s > t else t + 1 for s, t in zip(first, d)])
        rows.append((step, handed))
    return Fraction(value - n, M)


def max_cell_chain_mass_upper(a: CellSet, m: int, config: Config = Config()) -> Fraction:
    """Sound upper bound on sup over chains C of H^1(A intersect C).

    Any chain meets at most n/m of length inside one coarse cube, and
    the cubes it meets form a chain, so the maximum number of touched
    cubes on a cube chain, times n/m, dominates the supremum.  Loose by
    up to a factor n.  The cube chain DP runs over m**n states, at most
    `config.max_grid_states`.
    """
    from .gridposet import WeightedGrid, max_weight_chain

    touched = _coarse_counts(a, m).keys()
    if not touched:
        return Fraction(0)
    grid = WeightedGrid(n=a.n, m=m, weights={d: Fraction(1) for d in touched})
    return Fraction(a.n, m) * max_weight_chain(grid, config).total


@dataclass(frozen=True)
class AdversarialResult:
    lower: Fraction
    witness: MonotonePolyline


def _corners_to_polyline(corners: list[GridPoint], n: int, M: int) -> MonotonePolyline:
    from .chain_geometry import MonotonePolyline

    # Compress runs of collinear steps into single segments.
    verts: list[GridPoint] = []
    for c in corners:
        if len(verts) >= 2:
            d1 = tuple(x - y for x, y in zip(verts[-1], verts[-2]))
            d2 = tuple(x - y for x, y in zip(c, verts[-1]))
            moving1 = [j for j, d in enumerate(d1) if d]
            moving2 = [j for j, d in enumerate(d2) if d]
            if moving1 == moving2 and len(moving1) == 1:
                verts[-1] = c
                continue
        verts.append(c)
    return MonotonePolyline(n=n, numerators=verts, denominator=M)


def _edge_gains(
    a: CellSet, lo_corner: GridPoint, hi_corner: GridPoint
) -> list[bytearray]:
    """0/1 gains of the fine lattice edges of a box, one array per axis.

    gains[j][x] = 1 iff the edge arriving at corner x (a flat row-major
    index of the box) along axis j lies in a cell of `a`: in x's absolute
    coordinates, the cell with index x_j - 1 along j and min(x_t, M-1)
    along every other axis t.  The first corner along j has no such edge
    and gains 0.

    The corners of the box with fixed first n-1 coordinates meet one row
    of cells, so each row the box meets is read from the runs once, as
    the bytes of its cells lo-1 .. hi along the last axis (clipped to
    M-1).  Every axis's gains are slices of those bytes, row after row.
    """
    n, M = a.n, a.M
    bounds = a.cells.bounds
    shape = [hi - lo + 1 for lo, hi in zip(lo_corner, hi_corner)]
    size = math.prod(shape)
    lo, hi = lo_corner[-1], hi_corner[-1]
    first, last = max(lo - 1, 0), min(hi, M - 1)
    masks: dict[int, bytes] = {}

    def mask(row: int) -> bytes:
        # Cells lo-1 .. hi of the row (none at -1, cell M-1 past M-1).
        bits = _run_bytes(bounds, row * M + first, row * M + last + 1)
        return b"\x00" * (lo == 0) + bits + bits[-1:] * (hi - last)

    # Cell coordinates of the box's rows along the first n-1 axes.
    clipped = [
        [min(x, M - 1) for x in range(l, h + 1)] for l, h in zip(lo_corner[:-1], hi_corner[:-1])
    ]
    gains = []
    for j in range(n):
        axes = list(clipped)
        if j < n - 1:
            # Cell x_j - 1; the first corner reads any row, zeroed below.
            axes[j] = [max(lo_corner[j] - 1, 0), *range(lo_corner[j], hi_corner[j])]
        rows = [0]
        for axis in axes:
            rows = [r * M + c for r in rows for c in axis]
        for row in rows:
            if row not in masks:
                masks[row] = mask(row)
        # Along the last axis the cells are x - 1, along the others min(x, M-1).
        part = slice(1, None) if j < n - 1 else slice(0, -1)
        line = bytearray(b"".join([masks[row][part] for row in rows]))
        # The first corner along j has no edge along j.
        stride = math.prod(shape[j + 1 :])
        zeros = bytes(stride)
        for start in range(0, size, stride * shape[j]):
            line[start : start + stride] = zeros
        gains.append(line)
    return gains


def _staircase_dp(
    a: CellSet,
    lo_corner: GridPoint,
    hi_corner: GridPoint,
    corner_cap: int,
) -> tuple[int, list[GridPoint]]:
    """Best monotone edge path from lo_corner to hi_corner.

    Returns the number of scored edges (edges whose open interior lies
    in a cell of `a`) and the corner sequence of one optimal path,
    reconstructed from the top corner with the smallest axis preferred,
    so reruns are identical.
    """
    from .gridposet import monotone_path_dp

    n = a.n
    extent = [hi - lo + 1 for lo, hi in zip(lo_corner, hi_corner)]
    size = math.prod(extent)
    if size > corner_cap:
        raise ResourceLimitError(f"staircase DP over {size} corners, cap {corner_cap}")
    strides = [math.prod(extent[j + 1 :]) for j in range(n)]
    gains = _edge_gains(a, lo_corner, hi_corner)
    best = monotone_path_dp(extent, gains)

    path = [hi_corner]
    corner = list(hi_corner)
    idx = size - 1
    while idx:
        for j in range(n):
            if corner[j] > lo_corner[j] and best[idx - strides[j]] + gains[j][idx] == best[idx]:
                idx -= strides[j]
                corner[j] -= 1
                path.append(tuple(corner))
                break
        else:
            raise AssertionError("staircase reconstruction failed; DP bug")
    path.reverse()
    return best[-1], path


def adversarial_chain_search(a: CellSet, config: Config = Config()) -> AdversarialResult:
    """Best monotone staircase mass through the box union.

    The returned value is an exact lower bound on the supremum of chain
    mass: the witness is itself a chain realising it.  The DP runs over
    (M+1)**n corners, at most `config.max_fine_states`.
    """
    n, M = a.n, a.M
    count, corners = _staircase_dp(a, (0,) * n, (M,) * n, config.max_fine_states)
    return AdversarialResult(
        lower=Fraction(count, M),
        witness=_corners_to_polyline(corners, n, M),
    )


def staircase_mass(a: CellSet, p: MonotonePolyline) -> Fraction:
    """Exact H^1 of the box union along an axis-parallel polyline.

    Independent of the DP's edge scoring: every segment is intersected
    with the fine slices it crosses by interval arithmetic.
    """
    if p.n != a.n:
        raise DomainError(f"polyline dimension {p.n} != cell set dimension {a.n}")
    M = a.M
    total = Fraction(0)
    verts = p.vertices
    for start, end in zip(verts, verts[1:]):
        deltas = [y - x for x, y in zip(start, end)]
        moving = [j for j, d in enumerate(deltas) if d != 0]
        if not moving:
            continue
        if len(moving) > 1:
            raise DomainError("mass computation requires an axis-parallel polyline")
        axis = moving[0]
        transverse = [
            min(math.floor(c * M), M - 1) if j != axis else 0
            for j, c in enumerate(start)
        ]
        alpha, beta = start[axis], end[axis]
        for k in range(math.floor(alpha * M), math.ceil(beta * M)):
            overlap = min(beta, Fraction(k + 1, M)) - max(alpha, Fraction(k, M))
            if overlap <= 0:
                continue
            cell = tuple(k if j == axis else transverse[j] for j in range(a.n))
            if cell in a:
                total += overlap
    return total


@dataclass(frozen=True)
class ChainCertificate:
    """A staircase through a chain of dense cubes, with its certified mass."""

    polyline: MonotonePolyline
    mass: Fraction
    guarantee: Fraction

    def __post_init__(self) -> None:
        if self.mass < self.guarantee:
            raise DomainError(
                f"certificate mass {self.mass} below guarantee {self.guarantee}"
            )


def build_chain_through_cubes(
    q: ChainOfPoints,
    a: CellSet,
    m: int,
    epsilon: RationalLike,
    config: Config = Config(),
) -> ChainCertificate:
    """Explicit staircase through a chain of dense coarse cubes.

    Preconditions: epsilon < 1/(2n+2), and every cube of the chain holds
    a fraction of the set strictly above 1 - 2^-n * epsilon^(2n).  The
    returned staircase is found by the fine-lattice DP over the bounding
    box of the cube chain; its exact mass must reach

        (1 - (2n+2)*epsilon) * (1 - epsilon)^n * (len(q) - 1) / m

    which the constructive argument guarantees for some chain, and which
    the staircase optimum meets with large slack on box unions.  The DP
    box may hold at most `config.max_fine_states` corners.
    """
    from .chain_geometry import MonotonePolyline

    n = a.n
    epsilon = as_rational(epsilon)
    _check_epsilon(n, epsilon)
    counts = _coarse_counts(a, m)
    # The points of q are integer tuples of one dimension (ChainOfPoints
    # checks them): left are their dimension against n and their range.
    coords = list(chain.from_iterable(q.points))
    if len(coords) != n * len(q.points):
        check_points(q.points, n, "cube")
    check_in_grid(coords, n, m, "cube")
    w = a.M // m
    threshold = _density_threshold(n, epsilon)
    for cube in q.points:
        density = Fraction(counts.get(cube, 0), w**n)
        if not density > threshold:
            raise DomainError(
                f"cube {cube} has density {density}, not above the "
                f"threshold {threshold}"
            )
    guarantee = _shrink_factor(n, epsilon) * Fraction(max(len(q.points) - 1, 0), m)
    if len(q.points) <= 1:
        return ChainCertificate(
            polyline=MonotonePolyline(n=n, vertices=()),
            mass=Fraction(0),
            guarantee=Fraction(0),
        )
    lo_corner = tuple(c * w for c in q.points[0])
    hi_corner = tuple((c + 1) * w for c in q.points[-1])
    count, corners = _staircase_dp(a, lo_corner, hi_corner, config.max_fine_states)
    mass = Fraction(count, a.M)
    if mass < guarantee:
        raise DomainError(
            f"staircase mass {mass} fell below the guaranteed {guarantee}; "
            "this contradicts the constructive bound for dense cube chains"
        )
    return ChainCertificate(
        polyline=_corners_to_polyline(corners, n, a.M), mass=mass, guarantee=guarantee
    )


@dataclass(frozen=True)
class VerifyReport:
    """Everything the desk-scale verification of the slab bound measures."""

    n: int
    m: int
    kappa: Fraction
    params: EpsilonParams
    measure_a: Fraction
    slab_volume: Fraction
    #: sup over chains C of H^1(A intersect C), exactly (`chain_mass_sup`).
    chain_mass_sup: Fraction
    touched_count: int
    dense_count: int
    whitney_cap: int
    claim: ClaimCheckReport
    #: len(dense cover) <= sum of the ceil(kappa'*m+n) largest Whitney numbers.
    whitney_ok: bool
    #: measure(A) <= v_n(kappa): what the slab theorem asserts for feasible sets.
    measure_within_volume: bool
    #: infeasible exactly when chain_mass_sup > kappa.
    feasibility: Literal["feasible", "infeasible"]

    @property
    def constraint_violated(self) -> bool:
        return self.feasibility == "infeasible"


def end_to_end_verify(
    a: CellSet,
    kappa: RationalLike,
    m: int,
    epsilon: RationalLike | None = None,
    config: Config = Config(),
) -> VerifyReport:
    """Run the whole proof-chain instrumentation on one box-union set.

    Feasibility (chain mass at most kappa for every chain) is decided
    exactly: the set is infeasible when `chain_mass_sup` exceeds kappa,
    and feasible otherwise.  `config` supplies the caps of the stages:
    `max_fine_states` for the chain-mass DP, `epsilon_denominator_cap`
    for the automatic epsilon and `max_table_bytes` for the Whitney cap.
    The chain-mass cap is checked before any stage runs.
    """
    from .whitney import whitney_sum

    check_chain_mass_cap(a.n, a.M, config)
    kappa = as_rational(kappa)
    if epsilon is None:
        params = EpsilonParams.auto(a.n, m, kappa, config)
    else:
        params = EpsilonParams(n=a.n, m=m, epsilon=as_rational(epsilon), kappa=kappa)
    cover = cover_sets(a, m, params)
    claim = claim_check(a, m, params, cover=cover)
    sup = chain_mass_sup(a, config)
    cap = whitney_sum(a.n, m, params.kappa_prime, config).value
    volume = slab_volume_exact(SlabSpec(n=a.n, kappa=kappa)).exact
    return VerifyReport(
        n=a.n,
        m=m,
        kappa=kappa,
        params=params,
        measure_a=claim.measure_a,
        slab_volume=volume,
        chain_mass_sup=sup,
        touched_count=len(cover.touched),
        dense_count=len(cover.dense),
        whitney_cap=cap,
        claim=claim,
        whitney_ok=len(cover.dense) <= cap,
        measure_within_volume=claim.measure_a <= volume,
        feasibility="infeasible" if sup > kappa else "feasible",
    )
