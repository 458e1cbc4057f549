"""Cell sets: unions of half-open grid cubes at a fine resolution M.

A measurable set is represented as a union of half-open grid cubes at a
fine resolution M: cell (c_1, ..., c_n) is the product of the intervals
[c_j/M, (c_j+1)/M), except that the last interval along each axis is
closed at 1, so the cells partition [0,1]^n.  On such sets every
quantity of the discretization machinery (`chainmass`, `verifier`) is
an exact rational.

Storage.  A `CellSet` keeps its cells as row runs (`CellRuns`): one
sorted tuple of flat-index bounds of the runs of consecutive cells
along the last axis, each run inside one row (one value of the first
n-1 coordinates).  M**n must stay below 2**63 (`ResourceLimitError`
otherwise).  Every stage works on the runs in pure Python: the slab
raster is one run per row, the coarse counts of `verifier` cut each run
at the coarse columns it crosses (only touched coarse cubes, computed
once per `end_to_end_verify`), membership is one bisection of the
bounds, and the chain-mass DP and the cell mask of a box read the rows
they meet as bytes, one per cell (`_run_bytes`).  A cell file holds the
same bounds as one flat list (`io.cellset_to_dict`), which
`CellRuns.checked` reads back in whole-list passes, with no list per
cell.  No part of this module imports numpy, and it imports neither
`chainmass` nor `verifier`: `raster-slab` loads neither.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, compress, cycle, islice, repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Literal

from .config import Config
from .errors import DomainError, Frozen, check_grid, check_grid_points, check_grid_size
from .rational import RationalLike
from .slab_volume import SlabSpec

if TYPE_CHECKING:
    from .gridposet import GridPoint


def check_cell_grid(n: object, M: object) -> None:
    """Check that {0..M-1}^n is a grid of cells: `check_grid`, then M**n below
    2**63, so that flat cell indices stay in the int64 range."""
    check_grid(n, M, "M")
    check_grid_size(n, M, 2**63 - 1, "cells (int64 flat indices)")


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


class CellRuns(Frozen):
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

    _fields = ("n", "M", "bounds")
    # `count`, the number of cells, follows from the bounds: it is not a field.
    __slots__ = (*_fields, "count")

    n: int
    M: int
    bounds: tuple[int, ...]
    count: int

    def __init__(self, n: int, M: int, bounds: Iterable[int]) -> None:
        bounds = tuple(bounds)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "count", sum(map(operator.sub, bounds[1::2], bounds[0::2])))

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


class CellSet(Frozen):
    """A union of grid cubes with side 1/M, identified by their index vectors.

    `cells` may be given as any iterable of integer coordinate sequences
    (duplicates collapse) or as a `CellRuns` of the same n and M; it is
    kept as the `CellRuns` view of the sorted flat indices.  Cell
    (c_1, ..., c_n) has flat index sum c_j * M**(n-j), and sorted flat
    indices are in the order of sorted coordinate tuples.  `from_flat`
    builds a set from flat indices.
    """

    __slots__ = _fields = ("n", "M", "cells")

    n: int
    M: int
    cells: CellRuns

    def __init__(self, n: int, M: int, cells: CellRuns | Iterable[Iterable[int]]) -> None:
        check_cell_grid(n, M)
        if isinstance(cells, CellRuns):
            if (cells.n, cells.M) != (n, M):
                raise DomainError(
                    f"cell runs of n={cells.n}, M={cells.M} given for n={n}, M={M}"
                )
        else:
            # The coordinates and keys are passed on unnamed, so that each
            # list can be freed as soon as the next is made.
            cells = CellRuns.from_keys(
                n, M, _run_keys(check_grid_points(cells, n, M, "cell"), n, M)
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "cells", cells)

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
    kappa is what `SlabSpec` accepts: an int, a Fraction or a "P/Q" string.

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
    spec = SlabSpec(n=n, kappa=kappa)
    check_grid(n, M, "M")
    check_grid_size(n, M, config.max_grid_states, "cells")
    check_cell_grid(n, M)
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
