"""Discretization harness for box-union sets in the unit cube.

A measurable set is represented as a union of half-open grid cubes at a
fine resolution M (the last cube along each axis is closed, so the cubes
partition [0,1]^n).  On such sets every quantity of the discretization
machinery is an exact rational: measures, per-cell densities, chain
masses along staircases, and the covering and Whitney-sum inequalities
of the proof chain.

The two chain-mass oracles bracket the unknowable supremum of chain mass
over a box union:

* `adversarial_chain_search` is a lower bound: the best monotone
  staircase along fine lattice edges, found by dynamic programming.
* `max_cell_chain_mass_upper` is a sound upper bound: a chain meets the
  coarse cubes in a chain of cubes, contributes at most n/m inside each,
  and only cubes meeting the set contribute.  It can be loose by up to a
  factor n.

`build_chain_through_cubes` turns a chain of dense coarse cubes into an
explicit staircase whose exactly-computed mass meets the constructive
lower bound (1-(2n+2)eps) * (1-eps)^n * (|cubes|-1)/m.

Both staircase searches run on `gridposet.monotone_path_dp`, with each
fine lattice edge scored once, as a 0/1 gain that the forward pass and
the backtrack both read.

Storage.  A `CellSet` keeps its cells as one sorted, duplicate-free numpy
int64 array of row-major flat indices, in the order of sorted coordinate
tuples; M**n must stay below 2**63 (`ResourceLimitError` otherwise).
Every stage works on that array: the slab raster keeps the flat indices
of an integer range of coordinate sums, the coarse counts are an
`np.unique` of floor-divided coordinates (only touched coarse cubes, and
computed once per `end_to_end_verify`), and the edge gains of a box are
one `np.searchsorted` membership test.  Counts leave numpy as Python
ints, so every `Fraction` has int numerator and denominator.  numpy is
imported inside the `CellSet` methods and array kernels that use it, so
importing this module does not load it: only code that builds or reads
a `CellSet` pays for that import.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Literal, Mapping

from .chain_geometry import MonotonePolyline
from .config import Config
from .errors import DomainError, ResourceLimitError, check_grid, check_grid_points
from .gridposet import (
    ChainOfPoints,
    GridPoint,
    WeightedGrid,
    max_weight_chain,
    monotone_path_dp,
)
from .rational import as_rational, RationalLike
from .slab_volume import SlabSpec, slab_volume_exact
from .whitney import whitney_sum

if TYPE_CHECKING:
    import numpy as np


#: Flat cell indices are numpy int64, so M**n must stay below 2**63.
_FLAT_LIMIT = 2**63


def _check_flat_range(n: int, M: int) -> None:
    # With M >= 2, n >= 63 is out of range; testing it first avoids a huge power.
    if M >= 2 and (n >= 63 or M**n >= _FLAT_LIMIT):
        raise ResourceLimitError(
            f"{M}^{n} cells exceed the int64 range of flat cell indices"
        )


@dataclass(frozen=True, eq=False)
class CellSet:
    """A union of grid cubes with side 1/M, identified by their index vectors.

    Storage: `cells` is one sorted, duplicate-free, read-only numpy int64
    array of row-major flat cell indices; cell (c_1, ..., c_n) has index
    sum c_j * M**(n-j).  Sorted flat indices are in the order of sorted
    coordinate tuples.  `cells` may be given as any iterable of integer
    coordinate sequences or as a one-dimensional integer ndarray of flat
    indices; duplicates collapse.
    """

    n: int
    M: int
    cells: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        check_grid(self.n, self.M, "M")
        _check_flat_range(self.n, self.M)
        if isinstance(self.cells, np.ndarray):
            flat = self._flat_from_indices(self.cells)
        else:
            flat = self._flat_from_coordinates(self.cells)
        # Sort, then drop repeats: np.unique gives the same array, but
        # numpy 2 runs it through a hash table, about 20 times slower here.
        flat = np.sort(flat)
        if len(flat) > 1:
            flat = flat[np.append(True, flat[1:] != flat[:-1])]
        flat.flags.writeable = False
        object.__setattr__(self, "cells", flat)

    def _flat_from_indices(self, flat: np.ndarray) -> np.ndarray:
        import numpy as np

        if flat.ndim != 1 or flat.dtype.kind not in "iu":
            raise DomainError(
                f"cell index arrays must be one-dimensional integer arrays, got {flat.dtype} "
                f"of shape {flat.shape}"
            )
        if flat.size and not 0 <= flat.min() <= flat.max() < self.M**self.n:
            raise DomainError(f"flat cell index outside the resolution-{self.M} grid")
        return flat.astype(np.int64)

    def _flat_from_coordinates(self, cells: object) -> np.ndarray:
        import numpy as np

        # In [0, M-1], and M**n < 2**63: every coordinate fits in int64.
        values = np.fromiter(check_grid_points(cells, self.n, self.M, "cell"), dtype=np.int64)
        columns = values.reshape(-1, self.n).T
        flat = columns[0]
        for column in columns[1:]:
            flat = flat * self.M + column
        return flat

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """The cells' coordinates, one array per axis, in sorted cell order."""
        import numpy as np

        return np.unravel_index(self.cells, (self.M,) * self.n)

    def points(self) -> list[GridPoint]:
        """The cells as coordinate tuples of Python ints, sorted."""
        return list(zip(*(axis.tolist() for axis in self.coordinates())))

    def __contains__(self, cell: object) -> bool:
        """Whether the coordinate sequence `cell` is a cell of the set.

        Coordinates must be integers (bools count as 0 and 1); a cell with
        any other coordinate, such as 1.0 or 0.5, is never a member.
        """
        import numpy as np

        try:
            cell = [operator.index(c) for c in cell]
        except TypeError:
            return False
        if len(cell) != self.n or not all(0 <= c < self.M for c in cell):
            return False
        flat = 0
        for c in cell:
            flat = flat * self.M + c
        i = int(np.searchsorted(self.cells, flat))
        return i < len(self.cells) and int(self.cells[i]) == flat

    def __eq__(self, other: object) -> bool:
        import numpy as np

        if not isinstance(other, CellSet):
            return NotImplemented
        return (self.n, self.M) == (other.n, other.M) and np.array_equal(
            self.cells, other.cells
        )

    def __hash__(self) -> int:
        return hash((self.n, self.M, self.cells.tobytes()))


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

    M**n may not exceed `config.max_grid_states`.

    inner: cells whose closure lies inside the closed slab, so the inner
    measure never exceeds the slab volume.  outer: cells whose overlap
    with the slab has positive measure, so the outer measure is never
    below it.  Cells meeting the slab only in a boundary hyperplane do
    not count as outer; they would inflate the bracket without covering
    anything of positive measure.

    A cell with index sum s has closure sums in [s/M, (s+n)/M], so each
    mode keeps an integer range of s.  The sums of all M^n cells are
    built by broadcasting, in flat-index order, and the kept cells are
    their flat indices.
    """
    import numpy as np

    if mode not in ("inner", "outer"):
        raise DomainError(f"mode must be 'inner' or 'outer', got {mode!r}")
    spec = SlabSpec(n=n, kappa=as_rational(kappa))
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
    axis = np.arange(max(M, 0), dtype=np.int64)
    sums = axis
    for _ in range(n - 1):
        sums = (sums[:, None] + axis).ravel()
    cells = np.flatnonzero((sums >= s_lo) & (sums <= s_hi))
    return CellSet(n=n, M=M, cells=cells)


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
    import numpy as np

    if type(m) is not int or m < 1:
        raise DomainError(f"coarse resolution must be a positive integer, got {m!r}")
    if a.M % m != 0:
        raise DomainError(f"coarse resolution {m} does not divide M={a.M}")
    w = a.M // m
    # Flat coarse index of every cell; only the touched coarse cubes are
    # ever materialised, never all m^n of them.
    coarse = np.zeros(len(a.cells), dtype=np.int64)
    for axis in a.coordinates():
        coarse = coarse * m + axis // w
    cubes, counts = np.unique(coarse, return_counts=True)
    points = zip(*(axis.tolist() for axis in np.unravel_index(cubes, (m,) * a.n)))
    return dict(zip(points, counts.tolist()))


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


def max_cell_chain_mass_upper(
    a: CellSet, m: int, cover: CoverSets | None = None, config: Config = Config()
) -> Fraction:
    """Sound upper bound on sup over chains C of H^1(A intersect C).

    Any chain meets at most n/m of length inside one coarse cube, and
    the cubes it meets form a chain, so the maximum number of touched
    cubes on a cube chain, times n/m, dominates the supremum.  Loose by
    up to a factor n.  The touched cubes are read from `cover` when
    given, which must be `cover_sets` of the same `a` and `m`.  The cube
    chain DP runs over m**n states, at most `config.max_grid_states`.
    """
    touched = _coarse_counts(a, m).keys() if cover is None else cover.touched
    if not touched:
        return Fraction(0)
    grid = WeightedGrid(n=a.n, m=m, weights={d: Fraction(1) for d in touched})
    return Fraction(a.n, m) * max_weight_chain(grid, config).total


@dataclass(frozen=True)
class AdversarialResult:
    lower: Fraction
    witness: MonotonePolyline


def _corners_to_polyline(corners: list[GridPoint], n: int, M: int) -> MonotonePolyline:
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
    and gains 0.  The flat indices of all edge cells are built by
    broadcasting and looked up in `a.cells` by one `np.searchsorted`.
    """
    import numpy as np

    n, M = a.n, a.M
    shape = [hi - lo + 1 for lo, hi in zip(lo_corner, hi_corner)]
    across = [
        np.minimum(np.arange(lo, hi + 1), M - 1) for lo, hi in zip(lo_corner, hi_corner)
    ]
    gains = []
    for j in range(n):
        flat = 0
        for t in range(n):
            coord = np.arange(lo_corner[t] - 1, hi_corner[t]) if t == j else across[t]
            flat = flat * M + coord.reshape([-1 if s == t else 1 for s in range(n)])
        flat = flat.ravel()
        if len(a.cells):
            hit = np.take(a.cells, np.searchsorted(a.cells, flat), mode="clip") == flat
        else:
            hit = np.zeros(len(flat), dtype=bool)
        hit.reshape(shape)[(slice(None),) * j + (0,)] = False
        gains.append(bytearray(hit))
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
    n = a.n
    epsilon = as_rational(epsilon)
    _check_epsilon(n, epsilon)
    counts = _coarse_counts(a, m)
    check_grid_points(q.points, n, m, "cube")
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
    adversarial_lower: Fraction
    dp_upper: Fraction
    touched_count: int
    dense_count: int
    whitney_cap: int
    claim: ClaimCheckReport
    #: len(dense cover) <= sum of the ceil(kappa'*m+n) largest Whitney numbers.
    whitney_ok: bool
    #: measure(A) <= v_n(kappa): what the slab theorem asserts for feasible sets.
    measure_within_volume: bool
    feasibility: Literal["feasible", "infeasible", "indeterminate"]

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

    Feasibility (chain mass at most kappa for every chain) is bracketed:
    certified feasible when the coarse upper bound is at most kappa,
    certified infeasible when the adversarial staircase already exceeds
    kappa, indeterminate in between.  `config` supplies the caps of
    the stages: `max_grid_states` for the coarse upper bound,
    `max_fine_states` for the staircase search, `epsilon_denominator_cap`
    for the automatic epsilon and `max_table_bytes` for the Whitney cap.
    """
    kappa = as_rational(kappa)
    if epsilon is None:
        params = EpsilonParams.auto(a.n, m, kappa, config)
    else:
        params = EpsilonParams(n=a.n, m=m, epsilon=as_rational(epsilon), kappa=kappa)
    cover = cover_sets(a, m, params)
    claim = claim_check(a, m, params, cover=cover)
    upper = max_cell_chain_mass_upper(a, m, cover, config)
    adversarial = adversarial_chain_search(a, config)
    cap = whitney_sum(a.n, m, params.kappa_prime, config).value
    volume = slab_volume_exact(SlabSpec(n=a.n, kappa=kappa)).exact
    if adversarial.lower > kappa:
        feasibility = "infeasible"
    elif upper <= kappa:
        feasibility = "feasible"
    else:
        feasibility = "indeterminate"
    return VerifyReport(
        n=a.n,
        m=m,
        kappa=kappa,
        params=params,
        measure_a=claim.measure_a,
        slab_volume=volume,
        adversarial_lower=adversarial.lower,
        dp_upper=upper,
        touched_count=len(cover.touched),
        dense_count=len(cover.dense),
        whitney_cap=cap,
        claim=claim,
        whitney_ok=len(cover.dense) <= cap,
        measure_within_volume=claim.measure_a <= volume,
        feasibility=feasibility,
    )
