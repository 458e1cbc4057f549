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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Mapping

from .chain_geometry import MonotonePolyline
from .config import Config
from .errors import DomainError, ResourceLimitError
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


@dataclass(frozen=True)
class CellSet:
    """A union of grid cubes with side 1/M, identified by their index vectors.

    `cells` may be given as any iterable of coordinate sequences; it is
    stored as a frozenset of integer tuples.
    """

    n: int
    M: int
    cells: frozenset[GridPoint]

    def __post_init__(self) -> None:
        for name, value in (("n", self.n), ("M", self.M)):
            if type(value) is not int:
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.n < 1 or self.M < 2:
            raise DomainError(f"need n >= 1 and M >= 2, got n={self.n}, M={self.M}")
        try:
            listed = list(map(tuple, self.cells))
            cells = frozenset(listed)
        except TypeError as exc:
            raise DomainError(f"cells must be lists of integer coordinates: {exc}") from exc
        # Whole-set checks first; the offending cell, in input order, is
        # looked up only to word the error.  Bools are not coordinates.
        if set(map(len, listed)) - {self.n}:
            bad = next(c for c in listed if len(c) != self.n)
            raise DomainError(f"cell {bad} has wrong dimension")
        coords = list(itertools.chain.from_iterable(listed))
        if set(map(type, coords)) - {int}:
            bad = next(c for c in listed if any(type(x) is not int for x in c))
            raise DomainError(f"cell {bad} has a coordinate that is not an integer")
        if coords and not 0 <= min(coords) <= max(coords) < self.M:
            bad = next(c for c in listed if not all(0 <= x < self.M for x in c))
            raise DomainError(f"cell {bad} outside the resolution-{self.M} grid")
        object.__setattr__(self, "cells", cells)


def measure(a: CellSet) -> Fraction:
    """Lebesgue measure of the box union: cell count over M^n."""
    return Fraction(len(a.cells), a.M**a.n)


def discretize_slab(
    n: int,
    M: int,
    kappa: RationalLike,
    mode: Literal["inner", "outer"],
    max_cells: int = Config.max_grid_states,
) -> CellSet:
    """Rasterise the diagonal slab at resolution M.

    inner: cells whose closure lies inside the closed slab, so the inner
    measure never exceeds the slab volume.  outer: cells whose overlap
    with the slab has positive measure, so the outer measure is never
    below it.  Cells meeting the slab only in a boundary hyperplane do
    not count as outer; they would inflate the bracket without covering
    anything of positive measure.
    """
    if mode not in ("inner", "outer"):
        raise DomainError(f"mode must be 'inner' or 'outer', got {mode!r}")
    spec = SlabSpec(n=n, kappa=as_rational(kappa))
    if M**n > max_cells:
        raise ResourceLimitError(f"{M}^{n} cells exceed the cap {max_cells}")
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
    return CellSet(n=n, M=M, cells=frozenset(cells))


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
        if self.n < 1 or self.m < 2:
            raise DomainError(f"need n >= 1 and m >= 2, got n={self.n}, m={self.m}")
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
        cls,
        n: int,
        m: int,
        kappa: RationalLike,
        denominator_cap: int = Config.epsilon_denominator_cap,
    ) -> "EpsilonParams":
        """Largest epsilon of the form 1/t satisfying both conditions.

        The shrink factor grows with t, so the t that satisfy the
        smallness condition form a tail of [2n+3, denominator_cap]; its
        first element is found by bisection.
        """
        kappa = as_rational(kappa)

        def fits(t: int) -> bool:
            return kappa < n * _shrink_factor(n, Fraction(1, t))

        lo, hi = 2 * n + 3, denominator_cap
        if lo > hi or not fits(hi):
            raise DomainError(
                f"no epsilon of the form 1/t with t <= {denominator_cap} fits "
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
    if type(m) is not int or m < 1:
        raise DomainError(f"coarse resolution must be a positive integer, got {m!r}")
    if a.M % m != 0:
        raise DomainError(f"coarse resolution {m} does not divide M={a.M}")
    w = a.M // m
    counts: dict[GridPoint, int] = {}
    for cell in a.cells:
        coarse = tuple(c // w for c in cell)
        counts[coarse] = counts.get(coarse, 0) + 1
    return counts


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
    a: CellSet, m: int, max_states: int = Config.max_grid_states
) -> Fraction:
    """Sound upper bound on sup over chains C of H^1(A intersect C).

    Any chain meets at most n/m of length inside one coarse cube, and
    the cubes it meets form a chain, so the maximum number of touched
    cubes on a cube chain, times n/m, dominates the supremum.  Loose by
    up to a factor n.
    """
    counts = _coarse_counts(a, m)
    if not counts:
        return Fraction(0)
    grid = WeightedGrid(n=a.n, m=m, weights={d: Fraction(1) for d in counts})
    return Fraction(a.n, m) * max_weight_chain(grid, max_states=max_states).total


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


def _staircase_dp(
    a: CellSet,
    lo_corner: GridPoint,
    hi_corner: GridPoint,
    max_corners: int,
) -> tuple[int, list[GridPoint]]:
    """Best monotone edge path from lo_corner to hi_corner.

    Returns the number of scored edges (edges whose open interior lies
    in a cell of `a`) and the corner sequence of one optimal path,
    reconstructed from the top corner with the smallest axis preferred,
    so reruns are identical.
    """
    n, M = a.n, a.M
    extent = [hi - lo + 1 for lo, hi in zip(lo_corner, hi_corner)]
    size = math.prod(extent)
    if size > max_corners:
        raise ResourceLimitError(f"staircase DP over {size} corners, cap {max_corners}")
    strides = [math.prod(extent[j + 1 :]) for j in range(n)]
    # gains[j][x] = 1 iff the edge arriving at corner x along axis j lies in
    # a cell of `a`: in x's absolute coordinates, the cell with index x_j - 1
    # along j and min(x_t, M-1) along every other axis t.  The index -1
    # stands for the edge that does not exist at the box's lower face.
    across = [[min(c, M - 1) for c in range(lo, hi + 1)] for lo, hi in zip(lo_corner, hi_corner)]
    gains = []
    for j in range(n):
        axes = across[:j] + [[-1, *range(lo_corner[j], hi_corner[j])]] + across[j + 1 :]
        gains.append(bytearray(map(a.cells.__contains__, itertools.product(*axes))))
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


def adversarial_chain_search(
    a: CellSet, max_corners: int = Config.max_fine_states
) -> AdversarialResult:
    """Best monotone staircase mass through the box union.

    The returned value is an exact lower bound on the supremum of chain
    mass: the witness is itself a chain realising it.
    """
    n, M = a.n, a.M
    count, corners = _staircase_dp(
        a, lo_corner=(0,) * n, hi_corner=(M,) * n, max_corners=max_corners
    )
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
            if cell in a.cells:
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
    max_corners: int = Config.max_fine_states,
) -> ChainCertificate:
    """Explicit staircase through a chain of dense coarse cubes.

    Preconditions: epsilon < 1/(2n+2), and every cube of the chain holds
    a fraction of the set strictly above 1 - 2^-n * epsilon^(2n).  The
    returned staircase is found by the fine-lattice DP over the bounding
    box of the cube chain; its exact mass must reach

        (1 - (2n+2)*epsilon) * (1 - epsilon)^n * (len(q) - 1) / m

    which the constructive argument guarantees for some chain, and which
    the staircase optimum meets with large slack on box unions.
    """
    n = a.n
    epsilon = as_rational(epsilon)
    _check_epsilon(n, epsilon)
    counts = _coarse_counts(a, m)
    w = a.M // m
    threshold = _density_threshold(n, epsilon)
    for cube in q.points:
        if len(cube) != n or any(not 0 <= c < m for c in cube):
            raise DomainError(f"cube {cube} outside the resolution-{m} grid")
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
    count, corners = _staircase_dp(a, lo_corner, hi_corner, max_corners)
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
    max_grid_states: int = Config.max_grid_states,
    max_corners: int = Config.max_fine_states,
    epsilon_denominator_cap: int = Config.epsilon_denominator_cap,
) -> VerifyReport:
    """Run the whole proof-chain instrumentation on one box-union set.

    Feasibility (chain mass at most kappa for every chain) is bracketed:
    certified feasible when the coarse upper bound is at most kappa,
    certified infeasible when the adversarial staircase already exceeds
    kappa, indeterminate in between.
    """
    kappa = as_rational(kappa)
    if epsilon is None:
        params = EpsilonParams.auto(
            a.n, m, kappa, denominator_cap=epsilon_denominator_cap
        )
    else:
        params = EpsilonParams(n=a.n, m=m, epsilon=as_rational(epsilon), kappa=kappa)
    cover = cover_sets(a, m, params)
    claim = claim_check(a, m, params, cover=cover)
    upper = max_cell_chain_mass_upper(a, m, max_states=max_grid_states)
    adversarial = adversarial_chain_search(a, max_corners=max_corners)
    cap = whitney_sum(a.n, m, params.kappa_prime).value
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
