"""The proof machinery of the discretized slab bound, on box unions.

A set is a `cellset.CellSet`: a union of half-open cells at a fine
resolution M.  At a coarse resolution m that divides M, every quantity
of the proof chain is an exact rational: the epsilon bundle
(`EpsilonParams`), the cover of touched and dense coarse cubes, the
covering inequality (`claim_check`), the Whitney-sum cap and the mass
of staircases.  `end_to_end_verify` runs them all, and decides
feasibility (sup <= kappa) with the exact chain-mass supremum of
`chainmass` alone.  Two coarser chain-mass oracles bracket it:

* `adversarial_chain_search`, the best monotone staircase along fine
  lattice edges, is a lower bound with a witness.
* `max_cell_chain_mass_upper` is an upper bound: a chain meets the
  coarse cubes in a chain of cubes, contributes at most n/m inside each,
  and only cubes meeting the set contribute.  It can be loose by up to a
  factor n.

`build_chain_through_cubes` turns a chain of dense coarse cubes into an
explicit staircase whose exactly-computed mass meets the constructive
lower bound (1-(2n+2)eps) * (1-eps)^n * (|cubes|-1)/m.

Both staircase searches run on `gridposet.monotone_path_dp` over a 0/1
mask of the corners of a box: mask[x] is 1 when the cell of x, clipped
to M-1 on every axis, is in the set.  A fine lattice edge lies in the
cell of the corner it leaves, so the edge arriving at x along axis j
scores mask[x - e_j], and a staircase earns the mask of every corner
it passes but the last.

The coarse counts, the cover and the cell mask work on the row runs of
the cells (see `cellset`).  The cover counts in integers: a coarse cube
is dense when its share of cells exceeds the density threshold, which
`_dense_floor` turns into one bound on its cell count.  No part of this
module imports numpy, and `chain_geometry`, `gridposet` and `whitney`
are imported by the stages that use them: `verify` loads only `whitney`
of the three.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import chain, repeat
from typing import TYPE_CHECKING, Literal, NamedTuple

from .cellset import CellSet, _run_bytes, measure
# Not called here: bench/tracing.py looks discretize_slab up in this module.
from .cellset import discretize_slab  # noqa: F401
from .config import Config
from .errors import DomainError, Frozen, ResourceLimitError, check_grid, check_in_grid, check_points
from .rational import as_rational, RationalLike
from .slab_volume import SlabSpec, slab_volume_exact

if TYPE_CHECKING:
    from .chain_geometry import MonotonePolyline
    from .gridposet import ChainOfPoints, GridPoint


def _check_epsilon(n: int, epsilon: Fraction) -> None:
    if not 0 < epsilon < Fraction(1, 2 * n + 2):
        raise DomainError(f"epsilon must lie in (0, 1/{2 * n + 2}), got {epsilon}")


def _shrink_factor(n: int, epsilon: Fraction) -> Fraction:
    return (1 - (2 * n + 2) * epsilon) * (1 - epsilon) ** n


def _is_small(n: int, epsilon: Fraction, kappa: Fraction) -> bool:
    """The smallness condition, which forces kappa_prime below n."""
    return kappa < n * _shrink_factor(n, epsilon)


def _density_threshold(n: int, epsilon: Fraction) -> Fraction:
    return 1 - Fraction(1, 2**n) * epsilon ** (2 * n)


def _dense_floor(n: int, epsilon: Fraction, w: int) -> int:
    """The largest cell count at which a coarse cube of w**n cells is not dense.

    With p/q the density threshold, c cells are dense when c / w**n > p/q,
    that is c * q > p * w**n, that is c > (p * w**n) // q.
    """
    threshold = _density_threshold(n, epsilon)
    return threshold.numerator * w**n // threshold.denominator


class EpsilonParams(Frozen):
    """The (epsilon, m, kappa) bundle with its derived quantities.

    Validity requires 0 < epsilon < 1/(2n+2) and the smallness condition
    kappa < n * (1-(2n+2)*epsilon) * (1-epsilon)^n, which together force
    the inflated kappa_prime below n.
    """

    __slots__ = _fields = ("n", "m", "epsilon", "kappa")

    n: int
    m: int
    epsilon: Fraction
    kappa: Fraction

    def __init__(self, n: int, m: int, epsilon: RationalLike, kappa: RationalLike) -> None:
        check_grid(n, m)
        eps = as_rational(epsilon)
        kappa = as_rational(kappa)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "kappa", kappa)
        _check_epsilon(n, eps)
        if kappa <= 0:
            raise DomainError(f"kappa must be positive, got {kappa}")
        if not _is_small(n, eps, kappa):
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
        lo, hi = 2 * n + 3, config.epsilon_denominator_cap
        if lo > hi or not _is_small(n, Fraction(1, hi), kappa):
            raise DomainError(
                f"no epsilon of the form 1/t with t <= {hi} fits "
                f"kappa={kappa}; kappa must be strictly below n"
            )
        while lo < hi:
            mid = (lo + hi) // 2
            if _is_small(n, Fraction(1, mid), kappa):
                hi = mid
            else:
                lo = mid + 1
        return cls(n=n, m=m, epsilon=Fraction(1, lo), kappa=kappa)


class CoverSets(NamedTuple):
    """Coarse cells meeting the set, and those where it is nearly full."""

    touched: frozenset[GridPoint]
    dense: frozenset[GridPoint]


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
    """The touched and dense coarse cubes, from integer cell counts."""
    if params.n != a.n:
        raise DomainError(f"params dimension {params.n} != cell set dimension {a.n}")
    if params.m != m:
        raise DomainError(f"params carry m={params.m} but m={m} was requested")
    counts = _coarse_counts(a, m)
    floor = _dense_floor(a.n, params.epsilon, a.M // m)
    dense = frozenset(d for d, c in counts.items() if c > floor)
    return CoverSets(touched=frozenset(counts), dense=dense)


class ClaimCheckReport(NamedTuple):
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


def claim_check(a: CellSet, m: int, params: EpsilonParams, cover: CoverSets) -> ClaimCheckReport:
    """Check measure(A) <= measure(dense cover) + delta, exactly.

    `cover` is `cover_sets(a, m, params)`.
    """
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


def max_cell_chain_mass_upper(a: CellSet, m: int, config: Config = Config()) -> Fraction:
    """Sound upper bound on sup over chains C of H^1(A intersect C).

    Any chain meets at most n/m of length inside one coarse cube, and
    the cubes it meets form a chain, so the maximum number of touched
    cubes on a cube chain, times n/m, dominates the supremum.  Loose by
    up to a factor n.  The cube chain DP runs over m**n states, at most
    `config.max_grid_states`, and its lists fit `config.max_table_bytes`.
    """
    from .gridposet import WeightedGrid, max_weight_chain

    touched = _coarse_counts(a, m).keys()
    if not touched:
        return Fraction(0)
    grid = WeightedGrid(n=a.n, m=m, weights={d: Fraction(1) for d in touched})
    return Fraction(a.n, m) * max_weight_chain(grid, config).total


class AdversarialResult(NamedTuple):
    lower: Fraction
    witness: MonotonePolyline


def _cell_mask(a: CellSet, lo_corner: GridPoint, hi_corner: GridPoint) -> bytes:
    """0/1 cell mask over the corners of a box, a flat row-major index.

    mask[x] = 1 iff the cell of corner x, min(x_t, M-1) on every axis t
    (absolute coordinates), is in `a`.  The edge arriving at x along
    axis j lies in the cell of x - e_j, so it scores mask[x - e_j].

    Each row of cells the box meets is read from the runs once, clipped
    to the box, and the last cell is repeated for corner M; rows that
    clip to the same row are read once.  Both callers have
    lo_corner[t] < M on every axis: `build_chain_through_cubes` starts at
    a cube corner c*w <= M - w, `adversarial_chain_search` at 0.
    """
    M = a.M
    bounds = a.cells.bounds
    lo, hi = lo_corner[-1], hi_corner[-1]
    last = min(hi, M - 1)
    rows = [0]
    for l, h in zip(lo_corner[:-1], hi_corner[:-1]):
        rows = [r * M + min(x, M - 1) for r in rows for x in range(l, h + 1)]
    masks: dict[int, bytes] = {}
    for row in rows:
        if row not in masks:
            bits = _run_bytes(bounds, row * M + lo, row * M + last + 1)
            masks[row] = bits + bits[-1:] * (hi - last)
    return b"".join(map(masks.__getitem__, rows))


def _staircase_dp(
    a: CellSet,
    lo_corner: GridPoint,
    hi_corner: GridPoint,
    corner_cap: int,
) -> tuple[int, list[GridPoint]]:
    """Best monotone edge path from lo_corner to hi_corner.

    Returns the number of scored edges (edges whose open interior lies
    in a cell of `a`) and the vertices of one optimal path, its runs of
    steps along one axis merged into single segments.  The path is
    reconstructed from the top corner with the smallest axis preferred,
    so reruns are identical.

    An edge scores the mask of the corner it leaves, so with
    B = monotone_path_dp(extent, mask), which scores the corner a step
    arrives at, the optimum is B[-1] + mask[0] - mask[-1], and the step
    into corner i along axis j is optimal when B[i - s_j] == B[i] - mask[i].
    """
    from .gridposet import monotone_path_dp

    n = a.n
    extent = [hi - lo + 1 for lo, hi in zip(lo_corner, hi_corner)]
    size = math.prod(extent)
    if size > corner_cap:
        raise ResourceLimitError(f"staircase DP over {size} corners, cap {corner_cap}")
    strides = [math.prod(extent[j + 1 :]) for j in range(n)]
    mask = _cell_mask(a, lo_corner, hi_corner)
    best = monotone_path_dp(extent, mask)

    vertices = [hi_corner]
    corner = list(hi_corner)
    idx = size - 1
    axis = -1
    while idx:
        target = best[idx] - mask[idx]
        for j in range(n):
            if corner[j] > lo_corner[j] and best[idx - strides[j]] == target:
                idx -= strides[j]
                corner[j] -= 1
                if j == axis:
                    vertices[-1] = tuple(corner)
                else:
                    vertices.append(tuple(corner))
                axis = j
                break
        else:
            raise AssertionError("staircase reconstruction failed; DP bug")
    vertices.reverse()
    return best[-1] + mask[0] - mask[-1], vertices


def adversarial_chain_search(a: CellSet, config: Config = Config()) -> AdversarialResult:
    """Best monotone staircase mass through the box union.

    The returned value is an exact lower bound on the supremum of chain
    mass: the witness is itself a chain realising it.  The DP runs over
    (M+1)**n corners, at most `config.max_fine_states`.
    """
    from .chain_geometry import MonotonePolyline

    n, M = a.n, a.M
    count, vertices = _staircase_dp(a, (0,) * n, (M,) * n, config.max_fine_states)
    return AdversarialResult(lower=Fraction(count, M), witness=MonotonePolyline(n, vertices, M))


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


class ChainCertificate(Frozen):
    """A staircase through a chain of dense cubes, with its certified mass."""

    __slots__ = _fields = ("polyline", "mass", "guarantee")

    polyline: MonotonePolyline
    mass: Fraction
    guarantee: Fraction

    def __init__(self, polyline: MonotonePolyline, mass: Fraction, guarantee: Fraction) -> None:
        object.__setattr__(self, "polyline", polyline)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "guarantee", guarantee)
        if mass < guarantee:
            raise DomainError(f"certificate mass {mass} below guarantee {guarantee}")


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
    floor = _dense_floor(n, epsilon, w)
    for cube in q.points:
        count = counts.get(cube, 0)
        if count <= floor:
            raise DomainError(
                f"cube {cube} has density {Fraction(count, w**n)}, not above the "
                f"threshold {_density_threshold(n, epsilon)}"
            )
    guarantee = _shrink_factor(n, epsilon) * Fraction(max(len(q.points) - 1, 0), m)
    if len(q.points) <= 1:
        return ChainCertificate(
            polyline=MonotonePolyline(n, ()),
            mass=Fraction(0),
            guarantee=Fraction(0),
        )
    lo_corner = tuple(c * w for c in q.points[0])
    hi_corner = tuple((c + 1) * w for c in q.points[-1])
    count, vertices = _staircase_dp(a, lo_corner, hi_corner, config.max_fine_states)
    mass = Fraction(count, a.M)
    if mass < guarantee:
        raise DomainError(
            f"staircase mass {mass} fell below the guaranteed {guarantee}; "
            "this contradicts the constructive bound for dense cube chains"
        )
    return ChainCertificate(
        polyline=MonotonePolyline(n, vertices, a.M), mass=mass, guarantee=guarantee
    )


class VerifyReport(NamedTuple):
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
    The chain-mass cap is checked before any stage runs, and the Whitney
    table's before the coarse stages: it bounds m, and with it the
    coarse columns that `cover_sets` sweeps, which for n = 1 the
    chain-mass cap does not bound.
    """
    from .chainmass import chain_mass_sup, check_chain_mass_cap
    from .whitney import _check_table, whitney_sum

    check_chain_mass_cap(a.n, a.M, config)
    kappa = as_rational(kappa)
    if epsilon is None:
        params = EpsilonParams.auto(a.n, m, kappa, config)
    else:
        params = EpsilonParams(n=a.n, m=m, epsilon=as_rational(epsilon), kappa=kappa)
    _check_table(a.n, m, config)
    cover = cover_sets(a, m, params)
    claim = claim_check(a, m, params, cover=cover)
    sup = chain_mass_sup(a, config)
    cap = whitney_sum(a.n, m, params.kappa_prime, config)
    volume = slab_volume_exact(SlabSpec(n=a.n, kappa=kappa))
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
