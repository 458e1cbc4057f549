"""Independent reference computations for the benchmark's output checks.

Nothing here imports chainlab: each quantity is derived from its
definition by a route the library does not take, so a check that
compares the two can catch a bug in either.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np


def irwin_hall_cdf(n: int, x: Fraction) -> Fraction:
    """P(U_1 + ... + U_n <= x) for independent uniforms on [0, 1]."""
    if x <= 0:
        return Fraction(0)
    if x >= n:
        return Fraction(1)
    total = Fraction(0)
    for j in range(math.floor(x) + 1):
        total += (-1) ** j * math.comb(n, j) * (x - j) ** n
    return total / math.factorial(n)


def slab_volume(n: int, kappa: Fraction) -> Fraction:
    """Measure of {x in [0,1]^n : (n-kappa)/2 <= sum(x) <= (n+kappa)/2}.

    The difference of two Irwin-Hall CDF values; the sum of n uniforms
    has no atoms, so open and closed ends give the same value.
    """
    kappa = Fraction(kappa)
    return irwin_hall_cdf(n, (n + kappa) / 2) - irwin_hall_cdf(n, (n - kappa) / 2)


def rank_size(n: int, m: int, r: int) -> int:
    """Points of {0..m-1}^n with coordinate sum r, by inclusion-exclusion.

    sum_j (-1)^j C(n, j) C(r - j*m + n - 1, n - 1): compositions of r
    into n parts, minus those with some part of at least m.
    """
    if not 0 <= r <= n * (m - 1):
        return 0
    return sum(
        (-1) ** j * math.comb(n, j) * math.comb(r - j * m + n - 1, n - 1)
        for j in range(n + 1)
        if r - j * m >= 0
    )


def whitney_table(n: int, m: int) -> list[int]:
    """Rank sizes W_0 .. W_{n(m-1)} of the grid poset {0..m-1}^n."""
    return [rank_size(n, m, r) for r in range(n * (m - 1) + 1)]


def top_k_sum(table: Sequence[int], k: int) -> int:
    """Sum of the k largest entries, by sorting (no unimodality assumed)."""
    return sum(sorted(table, reverse=True)[:k])


def points_with_sum_at_most(n: int, M: int, s: int) -> int:
    """Cells of {0..M-1}^n whose coordinate sum is at most s.

    Cumulative inclusion-exclusion: sum_j (-1)^j C(n, j) C(s - j*M + n, n).
    """
    if s < 0:
        return 0
    return sum(
        (-1) ** j * math.comb(n, j) * math.comb(s - j * M + n, n)
        for j in range(n + 1)
        if s - j * M >= 0
    )


def lattice_count(n: int, M: int, s_lo: int, s_hi: int) -> int:
    """Cells of {0..M-1}^n whose coordinate sum lies in [s_lo, s_hi]."""
    if s_hi < s_lo:
        return 0
    return points_with_sum_at_most(n, M, s_hi) - points_with_sum_at_most(n, M, s_lo - 1)


def max_weight_chain_total(
    n: int, m: int, weights: Mapping[tuple[int, ...], Fraction]
) -> Fraction:
    """Largest total weight of a chain in {0..m-1}^n, weights >= 0.

    The weights are scaled by the lcm of their denominators to exact
    integers, and the DP best(x) = w(x) + max_j best(x + e_j) runs rank by
    rank from the top as a numpy wavefront over a grid padded with one
    zero layer per axis, so every successor index is in range.
    """
    if not weights:
        return Fraction(0)
    scale = math.lcm(*(Fraction(w).denominator for w in weights.values()))
    ints = {p: int(Fraction(w) * scale) for p, w in weights.items()}
    # A chain has at most n(m-1)+1 points, so this bounds every DP value.
    if max(ints.values()) * (n * (m - 1) + 1) >= 2**62:
        raise OverflowError("scaled weights do not fit the int64 wavefront")
    shape = (m + 1,) * n
    best = np.zeros(shape, dtype=np.int64)
    w = np.zeros(shape, dtype=np.int64)
    for p, value in ints.items():
        w[p] = value
    flat_best = best.reshape(-1)
    flat_w = w.reshape(-1)
    strides = [(m + 1) ** (n - 1 - j) for j in range(n)]
    coords = np.indices((m,) * n).reshape(n, -1)
    flat = sum(coords[j] * strides[j] for j in range(n))
    ranks = coords.sum(axis=0)
    order = np.argsort(ranks, kind="stable")
    bounds = np.searchsorted(ranks[order], np.arange(n * (m - 1) + 2))
    for r in range(n * (m - 1), -1, -1):
        idx = flat[order[bounds[r] : bounds[r + 1]]]
        above = flat_best[idx + strides[0]]
        for s in strides[1:]:
            above = np.maximum(above, flat_best[idx + s])
        flat_best[idx] = flat_w[idx] + above
    return Fraction(int(flat_best[0]), scale)


def staircase_mass(
    M: int, cells: Iterable[tuple[int, ...]], vertices: Sequence[Sequence[Fraction]]
) -> Fraction:
    """Exact length of an axis-parallel polyline inside a union of cells.

    Cell c is the box prod [c_i/M, (c_i+1)/M), closed at 1 on the last
    cell of each axis.  Each segment is cut at the multiples of 1/M it
    crosses; a piece counts when the cell holding it is in the set.  All
    coordinates are scaled by a common denominator so that the cuts are
    integer comparisons.
    """
    cell_set = set(map(tuple, cells))
    verts = [tuple(Fraction(c) for c in v) for v in vertices]
    if not verts:
        return Fraction(0)
    den = math.lcm(M, *(c.denominator for v in verts for c in v))
    step = den // M  # one cell side in scaled units
    scaled = [tuple(int(c * den) for c in v) for v in verts]
    total = 0
    for a, b in zip(scaled, scaled[1:]):
        moving = [j for j in range(len(a)) if a[j] != b[j]]
        if not moving:
            continue
        if len(moving) > 1:
            raise ValueError("segment is not axis-parallel")
        axis = moving[0]
        fixed = [min(c // step, M - 1) for c in a]
        lo, hi = a[axis], b[axis]
        while lo < hi:
            k = min(lo // step, M - 1)
            end = hi if k == M - 1 else min(hi, (k + 1) * step)
            fixed[axis] = k
            if tuple(fixed) in cell_set:
                total += end - lo
            lo = end
    return Fraction(total, den)


def polyline_length_float(vertices: Sequence[Sequence[Fraction]]) -> float:
    """Euclidean length of a polyline: exact coordinate differences, one
    correctly rounded square root per segment, summed with fsum."""
    parts = []
    for a, b in zip(vertices, vertices[1:]):
        squares = sum((Fraction(y) - Fraction(x)) ** 2 for x, y in zip(a, b))
        parts.append(math.sqrt(squares))
    return math.fsum(parts)
