"""Whitney numbers of the grid poset {0..m-1}^n and their top-k sums.

The Whitney number at rank r is the number of grid points whose
coordinates sum to r, i.e. the coefficient of x^r in
(1 + x + ... + x^(m-1))^n.  The table is symmetric and unimodal, its
entries total m^n, and the sum of its ceil(kappa*m + n) largest entries,
divided by m^n, converges to the slab volume as m grows.  Everything
here is exact integer / rational arithmetic.

The table is built by n-1 products with the all-ones window of length m,
each read off a prefix-sum list: O(n*m) additions per product, so
O(n^2*m) big-int additions for the whole table.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import sub
from typing import Iterable, NamedTuple, Sequence

from .config import Config, int_table_bytes
from .errors import DomainError, Frozen, ResourceLimitError, check_grid
from .rational import as_rational, RationalLike
from .slab_volume import SlabSpec, slab_volume_exact


class CoefficientTable(Frozen):
    """Whitney numbers of {0..m-1}^n, indexed by rank."""

    __slots__ = _fields = ("n", "m", "coeffs")

    n: int
    m: int
    coeffs: tuple[int, ...]

    def __init__(self, n: int, m: int, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


class ConvergenceRow(NamedTuple):
    m: int
    value: int
    ratio: Fraction
    volume: Fraction

    @property
    def gap(self) -> Fraction:
        return abs(self.ratio - self.volume)


def _convolve_ones(coeffs: Sequence[int], m: int) -> list[int]:
    # Product with the all-ones window of length m.  Output r is the sum of
    # inputs max(0, r-m+1)..min(r, len-1), the difference of two entries of
    # the prefix-sum list P (P[i] = sum of the first i inputs), padded with
    # P[len] above and P[0] = 0 below: O(len + m) additions in all.
    prefix = list(itertools.accumulate(coeffs, initial=0))
    upper = prefix[1:] + [prefix[-1]] * (m - 1)
    lower = [0] * (m - 1) + prefix[:-1]
    return list(map(sub, upper, lower))


def _estimate_table_bytes(n: int, m: int) -> int:
    # n(m-1)+1 entries, each at most m^n (int(n*log2(m)) >= 1 bits).
    return int_table_bytes(n * (m - 1) + 1, int(n * math.log2(m)))


def _check_table(n: int, m: int, config: Config) -> None:
    check_grid(n, m)
    if _estimate_table_bytes(n, m) > config.max_table_bytes:
        raise ResourceLimitError(
            f"coefficient table for n={n}, m={m} exceeds the "
            f"{config.max_table_bytes}-byte budget"
        )


def whitney_numbers(n: int, m: int, config: Config = Config()) -> CoefficientTable:
    """Exact Whitney numbers, by n-fold convolution of the length-m window.

    The table's estimated size may not exceed `config.max_table_bytes`.
    """
    _check_table(n, m, config)
    coeffs = [1] * m
    for _ in range(n - 1):
        coeffs = _convolve_ones(coeffs, m)
    return CoefficientTable(n=n, m=m, coeffs=tuple(coeffs))


def central_block(table_length: int, k: int) -> tuple[int, int]:
    """Index range [lo, hi) of the k central entries of a table.

    When k and the table length have opposite parities the block cannot
    be centred exactly; it is shifted one step toward the lower ranks.
    """
    if k >= table_length:
        return 0, table_length
    lo = (table_length - k) // 2
    return lo, lo + k


def sum_k_largest(table: CoefficientTable, k: int) -> int:
    """Sum of the k largest entries of the table.

    Symmetry plus unimodality make the k largest entries a block of k
    consecutive central entries; `central_block` picks that block
    deterministically, and the result equals the sort-and-take-top-k
    value.  k beyond the table length returns the total m^n.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    lo, hi = central_block(len(table.coeffs), k)
    return sum(table.coeffs[lo:hi])


def k_for_kappa(n: int, m: int, kappa: RationalLike) -> int:
    """k = ceil(kappa*m + n) for kappa in (0, n], as `SlabSpec` checks it,
    exactly: float ceilings misround."""
    return math.ceil(SlabSpec(n, kappa).kappa * m + n)


def whitney_sum(n: int, m: int, kappa: RationalLike, config: Config = Config()) -> int:
    """Sum of the ceil(kappa*m + n) largest Whitney numbers of {0..m-1}^n.

    The table is capped by `config.max_table_bytes`.
    """
    k = k_for_kappa(n, m, kappa)
    return sum_k_largest(whitney_numbers(n, m, config), k)


def convergence_table(
    n: int, kappa: RationalLike, m_list: Iterable[int], config: Config = Config()
) -> list[ConvergenceRow]:
    """One row per m, witnessing whitney_sum / m^n -> slab volume.

    Every m is checked against `config.max_table_bytes` before the volume
    or any table is computed.  The gap column is exact; CLI/CSV emission
    converts to floats.
    """
    kappa = as_rational(kappa)
    m_list = list(m_list)
    for m in m_list:
        _check_table(n, m, config)
    volume = slab_volume_exact(SlabSpec(n=n, kappa=kappa))
    rows = []
    for m in m_list:
        value = whitney_sum(n, m, kappa, config)
        rows.append(
            ConvergenceRow(m=m, value=value, ratio=Fraction(value, m**n), volume=volume)
        )
    return rows
