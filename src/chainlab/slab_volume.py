"""The diagonal slab of the unit cube and its volume.

The slab with half-width parameter kappa is

    { x in [0,1]^n : (n - kappa)/2 <= x_1 + ... + x_n <= (n + kappa)/2 }

(closed on both sides; the half-open variant differs by a hyperplane of
measure zero).  Its Lebesgue measure has the closed form

    1 - (2/n!) * sum_{j=0}^{floor((n-kappa)/2)}
                 (-1)^j * C(n,j) * ((n-kappa)/2 - j)^n

which this module evaluates in exact rational arithmetic.  A seeded
Monte Carlo estimator serves as an independent stochastic oracle; it
alone uses numpy, and imports it when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .errors import DomainError, ResourceLimitError
from .rational import is_rational

Scalar = Union[int, float, Fraction]

#: Most sample coordinates (samples * n) one Monte Carlo run may draw;
#: each costs a few nanoseconds, so the cap bounds a run to seconds.
MAX_SAMPLE_COORDINATES = 10**9


@dataclass(frozen=True)
class SlabSpec:
    """Dimension and diagonal half-width of a slab.

    ``kappa`` is measured in l1 distance along the main diagonal and must
    satisfy 0 < kappa <= n.  A rational kappa enables the exact volume
    path; a float kappa restricts the spec to membership tests and Monte
    Carlo.
    """

    n: int
    kappa: Scalar

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"dimension must be a positive integer, got {self.n!r}")
        if not (0 < self.kappa <= self.n):
            raise DomainError(
                f"kappa must lie in (0, n] = (0, {self.n}], got {self.kappa}"
            )

    @property
    def lower_sum(self) -> Scalar:
        if is_rational(self.kappa):
            return (self.n - Fraction(self.kappa)) / 2
        return (self.n - self.kappa) / 2

    @property
    def upper_sum(self) -> Scalar:
        if is_rational(self.kappa):
            return (self.n + Fraction(self.kappa)) / 2
        return (self.n + self.kappa) / 2


@dataclass(frozen=True)
class VolumeResult:
    """Exact slab volume with a float shadow.

    The float is the correctly rounded double of the exact value, so
    |as_float - exact| <= 2**-53 < 2**-40 for volumes in (0, 1].
    """

    exact: Fraction
    as_float: float


class MonteCarloResult(NamedTuple):
    estimate: float
    half_width_99: float


def slab_volume_exact(spec: SlabSpec) -> VolumeResult:
    """Exact volume of the slab, by inclusion-exclusion over corner simplices.

    Requires a rational kappa: the floor index and the n-th powers are
    evaluated with Fractions, where floats would round near integer
    floor boundaries.
    """
    if not is_rational(spec.kappa):
        raise DomainError("exact volume requires a rational kappa")
    n = spec.n
    t = (n - Fraction(spec.kappa)) / 2
    total = Fraction(0)
    for j in range(math.floor(t) + 1):
        total += (-1) ** j * math.comb(n, j) * (t - j) ** n
    exact = 1 - Fraction(2, math.factorial(n)) * total
    if not 0 < exact <= 1:
        raise AssertionError(f"volume {exact} outside (0, 1]; formula bug")
    return VolumeResult(exact=exact, as_float=float(exact))


def slab_membership(x: Sequence[Scalar], spec: SlabSpec) -> bool:
    """Whether x lies in the closed slab.

    Exact when both x and kappa are rational; float comparison otherwise.
    """
    if len(x) != spec.n:
        raise DomainError(f"point has {len(x)} coordinates, spec has n={spec.n}")
    for c in x:
        if not 0 <= c <= 1:
            raise DomainError(f"coordinate {c!r} outside [0, 1]")
    if is_rational(spec.kappa) and all(is_rational(c) for c in x):
        s = sum(Fraction(c) for c in x)
        return spec.lower_sum <= s <= spec.upper_sum
    s = math.fsum(float(c) for c in x)
    return float(spec.lower_sum) <= s <= float(spec.upper_sum)


def slab_volume_montecarlo(
    spec: SlabSpec, samples: int, seed: int
) -> MonteCarloResult:
    """Fraction of uniform samples falling in the slab, with a 99% half-width.

    Deterministic for a fixed seed, a non-negative integer.  The
    half-width is the normal approximation 2.576 * sqrt(p(1-p)/samples).
    More than MAX_SAMPLE_COORDINATES draws (samples * n) is refused with
    `ResourceLimitError` before any is made.
    """
    import numpy as np

    if samples < 1000:
        raise DomainError(f"need at least 1000 samples, got {samples}")
    if type(seed) is not int or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    if samples * spec.n > MAX_SAMPLE_COORDINATES:
        raise ResourceLimitError(
            f"{samples} samples in dimension {spec.n} exceed the cap of "
            f"{MAX_SAMPLE_COORDINATES} sample coordinates"
        )
    rng = np.random.default_rng(seed)
    lo = float(spec.lower_sum)
    hi = float(spec.upper_sum)
    hits = 0
    remaining = samples
    chunk = 1 << 18
    while remaining > 0:
        take = min(chunk, remaining)
        sums = rng.random((take, spec.n)).sum(axis=1)
        hits += int(np.count_nonzero((sums >= lo) & (sums <= hi)))
        remaining -= take
    p = hits / samples
    half_width = 2.576 * math.sqrt(p * (1.0 - p) / samples)
    return MonteCarloResult(estimate=p, half_width_99=half_width)
