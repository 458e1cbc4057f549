"""The diagonal slab of the unit cube and its volume.

The slab with half-width parameter kappa is

    { x in [0,1]^n : (n - kappa)/2 <= x_1 + ... + x_n <= (n + kappa)/2 }

(closed on both sides; the half-open variant differs by a hyperplane of
measure zero).  Its Lebesgue measure has the closed form

    1 - (2/n!) * sum_{j=0}^{floor((n-kappa)/2)}
                 (-1)^j * C(n,j) * ((n-kappa)/2 - j)^n

which this module evaluates in exact rational arithmetic.  `SlabSpec`
keeps kappa as a Fraction, so the bounding sums, the volume and the
membership test are all exact.  A seeded Monte Carlo estimator serves
as an independent stochastic oracle; it alone compares floats, and it
alone uses numpy, which it imports when called.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DomainError, Frozen, ResourceLimitError
from .rational import RationalLike, as_rational

#: Most sample coordinates (samples * n) one Monte Carlo run may draw;
#: each costs a few nanoseconds, so the cap bounds a run to seconds.
MAX_SAMPLE_COORDINATES = 10**9


class SlabSpec(Frozen):
    """Dimension and diagonal half-width of a slab.

    ``kappa`` is measured in l1 distance along the main diagonal and must
    satisfy 0 < kappa <= n.  It is given as an int, a Fraction or a "P/Q"
    string, as `as_rational` accepts, and kept as a Fraction, so both
    bounding sums are exact.
    """

    __slots__ = _fields = ("n", "kappa")

    n: int
    kappa: Fraction

    def __init__(self, n: int, kappa: RationalLike) -> None:
        if type(n) is not int or n < 1:
            raise DomainError(f"dimension must be a positive integer, got {n!r}")
        try:
            exact = as_rational(kappa)
        except DomainError as exc:
            raise DomainError(
                f'kappa must be an int, Fraction or "P/Q" string, got {kappa!r}'
            ) from exc
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kappa", exact)
        if not (0 < exact <= n):
            raise DomainError(f"kappa must lie in (0, n] = (0, {n}], got {exact}")

    @property
    def lower_sum(self) -> Fraction:
        return (self.n - self.kappa) / 2

    @property
    def upper_sum(self) -> Fraction:
        return (self.n + self.kappa) / 2


class MonteCarloResult(NamedTuple):
    estimate: float
    half_width_99: float


def slab_volume_exact(spec: SlabSpec) -> Fraction:
    """Exact volume of the slab as a Fraction, by inclusion-exclusion over
    corner simplices.

    The floor index and the n-th powers are evaluated with Fractions,
    where floats would round near integer floor boundaries.
    """
    n = spec.n
    t = spec.lower_sum
    total = Fraction(0)
    for j in range(math.floor(t) + 1):
        total += (-1) ** j * math.comb(n, j) * (t - j) ** n
    volume = 1 - Fraction(2, math.factorial(n)) * total
    if not 0 < volume <= 1:
        raise AssertionError(f"volume {volume} outside (0, 1]; formula bug")
    return volume


def slab_membership(x: Sequence[Fraction | float], spec: SlabSpec) -> bool:
    """Whether x lies in the closed slab.

    Exact for float coordinates too: each converts to the Fraction of
    its value, so the coordinate sum is never rounded.
    """
    if len(x) != spec.n:
        raise DomainError(f"point has {len(x)} coordinates, spec has n={spec.n}")
    for c in x:
        if not 0 <= c <= 1:
            raise DomainError(f"coordinate {c!r} outside [0, 1]")
    s = sum(map(Fraction, x))
    return spec.lower_sum <= s <= spec.upper_sum


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
