"""The `Fraction` version of `max_weight_chain`: the reference for the one
that runs on a grid's integer columns.

It is the chain DP as chainlab ran it while a `WeightedGrid` held a dict
of `Fraction` weights by point: the weights scaled by the lcm of their
denominators and placed one point at a time at the mirrored flat index,
and the witness found by scanning the sorted points of positive weight,
comparing `Fraction`s.  The tests require the column version to give the
same total and the same witness.
"""

from __future__ import annotations

from fractions import Fraction

from chainlab import Config, MaxChainResult
from chainlab.config import over_common_denominator
from chainlab.gridposet import dominates, monotone_path_dp


def max_weight_chain(
    n: int, m: int, weights: dict[tuple[int, ...], Fraction], config: Config = Config()
) -> MaxChainResult:
    size = m**n
    values = list(weights.values())
    extra = (n * (m - 1) + 1).bit_length()
    extra += max((w.numerator.bit_length() for w in values), default=0)
    scaled, scale = over_common_denominator(
        [w.numerator for w in values],
        [w.denominator for w in values],
        2 * size, extra, f"2*{m}^{n} chain DP integers", config,
    )
    strides = [m ** (n - 1 - j) for j in range(n)]

    def mirrored(p):
        return size - 1 - sum(c * s for c, s in zip(p, strides))

    weight = [0] * size
    for p, w in zip(weights, scaled):
        weight[mirrored(p)] = w
    up = monotone_path_dp([m] * n, weight)
    top = weight[0]
    optimum = up[-1] + top
    if optimum == 0:
        return MaxChainResult(total=Fraction(0), witness=())
    witness = []
    remaining = optimum
    scan = iter(sorted(p for p, w in weights.items() if w > 0))
    while remaining > 0:
        for p in scan:
            i = mirrored(p)
            if up[i] + top == remaining and (not witness or dominates(p, witness[-1])):
                witness.append(p)
                remaining -= weight[i]
                break
        else:
            raise AssertionError("witness reconstruction failed; DP bug")
    return MaxChainResult(total=Fraction(optimum, scale), witness=tuple(witness))
