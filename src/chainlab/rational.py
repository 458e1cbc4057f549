"""Helpers for exact rational scalars.

All exact quantities in chainlab (volumes, measures, densities, chain
masses) are `fractions.Fraction` values.  Floats appear only as display
approximations and in the Monte Carlo path.  These helpers centralise
parsing and the "P/Q" serialisation used by the CLI and by golden files,
so that no output ever depends on float formatting.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, Fraction]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or "P/Q" string to a Fraction.

    Floats are deliberately rejected: callers that want a float path
    (Monte Carlo) handle floats themselves, and silently rationalising a
    float would fake exactness.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    raise TypeError(f"cannot coerce {type(value).__name__} to an exact rational")


def format_rational(value: Fraction) -> str:
    """Serialise a Fraction as "P/Q" with an explicit denominator."""
    value = Fraction(value)
    return format_quotient(value.numerator, value.denominator)


def format_quotient(numerator: int, denominator: int) -> str:
    """Serialise numerator/denominator (denominator > 0) as "P/Q" in lowest terms."""
    g = math.gcd(numerator, denominator)
    return f"{numerator // g}/{denominator // g}"


def is_rational(value: object) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)
