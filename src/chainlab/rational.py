"""Helpers for exact rational scalars.

All exact quantities in chainlab (volumes, measures, densities, chain
masses) are `fractions.Fraction` values.  Floats appear only as display
approximations and in the Monte Carlo path.  These helpers centralise
parsing and the "P/Q" serialisation used by the CLI and by golden files,
so that no output ever depends on float formatting.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import repeat
from operator import floordiv
from typing import Optional, Union

from .errors import DomainError, ResourceLimitError

RationalLike = Union[int, str, Fraction]

# Python prints an int of at most sys.get_int_max_str_digits() decimal
# digits (0: no limit; there is none before Python 3.10.7).  The limit is
# never below 640, and an int below 2**1920 has fewer than 580 digits.
_PRINTABLE_BITS = 1920


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction or "P/Q" string to a Fraction.

    Floats are deliberately rejected: callers that want a float path
    (Monte Carlo) handle floats themselves, and silently rationalising a
    float would fake exactness.  Anything else raises `DomainError`.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot parse rational from {value!r}") from exc
    raise DomainError(f"cannot coerce {type(value).__name__} to an exact rational")


def parse_quotients(values: list) -> Optional[tuple[list[int], list[int]]]:
    """Read a whole list of "P/Q" strings as (numerators, denominators).

    Every value must be a str of ASCII digits, one "/" and Q > 0; then
    each pair is (int(P), int(Q)), unreduced.  The checks run over the
    whole list at C level: the set of types, the count of "/" in each
    value (so that ["1/2/3", "4"] is not read as 1/2 and 3/4), one ASCII
    and one digit test of the joined text, one `map(int, ...)` over its
    terms and one test for a zero denominator.  Any other list gives
    None, and the caller reads its values one at a time with
    `as_rational`.
    """
    if not values:
        return [], []
    if set(map(type, values)) != {str} or set(map(str.count, values, repeat("/"))) != {1}:
        return None
    # Each value holds one "/", so the terms of the joined text alternate P, Q.
    text = "/".join(values)
    if not text.isascii() or not text.replace("/", "").isdigit():
        return None
    try:
        terms = list(map(int, text.split("/")))
    except ValueError:  # an empty term, or one past int's limit on string digits
        return None
    denominators = terms[1::2]
    if 0 in denominators:
        return None
    return terms[0::2], denominators


def format_rational(value: Fraction) -> str:
    """Serialise a Fraction (or an int) as "P/Q", in lowest terms with Q > 0.

    A term with more decimal digits than Python prints raises
    `ResourceLimitError` before any conversion.
    """
    value = Fraction(value)
    p, q = value.numerator, value.denominator
    if p.bit_length() > _PRINTABLE_BITS or q.bit_length() > _PRINTABLE_BITS:
        _check_printable(max(abs(p), q))
    return f"{p}/{q}"


def format_quotients(numerators: list[int], denominator: int) -> list[str]:
    """`format_rational(Fraction(x, denominator))` for each x of `numerators`, in
    whole-list passes: one `map(gcd, ...)`, two of `floordiv`, one size
    check of the largest term and one f-string comprehension (faster
    than `map(str.format, ...)`)."""
    if not numerators:
        return []
    gcds = list(map(math.gcd, numerators, repeat(denominator)))
    ps = list(map(floordiv, numerators, gcds))
    qs = list(map(floordiv, repeat(denominator), gcds))
    largest = max(max(ps), -min(ps), max(qs))
    if largest.bit_length() > _PRINTABLE_BITS:
        _check_printable(largest)
    return [f"{p}/{q}" for p, q in zip(ps, qs)]


def _check_printable(largest: int) -> None:
    # Raise if `largest` (>= 0) has more decimal digits than Python prints.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and largest >= 10**limit:
        raise ResourceLimitError(
            f"a rational with more than {limit} decimal digits is too long to print"
        )
