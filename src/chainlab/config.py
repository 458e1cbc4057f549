"""Resource caps, and the reader of JSON-object files.

Configuration is explicit: the CLI reads a config file only when given
--config, never from environment variables, so identical invocations
behave identically everywhere.

`int_table_bytes` is the one estimate of an integer table's size that
the table budget charges, and `over_common_denominator` the one builder
of integers over a common denominator under that budget: it hands back
the scaled integers with their lcm, so no caller scales by `lcm // q`.
`read_json_object` reads config and input files alike (`io` imports
`config`, so it cannot live in `io`).
"""

from __future__ import annotations

import json
import math
from itertools import repeat
from operator import floordiv, mul
from typing import Iterable, Sequence

from .errors import DomainError, Frozen, ResourceLimitError


class Config(Frozen):
    """Resource caps; every field has a default."""

    __slots__ = _fields = (
        "max_grid_states",
        "max_fine_states",
        "max_table_bytes",
        "max_dimension",
        "epsilon_denominator_cap",
    )

    #: Cap on m**n for the coarse chain DP and cell enumerations.
    max_grid_states: int
    #: Cap on the fine lattice corners of the staircase DP and on the
    #: (M+1)**n * n(n-1)/2 row-element updates of the layered chain-mass
    #: DP, which runs for n >= 2 (`chainmass.check_chain_mass_cap`).
    max_fine_states: int
    #: Memory budget, in bytes, for the integer tables a command builds:
    #: the Whitney coefficient tables, the chain DP's two lists and a
    #: polyline's numerators (`int_table_bytes` estimates them).
    max_table_bytes: int
    #: Cap on --n, checked by `cli.run` before any subcommand that takes
    #: --n (volume, whitney, converge, scd, ksperner, raster-slab) runs.
    max_dimension: int
    #: Largest denominator tried by the automatic epsilon rule.
    epsilon_denominator_cap: int

    def __init__(
        self,
        max_grid_states: int = 10**7,
        max_fine_states: int = 10**7,
        max_table_bytes: int = 1 << 28,
        max_dimension: int = 64,
        epsilon_denominator_cap: int = 10**6,
    ) -> None:
        object.__setattr__(self, "max_grid_states", max_grid_states)
        object.__setattr__(self, "max_fine_states", max_fine_states)
        object.__setattr__(self, "max_table_bytes", max_table_bytes)
        object.__setattr__(self, "max_dimension", max_dimension)
        object.__setattr__(self, "epsilon_denominator_cap", epsilon_denominator_cap)
        # type() rather than isinstance(): a bool is not a cap.
        for cap in self._values():
            if type(cap) is not int or cap <= 0:
                raise DomainError(f"resource caps must be positive integers, got {cap!r}")

    @classmethod
    def from_file(cls, path: str) -> "Config":
        data = read_json_object(path, "config file")
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def int_table_bytes(count: int, bits: int) -> int:
    """Estimated bytes of `count` Python ints of up to `bits` bits each, as
    charged against `Config.max_table_bytes`."""
    return count * (bits // 8 + 32)


def over_common_denominator(
    numerators: Iterable[int],
    denominators: Sequence[int],
    count: int,
    extra_bits: int,
    what: str,
    config: Config,
) -> tuple[list[int], int]:
    """The rationals numerators[i] / denominators[i] as integers over the
    lcm of the denominators, with that lcm.

    The integers are charged as `count` integers, each of at most as many
    bits as the lcm plus `extra_bits`.  The lcm is built one distinct
    denominator at a time, smallest first, and the charge is checked
    against `config.max_table_bytes` at every step, so a refusal, which
    calls the integers `what` and names a B that depends on the set of
    denominators alone, comes before the full lcm or any scaled integer.
    """
    budget, scale = config.max_table_bytes, 1
    for denominator in sorted({1, *denominators}):
        scale = math.lcm(scale, denominator)
        bits = scale.bit_length() + extra_bits
        if int_table_bytes(count, bits) > budget:
            message = f"{what} at {bits} bits or more each exceed the {budget}-byte table budget"
            raise ResourceLimitError(message)
    return list(map(mul, numerators, map(floordiv, repeat(scale), denominators))), scale


def read_json_object(path: str, what: str) -> dict:
    """The JSON object in the UTF-8 file at `path`, which the messages call `what`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:
            # Bad JSON, bad UTF-8, an int past the digit limit, or nesting too deep.
            raise DomainError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"{what} {path} does not hold a JSON object")
    return data
