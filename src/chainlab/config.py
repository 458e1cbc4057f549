"""Resource caps, and the reader of JSON-object files.

Configuration is explicit: the CLI reads a config file only when given
--config, never from environment variables, so identical invocations
behave identically everywhere.

`int_table_bytes` is the one estimate of an integer table's size that
the table budget charges.  `read_json_object` reads config and input
files alike (`io` imports `config`, so it cannot live in `io`).
"""

from __future__ import annotations

import json

from .errors import DomainError, Frozen


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
    #: the Whitney coefficient tables and the chain DP's two lists
    #: (`int_table_bytes` estimates them).
    max_table_bytes: int
    #: Hard cap on the dimension accepted by the volume and converge subcommands.
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
