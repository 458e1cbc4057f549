"""Resource caps and CLI defaults, and the reader of JSON-object files.

Configuration is explicit: the CLI reads a config file only when given
--config, never from environment variables, so identical invocations
behave identically everywhere.

`read_json_object` reads config and input files alike (`io` imports
`config`, so it cannot live in `io`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .errors import DomainError


@dataclass(frozen=True)
class Config:
    #: Cap on m**n for the coarse chain DP and cell enumerations.
    max_grid_states: int = 10**7
    #: Cap on the fine lattice corners of the staircase DP and on the
    #: (M+1)**n * max(1, n(n-1)/2) row-element updates of the layered
    #: chain-mass DP (`verifier.check_chain_mass_cap`).
    max_fine_states: int = 10**7
    #: Memory budget for Whitney coefficient tables, in bytes.
    max_table_bytes: int = 1 << 28
    #: Hard cap on the dimension accepted by the volume subcommand.
    max_dimension: int = 64
    default_seed: int = 0
    #: Largest denominator tried by the automatic epsilon rule.
    epsilon_denominator_cap: int = 10**6

    def __post_init__(self) -> None:
        # type() rather than isinstance(): a bool is not a cap or a seed.
        for cap in (
            self.max_grid_states,
            self.max_fine_states,
            self.max_table_bytes,
            self.max_dimension,
            self.epsilon_denominator_cap,
        ):
            if type(cap) is not int or cap <= 0:
                raise DomainError(f"resource caps must be positive integers, got {cap!r}")
        if type(self.default_seed) is not int or self.default_seed < 0:
            raise DomainError(
                f"default_seed must be a non-negative integer, got {self.default_seed!r}"
            )

    @classmethod
    def from_file(cls, path: str) -> "Config":
        data = read_json_object(path, "config file")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DomainError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


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
