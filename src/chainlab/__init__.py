"""chainlab: chains, k-Sperner bounds and diagonal slab volumes in the unit cube.

Exact rational arithmetic throughout; floats only for display and for
the Monte Carlo oracle.

`import chainlab` loads no submodule.  Each public name, and each
submodule named in `_EXPORTS`, is resolved on first use (PEP 562
`__getattr__`), which imports only the submodule that defines it, so a
caller pays for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "chain_geometry": (
        "AntidiagonalPiece",
        "MonotonePolyline",
        "antichain_slab_membership",
        "antidiagonal_decompose",
        "coordinate_sum",
        "extremal_chain",
        "h1_length",
        "polyline",
    ),
    "cellset": ("CellSet", "discretize_slab", "measure"),
    "chainmass": ("chain_mass_sup",),
    "config": ("Config",),
    "errors": ("ChainlabError", "DomainError", "ResourceLimitError"),
    "gridposet": (
        "ChainOfPoints",
        "GridPoint",
        "MaxChainResult",
        "SymmetricChainDecomposition",
        "WeightedGrid",
        "is_chain",
        "ksperner_bound_via_scd",
        "ksperner_max_bruteforce",
        "max_weight_chain",
        "symmetric_chain_decomposition",
    ),
    "rational": ("as_rational", "format_rational"),
    "slab_volume": (
        "MonteCarloResult",
        "SlabSpec",
        "slab_membership",
        "slab_volume_exact",
        "slab_volume_montecarlo",
    ),
    "verifier": (
        "ChainCertificate",
        "ClaimCheckReport",
        "CoverSets",
        "EpsilonParams",
        "VerifyReport",
        "build_chain_through_cubes",
        "claim_check",
        "cover_sets",
        "end_to_end_verify",
        "staircase_mass",
    ),
    "whitney": (
        "CoefficientTable",
        "ConvergenceRow",
        "convergence_table",
        "sum_k_largest",
        "whitney_numbers",
        "whitney_sum",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
