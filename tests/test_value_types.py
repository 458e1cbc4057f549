"""The value types: fields, constructors, immutability, equality.

The types that check their arguments are `errors.Frozen` classes; the
result records are named tuples.  Both list their fields in `_fields`,
in constructor order.
"""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

import chainlab
from chainlab import (
    CellSet,
    ChainCertificate,
    ChainOfPoints,
    CoefficientTable,
    Config,
    DomainError,
    EpsilonParams,
    MonotonePolyline,
    SlabSpec,
    WeightedGrid,
    as_rational,
    convergence_table,
    end_to_end_verify,
    polyline,
    whitney_sum,
)
from chainlab.errors import Frozen
from chainlab.cellset import CellRuns
from chainlab.verifier import AdversarialResult
from chainlab.whitney import k_for_kappa

#: Each type's constructor parameters, in order, with their defaults
#: (`None`: required).  All but `points_checked` are the fields.
TYPES = {
    "Config": (
        ("max_grid_states", 10**7),
        ("max_fine_states", 10**7),
        ("max_table_bytes", 1 << 28),
        ("max_dimension", 64),
        ("epsilon_denominator_cap", 10**6),
    ),
    "SlabSpec": (("n", None), ("kappa", None)),
    "CellRuns": (("n", None), ("M", None), ("bounds", None)),
    "CellSet": (("n", None), ("M", None), ("cells", None)),
    "EpsilonParams": (("n", None), ("m", None), ("epsilon", None), ("kappa", None)),
    "ChainOfPoints": (("points", None), ("points_checked", False)),
    "WeightedGrid": (("n", None), ("m", None), ("weights", None), ("points_checked", False)),
    "MonotonePolyline": (("n", None), ("numerators", None), ("denominator", 1)),
    "ChainCertificate": (("polyline", None), ("mass", None), ("guarantee", None)),
    "CoefficientTable": (("n", None), ("m", None), ("coeffs", None)),
    "CoverSets": (("touched", None), ("dense", None)),
    "ClaimCheckReport": tuple(
        (name, None)
        for name in (
            "measure_a", "touched_measure", "dense_measure", "delta", "bound",
            "passed", "slack", "covering_defect", "covering_defect_ok",
        )
    ),
    "VerifyReport": tuple(
        (name, None)
        for name in (
            "n", "m", "kappa", "params", "measure_a", "slab_volume", "chain_mass_sup",
            "touched_count", "dense_count", "whitney_cap", "claim", "whitney_ok",
            "measure_within_volume", "feasibility",
        )
    ),
    "AdversarialResult": (("lower", None), ("witness", None)),
    "MaxChainResult": (("total", None), ("witness", None)),
    "SymmetricChainDecomposition": (("n", None), ("m", None), ("chains", None)),
    "AntidiagonalPiece": (("index", None), ("piece", None), ("s_interval", None)),
    "ConvergenceRow": (("m", None), ("value", None), ("ratio", None), ("volume", None)),
}

_EXTRA = {"CellRuns": CellRuns, "AdversarialResult": AdversarialResult}


def value_type(name):
    return _EXTRA.get(name) or getattr(chainlab, name)


@pytest.mark.parametrize("name", sorted(TYPES))
def test_fields_and_constructor(name):
    cls = value_type(name)
    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, None if p.default is p.empty else p.default) for p in params] == list(
        TYPES[name]
    )
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    init_only = {"points_checked"}
    assert cls._fields == tuple(p.name for p in params if p.name not in init_only)
    assert issubclass(cls, Frozen) != issubclass(cls, tuple)


def samples():
    """One instance of each `Frozen` type, and an equal one built apart."""
    runs = CellRuns(2, 4, [2, 4, 13, 14])
    poly = polyline([(0, 0), (Fraction(1, 2), 1)])
    return [
        (Config(max_dimension=3), Config(10**7, max_dimension=3)),
        (SlabSpec(2, Fraction(1, 2)), SlabSpec(n=2, kappa="1/2")),
        (runs, CellRuns(n=2, M=4, bounds=(2, 4, 13, 14))),
        (CellSet(2, 4, runs), CellSet.from_flat(2, 4, [13, 2, 3])),
        (EpsilonParams(2, 4, Fraction(1, 50), 1), EpsilonParams(2, 4, "1/50", Fraction(1))),
        (ChainOfPoints(((0, 0), (1, 1))), ChainOfPoints(points=((0, 0), (1, 1)))),
        (WeightedGrid(2, 3, {(0, 1): 1}), WeightedGrid(2, 3, {(0, 1): Fraction(1)})),
        (poly, MonotonePolyline(2, [[0, 0], [2, 4]], 4)),
        (ChainCertificate(poly, Fraction(1), Fraction(1, 2)),
         ChainCertificate(polyline([(0, 0), (Fraction(1, 2), 1)]), 1, Fraction(1, 2))),
        (CoefficientTable(2, 2, (1, 2, 1)), CoefficientTable(n=2, m=2, coeffs=(1, 2, 1))),
    ]


@pytest.mark.parametrize("value, twin", samples(), ids=lambda v: type(v).__name__)
def test_frozen_values(value, twin):
    cls = type(value)
    assert value == twin and value is not twin
    assert not value != twin
    assert value != tuple(getattr(value, f) for f in cls._fields)
    if cls is not WeightedGrid:  # its weights are a dict
        assert hash(value) == hash(twin)
    for name in cls._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = 1
    assert not hasattr(value, "__dict__")
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value


def test_repr_names_the_fields():
    assert repr(SlabSpec(2, Fraction(1, 2))) == "SlabSpec(n=2, kappa=Fraction(1, 2))"
    assert repr(Config()) == (
        "Config(max_grid_states=10000000, max_fine_states=10000000, "
        "max_table_bytes=268435456, max_dimension=64, epsilon_denominator_cap=1000000)"
    )
    runs = CellRuns(2, 4, (2, 4, 13, 14))
    assert repr(runs) == "CellRuns(n=2, M=4, cells=3, runs=2)"
    assert repr(CellSet(2, 4, runs)) == f"CellSet(n=2, M=4, cells={runs!r})"


def test_own_equality_of_cell_sets():
    # CellSet compares its runs alone (they carry n and M); CellRuns
    # leaves its derived count out.
    runs = CellRuns(2, 4, (2, 4))
    assert runs.count == len(runs) == 2
    assert CellSet(2, 4, runs) == CellSet(2, 4, [(0, 2), (0, 3)])
    assert CellSet(2, 4, runs) != runs
    assert hash(CellSet(2, 4, runs)) == hash(runs)
    assert len({CellSet(2, 4, runs), CellSet(2, 4, [(0, 2), (0, 3)])}) == 1


#: Library entries that take a rational, each called with `bad` in its place.
RATIONAL_ENTRIES = {
    "EpsilonParams": lambda bad: EpsilonParams(n=2, m=10, epsilon=bad, kappa=1),
    "k_for_kappa": lambda bad: k_for_kappa(2, 10, bad),
    "whitney_sum": lambda bad: whitney_sum(2, 10, bad),
    "convergence_table": lambda bad: convergence_table(2, bad, [10]),
    "end_to_end_verify": lambda bad: end_to_end_verify(CellSet(2, 4, [(0, 0)]), bad, 2),
    "WeightedGrid": lambda bad: WeightedGrid(2, 2, {(0, 0): bad}),
    "polyline": lambda bad: polyline([(0, bad)]),
    "SlabSpec": lambda bad: SlabSpec(2, bad),
}


@pytest.mark.parametrize("entry", RATIONAL_ENTRIES)
@pytest.mark.parametrize("bad", [0.5, True, "abc"], ids=["float", "bool", "string"])
def test_bad_rationals_are_domain_errors(entry, bad):
    with pytest.raises(DomainError):
        RATIONAL_ENTRIES[entry](bad)


def test_as_rational_messages():
    for bad, message in [
        (0.5, "cannot coerce float to an exact rational"),
        (True, "bool is not a rational scalar"),
        ("abc", "cannot parse rational from 'abc'"),
        ("1/0", "cannot parse rational from '1/0'"),
    ]:
        with pytest.raises(DomainError) as info:
            as_rational(bad)
        assert str(info.value) == message
