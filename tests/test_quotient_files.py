"""Whole-list "P/Q" reading against the per-value oracle: the reader
itself on adversarial lists, and the polyline and weights loaders on
files with one or two faults at random positions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyline_oracle as oracle
from chainlab import DomainError, MonotonePolyline, ResourceLimitError, WeightedGrid
from chainlab import io as chainlab_io
from chainlab.rational import parse_quotients

LONG = "1" * 4301  # one digit past int's default limit on string digits

#: Values the whole-list reader must reject, or pass on to `as_rational`.
ODD_VALUES = (
    "-1/2", "+1/2", " 1/2", "1/2 ", "1_0/3", "1/0", "0/0", "1/2/3", "/", "", "/2", "3/",
    "12", "1.5", "1e3", "½", "١/٢", "²/3", "1/²", f"{LONG}/1", f"1/{LONG}",
    0, 3, True, False, 0.5, None, [1, 2],
)

good_quotients = st.builds(
    "{}/{}".format, st.integers(0, 10**30), st.integers(0, 10**30)
).filter(lambda s: not s.endswith("/0")) | st.sampled_from(("0/1", "1/1", "007/010", "0/5"))
any_values = good_quotients | st.sampled_from(ODD_VALUES)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(good_quotients, max_size=8) | st.lists(any_values, max_size=8))
def test_parse_quotients_matches_per_value_oracle(values):
    # Accepted exactly when every value is, and then read as the oracle reads it.
    pairs = list(map(oracle.quotient, values))
    got = parse_quotients(values)
    if None in pairs:
        assert got is None
    else:
        assert got == ([p for p, _ in pairs], [q for _, q in pairs])


def test_parse_quotients_counts_each_slash():
    assert parse_quotients(["1/2/3", "4"]) is None
    assert parse_quotients(["1/2", "3/4"]) == ([1, 3], [2, 4])
    assert parse_quotients([]) == ([], [])


def _outcome(loader, data):
    try:
        return loader(data)
    except (DomainError, ResourceLimitError) as exc:
        return f"{type(exc).__name__}: {exc}"


#: Denominators whose terms have 4301 digits, one past the default
#: limit on printed digits: 10**4300 is printable only once reduced.
HUGE = (3 * 10**4300, 10**4300 + 1)


@st.composite
def polylines(draw):
    n = draw(st.integers(1, 3))
    den = draw(st.sampled_from((1, 2, 12, 97, *HUGE)) | st.integers(1, 10**30))
    coordinate = st.sampled_from((0, den, den // 2, den // 3)) | st.integers(0, den)
    count = draw(st.integers(0, 6))
    columns = [sorted(draw(st.lists(coordinate, min_size=count, max_size=count))) for _ in range(n)]
    return MonotonePolyline(n=n, numerators=list(zip(*columns)), denominator=den)


@settings(max_examples=300, deadline=None)
@given(p=polylines())
def test_polyline_writer_matches_per_value_oracle(p):
    # Unreduced numerators, zeros and unprintable terms: the same text or the same error.
    assert _outcome(chainlab_io.polyline_to_dict, p) == _outcome(oracle.polyline_to_dict, p)


def _quotient_text(c: Fraction, rng: random.Random) -> str:
    scale = rng.choice((1, 1, 1, 2, 7))  # some values not in lowest terms
    return f"{c.numerator * scale}/{c.denominator * scale}"


#: Bad (or merely unusual) coordinates and weights; ints are legal.
FAULTS = ("x/y", "1/0", "-1/2", "3/2", " 1/2", "1/2/3", "١/٢", f"{LONG}/1", 0, 1, True, None, 0.5)


def test_polyline_loader_matches_oracle():
    rng = random.Random(97)
    kinds = {"clean": 0, "error": 0}
    for _ in range(600):
        n = rng.randint(1, 4)
        vertices = oracle.random_vertices(rng, n, rng.choice(("staircase", "skew")), max_vertices=12)
        rows = [[_quotient_text(c, rng) for c in v] for v in vertices]
        data = {"n": n, "vertices": rows}
        flat = [(i, j) for i, v in enumerate(rows) for j in range(len(v))]
        for _ in range(rng.choice((0, 1, 1, 2)) if flat else 0):
            i, j = rng.choice(flat)
            rows[i][j] = rng.choice(FAULTS)
        if rows and rng.random() < 0.1:
            rows[rng.randrange(len(rows))].append("0/1")  # a vertex of n + 1 entries
        if rng.random() < 0.05:
            data["n"] = rng.choice(("3", 0, True, n + 1))
        want = _outcome(oracle.polyline_from_dict, data)
        assert _outcome(chainlab_io.polyline_from_dict, data) == want, data
        kinds["error" if isinstance(want, str) else "clean"] += 1
    assert min(kinds.values()) > 100, kinds


def test_weights_loader_matches_oracle():
    rng = random.Random(101)
    kinds = {"clean": 0, "error": 0}
    for _ in range(600):
        n, m = rng.randint(1, 3), rng.randint(2, 5)
        count = rng.randint(0, min(12, m**n))
        points = rng.sample([[(k // m**j) % m for j in range(n)] for k in range(m**n)], count)
        entries = [
            {"point": p, "w": _quotient_text(Fraction(rng.randint(0, 9), rng.randint(1, 12)), rng)}
            for p in points
        ]
        for _ in range(rng.choice((0, 1, 1, 2)) if entries else 0):
            k = rng.randrange(len(entries))
            fault = rng.choice(("w", "w", "missing", "repeat"))
            if fault == "w":
                entries[k]["w"] = rng.choice(FAULTS)
            elif fault == "missing":
                entries[k].pop("w", None)
            elif k:
                entries[k]["point"] = list(entries[rng.randrange(k)]["point"])
        data = {"n": n, "m": m, "weights": entries}
        want = _outcome(oracle.weighted_grid_from_dict, data)
        got = _outcome(chainlab_io.weighted_grid_from_dict, data)
        assert got == want, data
        if not isinstance(want, str):
            assert list(got.weights.items()) == list(want.weights.items())
            assert set(map(type, got.weights.values())) <= {Fraction}
        kinds["error" if isinstance(want, str) else "clean"] += 1
    assert min(kinds.values()) > 100, kinds


def test_weighted_grid_whole_set_check_keeps_the_loop_wording():
    half = Fraction(1, 2)
    grid = WeightedGrid(n=1, m=3, weights={(0,): half, (2,): Fraction(0)})
    assert grid.weights == {(0,): half, (2,): 0}
    assert WeightedGrid(n=1, m=2, weights={}).weights == {}
    mixed = WeightedGrid(n=1, m=3, weights={(0,): half, (1,): 2, (2,): "3/4"})
    assert list(mixed.weights.values()) == [half, 2, Fraction(3, 4)]
    assert set(map(type, mixed.weights.values())) == {Fraction}
    for weights, message in (
        ({(0,): half, (1,): -half}, r"^negative weight -1/2 at \(1,\)$"),
        ({(0,): 1, (1,): -1}, r"^negative weight -1 at \(1,\)$"),
    ):
        with pytest.raises(DomainError, match=message):
            WeightedGrid(n=1, m=2, weights=weights)
