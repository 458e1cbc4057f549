"""Whole-list "P/Q" reading against the per-value oracle: the reader
itself on adversarial lists, and the polyline and weights loaders on
files with one or two faults at random positions; `polyline` and the
polyline loader against each other, on the same values and budget."""

import math
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyline_oracle as oracle
from chainlab import (
    Config,
    DomainError,
    MonotonePolyline,
    ResourceLimitError,
    WeightedGrid,
    as_rational,
    max_weight_chain,
    polyline,
)
from chainlab import io as chainlab_io
from chainlab.config import int_table_bytes
from chainlab.io import parse_quotients

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


def _mixed_value(c: Fraction, rng: random.Random) -> object:
    # One coordinate as a "P/Q" string (some unreduced), an int or a Fraction.
    kind = rng.choice(("text", "text", "int", "fraction"))
    if kind == "int" and c.denominator == 1:
        return int(c)
    return c if kind == "fraction" else _quotient_text(c, rng)


def _mixed_vertices(rng: random.Random, n: int) -> list[list]:
    vertices = oracle.random_vertices(rng, n, rng.choice(("staircase", "skew")), max_vertices=12)
    return [[_mixed_value(c, rng) for c in v] for v in vertices]


def _is_value_fault(value: object) -> bool:
    try:
        as_rational(value)
    except DomainError:
        return True
    return False


def test_polyline_and_loader_share_one_reader():
    rng = random.Random(103)
    kinds = {"clean": 0, "value fault": 0, "other fault": 0}
    for _ in range(600):
        n = rng.randint(1, 4)
        vertices = _mixed_vertices(rng, n)
        flat = [(i, j) for i, v in enumerate(vertices) for j in range(len(v))]
        for _ in range(rng.choice((0, 1, 1, 2)) if flat else 0):
            i, j = rng.choice(flat)
            vertices[i][j] = rng.choice(FAULTS)
        got = _outcome(lambda v: polyline(v, n), vertices)
        loaded = _outcome(chainlab_io.polyline_from_dict, {"n": n, "vertices": vertices})
        if not isinstance(got, str):
            assert loaded == got, vertices
            kinds["clean"] += 1
        elif any(map(_is_value_fault, chain.from_iterable(vertices))):
            assert loaded == got.replace("DomainError: ", "DomainError: polyline vertex: ", 1)
            kinds["value fault"] += 1
        else:
            assert loaded == got, vertices
            kinds["other fault"] += 1
    assert min(kinds.values()) > 100, kinds


def _charged_lcm(vertices: list[list]) -> int:
    # Plain "P/Q" strings are charged over their denominators as written,
    # any other list over the reduced ones.
    flat = list(chain.from_iterable(vertices))
    if all(type(c) is str for c in flat):
        return math.lcm(*(oracle.quotient(c)[1] for c in flat))
    return math.lcm(*(as_rational(c).denominator for c in flat))


def test_polyline_and_loader_pay_one_budget():
    # At the exact charge both build the polyline; one byte under it, both
    # refuse with the same message.
    rng = random.Random(107)
    refused = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        vertices = _mixed_vertices(rng, n)
        count = sum(map(len, vertices))
        if not count:
            continue
        charge = int_table_bytes(count, _charged_lcm(vertices).bit_length())
        for budget in (charge, charge - 1):
            config = Config(max_table_bytes=budget)
            got = _outcome(lambda v: polyline(v, n, config), vertices)
            data = {"n": n, "vertices": vertices}
            assert _outcome(lambda d: chainlab_io.polyline_from_dict(d, config), data) == got
            if budget == charge:
                assert not isinstance(got, str), got
            else:
                assert re.fullmatch(
                    rf"ResourceLimitError: {count} polyline coordinates at \d+ bits or more "
                    rf"each exceed the {budget}-byte table budget",
                    got,
                ), got
                refused += 1
    assert refused > 100


@pytest.mark.parametrize("first", ["0/1", 0], ids=["whole-list", "per-value"])
def test_budget_refusal_comes_before_scaling(first):
    # 2000 vertices over distinct 67-bit denominators: scaled to their lcm,
    # the 4000 numerators would take about 67 MB.
    count = 2000
    vertices = [[first, first]]
    for i in range(1, count):
        d = 10**20 + 2 * i + 1
        vertices.append([f"{i * d // count}/{d}"] * 2)
    scaled_bytes = int_table_bytes(2 * count, _charged_lcm(vertices).bit_length())
    config = Config(max_table_bytes=10**6)
    message = (
        r"^4000 polyline coordinates at \d+ bits or more each exceed the 1000000-byte "
        r"table budget$"
    )
    for build in (
        lambda: polyline(vertices, 2, config),
        lambda: chainlab_io.polyline_from_dict({"n": 2, "vertices": vertices}, config),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=message):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < scaled_bytes // 16, (peak, scaled_bytes)


def test_budget_refusal_names_one_bits_figure_in_any_order():
    # The lcm is charged one distinct denominator at a time, smallest
    # first, so the B of "at B bits or more" depends on the denominators
    # alone, not on the order the coordinates or weights are listed in.
    rng = random.Random(2027)
    # All 1 mod 2**20: a set of them collides in every slot, so its order
    # follows the order of insertion.
    coordinates = [f"1/{1 + k * 2**20}" for k in range(1, 301)]
    config = Config(max_table_bytes=50_000)
    polyline_messages, weight_messages = set(), set()
    for _ in range(20):
        rng.shuffle(coordinates)
        vertices = [[c] for c in coordinates]
        for build in (
            lambda: polyline(vertices, 1, config),
            lambda: chainlab_io.polyline_from_dict({"n": 1, "vertices": vertices}, config),
            lambda: polyline([[as_rational(c)] for c in coordinates], 1, config),
        ):
            with pytest.raises(ResourceLimitError) as info:
                build()
            polyline_messages.add(str(info.value))
        entries = [{"point": [k, 0], "w": c} for k, c in enumerate(coordinates)]
        grid = chainlab_io.weighted_grid_from_dict({"n": 2, "m": 300, "weights": entries})
        with pytest.raises(ResourceLimitError) as info:
            max_weight_chain(grid, Config(max_table_bytes=10**7))
        weight_messages.add(str(info.value))
    assert len(polyline_messages) == 1 and len(weight_messages) == 1
    assert "bits or more" in polyline_messages.pop() + weight_messages.pop()


#: Inputs on which the JSON scan of the terms falls back to `int`, or on
#: which both refuse: leading zeros, an empty term, a second "/", digits
#: that are not ASCII, a zero denominator, a term past int's limit on
#: string digits, and the empty list.
PARSE_EDGES = (
    ["01/2"], ["00/1"], ["1/2", "007/010"], ["0/1", "00/01"],
    ["/2"], ["3/"], ["1/2", "/"], ["1/2/3"], ["1/2/3", "4"],
    ["١/٢"], ["1/2", "²/3"], ["1/0"], ["0/0"], ["1/2", "3/00"],
    [f"{LONG}/1"], [f"1/{LONG}"], ["1/2", f"0{LONG[1:]}/3"], [],
)


@pytest.mark.parametrize("values", PARSE_EDGES, ids=repr)
def test_parse_quotients_matches_the_int_reader(values):
    # The reader as it ran with one `map(int, ...)` over the terms.
    assert parse_quotients(values) == oracle.parse_quotients_by_int(values)
