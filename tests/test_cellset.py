"""Row-run cell sets: run kernels against tuple oracles (on random and on
fragmented sets, whose runs are single cells), file bytes against run
bounds built from coordinate tuples, the two file forms, representation
limits, exact types, and fuzzers for cell files (both forms) and for
every other input file kind."""

import argparse
import io
import itertools
import json
import random
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cellset_oracle as oracle
from chainlab import (
    CellSet,
    DomainError,
    ResourceLimitError,
    discretize_slab,
    end_to_end_verify,
    staircase_mass,
)
from chainlab import cli, verifier
from chainlab import io as chainlab_io
from chainlab.cli import run
from chainlab.config import Config
from chainlab.cellset import _run_bytes
from chainlab.verifier import _cell_mask, _coarse_counts, _staircase_dp
from conftest import random_cellset

ERROR_SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "schemas" / "error.schema.json").read_text()
)


def flat_index(cell, M):
    flat = 0
    for c in cell:
        flat = flat * M + c
    return flat


def assert_canonical_runs(a):
    """Runs are nonempty, sorted, inside one row, and never touch within a row."""
    bounds = a.cells.bounds
    assert type(bounds) is tuple and len(bounds) % 2 == 0
    assert all(type(b) is int for b in bounds)
    assert list(bounds) == sorted(bounds)
    for i in range(0, len(bounds), 2):
        start, stop = bounds[i], bounds[i + 1]
        assert start < stop
        assert start // a.M == (stop - 1) // a.M
        if i:
            assert bounds[i - 1] < start or start % a.M == 0


def random_box(rng, n, M):
    lo, hi = [], []
    for _ in range(n):
        a, b = sorted(rng.sample(range(M + 1), 2))
        lo.append(a)
        hi.append(b)
    return tuple(lo), tuple(hi)


class TestAgainstTupleOracles:
    def test_rasteriser(self):
        rng = random.Random(8101)
        for _ in range(120):
            n = rng.randint(1, 4)
            M = rng.randint(2, {1: 60, 2: 30, 3: 12, 4: 7}[n])
            kappa = Fraction(rng.randint(1, 12 * n), 12)
            mode = rng.choice(["inner", "outer"])
            a = discretize_slab(n, M, kappa, mode)
            expected = oracle.discretize_slab_cells(n, M, kappa, mode)
            assert a.points() == sorted(expected)
            assert len(a.cells) == len(expected)
            assert list(a.cells) == sorted(flat_index(c, M) for c in expected)
            assert_canonical_runs(a)

    def test_coarse_counts(self):
        rng = random.Random(8102)
        for _ in range(120):
            n = rng.randint(1, 4)
            m = rng.randint(1, 4)
            w = rng.randint(1, {1: 20, 2: 6, 3: 3, 4: 2}[n])
            a = random_cellset(rng, n, max(m * w, 2), density=rng.uniform(0, 1))
            if a.M % m:
                continue
            counts = _coarse_counts(a, m)
            assert counts == oracle.coarse_counts(a.points(), a.M, m)
            assert all(type(c) is int for cube in counts for c in cube)
            assert all(type(v) is int for v in counts.values())

    def test_edge_gains(self):
        rng = random.Random(8103)
        for _ in range(150):
            n = rng.randint(1, 4)
            M = rng.randint(2, {1: 30, 2: 9, 3: 5, 4: 3}[n])
            a = random_cellset(rng, n, M, density=rng.uniform(0, 1))
            if rng.random() < 0.3:
                lo, hi = (0,) * n, (M,) * n
            else:
                lo, hi = random_box(rng, n, M)
            # Every edge scores the mask of the corner it leaves.
            assert _cell_mask(a, lo, hi) == oracle.cell_mask(frozenset(a.points()), M, lo, hi)

    def test_staircase_path(self):
        # Boxes start below M on every axis, as both callers' boxes do, and
        # some are flat (extent 1) on some axes.
        rng = random.Random(8108)
        for _ in range(200):
            n = rng.randint(1, 4)
            M = rng.randint(2, {1: 30, 2: 9, 3: 5, 4: 3}[n])
            a = random_cellset(rng, n, M, density=rng.uniform(0, 1))
            if rng.random() < 0.3:
                lo, hi = (0,) * n, (M,) * n
            else:
                lo, hi = random_box(rng, n, M)
                hi = tuple(l if rng.random() < 0.3 else h for l, h in zip(lo, hi))
            expected = oracle.staircase_path(frozenset(a.points()), M, lo, hi)
            assert _staircase_dp(a, lo, hi, 10**6) == expected

    def test_membership(self):
        rng = random.Random(8104)
        for _ in range(30):
            n = rng.randint(1, 3)
            M = rng.randint(2, 6)
            a = random_cellset(rng, n, M, density=rng.uniform(0, 1))
            members = frozenset(a.points())
            for cell in itertools.product(range(-1, M + 1), repeat=n):
                assert (cell in a) == (cell in members)
            assert (0,) * (n + 1) not in a
        # A non-integer coordinate must not land on another cell's flat
        # index: (0.5, 0) would give 0.5 * 4 + 0 = 2, the index of (0, 2).
        a = CellSet(2, 4, [[0, 2], [1, 0]])
        assert (0.5, 0) not in a
        assert (1.0, 0) not in a
        assert (Fraction(1, 2), 0) not in a
        assert ("0", 2) not in a
        assert (True, 0) in a  # bools are ints, as in a frozenset of tuples
        assert (np.int64(0), np.int64(2)) in a


def checkerboard(n, M):
    return CellSet(n, M, [c for c in itertools.product(range(M), repeat=n) if sum(c) % 2 == 0])


class TestFragmentedSets:
    """Sets whose runs are single cells: every kernel meets one run per cell."""

    CASES = [(1, 9), (2, 11), (2, 12), (3, 6), (4, 4)]

    @pytest.mark.parametrize("n, M", CASES)
    def test_checkerboard_kernels(self, tmp_path, n, M):
        a = checkerboard(n, M)
        members = frozenset(a.points())
        assert len(a.cells.bounds) == 2 * len(a.cells) == 2 * len(members)
        assert_canonical_runs(a)
        for m in range(1, M + 1):
            if M % m == 0:
                assert _coarse_counts(a, m) == oracle.coarse_counts(a.points(), M, m)
        rng = random.Random(8107 + n * M)
        for lo, hi in [((0,) * n, (M,) * n)] + [random_box(rng, n, M) for _ in range(10)]:
            assert _cell_mask(a, lo, hi) == oracle.cell_mask(members, M, lo, hi)
        for cell in itertools.product(range(-1, M + 1), repeat=n):
            assert (cell in a) == (cell in members)
        path = tmp_path / "cells.json"
        chainlab_io.write_cellset(str(path), a)
        assert path.read_text(encoding="utf-8") == oracle.cell_file_text(n, M, members)
        assert chainlab_io.cellset_from_dict(chainlab_io.load_json(str(path))) == a

    def test_long_row_bytes_in_bounded_memory(self):
        # One row of 10^5 runs: its bytes are joined 1024 stretches at a
        # time, so the temporary memory stays near twice the 0.2 MB result
        # (a single join of all the stretches peaks near 19 MiB).
        M = 2 * 10**5
        a = checkerboard(1, M)
        tracemalloc.start()
        try:
            row = _run_bytes(a.cells.bounds, 0, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row == b"\x01\x00" * (M // 2)
        assert peak < 2 * 2**20

    def test_row_bytes_across_join_pieces(self):
        # oracle: one membership test per cell, on ranges that cross the
        # 1024-bound pieces at every offset
        rng = random.Random(2311)
        for _ in range(20):
            M = rng.randint(2000, 6000)
            members = frozenset(c for c in range(M) if rng.random() < rng.uniform(0.2, 0.8))
            bounds = CellSet(1, M, [(c,) for c in members]).cells.bounds
            for _ in range(10):
                start = rng.randint(0, M)
                stop = rng.randint(start, M)
                expected = bytes(c in members for c in range(start, stop))
                assert _run_bytes(bounds, start, stop) == expected

    @pytest.mark.parametrize("n, M", [(2, 20), (2, 21), (3, 9), (4, 6)])
    def test_one_cell_per_row_rasters(self, tmp_path, n, M):
        # kappa = n/M leaves one coordinate sum, so one cell per row.
        a = discretize_slab(n, M, Fraction(n, M), "inner")
        expected = oracle.discretize_slab_cells(n, M, Fraction(n, M), "inner")
        assert a.points() == sorted(expected)
        assert len(a.cells.bounds) == 2 * len(a.cells) == 2 * len(expected) > 0
        assert_canonical_runs(a)
        path = tmp_path / "cells.json"
        chainlab_io.write_cellset(str(path), a)
        assert path.read_text(encoding="utf-8") == oracle.cell_file_text(n, M, expected)


class TestRepresentation:
    def test_flat_index_storage(self):
        a = CellSet(2, 4, [[3, 1], [0, 2], [3, 1], [1, 0], [0, 3]])
        assert a.cells.bounds == (2, 4, 4, 5, 13, 14)
        assert list(a.cells) == [2, 3, 4, 13]
        assert len(a.cells) == 4
        with pytest.raises(TypeError):
            a.cells[0] = 5
        with pytest.raises(AttributeError):
            a.cells = []
        with pytest.raises(AttributeError):
            a.cells.bounds = ()
        assert a.points() == [(0, 2), (0, 3), (1, 0), (3, 1)]
        assert CellSet.from_flat(2, 4, [13, 2, 4, 13, 3]) == a
        assert CellSet(2, 4, a.cells) == a
        assert_canonical_runs(a)
        with pytest.raises(DomainError):
            CellSet(2, 5, a.cells)

    def test_flat_index_input_checked(self):
        with pytest.raises(DomainError):
            CellSet.from_flat(2, 4, [16])
        with pytest.raises(DomainError):
            CellSet.from_flat(2, 4, [-1])
        with pytest.raises(DomainError):
            CellSet.from_flat(2, 4, [[0, 1]])
        with pytest.raises(DomainError):
            CellSet.from_flat(2, 4, [0.0])

    def test_equality_and_hash(self):
        a = CellSet(2, 4, [(0, 1), (1, 1)])
        b = CellSet(2, 4, [[1, 1], [0, 1], [0, 1]])
        assert a == b and hash(a) == hash(b)
        assert a != CellSet(2, 4, [(0, 1)])
        assert a != CellSet(2, 5, [(0, 1), (1, 1)])
        assert CellSet(1, 4, []) != CellSet(2, 4, [])
        assert len({a, b}) == 1

    def test_loader_message_order(self):
        # dimension, then integer type (bools rejected), then range
        cases = [
            ([[0, 9], [0]], "cell (0,) has wrong dimension"),
            ([[0, 9], [True, 0]], "cell (True, 0) has a coordinate that is not an integer"),
            ([[0, 1], [9, 0]], "cell (9, 0) outside the resolution-4 grid"),
            ([[0, [1]], [0]], "cells must be lists of integer coordinates: unhashable type: 'list'"),
            ([1, 2], "cells must be lists of integer coordinates"),
        ]
        for cells, message in cases:
            with pytest.raises(DomainError) as info:
                CellSet(2, 4, cells)
            assert message in str(info.value)

    def test_int64_limit_before_allocation(self):
        CellSet(1, 2**62, [[2**62 - 1]])
        CellSet(3, 2**21 - 1, [])
        for n, M in ((1, 2**63), (2, 2**32), (3, 2**21), (63, 2), (10**6, 2)):
            with pytest.raises(ResourceLimitError):
                CellSet(n, M, [])
        with pytest.raises(ResourceLimitError):
            discretize_slab(2, 2**32, Fraction(1), "inner", Config(max_grid_states=2**70))

    def test_int64_limit_exit_three(self, tmp_path):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({"n": 2, "M": 2**40, "cells": [[0, 0]]}))
        out, err = io.StringIO(), io.StringIO()
        code = run(["verify", "--set", str(path), "--kappa", "1", "--m", "2"], stdout=out, stderr=err)
        assert code == 3
        assert out.getvalue() == ""
        payload = json.loads(err.getvalue())
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["error"]["code"] == "resource"

    def test_staircase_mass_reads_membership(self):
        rng = random.Random(8105)
        from chainlab.verifier import adversarial_chain_search

        for _ in range(10):
            a = random_cellset(rng, 2, 12, density=rng.uniform(0.2, 0.9))
            result = adversarial_chain_search(a)
            assert staircase_mass(a, result.witness) == result.lower


class TestWriteCellset:
    """A written file is json.dumps({"M", "n", "runs"}, sort_keys=True) plus
    a newline, its runs built from the sorted coordinate tuples."""

    @pytest.mark.parametrize(
        "n, M, cells",
        [
            (2, 4, []),
            (1, 10, [[7], [0], [9]]),
            (4, 3, [list(c) for c in itertools.product(range(3), repeat=4) if sum(c) % 3]),
            (2, 5, [[4, 0], [1, 2], [4, 0], [0, 0], [1, 2]]),
        ],
        ids=["empty", "n1", "n4", "duplicates"],
    )
    def test_bytes_equal_json_dump(self, tmp_path, n, M, cells):
        a = CellSet(n, M, cells)
        path = tmp_path / "cells.json"
        chainlab_io.write_cellset(str(path), a)
        text = oracle.cell_file_text(n, M, cells)
        assert path.read_text(encoding="utf-8") == text
        assert chainlab_io.cellset_to_dict(a) == json.loads(text)
        assert chainlab_io.cellset_from_dict(chainlab_io.load_json(str(path))) == a

    def test_slab_rasters(self, tmp_path):
        for n, M, kappa, mode in [(2, 40, Fraction(1), "inner"), (3, 9, Fraction(1, 2), "outer")]:
            a = discretize_slab(n, M, kappa, mode)
            path = tmp_path / "cells.json"
            chainlab_io.write_cellset(str(path), a)
            cells = oracle.discretize_slab_cells(n, M, kappa, mode)
            assert path.read_text(encoding="utf-8") == oracle.cell_file_text(n, M, cells)


def load_file(path, data):
    path.write_text(json.dumps(data))
    return chainlab_io.cellset_from_dict(chainlab_io.load_json(str(path)))


def verify_file(path):
    out, err = io.StringIO(), io.StringIO()
    code = run(["verify", "--set", str(path), "--kappa", "1/2", "--m", "2"], stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestFileForms:
    """A cell file gives its cells as `cells` (coordinate lists) or as
    `runs` (flat run bounds); the two load to one set."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_cells_and_runs_forms_load_equal(self, data):
        n = data.draw(st.integers(1, 4))
        M = data.draw(st.integers(2, {1: 40, 2: 9, 3: 5, 4: 3}[n]))
        cells = data.draw(st.lists(st.lists(st.integers(0, M - 1), min_size=n, max_size=n)))
        runs = oracle.runs_of(cells, M)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cells.json"
            from_cells = load_file(path, {"n": n, "M": M, "cells": cells})
            from_runs = load_file(path, {"n": n, "M": M, "runs": runs})
        assert from_cells == from_runs == CellSet(n, M, cells)
        assert list(from_runs.cells.bounds) == runs
        assert chainlab_io.cellset_to_dict(from_cells) == {"M": M, "n": n, "runs": runs}

    def test_verify_reads_both_forms_to_one_report(self, tmp_path):
        rng = random.Random(8108)
        sets = [discretize_slab(2, 40, Fraction(1), "inner"), discretize_slab(3, 8, Fraction(1, 2), "outer")]
        sets += [random_cellset(rng, n, M, density=rng.uniform(0, 1)) for n, M in [(1, 30), (2, 12), (3, 6)]]
        cells_path, runs_path = tmp_path / "cells.json", tmp_path / "runs.json"
        for a in sets:
            cells_path.write_text(json.dumps({"n": a.n, "M": a.M, "cells": a.points()}))
            chainlab_io.write_cellset(str(runs_path), a)
            assert "runs" in json.loads(runs_path.read_text())
            code, out, err = verify_file(cells_path)
            assert (code, err) == (0, "")
            assert verify_file(runs_path) == (code, out, err)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"runs": [0, 3, 4]}, "run 1 (4,) has no end"),
            ({"runs": [0, True]}, "run 0 (0, True) has a bound that is not an integer"),
            ({"runs": [0, 2, 4, 5.0]}, "run 1 (4, 5.0) has a bound that is not an integer"),
            ({"runs": [0, 2, 3, 3]}, "run 1 (3, 3) is not 0 <= start < end <= 16"),
            ({"runs": [2, 1]}, "run 0 (2, 1) is not 0 <= start < end <= 16"),
            ({"runs": [-1, 2]}, "run 0 (-1, 2) is not 0 <= start < end <= 16"),
            ({"runs": [15, 17]}, "run 0 (15, 17) is not 0 <= start < end <= 16"),
            ({"runs": [0, 1, 3, 6]}, "run 1 (3, 6) crosses the end of a row of 4 cells"),
            ({"runs": [8, 9, 0, 1]}, "run 1 (0, 1) starts before run 0 ends, at 9"),
            ({"runs": [0, 3, 2, 4]}, "run 1 (2, 4) starts before run 0 ends, at 3"),
            ({"runs": [0, 1, 0, 1]}, "run 1 (0, 1) starts before run 0 ends, at 1"),
            ({"runs": [0, 2, 2, 3]}, "run 1 (2, 3) touches run 0 inside a row"),
            ({"runs": 7}, "cell runs must be a list of integers, got 7"),
            ({"runs": [], "cells": []}, "exactly one of 'cells' and 'runs'"),
            ({}, "exactly one of 'cells' and 'runs'"),
        ],
    )
    def test_malformed_runs_exit_two(self, tmp_path, data, message):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({"n": 2, "M": 4, **data}))
        code, out, err = verify_file(path)
        assert (code, out) == (2, "")
        payload = json.loads(err)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert message in payload["error"]["message"]

    def test_runs_touching_at_a_row_boundary(self, tmp_path):
        a = load_file(tmp_path / "cells.json", {"n": 2, "M": 4, "runs": [2, 4, 4, 5, 15, 16]})
        assert a.points() == [(0, 2), (0, 3), (1, 0), (3, 3)]

    def test_chain_mass_cap_before_the_set_is_built(self, tmp_path, monkeypatch):
        # (5001)^2 row-element updates exceed the default cap of 10^7.
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({"n": 2, "M": 5000, "runs": [0, 3]}))

        def refuse(*args):
            raise AssertionError("the set was built")

        monkeypatch.setattr(chainlab_io, "cellset_from_dict", refuse)
        code, out, err = verify_file(path)
        assert (code, out) == (3, "")
        payload = json.loads(err)
        jsonschema.validate(payload, ERROR_SCHEMA)
        assert payload["error"] == {
            "code": "resource",
            "message": "chain-mass DP of 25010001 row-element updates, cap 10000000",
        }
        monkeypatch.setattr(verifier, "cover_sets", refuse)
        monkeypatch.setattr(verifier.EpsilonParams, "auto", refuse)
        with pytest.raises(ResourceLimitError, match="chain-mass DP of 25010001"):
            end_to_end_verify(CellSet.from_flat(2, 5000, [0, 1, 2]), Fraction(1, 2), 2)


def fraction_fields(obj, path="report"):
    """Every Fraction reachable through the fields (`_fields`) of obj."""
    if isinstance(obj, Fraction):
        yield path, obj
    else:
        for name in getattr(type(obj), "_fields", ()):
            yield from fraction_fields(getattr(obj, name), f"{path}.{name}")


class TestExactTypes:
    def test_report_fractions_hold_python_ints(self):
        rng = random.Random(8106)
        sets = [
            discretize_slab(2, 40, Fraction(1), "inner"),
            discretize_slab(3, 12, Fraction(1), "outer"),
            random_cellset(rng, 2, 20, density=0.5),
            CellSet(2, 20, []),
        ]
        for a in sets:
            report = end_to_end_verify(a, Fraction(1), 4)
            found = list(fraction_fields(report))
            assert len(found) > 10
            assert any(name.startswith("report.claim.") for name, _ in found)
            for name, value in found:
                assert type(value.numerator) is int, name
                assert type(value.denominator) is int, name
            for name in ("n", "m", "touched_count", "dense_count", "whitney_cap"):
                assert type(getattr(report, name)) is int, name

    def test_cli_payload_counts_are_int(self, tmp_path):
        config = Config()
        output = str(tmp_path / "cells.json")
        raster = argparse.Namespace(n=2, M=30, kappa=Fraction(1), mode="inner", output=output)
        payload = cli._cmd_raster_slab(raster, config)
        assert type(payload["cell_count"]) is int
        verify = argparse.Namespace(set=output, kappa=Fraction(1), m=6, epsilon=None)
        payload = cli._cmd_verify(verify, config)
        for key in ("n", "m", "M", "touched_count", "dense_count", "whitney_cap"):
            assert type(payload[key]) is int, key


# --- cell-file fuzzing -------------------------------------------------------

_coordinate = st.one_of(
    st.integers(min_value=-2, max_value=7),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=2),
    st.none(),
    st.lists(st.integers(0, 3), max_size=2),
    st.integers(min_value=2**62, max_value=2**70),
)
_cell = st.one_of(st.lists(_coordinate, max_size=4), _coordinate)
_header = st.one_of(
    st.integers(min_value=-1, max_value=6),
    st.sampled_from([True, False, 2.0, "2", None, [2], 2**32, 2**62, 10**30, 10**4000]),
)


@st.composite
def cell_files(draw):
    """A valid cell file with up to three faults or duplicates put in."""
    n = draw(st.integers(1, 3))
    M = draw(st.sampled_from([2, 4, 6, 2**31, 2**62]))
    small = min(M, 6)
    coordinate = st.integers(0, small - 1)
    cells = draw(st.lists(st.lists(coordinate, min_size=n, max_size=n), max_size=12))
    data = {"n": n, "M": M, "cells": cells}
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "header", "cells", "cell", "coordinate", "duplicate"]))
        if kind == "drop":
            data.pop(draw(st.sampled_from(["n", "M", "cells"])), None)
        elif kind == "header":
            data[draw(st.sampled_from(["n", "M"]))] = draw(_header)
        elif kind == "cells":
            data["cells"] = draw(st.one_of(_coordinate, st.just({})))
        elif type(data.get("cells")) is list and data["cells"]:
            cells = data["cells"]
            i = draw(st.integers(0, len(cells) - 1))
            if kind == "cell":
                cells.insert(i, draw(_cell))
            elif kind == "duplicate":
                cells.append(cells[i])
            elif type(cells[i]) is list and cells[i]:
                cells[i] = list(cells[i])
                cells[i][draw(st.integers(0, len(cells[i]) - 1))] = draw(_coordinate)
    return data


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=cell_files())
def test_random_cell_files_exit_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        cells = Path(tmp) / "cells.json"
        cells.write_text(json.dumps(data))
        n = data.get("n") if type(data.get("n")) is int and 1 <= data.get("n") <= 3 else 2
        cubes = Path(tmp) / "cubes.json"
        cubes.write_text(json.dumps({"n": n, "m": 2, "cubes": [[0] * n, [1] * n]}))
        for argv in (
            ["verify", "--set", str(cells), "--kappa", "1/2", "--m", "2"],
            ["chainbuild", "--cubes", str(cubes), "--set", str(cells), "--epsilon", "1/50"],
        ):
            out, err = io.StringIO(), io.StringIO()
            code = run(argv, stdout=out, stderr=err)
            assert code in (0, 2, 3)
            if code:
                assert out.getvalue() == ""
                jsonschema.validate(json.loads(err.getvalue()), ERROR_SCHEMA)
            else:
                assert err.getvalue() == ""
                json.loads(out.getvalue())


_RUN_FAULTS = [
    "odd", "bool", "float", "empty", "range", "cross", "unsorted", "overlap", "touch",
    "both", "neither",
]


@st.composite
def run_files(draw):
    """(data, fault): a valid `runs` cell file with one kind of fault put in."""
    n = draw(st.integers(1, 3))
    M = draw(st.sampled_from([2, 4, 6]))
    point = st.lists(st.integers(0, M - 1), min_size=n, max_size=n)
    cells = draw(st.lists(point, min_size=1, max_size=12))
    runs = oracle.runs_of(cells, M)
    data = {"n": n, "M": M, "runs": runs}
    fault = draw(st.sampled_from(_RUN_FAULTS))
    count = len(runs) // 2
    i = 2 * draw(st.integers(0, count - 1))
    j = draw(st.integers(0, len(runs) - 1))
    if fault == "odd":
        runs.insert(draw(st.integers(0, len(runs))), draw(st.integers(0, M**n)))
    elif fault == "bool":
        runs[j] = draw(st.booleans())
    elif fault == "float":
        runs[j] += draw(st.sampled_from([0.0, 0.5]))
    elif fault == "empty":
        runs[i + 1] = runs[i] - draw(st.integers(0, 2))
    elif fault == "range":
        if draw(st.booleans()):
            runs[0] = -draw(st.integers(1, 3))
        else:
            runs[-1] = M**n + draw(st.integers(1, 3))
    elif fault == "cross":
        runs[i + 1] = (runs[i] // M + 1) * M + draw(st.integers(1, M))
    elif fault in ("unsorted", "overlap"):
        if count == 1:
            runs += runs[:2]
        elif fault == "unsorted":
            i, k = sorted(2 * t for t in draw(st.permutations(range(count)))[:2])
            runs[i : i + 2], runs[k : k + 2] = runs[k : k + 2], runs[i : i + 2]
        else:
            i = min(i, len(runs) - 4)
            runs[i + 2] = runs[i + 1] - 1
    elif fault == "touch":
        long = [t for t in range(0, len(runs), 2) if runs[t + 1] - runs[t] > 1]
        if long:
            t = draw(st.sampled_from(long))
            cut = draw(st.integers(runs[t] + 1, runs[t + 1] - 1))
            runs[t + 1 : t + 1] = [cut, cut]
    elif fault == "both":
        data["cells"] = cells
    else:
        del data["runs"]
    return data, fault


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=run_files())
def test_random_run_files_name_the_first_bad_run(case):
    data, fault = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cells.json"
        path.write_text(json.dumps(data))
        code, out, err = verify_file(path)
    if fault in ("both", "neither"):
        bad, text = True, "exactly one of 'cells' and 'runs'"
    else:
        runs = data["runs"]
        k = oracle.first_bad_run(data["n"], data["M"], runs)
        bad = k is not None
        if bad:
            text = f"cell runs: run {k} {tuple(runs[2 * k : 2 * k + 2])!r} "
    if not bad:
        # A touch fault on a set of single-cell runs changes nothing.
        assert (code, err) == (0, "")
        return
    assert (code, out) == (2, "")
    payload = json.loads(err)
    jsonschema.validate(payload, ERROR_SCHEMA)
    assert text in payload["error"]["message"]


# --- fuzzing every input file kind --------------------------------------------

_LONG_INT = "@@long-int@@"  # replaced in the text by a literal past the digit limit
_odd_value = st.one_of(
    _coordinate,
    st.sampled_from(["1/0", "-1/2", "3/2", "x", {}, 10**30, 10**4000, _LONG_INT]),
)


def _slots(node):
    """Every (container, key) slot of a JSON tree, depth first."""
    keys = node.keys() if type(node) is dict else range(len(node)) if type(node) is list else ()
    for key in keys:
        yield node, key
        yield from _slots(node[key])


@st.composite
def input_files(draw):
    """(kind, n, bytes): a valid input file with faults put in.

    Up to three faults in the tree each replace a value anywhere, drop a
    top-level key or plant an integer literal of more than 4300 digits;
    then the bytes may be spoiled by a UTF-16 byte-order mark, a stray
    byte that is not UTF-8, or a cut.
    """
    kind = draw(st.sampled_from(["cells", "runs", "weights", "polyline", "cubes", "config"]))
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 4))
    point = st.lists(st.integers(0, m - 1), min_size=n, max_size=n)
    if kind == "cells":
        data = {"n": n, "M": 2 * m, "cells": draw(st.lists(point, max_size=6))}
    elif kind == "runs":
        data = {"n": n, "M": 2 * m, "runs": oracle.runs_of(draw(st.lists(point, max_size=6)), 2 * m)}
    elif kind == "weights" and draw(st.booleans()):
        # A grid far past every cap, to be refused by its size alone.
        data = {"n": draw(st.integers(10**4, 10**9)), "m": m, "weights": []}
    elif kind == "weights":
        # Numerators of up to 1000 digits: totals past the float range.
        huge = st.integers(1, 1000).map(lambda digits: "9" * digits + "/7")
        weight = st.one_of(st.sampled_from(["0/1", "1/2", "3"]), huge)
        entry = st.fixed_dictionaries({"point": point, "w": weight})
        data = {"n": n, "m": m, "weights": draw(st.lists(entry, max_size=6))}
    elif kind == "polyline":
        steps = sorted(draw(st.lists(st.integers(0, 3 * n), max_size=5)))
        vertices = [[f"{min(max(s - 3 * j, 0), 3)}/3" for j in range(n)] for s in steps]
        data = {"n": n, "vertices": vertices}
    elif kind == "cubes":
        data = {"n": n, "m": m, "cubes": [[t] * n for t in range(draw(st.integers(0, m)))]}
    else:
        names = list(Config._fields)
        data = draw(st.dictionaries(st.sampled_from(names), st.integers(1, 10**7), max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["value", "drop", "long-int"]))
        slots = list(_slots(data))
        if fault == "drop" and data:
            data.pop(draw(st.sampled_from(sorted(data))))
        elif fault != "drop" and slots:
            node, key = draw(st.sampled_from(slots))
            node[key] = _LONG_INT if fault == "long-int" else draw(_odd_value)
    digits = "-" * draw(st.booleans()) + "9" * draw(st.integers(4301, 6000))
    raw = json.dumps(data).replace(json.dumps(_LONG_INT), digits).encode()
    spoil = draw(st.sampled_from([None, None, None, "bom", "byte", "cut"]))
    at = draw(st.integers(0, len(raw)))
    if spoil == "bom":
        raw = b"\xff\xfe" + raw
    elif spoil == "byte":
        raw = raw[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + raw[at:]
    elif spoil == "cut":
        raw = raw[:at]
    return kind, n, raw


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=input_files())
def test_random_input_files_exit_cleanly(case):
    kind, n, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        path, cells = str(Path(tmp) / "in"), str(Path(tmp) / "cells")
        Path(path).write_bytes(raw)
        # The whole grid, so that every coarse cube a cube chain names is dense.
        full = [list(c) for c in itertools.product(range(12), repeat=n)]
        Path(cells).write_text(json.dumps({"n": n, "M": 12, "cells": full}))
        argvs = {
            "cells": [["verify", "--set", path, "--kappa", "1/2", "--m", "2"]],
            "runs": [["verify", "--set", path, "--kappa", "1/2", "--m", "2"]],
            "weights": [["maxchain", "--weights", path]],
            "polyline": [["chain", action, "--file", path] for action in ("length", "decompose")],
            "cubes": [["chainbuild", "--cubes", path, "--set", cells, "--epsilon", "1/50"]],
            "config": [
                ["whitney", "--n", "2", "--m", "3", "--kappa", "1", "--config", path],
                ["verify", "--set", cells, "--kappa", "1/2", "--m", "2", "--config", path],
            ],
        }[kind]
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            code = run(argv, stdout=out, stderr=err)
            assert code in (0, 2, 3, 64)
            if code:
                assert out.getvalue() == ""
                jsonschema.validate(json.loads(err.getvalue()), ERROR_SCHEMA)
            else:
                assert err.getvalue() == ""
                json.loads(out.getvalue())
