"""CLI contract: subcommands, exit codes, schemas, determinism."""

import io
import itertools
import json
import math
import random
import re
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import polyline_oracle as oracle
from chainlab import ResourceLimitError, format_rational
from chainlab.cli import run
from chainlab.slab_volume import MAX_SAMPLE_COORDINATES

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


SUBCOMMANDS = (
    "volume", "whitney", "converge", "maxchain", "scd",
    "ksperner", "chain", "raster-slab", "verify", "chainbuild",
)

USAGE = """usage: chainlab SUBCOMMAND [options]

subcommands:
  volume       exact and Monte Carlo slab volume
  whitney      Whitney numbers of the grid poset and top-k sums
  converge     table of whitney-sum ratios against the slab volume
  maxchain     maximum-weight chain in a weighted grid
  scd          symmetric chain decomposition
  ksperner     k-Sperner bound (SCD-certified, optionally brute-forced)
  chain        length / decompose of a monotone polyline file
  raster-slab  rasterise the slab to a cell set file
  verify       end-to-end proof-chain verification of a cell set
  chainbuild   certified chain through a chain of dense cubes

Run `chainlab SUBCOMMAND --help` for details.
"""


def check_schema(name, text):
    schema = json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())
    payload = json.loads(text)
    jsonschema.validate(payload, schema)
    return payload


class TestVolume:
    def test_exact_example(self):
        code, out, _ = invoke(["volume", "--n", "2", "--kappa", "1/1"])
        assert code == 0
        payload = check_schema("volume", out)
        assert payload["exact"] == "3/4"
        assert payload["mc"] is None

    def test_with_monte_carlo(self):
        code, out, _ = invoke(
            ["volume", "--n", "2", "--kappa", "1/1", "--mc", "10000", "--seed", "5"]
        )
        assert code == 0
        payload = check_schema("volume", out)
        assert abs(payload["mc"]["estimate"] - 0.75) < 0.05

    def test_domain_error_exit_two(self):
        code, out, err = invoke(["volume", "--n", "2", "--kappa", "3/1"])
        assert code == 2
        assert out == ""
        check_schema("error", err)

    def test_dimension_cap_exit_three(self):
        code, _, err = invoke(["volume", "--n", "100", "--kappa", "1/2"])
        assert code == 3
        assert json.loads(err)["error"]["code"] == "resource"

    def test_output_past_digit_limit_exit_three(self):
        # The volume is computed; its 3000-digit denominator cubed is not printable.
        code, out, err = invoke(["volume", "--n", "2", "--kappa", "1/1" + "0" * 3000])
        assert (code, out) == (3, "")
        assert check_schema("error", err)["error"]["code"] == "resource"

    def test_format_rational_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert format_rational(Fraction(10**limit - 1, 2)) == f"{10**limit - 1}/2"
        for numerator, denominator in ((10**limit, 3), (-(10**limit), 3), (1, 10**limit)):
            with pytest.raises(ResourceLimitError):
                format_rational(Fraction(numerator, denominator))

    def test_determinism(self):
        argv = ["volume", "--n", "3", "--kappa", "2/3", "--mc", "5000", "--seed", "1"]
        assert invoke(argv) == invoke(argv)

    def test_negative_seed_exit_two(self):
        code, out, err = invoke(
            ["volume", "--n", "2", "--kappa", "1", "--mc", "1000", "--seed", "-3"]
        )
        assert (code, out) == (2, "")
        payload = check_schema("error", err)
        assert payload["error"]["message"] == "seed must be a non-negative integer, got -3"

    def test_monte_carlo_cap_exit_three(self):
        # Refused before any sample is drawn: at a few ns a coordinate,
        # 2 * 10**14 draws would run for days.
        code, out, err = invoke(
            ["volume", "--n", "2", "--kappa", "1", "--mc", "100000000000000"]
        )
        assert (code, out) == (3, "")
        assert check_schema("error", err)["error"]["code"] == "resource"
        # The cap counts coordinates: samples * n, here one past it.
        samples = MAX_SAMPLE_COORDINATES // 3 + 1
        code, _, err = invoke(["volume", "--n", "3", "--kappa", "1", "--mc", str(samples)])
        assert code == 3
        assert str(MAX_SAMPLE_COORDINATES) in json.loads(err)["error"]["message"]


class TestWhitney:
    def test_coefficients(self):
        code, out, _ = invoke(["whitney", "--n", "2", "--m", "3"])
        assert code == 0
        payload = check_schema("whitney", out)
        assert payload["coeffs"] == [1, 2, 3, 2, 1]

    def test_kappa_sum(self):
        code, out, _ = invoke(["whitney", "--n", "2", "--m", "3", "--kappa", "1/1"])
        payload = check_schema("whitney", out)
        assert payload["sum"] == 9
        assert payload["k"] == 5

    def test_k_and_kappa_conflict(self):
        code, _, err = invoke(
            ["whitney", "--n", "2", "--m", "3", "--k", "2", "--kappa", "1/1"]
        )
        assert code == 2
        check_schema("error", err)

    def test_k_and_kappa_conflict_before_table(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_table_bytes": 1000}))
        code, _, err = invoke(
            ["whitney", "--n", "2", "--m", "3000", "--k", "2", "--kappa", "1", "--config", str(config)]
        )
        assert code == 2
        assert check_schema("error", err)["error"]["message"] == "--k and --kappa are mutually exclusive"

    def test_k_without_kappa(self):
        code, out, _ = invoke(["whitney", "--n", "2", "--m", "3", "--k", "2"])
        assert code == 0
        payload = check_schema("whitney", out)
        assert (payload["k"], payload["kappa"], payload["sum"]) == (2, None, 5)

    def test_cli_caps(self, tmp_path):
        # whitney has no caps of its own: n = 17 gets the inclusion-exclusion table.
        n, m = 17, 3
        code, out, _ = invoke(["whitney", "--n", str(n), "--m", str(m)])
        assert code == 0
        want = [
            sum((-1) ** j * math.comb(n, j) * math.comb(r - j * m + n - 1, n - 1)
                for j in range(r // m + 1))
            for r in range(n * (m - 1) + 1)
        ]
        assert check_schema("whitney", out)["coeffs"] == want
        # Config.max_dimension bounds --n on every subcommand that takes it.
        output = tmp_path / "cells.json"
        for argv in (
            ["volume", "--kappa", "1"],
            ["whitney", "--m", "2"],
            ["converge", "--kappa", "1", "--m-list", "2"],
            ["scd", "--m", "2"],
            ["ksperner", "--m", "2", "--k", "1"],
            ["raster-slab", "--M", "2", "--kappa", "1", "--mode", "inner", "-o", str(output)],
        ):
            code, out, err = invoke(argv + ["--n", "65"])
            assert (code, out) == (3, ""), argv
            assert check_schema("error", err)["error"] == {
                "code": "resource", "message": "dimension 65 exceeds the CLI cap 64"
            }
        assert not output.exists()


class TestConverge:
    def test_rows_and_csv(self, tmp_path):
        csv_path = tmp_path / "out.csv"
        code, out, _ = invoke(
            ["converge", "--n", "1", "--kappa", "1/2", "--m-list", "10,100", "--csv", str(csv_path)]
        )
        assert code == 0
        payload = check_schema("converge", out)
        assert payload["rows"][0]["V"] == 6
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "m,V,ratio,v_n,gap"
        assert len(lines) == 3

    def test_non_integer_m_list_is_usage_error(self):
        code, out, err = invoke(["converge", "--n", "2", "--kappa", "1", "--m-list", "a"])
        assert code == 2
        assert out == ""
        check_schema("error", err)
        assert json.loads(err)["error"]["code"] == "usage"

    def test_table_budget_from_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_table_bytes": 1000}))
        argv = ["--n", "2", "--config", str(config)]
        code, _, _ = invoke(["whitney", "--m", "3000"] + argv)
        assert code == 3
        code, _, err = invoke(["converge", "--kappa", "1", "--m-list", "3000"] + argv)
        assert code == 3
        assert json.loads(err)["error"]["code"] == "resource"

    def test_dimension_cap_as_volume(self):
        for n in ("65", "1500"):
            code, out, err = invoke(["converge", "--n", n, "--kappa", "1", "--m-list", "2"])
            assert (code, out) == (3, "")
            _, _, volume_err = invoke(["volume", "--n", n, "--kappa", "1"])
            assert check_schema("error", err) == json.loads(volume_err)
            assert json.loads(err)["error"]["message"] == f"dimension {n} exceeds the CLI cap 64"


class TestMaxchain:
    def test_weights_file(self, tmp_path):
        weights = {
            "n": 2,
            "m": 2,
            "weights": [
                {"point": [0, 0], "w": "1/1"},
                {"point": [0, 1], "w": "5/1"},
                {"point": [1, 0], "w": "2/1"},
                {"point": [1, 1], "w": "3/1"},
            ],
        }
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(weights))
        code, out, _ = invoke(["maxchain", "--weights", str(path)])
        assert code == 0
        payload = check_schema("maxchain", out)
        assert payload["total"] == "9/1"
        assert payload["witness"] == [[0, 0], [0, 1], [1, 1]]

    @pytest.mark.parametrize("weights", [["5/1", "1/1"], ["1/1", "5/1"]])
    def test_repeated_point_rejected(self, tmp_path, weights):
        path = tmp_path / "weights.json"
        entries = [{"point": [0], "w": w} for w in weights]
        path.write_text(json.dumps({"n": 1, "m": 2, "weights": entries}))
        code, out, err = invoke(["maxchain", "--weights", str(path)])
        assert (code, out) == (2, "")
        assert "point (0,) twice" in check_schema("error", err)["error"]["message"]


    def test_total_past_float_range_exit_three(self, tmp_path):
        path = tmp_path / "weights.json"
        entries = [{"point": [0], "w": "1" + "0" * 400 + "/1"}]
        path.write_text(json.dumps({"n": 1, "m": 2, "weights": entries}))
        code, out, err = invoke(["maxchain", "--weights", str(path)])
        assert (code, out) == (3, "")
        assert check_schema("error", err)["error"] == {
            "code": "resource", "message": "the chain's total weight is too large for a float"
        }

    @staticmethod
    def distinct_denominators(tmp_path, m):
        # The i-th point in row-major order weighs 1/(10^30 + i): m*m distinct
        # 100-bit denominators, whose lcm has about 100*m*m bits.
        path = tmp_path / "weights.json"
        entries = [{"point": [i // m, i % m], "w": f"1/{10**30 + i}"} for i in range(m * m)]
        path.write_text(json.dumps({"n": 2, "m": m, "weights": entries}))
        return ["maxchain", "--weights", str(path)]

    def test_lcm_past_table_budget_exit_three(self, tmp_path):
        # Without the budget the lcm and both lists would take gigabytes.
        argv = self.distinct_denominators(tmp_path, 100)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code, out, err = invoke(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 10
        assert peak < 64 << 20
        assert (code, out) == (3, "")
        error = check_schema("error", err)["error"]
        assert error["code"] == "resource"
        assert re.fullmatch(
            r"2\*100\^2 chain DP integers at \d+ bits or more each exceed the "
            r"268435456-byte table budget",
            error["message"],
        ), error

    def test_lcm_within_table_budget(self, tmp_path):
        m = 45
        code, out, _ = invoke(self.distinct_denominators(tmp_path, m))
        assert code == 0
        best = {}
        for i, j in itertools.product(range(m), repeat=2):
            below = [best[p] for p in ((i - 1, j), (i, j - 1)) if p in best]
            best[i, j] = Fraction(1, 10**30 + i * m + j) + max(below, default=0)
        assert Fraction(check_schema("maxchain", out)["total"]) == best[m - 1, m - 1]

    def test_table_budget_from_config(self, tmp_path):
        # lcm 3 (2 bits), numerator 7 (3 bits), longest chain 5 points (3 bits):
        # 2*3^2 ints of 8 bits, charged 8 // 8 + 32 bytes each, 594 bytes in all.
        weights = tmp_path / "weights.json"
        entries = [{"point": [1, 2], "w": "7/3"}]
        weights.write_text(json.dumps({"n": 2, "m": 3, "weights": entries}))
        config = tmp_path / "config.json"
        argv = ["maxchain", "--weights", str(weights), "--config", str(config)]
        config.write_text(json.dumps({"max_table_bytes": 594}))
        code, out, _ = invoke(argv)
        assert (code, check_schema("maxchain", out)["total"]) == (0, "7/3")
        config.write_text(json.dumps({"max_table_bytes": 593}))
        code, out, err = invoke(argv)
        assert (code, out) == (3, "")
        assert check_schema("error", err)["error"]["message"] == (
            "2*3^2 chain DP integers at 8 bits or more each exceed the 593-byte table budget"
        )


class TestScd:
    def test_counts(self):
        code, out, _ = invoke(["scd", "--n", "2", "--m", "3"])
        payload = check_schema("scd", out)
        assert payload["chain_count"] == 3
        assert payload["chain_lengths"] == [5, 3, 1]
        assert payload["chains"] is None

    def test_print(self):
        code, out, _ = invoke(["scd", "--n", "2", "--m", "2", "--print"])
        payload = check_schema("scd", out)
        assert sorted(len(c) for c in payload["chains"]) == [1, 3]

    def test_lengths_same_with_and_without_print(self):
        for n, m in [(1, 5), (2, 4), (3, 3), (4, 3)]:
            plain = check_schema("scd", invoke(["scd", "--n", str(n), "--m", str(m)])[1])
            printed = check_schema(
                "scd", invoke(["scd", "--n", str(n), "--m", str(m), "--print"])[1]
            )
            assert plain["chain_count"] == printed["chain_count"] == len(printed["chains"])
            assert plain["chain_lengths"] == printed["chain_lengths"]
            assert plain["chain_lengths"] == sorted(
                (len(c) for c in printed["chains"]), reverse=True
            )

    def test_point_cap_exit_three(self):
        code, out, err = invoke(["scd", "--n", "6", "--m", "13"])
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["code"] == "resource"


class TestKsperner:
    def test_bound_and_brute(self):
        code, out, _ = invoke(["ksperner", "--n", "3", "--m", "2", "--k", "1", "--brute"])
        payload = check_schema("ksperner", out)
        assert payload["bound"] == 3
        assert payload["brute"] == 3
        assert payload["match"] is True

    def test_brute_cap_exit_three(self):
        code, _, err = invoke(["ksperner", "--n", "2", "--m", "5", "--k", "1", "--brute"])
        assert code == 3
        assert json.loads(err)["error"]["code"] == "resource"

    def test_k_below_one_exit_two(self):
        code, out, err = invoke(["ksperner", "--n", "2", "--m", "3", "--k", "0"])
        assert (code, out) == (2, "")
        assert check_schema("error", err)["error"] == {
            "code": "domain", "message": "k must be >= 1, got 0"
        }


def _file_coordinate(j, c):
    # Plain integers and unreduced "P/Q" strings load like reduced ones.
    if j == 0:
        return int(c) if c.denominator == 1 else format_rational(c)
    return f"{3 * c.numerator}/{3 * c.denominator}" if j == 1 else format_rational(c)


class TestChain:
    def test_length_and_decompose(self, tmp_path):
        poly = {"n": 2, "vertices": [["0/1", "0/1"], ["1/1", "0/1"], ["1/1", "1/1"]]}
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(poly))
        code, out, _ = invoke(["chain", "length", "--file", str(path)])
        payload = check_schema("chain-length", out)
        assert payload["h1_exact"] == "2/1"
        assert payload["exact"] is True

        code, out, _ = invoke(["chain", "decompose", "--file", str(path)])
        payload = check_schema("chain-decompose", out)
        assert len(payload["pieces"]) == 2
        assert payload["pieces"][0]["s_lo"] == "0/1"

    def test_invalid_polyline(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "vertices": [["1/1", "0/1"], ["0/1", "1/1"]]}))
        code, _, err = invoke(["chain", "length", "--file", str(path)])
        assert code == 2
        check_schema("error", err)

    def test_stdout_matches_fraction_oracle(self, tmp_path):
        rng = random.Random(97)
        path = tmp_path / "poly.json"
        for i in range(40):
            n = rng.randint(1, 4)
            vertices = oracle.random_vertices(rng, n, ("staircase", "skew")[i % 2])
            text = [[_file_coordinate(j, c) for j, c in enumerate(v)] for v in vertices]
            path.write_text(json.dumps({"n": n, "vertices": text}))
            for action in ("length", "decompose"):
                code, out, err = invoke(["chain", action, "--file", str(path)])
                assert (code, err) == (0, "")
                want = oracle.chain_payload(action, n, vertices)
                assert out == json.dumps(want, sort_keys=True) + "\n"
                check_schema(f"chain-{action}", out)

    def test_table_budget_from_config(self, tmp_path):
        # Denominators 1 and 2^70 (71 bits): 6 coordinates charged
        # 71 // 8 + 32 bytes each, 240 bytes in all.
        x = f"1/{2**70}"
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"n": 2, "vertices": [["0/1", "0/1"], [x, "0/1"], [x, "1/1"]]}))
        config = tmp_path / "config.json"
        argv = ["chain", "length", "--file", str(poly), "--config", str(config)]
        config.write_text(json.dumps({"max_table_bytes": 240}))
        code, out, _ = invoke(argv)
        assert (code, check_schema("chain-length", out)["h1_exact"]) == (0, f"{2**70 + 1}/{2**70}")
        config.write_text(json.dumps({"max_table_bytes": 239}))
        code, out, err = invoke(argv)
        assert (code, out) == (3, "")
        assert check_schema("error", err)["error"] == {
            "code": "resource",
            "message": "6 polyline coordinates at 71 bits or more each exceed the 239-byte table budget",
        }

    @pytest.mark.parametrize("first", ["0/1", 0], ids=["whole-list", "per-value"])
    def test_refused_before_numerators_are_scaled(self, tmp_path, first):
        # 2000 vertices over distinct 67-bit denominators: scaled to their
        # lcm (about 134,000 bits), the 4000 numerators would take 67 MB.
        count = 2000
        vertices = [[first, first]]
        for i in range(1, count):
            d = 10**20 + 2 * i + 1
            vertices.append([f"{i * d // count}/{d}"] * 2)
        poly = tmp_path / "poly.json"
        poly.write_text(json.dumps({"n": 2, "vertices": vertices}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_table_bytes": 10**6}))
        tracemalloc.start()
        try:
            code, out, err = invoke(["chain", "length", "--file", str(poly), "--config", str(config)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        error = check_schema("error", err)["error"]
        assert error["code"] == "resource"
        assert re.fullmatch(
            r"4000 polyline coordinates at \d+ bits or more each exceed the 1000000-byte "
            r"table budget",
            error["message"],
        ), error
        assert peak < 8 << 20

    def test_malformed_polyline_files(self, tmp_path):
        path = tmp_path / "bad.json"
        cases = [
            ({"n": "2", "vertices": [["0/1", "0/1"]]}, "n must be an integer"),
            ({"n": True, "vertices": [["0/1"], ["1/1"]]}, "n must be an integer"),
            ({"n": 2, "vertices": [5]}, "5 is not a list"),
            ({"n": 2, "vertices": 5}, "must be a list"),
            ({"n": 2, "vertices": [["1/2", True]]}, "bool is not a rational scalar"),
            ({"n": 2, "vertices": [["1/0", "0/1"]]}, "cannot parse rational from '1/0'"),
            ({"n": 2, "vertices": [["1" * 5000 + "/3", "0/1"]]}, "cannot parse rational"),
            ({"n": 2, "vertices": [["0/1", "3/2"]]}, "coordinate 3/2 outside [0, 1]"),
            ({"n": 2, "vertices": [["1/2", "0/1"], ["1/3", "1/1"]]}, "not componentwise nondecreasing"),
        ]
        for data, message in cases:
            path.write_text(json.dumps(data))
            code, out, err = invoke(["chain", "length", "--file", str(path)])
            assert (code, out) == (2, ""), data
            payload = check_schema("error", err)
            assert message in payload["error"]["message"], data


class TestVerifyPipeline:
    def test_raster_verify_chainbuild(self, tmp_path):
        cells_path = tmp_path / "cells.json"
        code, out, _ = invoke(
            ["raster-slab", "--n", "2", "--M", "40", "--kappa", "1/1",
             "--mode", "inner", "-o", str(cells_path)]
        )
        assert code == 0
        payload = check_schema("raster-slab", out)
        assert cells_path.exists()

        code, out, _ = invoke(
            ["verify", "--set", str(cells_path), "--kappa", "1/1", "--m", "20",
             "--epsilon", "1/100"]
        )
        assert code == 0
        payload = check_schema("verify", out)
        assert payload["claim"]["passed"] is True
        assert payload["whitney_ok"] is True

        # full first coarse column of a 2x2 coarse split of the full cube
        full_path = tmp_path / "full.json"
        full = {
            "n": 1,
            "M": 10,
            "cells": [[j] for j in range(10)],
        }
        full_path.write_text(json.dumps(full))
        cubes_path = tmp_path / "cubes.json"
        cubes_path.write_text(json.dumps({"n": 1, "m": 5, "cubes": [[0], [2], [4]]}))
        code, out, _ = invoke(
            ["chainbuild", "--cubes", str(cubes_path), "--set", str(full_path),
             "--epsilon", "1/10"]
        )
        assert code == 0
        payload = check_schema("chainbuild", out)
        assert payload["passed"] is True

    @pytest.mark.parametrize("M", ["0", "1", "-3", "-100000"])
    def test_raster_slab_resolution_below_two_exit_two(self, tmp_path, M):
        cells_path = tmp_path / "cells.json"
        code, out, err = invoke(
            ["raster-slab", "--n", "2", "--M", M, "--kappa", "1",
             "--mode", "inner", "-o", str(cells_path)]
        )
        assert (code, out) == (2, "")
        error = check_schema("error", err)["error"]
        assert error == {"code": "domain", "message": f"M must be >= 2, got {M}"}
        assert not cells_path.exists()

    def test_raster_slab_grid_state_cap_exit_three(self, tmp_path):
        cells_path = tmp_path / "cells.json"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_grid_states": 15}))
        code, out, err = invoke(
            ["raster-slab", "--n", "2", "--M", "4", "--kappa", "1",
             "--mode", "inner", "-o", str(cells_path), "--config", str(config)]
        )
        assert (code, out) == (3, "")
        error = check_schema("error", err)["error"]
        assert error == {"code": "resource", "message": "4^2 cells exceed the cap 15"}
        assert not cells_path.exists()

    def test_verify_determinism(self, tmp_path):
        cells_path = tmp_path / "cells.json"
        invoke(
            ["raster-slab", "--n", "2", "--M", "20", "--kappa", "1/1",
             "--mode", "inner", "-o", str(cells_path)]
        )
        argv = ["verify", "--set", str(cells_path), "--kappa", "1/1", "--m", "10"]
        assert invoke(argv) == invoke(argv)

    def test_inner_slab_is_feasible(self, tmp_path):
        # its chains carry mass at most 1, and the verdict is exact
        cells_path = tmp_path / "cells.json"
        code, _, _ = invoke(
            ["raster-slab", "--n", "2", "--M", "400", "--kappa", "1",
             "--mode", "inner", "-o", str(cells_path)]
        )
        assert code == 0
        code, out, _ = invoke(["verify", "--set", str(cells_path), "--kappa", "1", "--m", "40"])
        assert code == 0
        check_schema("verify", out)
        assert '"adversarial_lower": "1/1"' in out
        assert '"dp_upper": "1/1"' in out
        assert '"feasibility": "feasible"' in out

    def test_set_at_kappa_is_feasible(self, tmp_path):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({"n": 1, "M": 4, "cells": [[0], [2]]}))
        code, out, _ = invoke(["verify", "--set", str(path), "--kappa", "1/2", "--m", "2"])
        assert code == 0
        payload = check_schema("verify", out)
        assert (payload["adversarial_lower"], payload["dp_upper"]) == ("1/2", "1/2")
        assert payload["feasibility"] == "feasible"

    def test_chain_mass_cap_exit_three(self, tmp_path):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({"n": 2, "M": 10, "cells": [[0, 0]]}))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_fine_states": 120}))
        argv = ["verify", "--set", str(path), "--kappa", "1/2", "--m", "2"]
        code, out, err = invoke(argv + ["--config", str(config)])
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["code"] == "resource"
        config.write_text(json.dumps({"max_fine_states": 121}))
        assert invoke(argv + ["--config", str(config)])[0] == 0

    @pytest.mark.parametrize("M", [10**7, 10**12])
    def test_one_dimensional_set_has_no_chain_mass_cap(self, tmp_path, M, monkeypatch):
        # n = 1 runs no chain-mass DP: the supremum is the measure, at any M.
        path = tmp_path / "cells.json"
        path.write_text(json.dumps({"n": 1, "M": M, "runs": [0, 1]}))
        argv = ["verify", "--set", str(path), "--kappa", "1/2"]
        code, out, err = invoke(argv + ["--m", "2"])
        assert (code, err) == (0, "")
        payload = check_schema("verify", out)
        assert payload["M"] == M
        assert payload["measure"] == payload["dp_upper"] == f"1/{M}"
        assert payload["feasibility"] == "feasible"
        # The coarse stages sweep up to m columns; m = M is refused by the
        # Whitney table's cap before they run.
        from chainlab import verifier

        def refuse(*args, **kwargs):
            raise AssertionError("a coarse stage ran past the table cap")

        monkeypatch.setattr(verifier, "cover_sets", refuse)
        code, out, err = invoke(argv + ["--m", str(M)])
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["message"] == (
            f"coefficient table for n=1, m={M} exceeds the 268435456-byte budget"
        )

    def test_missing_file(self):
        code, _, err = invoke(["verify", "--set", "/nonexistent.json", "--kappa", "1/1", "--m", "4"])
        assert code == 2
        check_schema("error", err)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = invoke(["verify", "--set", str(path), "--kappa", "1/1", "--m", "4"])
        assert code == 2
        check_schema("error", err)

    def _verify_cell_file(self, tmp_path, data):
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(data))
        code, out, err = invoke(["verify", "--set", str(path), "--kappa", "1/1", "--m", "2"])
        assert code == 2
        assert out == ""
        payload = check_schema("error", err)
        assert payload["error"]["code"] == "domain"
        return payload["error"]["message"]

    def test_cell_file_non_integer_header(self, tmp_path):
        message = self._verify_cell_file(tmp_path, {"n": "2", "M": 4, "cells": []})
        assert "n must be an integer" in message
        message = self._verify_cell_file(tmp_path, {"n": 2, "M": 4.0, "cells": []})
        assert "M must be an integer" in message

    def test_cell_file_cells_not_lists(self, tmp_path):
        self._verify_cell_file(tmp_path, {"n": 2, "M": 4, "cells": [1, 2]})
        self._verify_cell_file(tmp_path, {"n": 2, "M": 4, "cells": 7})
        self._verify_cell_file(tmp_path, {"n": 2, "M": 4, "cells": [[[0], [1]]]})

    def test_cell_file_rejects_bool_coordinates(self, tmp_path):
        message = self._verify_cell_file(tmp_path, {"n": 2, "M": 4, "cells": [[True, False]]})
        assert "not an integer" in message

    def test_cell_file_float_coordinate_is_not_an_integer(self, tmp_path):
        message = self._verify_cell_file(tmp_path, {"n": 2, "M": 4, "cells": [[0, 1], [1.0, 0]]})
        assert "not an integer" in message
        assert "outside" not in message

    def test_cell_file_out_of_range_coordinate(self, tmp_path):
        message = self._verify_cell_file(tmp_path, {"n": 2, "M": 4, "cells": [[0, 1], [4, 0]]})
        assert "(4, 0) outside the resolution-4 grid" in message

    def test_malformed_cube_chain_files(self, tmp_path):
        cells_path = tmp_path / "cells.json"
        cells_path.write_text(json.dumps({"n": 2, "M": 4, "cells": [[0, 0], [1, 1]]}))
        path = tmp_path / "cubes.json"
        for data in (
            {"n": 2, "m": 2, "cubes": [1, 2]},
            {"n": 2, "m": 2, "cubes": 7},
            {"n": 2, "m": "2", "cubes": [[0, 0], [1, 1]]},
            {"n": 2, "m": 0, "cubes": [[0, 0], [1, 1]]},
            {"n": 2, "m": 2, "cubes": [[True, 0], [1, 1]]},
            {"n": 2, "m": 2, "cubes": [["a", 0], [1, 1]]},
        ):
            path.write_text(json.dumps(data))
            code, out, err = invoke(
                ["chainbuild", "--cubes", str(path), "--set", str(cells_path), "--epsilon", "1/10"]
            )
            assert (code, out) == (2, ""), data
            check_schema("error", err)

    @pytest.mark.parametrize(
        "cubes",
        [
            {"n": 7, "m": 2, "cubes": [[0], [1]]},
            {"m": 2, "cubes": [[0], [1]]},
            {"n": "x", "m": 2, "cubes": [[0], [1]]},
            {"n": 2, "m": 2, "cubes": []},
        ],
        ids=["n-not-the-cubes", "n-missing", "n-not-an-integer", "n-not-the-cell-set"],
    )
    def test_cube_chain_n_checked(self, tmp_path, cubes):
        cells_path = tmp_path / "cells.json"
        cells_path.write_text(json.dumps({"n": 1, "M": 4, "cells": [[j] for j in range(4)]}))
        path = tmp_path / "cubes.json"
        path.write_text(json.dumps(cubes))
        code, out, err = invoke(
            ["chainbuild", "--cubes", str(path), "--set", str(cells_path), "--epsilon", "1/10"]
        )
        assert (code, out) == (2, "")
        assert check_schema("error", err)["error"]["code"] == "domain"

    def test_cube_chain_coarse_resolution_one(self, tmp_path):
        cells_path = tmp_path / "cells.json"
        cells_path.write_text(json.dumps({"n": 1, "M": 4, "cells": [[j] for j in range(4)]}))
        path = tmp_path / "cubes.json"
        path.write_text(json.dumps({"n": 1, "m": 1, "cubes": [[0]]}))
        code, out, err = invoke(
            ["chainbuild", "--cubes", str(path), "--set", str(cells_path), "--epsilon", "1/10"]
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["m"] == 1

    def test_malformed_weights_files(self, tmp_path):
        path = tmp_path / "weights.json"
        for data, message in (
            ({"n": 2, "m": 2, "weights": [{"point": [True, 0], "w": "1/1"}]}, "not an integer"),
            ({"n": 2, "m": 2, "weights": [5]}, "5 is not a dict"),
            ({"n": 2, "m": 2, "weights": 5}, "must be a list"),
            ({"n": 2, "m": 2, "weights": [{"point": 5, "w": "1/1"}]}, "5 is not a list"),
            ({"n": 2, "m": 2, "weights": [{"point": [[1], 0], "w": "1/1"}]}, "integer coordinates"),
            ({"n": "2", "m": 2, "weights": [{"point": [1, 0], "w": "1/1"}]}, "n must be an integer"),
            ({"n": 2, "m": True, "weights": []}, "m must be an integer"),
            ({"n": 2, "m": 2, "weights": [{"point": [0, 2], "w": "1/1"}]}, "outside [0, 1]"),
        ):
            path.write_text(json.dumps(data))
            code, out, err = invoke(["maxchain", "--weights", str(path)])
            assert (code, out) == (2, ""), data
            payload = check_schema("error", err)
            assert message in payload["error"]["message"], data

    def test_bad_rational_in_weights_file(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"n": 1, "m": 2, "weights": [{"point": [0], "w": "x/y"}]}))
        code, _, err = invoke(["maxchain", "--weights", str(path)])
        assert code == 2
        check_schema("error", err)


#: The well-formed cell files written by hand in this module's tests.
WELL_FORMED_CELL_FILES = [
    {"n": 1, "M": 10, "cells": [[j] for j in range(10)]},
    {"n": 1, "M": 4, "cells": [[0], [2]]},
    {"n": 2, "M": 10, "cells": [[0, 0]]},
    {"n": 2, "M": 4, "cells": [[0, 0], [1, 1]]},
    {"n": 2, "M": 4, "cells": [[0, 0]]},
    {"n": 2, "M": 4, "cells": []},
    {"n": 2, "M": 4, "runs": [0, 2, 5, 6]},
]

#: Cell files the loader rejects for their shape.  Faults that a schema
#: cannot see are left out: a coordinate outside the grid, a run that
#: crosses a row, and 4.0, which JSON Schema counts as an integer.
MALFORMED_CELL_FILES = [
    {"n": "2", "M": 4, "cells": []},
    {"n": 2, "M": 4, "cells": [1, 2]},
    {"n": 2, "M": 4, "cells": 7},
    {"n": 2, "M": 4, "cells": [[[0], [1]]]},
    {"n": 2, "M": 4, "cells": [[True, False]]},
    {"n": 2, "M": 4, "cells": [[0, 1], [-1, 0]]},
    {"n": 2, "M": 4, "runs": 7},
    {"n": 2, "M": 4, "runs": [0, True]},
    {"n": 2, "M": 4, "runs": [0, 1.5]},
    {"n": 2, "M": 4, "runs": [-1, 2]},
    {"n": 2, "M": 4, "cells": [], "runs": []},
    {"n": 2, "M": 4},
    {"M": 4, "runs": []},
]


class TestCellSetSchema:
    def test_written_and_well_formed_files_validate(self, tmp_path):
        schema = json.loads((SCHEMA_DIR / "cellset.schema.json").read_text())
        path = tmp_path / "cells.json"
        for argv in (
            ["--n", "2", "--M", "40", "--kappa", "1", "--mode", "inner"],
            ["--n", "3", "--M", "9", "--kappa", "1/2", "--mode", "outer"],
            ["--n", "2", "--M", "4", "--kappa", "1/8", "--mode", "inner"],
        ):
            assert invoke(["raster-slab", *argv, "-o", str(path)])[0] == 0
            jsonschema.validate(json.loads(path.read_text()), schema)
        for data in WELL_FORMED_CELL_FILES:
            jsonschema.validate(data, schema)
            path.write_text(json.dumps(data))
            assert invoke(["verify", "--set", str(path), "--kappa", "1/2", "--m", "2"])[0] == 0

    @pytest.mark.parametrize("data", MALFORMED_CELL_FILES)
    def test_malformed_files_do_not_validate(self, tmp_path, data):
        schema = json.loads((SCHEMA_DIR / "cellset.schema.json").read_text())
        assert not jsonschema.Draft202012Validator(schema).is_valid(data)
        path = tmp_path / "cells.json"
        path.write_text(json.dumps(data))
        code, out, err = invoke(["verify", "--set", str(path), "--kappa", "1/2", "--m", "2"])
        assert (code, out) == (2, "")
        check_schema("error", err)


class TestUnreadableFiles:
    """Files json cannot read: not UTF-8, an int past the digit limit, nesting too deep."""

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b'{"n": ' + b"7" * 5000 + b"}", b"[" * 100000 + b"]" * 100000],
        ids=["utf16-bom", "long-int", "deep-nesting"],
    )
    def test_every_file_option_exits_two(self, tmp_path, content):
        cells = tmp_path / "cells.json"
        cells.write_text(json.dumps({"n": 2, "M": 4, "cells": [[0, 0]]}))
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        for argv in (
            ["verify", "--set", str(bad), "--kappa", "1", "--m", "2"],
            ["maxchain", "--weights", str(bad)],
            ["chain", "length", "--file", str(bad)],
            ["chainbuild", "--cubes", str(bad), "--set", str(cells), "--epsilon", "1/10"],
            ["volume", "--n", "2", "--kappa", "1", "--config", str(bad)],
        ):
            code, out, err = invoke(argv)
            assert (code, out) == (2, ""), argv
            assert check_schema("error", err)["error"]["code"] == "domain", argv


class TestDispatch:
    def test_unknown_subcommand(self):
        code, out, err = invoke(["frobnicate"])
        assert code == 64
        assert json.loads(err)["error"]["code"] == "usage"

    def test_usage_text(self):
        for argv in ([], ["-h"], ["--help"]):
            assert invoke(argv) == (0, USAGE, "")

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help(self, name, capsys):
        # The help goes to the stream given to `run`, not to sys.stdout.
        code, out, err = invoke([name, "--help"])
        assert (code, err) == (0, "")
        first = out.splitlines()[0]
        assert first.startswith(f"usage: chainlab {name} [-h] [--config CONFIG] "), first
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_without_arguments_is_usage_error(self, name):
        code, out, err = invoke([name])
        assert (code, out) == (2, "")
        assert check_schema("error", err)["error"]["code"] == "usage"

    def test_missing_required_flag(self):
        code, _, err = invoke(["volume", "--n", "2"])
        assert code == 2
        check_schema("error", err)

    def test_config_file(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_dimension": 4}))
        code, _, err = invoke(
            ["volume", "--n", "6", "--kappa", "1/2", "--config", str(config)]
        )
        assert code == 3

    def test_bad_config_key(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        code, _, _ = invoke(["volume", "--n", "2", "--kappa", "1/2", "--config", str(config)])
        assert code == 2

    def test_bad_config_values(self, tmp_path):
        config = tmp_path / "config.json"
        argv = ["volume", "--n", "2", "--kappa", "1", "--mc", "1000", "--config", str(config)]
        for data, message in (
            ({"max_dimension": "x"}, "resource caps must be positive integers, got 'x'"),
            ({"epsilon_denominator_cap": -1}, "resource caps must be positive integers, got -1"),
            ({"max_grid_states": True}, "resource caps must be positive integers, got True"),
        ):
            config.write_text(json.dumps(data))
            code, out, err = invoke(argv)
            assert (code, out) == (2, ""), data
            assert check_schema("error", err)["error"]["message"] == message

    def test_config_not_an_object(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps([1, 2]))
        code, out, err = invoke(["volume", "--n", "2", "--kappa", "1", "--config", str(config)])
        assert (code, out) == (2, "")
        error = check_schema("error", err)["error"]
        assert error == {
            "code": "domain", "message": f"config file {config} does not hold a JSON object"
        }

    def test_config_default_seed(self, tmp_path):
        # The seed is --seed alone, 0 when not given; a config file that
        # names a default seed is refused like any unknown key.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"default_seed": 9}))
        argv = ["volume", "--n", "2", "--kappa", "1", "--mc", "1000"]
        code, out, err = invoke(argv + ["--config", str(config)])
        assert (code, out) == (2, "")
        assert check_schema("error", err)["error"] == {
            "code": "domain", "message": "unknown config keys: ['default_seed']"
        }
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["mc"]["seed"] == 0
        assert (code, out, err) == invoke(argv + ["--seed", "0"])

    def test_bad_config_format(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_grid_states": 0}))
        code, _, err = invoke(["volume", "--n", "2", "--kappa", "1/2", "--config", str(config)])
        assert code == 2
        check_schema("error", err)
