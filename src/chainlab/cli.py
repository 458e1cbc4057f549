"""chainlab command-line interface.

Every subcommand prints a single JSON object on stdout; rational
quantities are "P/Q" strings and floats always ride next to an exact
form when one exists, so output is byte-identical across runs for
identical argv, seed and config.  Exit codes: 0 success, 2 domain or
usage error (machine-readable object on stderr), 3 resource cap
exceeded, 64 unknown subcommand.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Callable, TextIO

from . import io as chainlab_io
from .chain_geometry import antidiagonal_decompose, h1_length
from .config import Config
from .errors import DomainError, ResourceLimitError
from .gridposet import (
    _scd_chain_lengths,
    ksperner_bound_via_scd,
    ksperner_max_bruteforce,
    max_weight_chain,
    symmetric_chain_decomposition,
)
from .rational import as_rational, format_rational
from .slab_volume import SlabSpec, slab_volume_exact, slab_volume_montecarlo
from .verifier import (
    build_chain_through_cubes,
    discretize_slab,
    end_to_end_verify,
    measure,
)
from .whitney import convergence_table, k_for_kappa, sum_k_largest, whitney_numbers

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _rational_arg(text: str) -> Fraction:
    try:
        return as_rational(text)
    except (ValueError, TypeError) as exc:
        raise _UsageError(str(exc)) from exc


def _m_list_arg(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise _UsageError(f"--m-list must be comma-separated integers: {exc}") from exc


def _emit(payload: dict, stdout: TextIO) -> None:
    stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _check_dimension(n: int, config: Config) -> None:
    if n > config.max_dimension:
        raise ResourceLimitError(f"dimension {n} exceeds the CLI cap {config.max_dimension}")


def _cmd_volume(args: argparse.Namespace, config: Config) -> dict:
    _check_dimension(args.n, config)
    spec = SlabSpec(n=args.n, kappa=args.kappa)
    result = slab_volume_exact(spec)
    payload = {
        "n": args.n,
        "kappa": format_rational(args.kappa),
        "exact": format_rational(result.exact),
        "float": result.as_float,
        "mc": None,
    }
    if args.mc is not None:
        seed = args.seed if args.seed is not None else config.default_seed
        mc = slab_volume_montecarlo(spec, samples=args.mc, seed=seed)
        payload["mc"] = {
            "samples": args.mc,
            "seed": seed,
            "estimate": mc.estimate,
            "half_width_99": mc.half_width_99,
        }
    return payload


def _cmd_whitney(args: argparse.Namespace, config: Config) -> dict:
    if not 1 <= args.n <= 16:
        raise DomainError(f"whitney CLI accepts 1 <= n <= 16, got {args.n}")
    if not 2 <= args.m <= 10**4:
        raise DomainError(f"whitney CLI accepts 2 <= m <= 10000, got {args.m}")
    if args.k is not None and args.kappa is not None:
        raise DomainError("--k and --kappa are mutually exclusive")
    table = whitney_numbers(args.n, args.m, config)
    payload = {
        "n": args.n,
        "m": args.m,
        "coeffs": list(table.coeffs),
        "k": None,
        "kappa": None,
        "sum": None,
    }
    if args.kappa is not None:
        k = k_for_kappa(args.n, args.m, args.kappa)
        payload["kappa"] = format_rational(args.kappa)
        payload["k"] = k
        payload["sum"] = sum_k_largest(table, k).value
    elif args.k is not None:
        payload["k"] = args.k
        payload["sum"] = sum_k_largest(table, args.k).value
    return payload


def _cmd_converge(args: argparse.Namespace, config: Config) -> dict:
    _check_dimension(args.n, config)
    rows = convergence_table(args.n, args.kappa, args.m_list, config)
    payload_rows = []
    for row in rows:
        payload_rows.append(
            {
                "m": row.m,
                "V": row.value,
                "ratio": float(row.ratio),
                "ratio_exact": format_rational(row.ratio),
                "v_n": float(row.volume),
                "v_n_exact": format_rational(row.volume),
                "gap": float(row.gap),
                "gap_exact": format_rational(row.gap),
            }
        )
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "V", "ratio", "v_n", "gap"])
            for row in payload_rows:
                writer.writerow(
                    [row["m"], row["V"], row["ratio"], row["v_n"], row["gap"]]
                )
    return {
        "n": args.n,
        "kappa": format_rational(args.kappa),
        "rows": payload_rows,
        "csv": args.csv,
    }


def _cmd_maxchain(args: argparse.Namespace, config: Config) -> dict:
    grid = chainlab_io.weighted_grid_from_dict(chainlab_io.load_json(args.weights))
    result = max_weight_chain(grid, config)
    return {
        "n": grid.n,
        "m": grid.m,
        "total": format_rational(result.total),
        "total_float": float(result.total),
        "witness": [list(p) for p in result.witness.points],
    }


def _cmd_scd(args: argparse.Namespace, config: Config) -> dict:
    # The points of the decomposition are built only when they are printed.
    lengths = _scd_chain_lengths(args.n, args.m)
    payload = {
        "n": args.n,
        "m": args.m,
        "chain_count": len(lengths),
        "chain_lengths": lengths,
        "chains": None,
    }
    if args.print_chains:
        scd = symmetric_chain_decomposition(args.n, args.m)
        payload["chains"] = [[list(p) for p in c.points] for c in scd.chains]
    return payload


def _cmd_ksperner(args: argparse.Namespace, config: Config) -> dict:
    bound = ksperner_bound_via_scd(args.n, args.m, args.k)
    payload = {
        "n": args.n,
        "m": args.m,
        "k": args.k,
        "bound": bound,
        "brute": None,
        "match": None,
    }
    if args.brute:
        brute = ksperner_max_bruteforce(args.n, args.m, args.k)
        payload["brute"] = brute
        payload["match"] = brute == bound
    return payload


def _cmd_chain(args: argparse.Namespace, config: Config) -> dict:
    poly = chainlab_io.polyline_from_dict(chainlab_io.load_json(args.file))
    if args.action == "length":
        length = h1_length(poly)
        exact = isinstance(length, Fraction)
        return {
            "n": poly.n,
            "h1_float": float(length),
            "h1_exact": format_rational(length) if exact else None,
            "exact": exact,
        }
    decomposition = antidiagonal_decompose(poly)
    pieces = []
    for piece in decomposition.pieces:
        if piece.piece is None:
            pieces.append(
                {
                    "index": piece.index,
                    "s_lo": None,
                    "s_hi": None,
                    "piece_h1_float": 0.0,
                    "vertices": None,
                }
            )
            continue
        pieces.append(
            {
                "index": piece.index,
                "s_lo": format_rational(piece.s_interval[0]),
                "s_hi": format_rational(piece.s_interval[1]),
                "piece_h1_float": float(h1_length(piece.piece)),
                "vertices": chainlab_io.polyline_to_dict(piece.piece)["vertices"],
            }
        )
    return {"n": poly.n, "h1_float": float(h1_length(poly)), "pieces": pieces}


def _cmd_raster_slab(args: argparse.Namespace, config: Config) -> dict:
    cells = discretize_slab(args.n, args.M, args.kappa, args.mode, config)
    chainlab_io.write_cellset(args.output, cells)
    vol = measure(cells)
    return {
        "n": args.n,
        "M": args.M,
        "kappa": format_rational(args.kappa),
        "mode": args.mode,
        "cell_count": len(cells.cells),
        "measure": format_rational(vol),
        "measure_float": float(vol),
        "output": args.output,
    }


def _claim_payload(report) -> dict:
    return {
        "measure": format_rational(report.measure_a),
        "touched_measure": format_rational(report.touched_measure),
        "dense_measure": format_rational(report.dense_measure),
        "delta": format_rational(report.delta),
        "bound": format_rational(report.bound),
        "passed": report.passed,
        "slack": format_rational(report.slack),
        "covering_defect": format_rational(report.covering_defect),
        "covering_defect_ok": report.covering_defect_ok,
    }


def _cmd_verify(args: argparse.Namespace, config: Config) -> dict:
    cells = chainlab_io.cellset_from_dict(chainlab_io.load_json(args.set))
    report = end_to_end_verify(cells, args.kappa, args.m, args.epsilon, config)
    return {
        "n": report.n,
        "m": report.m,
        "M": cells.M,
        "kappa": format_rational(report.kappa),
        "epsilon": format_rational(report.params.epsilon),
        "kappa_prime": format_rational(report.params.kappa_prime),
        "delta": format_rational(report.params.delta),
        "measure": format_rational(report.measure_a),
        "measure_float": float(report.measure_a),
        "slab_volume": format_rational(report.slab_volume),
        "slab_volume_float": float(report.slab_volume),
        # Both keys hold the exact supremum; the names predate it.
        "adversarial_lower": format_rational(report.chain_mass_sup),
        "adversarial_lower_float": float(report.chain_mass_sup),
        "dp_upper": format_rational(report.chain_mass_sup),
        "dp_upper_float": float(report.chain_mass_sup),
        "touched_count": report.touched_count,
        "dense_count": report.dense_count,
        "whitney_cap": report.whitney_cap,
        "claim": _claim_payload(report.claim),
        "whitney_ok": report.whitney_ok,
        "measure_within_volume": report.measure_within_volume,
        "feasibility": report.feasibility,
    }


def _cmd_chainbuild(args: argparse.Namespace, config: Config) -> dict:
    cells = chainlab_io.cellset_from_dict(chainlab_io.load_json(args.set))
    cubes, n, m = chainlab_io.cube_chain_from_dict(chainlab_io.load_json(args.cubes))
    if n != cells.n:
        raise DomainError(f"the cube chain has n={n}, the cell set n={cells.n}")
    cert = build_chain_through_cubes(cubes, cells, m, args.epsilon, config)
    return {
        "n": cells.n,
        "m": m,
        "M": cells.M,
        "epsilon": format_rational(args.epsilon),
        "cube_count": len(cubes.points),
        "mass": format_rational(cert.mass),
        "mass_float": float(cert.mass),
        "guarantee": format_rational(cert.guarantee),
        "guarantee_float": float(cert.guarantee),
        "passed": cert.mass >= cert.guarantee,
        "polyline": chainlab_io.polyline_to_dict(cert.polyline),
    }


def _build_parsers() -> dict[str, tuple[_Parser, Callable]]:
    parsers: dict[str, tuple[_Parser, Callable]] = {}

    def new(name: str, handler: Callable) -> _Parser:
        parser = _Parser(prog=f"chainlab {name}", add_help=True)
        parser.add_argument("--config", type=str, default=None)
        parsers[name] = (parser, handler)
        return parser

    p = new("volume", _cmd_volume)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=_rational_arg, required=True)
    p.add_argument("--mc", type=int, default=None, metavar="SAMPLES")
    p.add_argument("--seed", type=int, default=None)

    p = new("whitney", _cmd_whitney)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--kappa", type=_rational_arg, default=None)

    p = new("converge", _cmd_converge)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=_rational_arg, required=True)
    p.add_argument("--m-list", type=_m_list_arg, required=True, dest="m_list")
    p.add_argument("--csv", type=str, default=None)

    p = new("maxchain", _cmd_maxchain)
    p.add_argument("--weights", type=str, required=True)

    p = new("scd", _cmd_scd)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--print", action="store_true", dest="print_chains")

    p = new("ksperner", _cmd_ksperner)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--brute", action="store_true")

    p = new("chain", _cmd_chain)
    p.add_argument("action", choices=("length", "decompose"))
    p.add_argument("--file", type=str, required=True)

    p = new("raster-slab", _cmd_raster_slab)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--M", type=int, required=True, dest="M")
    p.add_argument("--kappa", type=_rational_arg, required=True)
    p.add_argument("--mode", choices=("inner", "outer"), required=True)
    p.add_argument("-o", "--output", type=str, required=True)

    p = new("verify", _cmd_verify)
    p.add_argument("--set", type=str, required=True)
    p.add_argument("--kappa", type=_rational_arg, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--epsilon", type=_rational_arg, default=None)

    p = new("chainbuild", _cmd_chainbuild)
    p.add_argument("--cubes", type=str, required=True)
    p.add_argument("--set", type=str, required=True)
    p.add_argument("--epsilon", type=_rational_arg, required=True)

    return parsers


_USAGE = """usage: chainlab SUBCOMMAND [options]

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


def _error_payload(code: str, message: str) -> str:
    return json.dumps({"error": {"code": code, "message": message}}, sort_keys=True)


def run(argv: list[str], stdout: TextIO = sys.stdout, stderr: TextIO = sys.stderr) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        stdout.write(_USAGE)
        return EXIT_OK
    parsers = _build_parsers()
    name = argv[0]
    if name not in parsers:
        stderr.write(_error_payload("usage", f"unknown subcommand {name!r}") + "\n")
        return EXIT_USAGE
    parser, handler = parsers[name]
    try:
        try:
            args = parser.parse_args(argv[1:])
        except SystemExit as exc:  # --help lands here
            return EXIT_OK if exc.code in (0, None) else EXIT_DOMAIN
        config = Config.from_file(args.config) if args.config else Config()
        payload = handler(args, config)
    except _UsageError as exc:
        stderr.write(_error_payload("usage", str(exc)) + "\n")
        return EXIT_DOMAIN
    except DomainError as exc:
        stderr.write(_error_payload("domain", str(exc)) + "\n")
        return EXIT_DOMAIN
    except ResourceLimitError as exc:
        stderr.write(_error_payload("resource", str(exc)) + "\n")
        return EXIT_RESOURCE
    except OSError as exc:
        stderr.write(_error_payload("domain", str(exc)) + "\n")
        return EXIT_DOMAIN
    _emit(payload, stdout)
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
