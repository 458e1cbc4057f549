"""chainlab command-line interface.

Every subcommand prints a single JSON object on stdout; rational
quantities are "P/Q" strings and floats always ride next to an exact
form when one exists, so output is byte-identical across runs for
identical argv, seed and config.  Exit codes: 0 success, 2 domain or
usage error (machine-readable object on stderr), 3 resource cap
exceeded, 64 unknown subcommand.

Each subcommand is declared once, in `_COMMANDS`: its summary, its
handler and its arguments.  The parser, the usage text and the dispatch
are all read from that table.  Each `_cmd_*` handler imports the
functions it calls when it runs, so a command line started as `python
-m chainlab.cli` (or `python -m chainlab`, or the `chainlab` script)
loads only the modules of its own command: `whitney` never loads a cell
set, and `raster-slab` loads `cellset` but neither `chainmass` nor
`verifier`.  A run builds the argument parser of its own subcommand
only, and an unknown subcommand exits before any parser is built.
Importing this module, as opposed to running it, still loads every
module a command can use (see the end of the file): an in-process
caller such as a layer tracer replaces those modules' attributes after
`import chainlab.cli`, and the handlers look the names up there when
they run.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, TextIO

from .config import Config
from .errors import DomainError, ResourceLimitError
from .rational import as_rational, format_rational

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises `_UsageError` on a usage error, and prints --help on `help_stream`."""

    help_stream: TextIO | None = None  # None: sys.stdout, as argparse does

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)

    def print_help(self, file: TextIO | None = None) -> None:
        super().print_help(file or self.help_stream)


def _rational_arg(text: str) -> Fraction:
    try:
        return as_rational(text)
    except DomainError as exc:
        raise _UsageError(str(exc)) from exc


def _m_list_arg(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise _UsageError(f"--m-list must be comma-separated integers: {exc}") from exc


def _exact_and_float(key: str, value: Fraction) -> dict:
    """`key` as a "P/Q" string and `key`_float as its float twin."""
    return {key: format_rational(value), f"{key}_float": float(value)}


def _emit(payload: dict, stdout: TextIO) -> None:
    stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _check_dimension(n: int, config: Config) -> None:
    if n > config.max_dimension:
        raise ResourceLimitError(f"dimension {n} exceeds the CLI cap {config.max_dimension}")


def _cmd_volume(args: argparse.Namespace, config: Config) -> dict:
    from .slab_volume import SlabSpec, slab_volume_exact, slab_volume_montecarlo

    spec = SlabSpec(n=args.n, kappa=args.kappa)
    volume = slab_volume_exact(spec)
    payload = {
        "n": args.n,
        "kappa": format_rational(args.kappa),
        "exact": format_rational(volume),
        "float": float(volume),
        "mc": None,
    }
    if args.mc is not None:
        mc = slab_volume_montecarlo(spec, samples=args.mc, seed=args.seed)
        payload["mc"] = {
            "samples": args.mc,
            "seed": args.seed,
            "estimate": mc.estimate,
            "half_width_99": mc.half_width_99,
        }
    return payload


def _cmd_whitney(args: argparse.Namespace, config: Config) -> dict:
    from .whitney import k_for_kappa, sum_k_largest, whitney_numbers

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
        payload["sum"] = sum_k_largest(table, k)
    elif args.k is not None:
        payload["k"] = args.k
        payload["sum"] = sum_k_largest(table, args.k)
    return payload


def _cmd_converge(args: argparse.Namespace, config: Config) -> dict:
    from .whitney import convergence_table

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
        import csv

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
    from . import io as chainlab_io
    from .gridposet import max_weight_chain

    grid = chainlab_io.weighted_grid_from_dict(chainlab_io.load_json(args.weights))
    result = max_weight_chain(grid, config)
    try:
        total_float = float(result.total)
    except OverflowError as exc:
        raise ResourceLimitError("the chain's total weight is too large for a float") from exc
    return {
        "n": grid.n,
        "m": grid.m,
        "total": format_rational(result.total),
        "total_float": total_float,
        "witness": [list(p) for p in result.witness],
    }


def _cmd_scd(args: argparse.Namespace, config: Config) -> dict:
    from .gridposet import _scd_chain_lengths, symmetric_chain_decomposition

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
        payload["chains"] = [[list(p) for p in c] for c in scd.chains]
    return payload


def _cmd_ksperner(args: argparse.Namespace, config: Config) -> dict:
    from .gridposet import ksperner_bound_via_scd, ksperner_max_bruteforce

    bound = ksperner_bound_via_scd(args.n, args.m, args.k, config)
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
    from . import io as chainlab_io
    from .chain_geometry import antidiagonal_decompose, h1_length

    poly = chainlab_io.polyline_from_dict(chainlab_io.load_json(args.file), config)
    if args.action == "length":
        length = h1_length(poly)
        exact = isinstance(length, Fraction)
        return {
            "n": poly.n,
            "h1_float": float(length),
            "h1_exact": format_rational(length) if exact else None,
            "exact": exact,
        }
    pieces = []
    for piece in antidiagonal_decompose(poly):
        bounds, vertices = (None, None), None
        if piece.piece is not None:
            bounds = tuple(map(format_rational, piece.s_interval))
            vertices = chainlab_io.polyline_to_dict(piece.piece)["vertices"]
        pieces.append(
            {
                "index": piece.index,
                "s_lo": bounds[0],
                "s_hi": bounds[1],
                "piece_h1_float": float(piece.length),
                "vertices": vertices,
            }
        )
    return {"n": poly.n, "h1_float": float(h1_length(poly)), "pieces": pieces}


def _cmd_raster_slab(args: argparse.Namespace, config: Config) -> dict:
    from . import io as chainlab_io
    from .cellset import discretize_slab, measure

    cells = discretize_slab(args.n, args.M, args.kappa, args.mode, config)
    chainlab_io.write_cellset(args.output, cells)
    vol = measure(cells)
    return {
        "n": args.n,
        "M": args.M,
        "kappa": format_rational(args.kappa),
        "mode": args.mode,
        "cell_count": len(cells.cells),
        **_exact_and_float("measure", vol),
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
    from . import io as chainlab_io
    from .chainmass import check_chain_mass_cap
    from .verifier import end_to_end_verify

    data = chainlab_io.load_json(args.set)
    # The cap of the chain-mass DP goes by n and M alone: refuse before the set is built.
    check_chain_mass_cap(*chainlab_io.cellset_grid(data), config)
    cells = chainlab_io.cellset_from_dict(data)
    del data  # free the file's lists before the verification allocates its own
    report = end_to_end_verify(cells, args.kappa, args.m, args.epsilon, config)
    return {
        "n": report.n,
        "m": report.m,
        "M": cells.M,
        "kappa": format_rational(report.kappa),
        "epsilon": format_rational(report.params.epsilon),
        "kappa_prime": format_rational(report.params.kappa_prime),
        "delta": format_rational(report.params.delta),
        **_exact_and_float("measure", report.measure_a),
        **_exact_and_float("slab_volume", report.slab_volume),
        # Both keys hold the exact supremum; the names predate it.
        **_exact_and_float("adversarial_lower", report.chain_mass_sup),
        **_exact_and_float("dp_upper", report.chain_mass_sup),
        "touched_count": report.touched_count,
        "dense_count": report.dense_count,
        "whitney_cap": report.whitney_cap,
        "claim": _claim_payload(report.claim),
        "whitney_ok": report.whitney_ok,
        "measure_within_volume": report.measure_within_volume,
        "feasibility": report.feasibility,
    }


def _cmd_chainbuild(args: argparse.Namespace, config: Config) -> dict:
    from . import io as chainlab_io
    from .verifier import build_chain_through_cubes

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
        **_exact_and_float("mass", cert.mass),
        **_exact_and_float("guarantee", cert.guarantee),
        "passed": cert.mass >= cert.guarantee,
        "polyline": chainlab_io.polyline_to_dict(cert.polyline),
    }


def _arg(*flags: str, **options) -> tuple:
    """One argument of a subcommand: `_build_parser` passes it to add_argument."""
    return flags, options


_N = _arg("--n", type=int, required=True)
_M = _arg("--m", type=int, required=True)
_KAPPA = _arg("--kappa", type=_rational_arg, required=True)

#: Each subcommand, once: its line in the usage text, its handler and its
#: arguments after --config, in the order of its --help.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace, Config], dict], tuple]] = {
    "volume": ("exact and Monte Carlo slab volume", _cmd_volume, (
        _N, _KAPPA, _arg("--mc", type=int, default=None, metavar="SAMPLES"),
        _arg("--seed", type=int, default=0),
    )),
    "whitney": ("Whitney numbers of the grid poset and top-k sums", _cmd_whitney, (
        _N, _M, _arg("--k", type=int, default=None),
        _arg("--kappa", type=_rational_arg, default=None),
    )),
    "converge": ("table of whitney-sum ratios against the slab volume", _cmd_converge, (
        _N, _KAPPA, _arg("--m-list", type=_m_list_arg, required=True, dest="m_list"),
        _arg("--csv", type=str, default=None),
    )),
    "maxchain": ("maximum-weight chain in a weighted grid", _cmd_maxchain, (
        _arg("--weights", type=str, required=True),
    )),
    "scd": ("symmetric chain decomposition", _cmd_scd, (
        _N, _M, _arg("--print", action="store_true", dest="print_chains"),
    )),
    "ksperner": ("k-Sperner bound (SCD-certified, optionally brute-forced)", _cmd_ksperner, (
        _N, _M, _arg("--k", type=int, required=True), _arg("--brute", action="store_true"),
    )),
    "chain": ("length / decompose of a monotone polyline file", _cmd_chain, (
        _arg("action", choices=("length", "decompose")),
        _arg("--file", type=str, required=True),
    )),
    "raster-slab": ("rasterise the slab to a cell set file", _cmd_raster_slab, (
        _N, _arg("--M", type=int, required=True, dest="M"), _KAPPA,
        _arg("--mode", choices=("inner", "outer"), required=True),
        _arg("-o", "--output", type=str, required=True),
    )),
    "verify": ("end-to-end proof-chain verification of a cell set", _cmd_verify, (
        _arg("--set", type=str, required=True), _KAPPA, _M,
        _arg("--epsilon", type=_rational_arg, default=None),
    )),
    "chainbuild": ("certified chain through a chain of dense cubes", _cmd_chainbuild, (
        _arg("--cubes", type=str, required=True), _arg("--set", type=str, required=True),
        _arg("--epsilon", type=_rational_arg, required=True),
    )),
}


def _build_parser(name: str) -> _Parser:
    """The parser of subcommand `name`, a key of `_COMMANDS`; a run builds only its own."""
    p = _Parser(prog=f"chainlab {name}", add_help=True)
    p.add_argument("--config", type=str, default=None)
    for flags, options in _COMMANDS[name][2]:
        p.add_argument(*flags, **options)
    return p


_USAGE = (
    "usage: chainlab SUBCOMMAND [options]\n\nsubcommands:\n"
    + "".join(f"  {name:<12} {summary}\n" for name, (summary, _, _) in _COMMANDS.items())
    + "\nRun `chainlab SUBCOMMAND --help` for details.\n"
)

#: The error code and exit status of each failure `run` reports; the first match counts.
_FAILURES = {
    _UsageError: ("usage", EXIT_DOMAIN),
    DomainError: ("domain", EXIT_DOMAIN),
    ResourceLimitError: ("resource", EXIT_RESOURCE),
    OSError: ("domain", EXIT_DOMAIN),
}


def _error_payload(code: str, message: str) -> str:
    return json.dumps({"error": {"code": code, "message": message}}, sort_keys=True)


def run(argv: list[str], stdout: TextIO = sys.stdout, stderr: TextIO = sys.stderr) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        stdout.write(_USAGE)
        return EXIT_OK
    name = argv[0]
    if name not in _COMMANDS:
        stderr.write(_error_payload("usage", f"unknown subcommand {name!r}") + "\n")
        return EXIT_USAGE
    try:
        parser = _build_parser(name)
        parser.help_stream = stdout
        try:
            args = parser.parse_args(argv[1:])
        except SystemExit as exc:  # --help lands here
            return EXIT_OK if exc.code in (0, None) else EXIT_DOMAIN
        config = Config.from_file(args.config) if args.config else Config()
        if "n" in args:  # each subcommand that takes --n
            _check_dimension(args.n, config)
        payload = _COMMANDS[name][1](args, config)
    except tuple(_FAILURES) as exc:
        code, status = next(v for t, v in _FAILURES.items() if isinstance(exc, t))
        stderr.write(_error_payload(code, str(exc)) + "\n")
        return status
    _emit(payload, stdout)
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
else:
    from . import cellset, chain_geometry, chainmass, gridposet, io  # noqa: F401
    from . import slab_volume, verifier, whitney  # noqa: F401
