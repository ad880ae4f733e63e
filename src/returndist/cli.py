"""Command-line interface: analyze, sample, ecdf, and hist subcommands.

Exit codes: 0 success, 1 usage error, 2 data/format error,
3 computation error (degenerate sample, draws that overflow) or any other failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Sequence

from .distfit import LaplaceParams, NormalParams, sample_laplace, sample_normal
from .errors import DataFormatError, DomainError, InsufficientDataError
from .market_data import PRICE_FIELDS, _read_returns, returns_to_lines
from .report import (
    analyze_returns,
    ecdf_overlay,
    histogram,
    render_ecdf_csv,
    render_ecdf_svg,
    render_histogram_json,
    render_report_json,
    render_report_markdown,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_COMPUTE = 3

MAX_SEED = 2**64


class UsageError(Exception):
    pass


_EXIT_CODES = (
    (UsageError, EXIT_USAGE),
    ((DataFormatError, InsufficientDataError, OSError), EXIT_DATA),
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; the contract reserves 2 for data
    # errors and 1 for usage errors
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="CSV file (Yahoo OHLCV export)")
    parser.add_argument(
        "--price-column",
        choices=PRICE_FIELDS,
        default="adj_close",
        help="price field used for returns (default: adj_close)",
    )
    parser.add_argument(
        "--returns-only",
        action="store_true",
        help="input holds one return per line instead of OHLCV rows",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="returndist", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full distribution analysis report")
    _add_input_options(p_analyze)
    p_analyze.add_argument("--format", choices=("json", "markdown"), default="json")
    p_analyze.set_defaults(run=_run_analyze)

    p_sample = sub.add_parser("sample", help="draw seeded synthetic samples")
    p_sample.add_argument("--dist", choices=("normal", "laplace"), required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--mu", type=float, default=0.0, help="location (default 0)")
    p_sample.add_argument("--sigma", type=float, default=None, help="normal std dev")
    p_sample.add_argument("--lambda", dest="lam", type=float, default=None, help="laplace scale")
    p_sample.add_argument("--output", required=True)
    p_sample.set_defaults(run=_run_sample)

    p_ecdf = sub.add_parser("ecdf", help="ECDF vs fitted CDFs, as CSV or SVG")
    _add_input_options(p_ecdf)
    p_ecdf.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_ecdf.add_argument("--output", required=True)
    p_ecdf.set_defaults(run=_run_ecdf)

    p_hist = sub.add_parser("hist", help="return histogram data as JSON")
    _add_input_options(p_hist)
    p_hist.add_argument("--bins", type=int, default=100)
    p_hist.add_argument("--output", required=True)
    p_hist.set_defaults(run=_run_hist)

    return parser


def _load_returns(args: argparse.Namespace) -> tuple[str, Sequence[float], list[str]]:
    # the name less its last suffix, as pathlib's stem: "a.tar.gz" -> "a.tar"; "foo." and ".rc" kept
    name = os.path.basename(args.input)
    dot = name.rfind(".")
    symbol = name[:dot] if 0 < dot < len(name) - 1 else name
    return symbol, *_read_returns(args.input, args.price_column, args.returns_only)


def _load_and_warn(args: argparse.Namespace) -> tuple[str, Sequence[float]]:
    # analyze carries its warnings in the report; the other readers print them
    symbol, values, warnings = _load_returns(args)
    sys.stderr.writelines(f"returndist: warning: {w}\n" for w in warnings)
    return symbol, values


def _run_analyze(args: argparse.Namespace) -> str:
    symbol, values, warnings = _load_returns(args)
    report = analyze_returns(values, symbol, warnings)
    render = render_report_json if args.format == "json" else render_report_markdown
    return render(report) + "\n"


def _run_sample(args: argparse.Namespace) -> str:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if not 0 <= args.seed < MAX_SEED:
        raise UsageError(f"--seed must be in [0, 2^64), got {args.seed}")
    if args.dist == "normal":
        if args.lam is not None:
            raise UsageError("--lambda applies to the laplace family only")
        family, draw, scale = NormalParams, sample_normal, args.sigma
    else:
        if args.sigma is not None:
            raise UsageError("--sigma applies to the normal family only")
        family, draw, scale = LaplaceParams, sample_laplace, args.lam
    try:  # the params reject a non-finite location and a non-finite or non-positive scale
        params = family(args.mu, 1.0 if scale is None else scale)
    except DomainError as exc:
        raise UsageError(str(exc)) from None
    values = draw(args.n, params, args.seed)
    # a finite scale near the float64 limit still overflows in the tails;
    # such draws would not read back as returns, so none are written
    if not all(map(math.isfinite, values)):
        i, x = next((i, x) for i, x in enumerate(values) if not math.isfinite(x))
        raise DomainError(
            f"draw {i + 1} of {args.n} is not finite ({x}); the location or scale is too large"
        )
    return returns_to_lines(values)


def _run_ecdf(args: argparse.Namespace) -> str:
    symbol, values = _load_and_warn(args)
    columns = ecdf_overlay(values)
    return render_ecdf_csv(columns) if args.format == "csv" else render_ecdf_svg(columns, symbol)


def _run_hist(args: argparse.Namespace) -> str:
    if args.bins < 1:
        raise UsageError(f"--bins must be >= 1, got {args.bins}")
    symbol, values = _load_and_warn(args)
    hist = histogram(values, args.bins)
    return render_histogram_json(symbol, hist) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code is None else int(exc.code)
    try:
        text = args.run(args)
        if args.command == "analyze":  # the one subcommand without --output prints its text
            sys.stdout.write(text)
        else:  # opened only now, so a run that raises writes no file
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except Exception as exc:  # the CLI contract: one line on stderr, never a traceback
        print(f"returndist: error: {exc}", file=sys.stderr)
        return next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), EXIT_COMPUTE)
    return EXIT_OK
