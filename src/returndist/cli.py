"""Command-line interface: analyze, sample, ecdf, and hist subcommands.

Exit codes: 0 success, 1 usage error, 2 data/format error,
3 computation error (degenerate sample, draws that overflow, out of memory)
or any other failure.

A command line of options spelt in full, each with its value after it, is
read from the option table ``_COMMANDS`` without argparse; argparse, loaded
only then, parses any other (help, abbreviations, ``--flag=value``, a path
or choice led by ``-``) and reports every usage error. So of the stdlib
beyond the package's own imports, a successful run loads only ``_json``,
``_csv``, ``_datetime`` and ``_statistics``, each where it is used.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace

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


def _load_returns(args: SimpleNamespace) -> tuple[str, Sequence[float], list[str]]:
    # the name less its last suffix, as pathlib's stem: "a.tar.gz" -> "a.tar"; "foo." and ".rc" kept
    name = os.path.basename(args.input)
    dot = name.rfind(".")
    symbol = name[:dot] if 0 < dot < len(name) - 1 else name
    return symbol, *_read_returns(args.input, args.price_column, args.returns_only)


def _load_and_warn(args: SimpleNamespace) -> tuple[str, Sequence[float]]:
    # analyze carries its warnings in the report; the other readers print them
    symbol, values, warnings = _load_returns(args)
    sys.stderr.writelines(f"returndist: warning: {w}\n" for w in warnings)
    return symbol, values


def _run_analyze(args: SimpleNamespace) -> str:
    symbol, values, warnings = _load_returns(args)
    report = analyze_returns(values, symbol, warnings)
    render = render_report_json if args.format == "json" else render_report_markdown
    return render(report) + "\n"


def _run_sample(args: SimpleNamespace) -> str:
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


def _run_ecdf(args: SimpleNamespace) -> str:
    symbol, values = _load_and_warn(args)
    columns = ecdf_overlay(values)
    return render_ecdf_csv(columns) if args.format == "csv" else render_ecdf_svg(columns, symbol)


def _run_hist(args: SimpleNamespace) -> str:
    if args.bins < 1:
        raise UsageError(f"--bins must be >= 1, got {args.bins}")
    symbol, values = _load_and_warn(args)
    hist = histogram(values, args.bins)
    return render_histogram_json(symbol, hist) + "\n"


_INPUT_OPTIONS = {
    "--input": {"required": True, "help": "CSV file (Yahoo OHLCV export)"},
    "--price-column": {"choices": PRICE_FIELDS, "default": "adj_close",
                       "help": "price field used for returns (default: adj_close)"},
    "--returns-only": {"action": "store_true", "default": False,
                       "help": "input holds one return per line instead of OHLCV rows"},
}
_OUTPUT_OPTION = {"--output": {"required": True}}

# each subcommand's help, runner and options in help order, as add_argument takes
# them: the one table, read by build_parser, _fast_args and main's dispatch
_COMMANDS = {
    "analyze": ("full distribution analysis report", _run_analyze, {
        **_INPUT_OPTIONS, "--format": {"choices": ("json", "markdown"), "default": "json"}}),
    "sample": ("draw seeded synthetic samples", _run_sample, {
        "--dist": {"choices": ("normal", "laplace"), "required": True},
        "--n": {"type": int, "required": True},
        "--seed": {"type": int, "required": True},
        "--mu": {"type": float, "default": 0.0, "help": "location (default 0)"},
        "--sigma": {"type": float, "help": "normal std dev"},
        "--lambda": {"dest": "lam", "type": float, "help": "laplace scale"},
        **_OUTPUT_OPTION}),
    "ecdf": ("ECDF vs fitted CDFs, as CSV or SVG", _run_ecdf, {
        **_INPUT_OPTIONS, "--format": {"choices": ("csv", "svg"), "default": "csv"},
        **_OUTPUT_OPTION}),
    "hist": ("return histogram data as JSON", _run_hist, {
        **_INPUT_OPTIONS, "--bins": {"type": int, "default": 100}, **_OUTPUT_OPTION}),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse  # imported here: only help and usage errors pay for argparse and gettext

    parser = argparse.ArgumentParser(prog="returndist", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, options) in _COMMANDS.items():
        p_command = sub.add_parser(command, help=summary)
        for flag, option in options.items():
            p_command.add_argument(flag, **option)
    return parser


def _fast_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """What build_parser().parse_args(argv) returns, read from _COMMANDS without
    argparse; or None, for argparse to parse or reject, unless each option is
    spelt in full, each value follows its flag, converts by the option's type
    and is one of its choices, no path or choice is led by "-", and every
    required option is given. A repeated option keeps its last value, as in
    argparse. A number led by "-" is read as argparse reads "--mu=-1e-3",
    where argparse itself reads "--mu -1e-3" as two options."""
    try:
        options = _COMMANDS[argv[0]][2]
        given = {}
        words = iter(argv[1:])
        for flag in words:
            option = options[flag]
            if "action" in option:  # store_true: takes no value
                given[flag] = True
                continue
            word = next(words)
            # a path or choice led by "-" goes to argparse, which may read it as an option
            if word.startswith("-") and "type" not in option:
                return None
            given[flag] = option.get("type", str)(word)
            if given[flag] not in option.get("choices", (given[flag],)):
                return None
    except (IndexError, KeyError, StopIteration, ValueError):
        # no subcommand, an unknown one or flag, a flag without its value,
        # or a value its type rejects
        return None
    if not all(flag in given for flag, option in options.items() if option.get("required")):
        return None
    return SimpleNamespace(command=argv[0], **{
        option.get("dest", flag[2:].replace("-", "_")): given.get(flag, option.get("default"))
        for flag, option in options.items()})


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _fast_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 0 after --help and 2 on bad arguments; the contract
            # reserves 2 for data errors and 1 for usage errors
            return exc.code and EXIT_USAGE
    try:
        text = _COMMANDS[args.command][1](args)
        if args.command == "analyze":  # the one subcommand without --output prints its text
            sys.stdout.write(text)
        else:  # opened only now, so a run that raises writes no file
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except MemoryError:  # its message is empty: name the request and its size instead
        size = "".join(f" --{k} {v}" for k, v in vars(args).items() if k in ("n", "bins"))
        print(f"returndist: error: out of memory ({args.command}{size})", file=sys.stderr)
        return EXIT_COMPUTE
    except Exception as exc:  # the CLI contract: one line on stderr, never a traceback
        print(f"returndist: error: {exc}", file=sys.stderr)
        return next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), EXIT_COMPUTE)
    return EXIT_OK
