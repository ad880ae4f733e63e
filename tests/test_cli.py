"""End-to-end CLI tests: commands, formats, and exit codes."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from datetime import date, timedelta
from itertools import chain, permutations
from pathlib import Path

import pytest

import returndist
from returndist import market_data
from returndist.cli import _COMMANDS, _fast_args, _load_returns, build_parser, main
from returndist.distfit import LaplaceParams, Xoshiro256PlusPlus, sample_laplace
from returndist.market_data import OHLCV_HEADER, returns_to_lines, simple_returns

from conftest import (
    mutate,
    ohlcv_csv_from_returns,
    parse_rows_only,
    prices_from_returns,
    row_parser_calls,
    word,
)


@pytest.fixture
def laplace_csv(tmp_path):
    """OHLCV file whose returns are a fixed-seed Laplace sample."""
    returns = sample_laplace(1500, LaplaceParams(mu=0.0, scale=0.008), 2012)
    path = tmp_path / "SYN.csv"
    path.write_text(ohlcv_csv_from_returns(returns), encoding="utf-8")
    return path


class TestAnalyze:
    def test_json_report(self, laplace_csv, capsys):
        assert main(["analyze", "--input", str(laplace_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["symbol"] == "SYN"
        assert payload["n"] == 1500
        assert payload["better_fit"] == "laplace"
        assert payload["shapiro_p"] < 1e-10
        assert payload["excess_kurtosis"] > 1.0
        assert payload["warnings"] == []

    def test_markdown_report(self, laplace_csv, capsys):
        assert main(["analyze", "--input", str(laplace_csv), "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| metric")
        assert "| better_fit" in out

    def test_markdown_and_json_values_agree(self, laplace_csv, capsys):
        main(["analyze", "--input", str(laplace_csv)])
        payload = json.loads(capsys.readouterr().out)
        main(["analyze", "--input", str(laplace_csv), "--format", "markdown"])
        markdown = capsys.readouterr().out
        for key in ("skew", "excess_kurtosis", "shapiro_w", "ks_laplace", "aic_normal"):
            cell = next(
                line.split("|")[2].strip()
                for line in markdown.splitlines()
                if line.startswith(f"| {key} ")
            )
            assert float(cell) == float(f"{payload[key]:.6g}")

    def test_price_column_selection(self, tmp_path, capsys):
        # adj_close halved relative to close: same returns either way,
        # but build distinct columns to prove the flag is honored
        lines = [",".join(OHLCV_HEADER)]
        closes = [100.0, 101.0, 99.5, 102.0, 103.5, 101.25, 104.0]
        for i, c in enumerate(closes):
            adj = c * (1.0 + 0.01 * i)
            lines.append(f"2012-01-{3 + i:02d},{c},{c},{c},{c},{adj},10")
        path = tmp_path / "mix.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        main(["analyze", "--input", str(path), "--price-column", "close"])
        by_close = json.loads(capsys.readouterr().out)
        main(["analyze", "--input", str(path), "--price-column", "adj_close"])
        by_adj = json.loads(capsys.readouterr().out)
        assert by_close["normal_fit"]["mean"] != by_adj["normal_fit"]["mean"]

    def test_returns_only_round_trip(self, tmp_path, capsys):
        sample_path = tmp_path / "draws.txt"
        assert main([
            "sample", "--dist", "laplace", "--n", "1200", "--seed", "4",
            "--lambda", "0.01", "--output", str(sample_path),
        ]) == 0
        assert main(["analyze", "--input", str(sample_path), "--returns-only"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 1200
        assert payload["better_fit"] == "laplace"

    def test_null_rows_reported(self, tmp_path, capsys):
        text = ohlcv_csv_from_returns([0.01, -0.02, 0.005, 0.01, -0.01, 0.02, 0.0, 0.01])
        lines = text.splitlines()
        lines.insert(4, "2012-01-20,null,null,null,null,null,null")
        path = tmp_path / "gaps.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["analyze", "--input", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["warnings"]) == 1
        assert "null" in payload["warnings"][0]

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["analyze", "--input", str(tmp_path / "nope.csv")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"\xff\xfe")
        assert main(["analyze", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert "UTF-8" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_single_row_exit_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text(
            ",".join(OHLCV_HEADER) + "\n2012-01-03,1,1,1,1,1,0\n", encoding="utf-8"
        )
        assert main(["analyze", "--input", str(path)]) == 2

    def test_bad_header_exit_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        assert main(["analyze", "--input", str(path)]) == 2

    def test_markdown_with_undecodable_file_name(self, tmp_path):
        # the byte 0xff is not UTF-8: the symbol holds a lone surrogate, shown as U+FFFD
        path = tmp_path / os.fsdecode(b"x\xffy.txt")
        path.write_text("0.01\n-0.02\n0.03\n0.005\n-0.01\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "returndist", "analyze", "--input", str(path),
             "--returns-only", "--format", "markdown"],
            env={**os.environ, "PYTHONPATH": str(Path(returndist.__file__).parent.parent),
                 "PYTHONIOENCODING": "utf-8"},
            capture_output=True,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        row = next(line for line in proc.stdout.splitlines() if line.startswith(b"| symbol "))
        assert row.split(b"|")[2].strip() == "x\ufffdy".encode("utf-8")

    def test_markdown_with_line_break_in_file_name(self, tmp_path, laplace_csv, capsys):
        # a file name may hold LF, which would split the symbol's table line in two
        path = tmp_path / "a\nb.csv"
        path.write_bytes(laplace_csv.read_bytes())
        assert main(["analyze", "--input", str(path), "--format", "markdown"]) == 0
        table = capsys.readouterr().out.splitlines()
        assert len(table) == 19
        assert all(line.startswith("|") and line.endswith("|") for line in table)
        assert table[2].split() == ["|", "symbol", "|", "a\ufffdb", "|"]

    def test_constant_returns_exit_3(self, tmp_path, capsys):
        path = tmp_path / "flat.txt"
        path.write_text("0.01\n" * 50, encoding="utf-8")
        assert main(["analyze", "--input", str(path), "--returns-only"]) == 3

    @pytest.mark.parametrize(
        "data, message",
        [
            ("\ufeff\ufeff0.01\n0.02\n-0.01\n0.03\n0.005\n".encode(),
             "line 1: unparsable return '\\ufeff0.01'"),
            (b"0.01\n0.02\x0c\n-0.01\nbad\n", "line 4: unparsable return 'bad'"),
            ("0.01\n0.02\u2028\n-0.01\nbad\n".encode(), "line 4: unparsable return 'bad'"),
        ],
        ids=["two-boms", "form-feed", "line-separator"],
    )
    def test_returns_file_errors(self, data, message, tmp_path, capsys):
        # one BOM is dropped, and only LF ends a line
        path = tmp_path / "r.txt"
        path.write_bytes(data)
        assert main(["analyze", "--input", str(path), "--returns-only"]) == 2
        assert capsys.readouterr().err == f"returndist: error: {message}\n"

    def test_unknown_flag_exit_1(self, laplace_csv, capsys):
        assert main(["analyze", "--input", str(laplace_csv), "--bogus"]) == 1


class TestSample:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["sample", "--dist", "normal", "--n", "5000", "--seed", "42", "--output"]
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 5000

    def test_single_laplace_value_repeatable(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["sample", "--dist", "laplace", "--n", "1", "--seed", "7", "--output"]
        main(argv + [str(a)])
        main(argv + [str(b)])
        assert a.read_text() == b.read_text()

    def test_fitted_mean_goes_back_into_mu(self, tmp_path, monkeypatch, capsys):
        # the paper's loop, fit then draw: a fitted mean below zero prints as
        # "-8.7...e-05", which argparse alone reads as an option, not a value
        monkeypatch.chdir(tmp_path)
        assert main(["sample", "--dist", "laplace", "--n", "1879", "--seed", "2",
                     "--lambda", "0.006", "--output", "laplace.txt"]) == 0
        assert main(["analyze", "--input", "laplace.txt", "--returns-only"]) == 0
        mu = repr(json.loads(capsys.readouterr().out)["normal_fit"]["mean"])
        assert mu.startswith("-") and "e" in mu
        argv = ["sample", "--dist", "normal", "--n", "1879", "--seed", "9", "--sigma", "0.0085"]
        assert main([*argv, "--mu", mu, "--output", "spaced.txt"]) == 0
        assert main([*argv, f"--mu={mu}", "--output", "joined.txt"]) == 0
        assert capsys.readouterr() == ("", "")
        assert (tmp_path / "spaced.txt").read_bytes() == (tmp_path / "joined.txt").read_bytes()

    def test_usage_errors(self, tmp_path, capsys):
        out = str(tmp_path / "x.txt")
        cases = [
            ["sample", "--dist", "normal", "--n", "0", "--seed", "1", "--output", out],
            ["sample", "--dist", "normal", "--n", "5", "--seed", "-1", "--output", out],
            ["sample", "--dist", "normal", "--n", "5", "--seed", str(2**64), "--output", out],
            ["sample", "--dist", "normal", "--n", "5", "--seed", "1", "--sigma", "0", "--output", out],
            ["sample", "--dist", "normal", "--n", "5", "--seed", "1", "--lambda", "1", "--output", out],
            ["sample", "--dist", "laplace", "--n", "5", "--seed", "1", "--sigma", "1", "--output", out],
            ["sample", "--dist", "laplace", "--n", "5", "--seed", "1", "--lambda", "-2", "--output", out],
            ["sample", "--dist", "cauchy", "--n", "5", "--seed", "1", "--output", out],
        ]
        for dist, flag in (("normal", "--mu"), ("normal", "--sigma"),
                           ("laplace", "--mu"), ("laplace", "--lambda")):
            for value in ("nan", "inf", "-inf"):
                cases.append(["sample", "--dist", dist, "--n", "5", "--seed", "1",
                              f"{flag}={value}", "--output", out])
        for argv in cases:
            assert main(argv) == 1, argv
            capsys.readouterr()

    @pytest.mark.parametrize(
        ("params", "n", "first_bad"),
        [
            (["--dist", "laplace", "--lambda", "1e308"], 2000, 7),
            (["--dist", "normal", "--sigma", "1e308"], 2000, 13),
            (["--dist", "normal", "--mu", "1e308", "--sigma", "1e308"], 20, 13),
        ],
    )
    def test_overflowing_draws_exit_3_and_write_nothing(
        self, tmp_path, capsys, params, n, first_bad
    ):
        out = tmp_path / "draws.txt"
        argv = ["sample", *params, "--n", str(n), "--seed", "1", "--output", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"returndist: error: draw {first_bad} of {n} is not finite (")
        assert not out.exists()

    def test_custom_params_respected(self, tmp_path):
        path = tmp_path / "shifted.txt"
        main([
            "sample", "--dist", "normal", "--n", "4000", "--seed", "6",
            "--mu", "5.0", "--sigma", "0.1", "--output", str(path),
        ])
        values = [float(line) for line in path.read_text().splitlines()]
        mean = sum(values) / len(values)
        assert abs(mean - 5.0) < 0.01


class TestEcdfCommand:
    def test_csv_contract(self, laplace_csv, tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["ecdf", "--input", str(laplace_csv), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,ecdf,normal_cdf,laplace_cdf"
        assert len(lines) - 1 == 1500
        ecdf_col = [float(line.split(",")[1]) for line in lines[1:]]
        assert ecdf_col == sorted(ecdf_col)
        assert ecdf_col[-1] == 1.0

    def test_svg_output(self, laplace_csv, tmp_path):
        out = tmp_path / "curves.svg"
        assert main([
            "ecdf", "--input", str(laplace_csv), "--format", "svg", "--output", str(out),
        ]) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")

    @pytest.mark.parametrize("name", ("a\x01b.txt", os.fsdecode(b"x\xffy.txt")))
    def test_svg_title_with_characters_xml_forbids(self, name, tmp_path):
        # the symbol comes from the file name; what XML cannot hold becomes U+FFFD
        path = tmp_path / name
        path.write_text("0.01\n-0.02\n0.03\n0.005\n-0.01\n", encoding="utf-8")
        out = tmp_path / "curves.svg"
        assert main([
            "ecdf", "--input", str(path), "--returns-only", "--format", "svg",
            "--output", str(out),
        ]) == 0
        root = ET.fromstring(out.read_bytes())
        title = root.find("{http://www.w3.org/2000/svg}text").text
        assert title == f"{name[0]}\ufffd{name[2]}: empirical CDF vs fitted models"

    def test_three_returns_exit_2(self, tmp_path, capsys):
        path = tmp_path / "three.txt"
        path.write_text("0.01\n-0.02\n0.005\n", encoding="utf-8")
        assert main([
            "ecdf", "--input", str(path), "--returns-only", "--output", str(tmp_path / "x"),
        ]) == 2
        assert "n >= 4, got 3" in capsys.readouterr().err

    def test_bad_format_exit_1(self, laplace_csv, tmp_path, capsys):
        assert main([
            "ecdf", "--input", str(laplace_csv), "--format", "png",
            "--output", str(tmp_path / "x"),
        ]) == 1


class TestHistCommand:
    def test_histogram_json(self, laplace_csv, tmp_path):
        out = tmp_path / "hist.json"
        assert main([
            "hist", "--input", str(laplace_csv), "--bins", "40", "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["symbol"] == "SYN"
        assert sum(payload["counts"]) == payload["n"] == 1500
        assert len(payload["bin_edges"]) == 41
        widths = [
            payload["bin_edges"][i + 1] - payload["bin_edges"][i]
            for i in range(len(payload["counts"]))
        ]
        integral = sum(d * w for d, w in zip(payload["densities"], widths))
        assert integral == pytest.approx(1.0, abs=1e-9)

    def test_default_bins_100(self, laplace_csv, tmp_path):
        out = tmp_path / "hist.json"
        main(["hist", "--input", str(laplace_csv), "--output", str(out)])
        assert len(json.loads(out.read_text())["counts"]) == 100

    def test_constant_returns_single_bin(self, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text("0.01\n" * 30, encoding="utf-8")
        out = tmp_path / "hist.json"
        assert main([
            "hist", "--input", str(path), "--returns-only",
            "--bins", "1", "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["counts"] == [30]

    def test_zero_bins_exit_1(self, laplace_csv, tmp_path):
        assert main([
            "hist", "--input", str(laplace_csv), "--bins", "0",
            "--output", str(tmp_path / "x"),
        ]) == 1


@pytest.mark.parametrize("command", ["ecdf", "hist"])
def test_null_rows_warned_on_stderr(command, tmp_path, capsys):
    text = ohlcv_csv_from_returns([0.01, -0.02, 0.005, 0.01, -0.01, 0.02, 0.0, 0.01])
    lines = text.splitlines()
    lines.insert(4, "2012-01-20,null,null,null,null,null,null")
    path = tmp_path / "gaps.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--input", str(path), "--output", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "returndist: warning: line 5: null field, row skipped\n"
    assert out.exists()


class TestDeterminism:
    def test_analyze_bit_identical_across_processes(self, laplace_csv):
        def run() -> bytes:
            proc = subprocess.run(
                [sys.executable, "-m", "returndist", "analyze", "--input", str(laplace_csv)],
                capture_output=True,
                check=True,
            )
            return proc.stdout

        assert run() == run()


_HEADER = ",".join(OHLCV_HEADER)
_FAILING_INPUTS = {
    # adj close jumps from 1e-300 to 1e300: an infinite return
    "jump.csv": _HEADER + "\n" + "".join(
        f"2012-01-{3 + i:02d},1,1,1,1,{p},10\n" for i, p in enumerate(("1e-300", "1e300", "2e300"))
    ),
    # over csv's 131 072-character field limit
    "wide.csv": _HEADER + "\n2012-01-03,1,1,1,1,1," + "9" * 140_000 + "\n",
    # the bin width is subnormal, so every density overflows to inf
    "subnormal.txt": "1e-320\n2e-320\n3e-320\n",
}


@pytest.mark.parametrize(
    ("name", "command", "code"),
    [
        ("jump.csv", "analyze", 2),
        ("jump.csv", "ecdf", 2),
        ("jump.csv", "hist", 2),
        ("wide.csv", "analyze", 2),
        ("subnormal.txt", "hist", 3),
    ],
)
def test_failure_is_one_line(name, command, code, tmp_path, capsys):
    path = tmp_path / name
    path.write_text(_FAILING_INPUTS[name], encoding="utf-8")
    argv = [command, "--input", str(path)]
    if name.endswith(".txt"):
        argv.append("--returns-only")
    if command != "analyze":
        argv += ["--output", str(tmp_path / "out")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("returndist: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


_SCALE_FREE = ("skew", "excess_kurtosis", "shapiro_w", "shapiro_p", "ks_normal", "ks_laplace",
               "better_fit")


def _main_on(command: str, values: list[float], tmp_path, capsys) -> tuple[int, str, object]:
    """main's exit code and stderr on values as a returns file, and what it
    wrote: the JSON it printed or wrote (analyze, hist), the ecdf CSV's rows,
    or the parsed ecdf SVG (command "ecdf-svg")."""
    path, out = tmp_path / "scaled.txt", tmp_path / "out"
    path.write_text(returns_to_lines(values), encoding="utf-8")
    subcommand, _, ecdf_format = command.partition("-")
    argv = [subcommand, "--input", str(path), "--returns-only"]
    if command != "analyze":
        argv += ["--output", str(out)]
    if subcommand == "ecdf":
        argv += ["--format", ecdf_format or "csv"]
    code = main(argv)
    captured = capsys.readouterr()
    if code != 0:
        return code, captured.err, None
    if command == "ecdf-svg":
        return code, captured.err, ET.fromstring(out.read_bytes())
    if command == "ecdf":
        return code, captured.err, out.read_text().splitlines()[1:]
    text = captured.out if command == "analyze" else out.read_text()
    return code, captured.err, json.loads(text, parse_constant=_reject_constant)


def _assert_unit_scale_output(command: str, got: object, unit: object, k: int) -> None:
    """got, written for values times 2^k, is what unit was for the values:
    the same scale-free statistics and fitted scales times 2^k (analyze),
    the same ECDF and CDF columns, compared as text (ecdf), or the same
    curves' pixels (ecdf-svg)."""
    if command == "analyze":
        assert [got[f] for f in _SCALE_FREE] == [unit[f] for f in _SCALE_FREE], k
        assert got["normal_fit"]["sigma"] == math.ldexp(unit["normal_fit"]["sigma"], k), k
        assert got["laplace_fit"]["scale"] == math.ldexp(unit["laplace_fit"]["scale"], k), k
    elif command == "ecdf-svg":
        assert _polyline_points(got) == _polyline_points(unit), k
    else:
        assert [row.partition(",")[2] for row in got] == [row.partition(",")[2] for row in unit], k


def _polyline_points(root: ET.Element) -> list[str]:
    return [line.get("points") for line in root.iter("{http://www.w3.org/2000/svg}polyline")]


def _non_finite_numbers(root: ET.Element) -> list[str]:
    """Each token of the SVG's attributes and texts that spells a float that is
    not finite as % formatting prints one: a nan or inf coordinate or tick
    label. A rounded label past the largest float, 1.798e+308, is a number."""
    found = []
    for element in root.iter():
        for value in (*element.attrib.values(), element.text or ""):
            found += [t for t in re.split(r"[\s,()]+", value) if t.lstrip("+-") in ("inf", "nan")]
    return found


_SIX = (1.0, -2.0, 0.5, 1.3, -0.7, 0.2)
# unscaled, m2 is subnormal, so m2**1.5 underflows to zero; cubed deviations
# overflow to +inf and -inf
_EXTREME_SIX = {"tiny.txt": [v * 1e-160 for v in _SIX], "huge.txt": [v * 1e307 for v in _SIX]}


@pytest.mark.parametrize(
    ("name", "command"), [("tiny.txt", "analyze"), ("huge.txt", "analyze"), ("huge.txt", "ecdf")]
)
def test_extreme_scales_give_unit_scale_output(name, command, tmp_path, capsys):
    values = _EXTREME_SIX[name]
    k = math.frexp(max(map(abs, values)))[1]
    code, err, got = _main_on(command, values, tmp_path, capsys)
    assert code == 0, err
    unit = _main_on(command, [math.ldexp(v, -k) for v in values], tmp_path, capsys)[2]
    _assert_unit_scale_output(command, got, unit, k)
    if command == "ecdf":
        assert [float(row.partition(",")[0]) for row in got] == sorted(values)


def test_tick_label_past_float64_max_is_clamped(tmp_path, capsys):
    # the axis end, padded past the largest value, is past the largest float
    values = [1e16, 1e16, 1e16, 1.7976931348623157e308]
    code, err, root = _main_on("ecdf-svg", values, tmp_path, capsys)
    assert code == 0, err
    assert _non_finite_numbers(root) == []
    labels = [text.text for text in root.iter("{http://www.w3.org/2000/svg}text")]
    assert labels[1:6] == ["-3.595e+306", "4.314e+307", "8.988e+307", "1.366e+308", "1.798e+308"]


@pytest.mark.parametrize("exponent", (-600, -1000))
@pytest.mark.parametrize("command", ("analyze", "ecdf"))
def test_underflowing_squares_give_unit_scale_output(command, exponent, tmp_path, capsys):
    # unscaled, every squared deviation from the mean is below the smallest subnormal
    returns = sample_laplace(1879, LaplaceParams(mu=0.0, scale=0.006), 2019)
    scaled = [math.ldexp(r, exponent) for r in returns]
    code, err, got = _main_on(command, scaled, tmp_path, capsys)
    assert code == 0, err
    unit = _main_on(command, returns, tmp_path, capsys)[2]
    _assert_unit_scale_output(command, got, unit, exponent)


@pytest.mark.parametrize("exponent", (-1070, -1069, -1068))
def test_fitted_scale_underflow_is_named(exponent, tmp_path, capsys):
    # the values are subnormal but differ; a fitted scale mapped back to them is below 2^-1074
    returns = sample_laplace(1879, LaplaceParams(mu=0.0, scale=0.006), 7)
    scaled = [math.ldexp(r, exponent) for r in returns]
    assert min(scaled) != max(scaled)
    family = "laplace scale" if exponent == -1068 else "normal sigma"
    assert _main_on("analyze", scaled, tmp_path, capsys)[:2] == (
        3, f"returndist: error: the fitted {family} underflows to zero in float64\n"
    )


def _reject_constant(name: str) -> None:
    raise AssertionError(f"{name} in JSON output")


def _scaled_laplace_returns() -> dict[int, list[float]]:
    """The paper-sized Laplace returns times 2^k, for each k whose values are all finite."""
    returns = sample_laplace(1879, LaplaceParams(mu=0.0, scale=0.006), 7)
    scaled = {}
    # max |x| is m * 2^-4, so k = -124 and 132 are the rescale band's edges; the
    # scaling is exact for k >= -1009, and k = 1028 is the last finite scale
    edges = (0, -125, -124, -123, 131, 132, 133, -1009, 1028)
    for k in (*range(-1080, 1030, 19), -1066, -1059, -532, -400, 265, 278, 400, 600, *edges):
        try:
            scaled[k] = [math.ldexp(r, k) for r in returns]
        except OverflowError:
            continue
    return scaled


@pytest.mark.parametrize("command", ("analyze", "hist", "ecdf", "ecdf-svg"))
def test_power_of_two_scales_end_in_json_or_one_line(command, tmp_path, capsys):
    # a float64 limit reached in the histogram is one named error line, not a
    # raw float64 error; a sample that is not constant is never called
    # zero-variance, nor reaches a fitted parameter's range check; and where the
    # scaling is exact, analyze and ecdf exit 0 with k = 0's statistics and pixels
    scaled = _scaled_laplace_returns()
    unit = _main_on(command, scaled[0], tmp_path, capsys)[2]
    for k, values in scaled.items():
        code, err, output = _main_on(command, values, tmp_path, capsys)
        assert code in (0, 3), (k, err)
        if command != "hist" and k >= -1009:
            assert code == 0, (k, err)
            _assert_unit_scale_output(command, output, unit, k)
        if code == 3:
            assert err.count("\n") == 1 and err.startswith("returndist: error: "), (k, err)
            assert "JSON compliant" not in err and "cannot convert float" not in err, (k, err)
            assert "division by zero" not in err and "in fsum" not in err, (k, err)
            if command != "hist" and min(values) != max(values):
                assert "must be finite and > 0" not in err and "zero-variance" not in err, (k, err)
        elif command == "ecdf":
            assert not any("inf" in row or "nan" in row for row in output), k
        elif command == "ecdf-svg":
            assert _non_finite_numbers(output) == [], k


def test_fuzzed_input_never_escapes(tmp_path, capsys):
    valid = ohlcv_csv_from_returns([0.01 * ((i * 7) % 5 - 2) for i in range(29)]).encode()
    rng = Xoshiro256PlusPlus(2019)
    path = tmp_path / "fuzz.csv"
    out = tmp_path / "out"
    for case in range(200):
        if case % 4 == 0:
            data = bytes(w % 256 for w in rng._words(word(rng) % 200))
        else:
            data = mutate(valid, rng)
        path.write_bytes(data)
        ecdf_format = ("csv", "svg")[case % 2]
        for command in ("analyze", "ecdf", "hist"):
            argv = [command, "--input", str(path)]
            if command != "analyze":
                argv += ["--output", str(out)]
            if command == "ecdf":
                argv += ["--format", ecdf_format]
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 2, 3), (case, command, data, captured.err)
            assert "Traceback" not in captured.err
            if code != 0:
                continue
            if command != "ecdf":
                text = captured.out if command == "analyze" else out.read_text()
                json.loads(text, parse_constant=_reject_constant)
            elif ecdf_format == "svg":
                root = ET.fromstring(out.read_bytes())
                assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 3
            else:
                lines = out.read_text().splitlines()
                assert lines[0] == "x,ecdf,normal_cdf,laplace_cdf"
                for line in lines[1:]:
                    cells = list(map(float, line.split(",")))
                    assert len(cells) == 4 and all(map(math.isfinite, cells)), (case, line)


# extreme, subnormal and non-finite values, as one value repeated or its outlier
_EXTREMES = (1.7976931348623157e308, -1e308, 1e-300, 5e-324, -2.2250738585072014e-308, 0.0, 0.01)
# lines float reads as not finite, or past the float64 limits
_RETURN_LINES = (b"nan", b"-nan", b"inf", b"-Infinity", b"1e999", b"-1e-999", b"")
# a BOM, NUL, a sign, and bytes that are not UTF-8 (a stray byte, a cut pair, a surrogate)
_RETURN_BYTES = (b"\xef\xbb\xbf", b"\x00", b"-", b"\xff", b"\xc3(", b"\xed\xa0\x80")


def _fuzzed_returns(rng: Xoshiro256PlusPlus) -> bytes:
    """1 to 40 Laplace returns, maybe all times one power of two or all one
    extreme value but one outlier, maybe led by a BOM, then maybe one
    insertion at a random byte: a line from _RETURN_LINES or a token from
    _RETURN_BYTES."""
    n = 1 + word(rng) % 40
    values = sample_laplace(n, LaplaceParams(mu=0.0, scale=0.006), word(rng) % 1000)
    op = word(rng) % 3
    if op == 0:  # every |x| is below 1, so 2^1023 is the largest scale that stays finite
        k = word(rng) % 2124 - 1100
        values = [math.ldexp(x, k) for x in values]
    elif op == 1:
        values = [_EXTREMES[word(rng) % len(_EXTREMES)]] * n
        values[word(rng) % n] = _EXTREMES[word(rng) % len(_EXTREMES)]
    data = bytearray(returns_to_lines(values).encode())
    if word(rng) % 4 == 0:
        data[:0] = b"\xef\xbb\xbf"  # the one BOM a file may start with
    for _ in range(word(rng) % 2):
        at = word(rng) % (len(data) + 1)
        if word(rng) % 2:
            data[at:at] = b"\n" + _RETURN_LINES[word(rng) % len(_RETURN_LINES)] + b"\n"
        else:
            data[at:at] = _RETURN_BYTES[word(rng) % len(_RETURN_BYTES)]
    return bytes(data)


def test_fuzzed_returns_never_escape(tmp_path, capsys):
    rng = Xoshiro256PlusPlus(1879)
    path, out = tmp_path / "fuzz.txt", tmp_path / "out"
    runs = (
        ["analyze"],
        ["analyze", "--format", "markdown"],
        ["ecdf", "--output", str(out)],
        ["ecdf", "--format", "svg", "--output", str(out)],
        ["hist", "--output", str(out)],
    )
    for case in range(300):
        data = _fuzzed_returns(rng)
        path.write_bytes(data)
        for run in runs:
            out.unlink(missing_ok=True)
            code = main([*run, "--input", str(path), "--returns-only"])
            captured = capsys.readouterr()
            assert code in (0, 2, 3), (case, run, data, captured.err)
            if code != 0:
                assert captured.err.startswith("returndist: error: "), (case, run, data)
                assert captured.err.count("\n") == 1, (case, run, data, captured.err)
                assert not out.exists(), (case, run, data)
            elif run[-1] == "markdown":
                assert not re.search(r"\b(inf|nan)\b", captured.out, re.I), (case, data)
            elif run[0] == "ecdf" and "svg" in run:
                assert _non_finite_numbers(ET.fromstring(out.read_bytes())) == [], (case, data)
            elif run[0] == "ecdf":
                for line in out.read_text().splitlines()[1:]:
                    assert all(map(math.isfinite, map(float, line.split(",")))), (case, line)
            else:
                text = captured.out if run[0] == "analyze" else out.read_text()
                json.loads(text, parse_constant=_reject_constant)


def _child_modules(code: str, *args: str) -> set[str]:
    """The names in ``sys.modules``, a submodule's by its full dotted name, that
    a ``python -S`` child running ``code`` with ``args`` prints on the last
    line of its stderr."""
    src = Path(returndist.__file__).parent.parent
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"{code}; print(*sys.modules, file=sys.stderr)", *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stderr.splitlines()[-1].split())


def _top_level(modules: set[str]) -> set[str]:
    return {name.partition(".")[0] for name in modules}


# for each subcommand, its options as flag and value, each in a form the fast path takes
_ARGV_BASES = [
    ("analyze", [["--input", "r.txt"], ["--price-column", "close"], ["--returns-only"],
                 ["--format", "markdown"]]),
    ("sample", [["--dist", "laplace"], ["--n", "50"], ["--seed", "3"], ["--mu", "0.001"],
                ["--lambda", "0.01"], ["--output", "out"]]),
    ("sample", [["--dist", "normal"], ["--n", "40"], ["--seed", "0"], ["--mu", "1e-3"],
                ["--sigma", "2"], ["--output", "out"]]),
    ("ecdf", [["--input", "p.csv"], ["--price-column", "close"], ["--format", "svg"],
              ["--output", "out"]]),
    ("hist", [["--input", "r.txt"], ["--returns-only"], ["--bins", "7"], ["--output", "out"]]),
]
_BAD_VALUES = ("-1", "-0.5", "-1e-3", "-1.", "-8.740042558696204e-05", "nan", "inf", "-inf",
               "1e999", "x", "", "a=b", "--", "-h", "--help")


def _argv_corpus() -> tuple[list[list[str]], list[list[str]], list[list[str]]]:
    """Command lines the fast path must take: every subcommand's options in
    every order; then each option repeated, each path given as "a=b", and each
    number given every value of _BAD_VALUES that its type converts, "-1e-3"
    among them. Then variants of them that it may decline: each option
    missing, abbreviated, as --flag=value, without its value or with any other
    value of _BAD_VALUES; a stray word, "--", -h and --help at each end; and
    no subcommand at all."""
    orders, taken, variants = [], [], [[], ["-h"], ["--help"], ["bogus"], ["--input", "r.txt"]]
    for command, groups in _ARGV_BASES:
        orders += ([command, *chain(*order)] for order in permutations(groups))
        for i, (flag, *value) in enumerate(groups):
            rest = list(chain(*groups[:i], *groups[i + 1:]))
            # argparse keeps the last value of a repeated option, as the fast path does
            taken.append([command, *rest, flag, *value, flag, *value])
            variants += [[command, *rest], [command, *rest, flag[:-1], *value], [command, *rest, flag]]
            if value:
                variants.append([command, *rest, f"{flag}={value[0]}"])
                convert = _COMMANDS[command][2][flag].get("type")
                for bad in _BAD_VALUES:
                    # argparse reads a path that holds "=" as the value, as the fast path does
                    path = bad == "a=b" and flag in ("--input", "--output")
                    number = convert is not None and _converts(convert, bad)
                    (taken if path or number else variants).append([command, flag, bad, *rest])
            else:
                variants.append([command, flag, "x", *rest])
        argv = list(chain(*groups))
        for word in ("x", "--", "-h", "--help", "--bogus"):
            variants += [[command, word, *argv], [command, *argv, word]]
    return orders, taken, variants


def _converts(convert, word: str) -> bool:
    try:
        convert(word)
    except ValueError:
        return False
    return True


def _equals_spelling(argv: list[str]) -> list[str]:
    """A command line the fast path takes, with each value joined to its flag:
    argparse reads "--mu -1e-3" as two options but "--mu=-1e-3" as a value."""
    options = _COMMANDS[argv[0]][2]
    words = iter(argv[1:])
    return [argv[0], *(flag if "action" in options[flag] else f"{flag}={next(words)}"
                       for flag in words)]


def _namespace_view(args) -> str:
    # NaN compares unequal to itself, so the values compare by repr
    return repr(sorted(vars(args).items()))


def _argparse_view(parser, argv: list[str]) -> str | None:
    """argparse's namespace for argv as _namespace_view gives it, or None
    where argparse exits."""
    try:
        return _namespace_view(parser.parse_args(argv))
    except SystemExit:
        return None


def test_fast_args_decline_or_equal_argparse(capsys):
    parser = build_parser()
    orders, taken, variants = _argv_corpus()
    declined = respelt = 0
    for argv in orders + taken + variants:
        fast = _fast_args(argv)
        slow = _argparse_view(parser, argv)
        if fast is None:
            assert argv not in orders + taken, argv
            declined += 1
        else:
            if slow is None:  # a number led by "-": what argparse reads from its = spelling
                slow = _argparse_view(parser, _equals_spelling(argv))
                respelt += 1
            assert _namespace_view(fast) == slow, argv
        capsys.readouterr()
    assert 0 < declined < len(variants)
    assert respelt > 0


def test_main_same_without_fast_path(tmp_path, monkeypatch, capsys):
    returns = sample_laplace(200, LaplaceParams(mu=0.0, scale=0.008), 2012)
    (tmp_path / "p.csv").write_text(ohlcv_csv_from_returns(returns), encoding="utf-8")
    (tmp_path / "r.txt").write_text(returns_to_lines(returns), encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    def run(argv: list[str], fast_args) -> tuple:
        monkeypatch.setattr("returndist.cli._fast_args", fast_args)
        code = main(list(argv))
        # every file the run wrote, under whatever name it took for --output
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()
                   if p.name not in ("p.csv", "r.txt")}
        for name in written:
            (tmp_path / name).unlink()
        return code, *capsys.readouterr(), written

    parser = build_parser()
    orders, taken, variants = _argv_corpus()
    # the orders of one subcommand all parse alike: a few of them stand for the rest
    for argv in orders[::23] + taken + variants:
        # a line that argparse rejects but the fast path takes runs as its = spelling
        # runs under argparse
        respelt = _fast_args(argv) is not None and _argparse_view(parser, argv) is None
        capsys.readouterr()
        slow = run(_equals_spelling(argv) if respelt else argv, lambda argv: None)
        assert run(argv, _fast_args) == slow, argv


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
@pytest.mark.parametrize(
    "command, request_",
    [
        ("hist --input r.txt --returns-only --bins 1000000000 --output out",
         "hist --bins 1000000000"),
        ("sample --dist laplace --n 1000000000 --seed 1 --output out", "sample --n 1000000000"),
    ],
)
def test_out_of_memory_names_the_request(command, request_, tmp_path):
    (tmp_path / "r.txt").write_text(returns_to_lines([0.01, -0.02, 0.005]), encoding="utf-8")
    # the limit is set in the child, and bounds that process alone
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from returndist.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, *command.split()],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(returndist.__file__).parent.parent)},
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"returndist: error: out of memory ({request_})\n"
    assert not (tmp_path / "out").exists()


# the stdlib modules no successful run loads: argparse (with gettext and locale)
# parses only help and usage errors, and json, csv, datetime and statistics (with
# its fractions and decimal) load only as their C layers _json, _csv, _datetime
# and _statistics, each on the paths that use it
_PYTHON_LAYERS = {"argparse", "gettext", "locale", "json", "csv", "datetime",
                  "statistics", "fractions", "decimal"}
_C_LAYERS = {"_json", "_csv", "_datetime", "_statistics"}


def test_cli_imports_only_stdlib():
    for module in ("returndist", "returndist.cli"):
        modules = _child_modules(f"import sys, {module}")
        loaded = _top_level(modules)
        assert loaded - sys.stdlib_module_names - {"returndist", "__main__"} == set()
        # the import budget: these cost more to load than the package itself, and
        # each path that needs a C layer imports it where it is used
        heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "pathlib"}
        assert loaded & (heavy | _PYTHON_LAYERS | _C_LAYERS) == set(), module
        # the package names collections.abc's ABCs only in annotations, which stay text
        assert "collections.abc" not in modules, module


@pytest.mark.parametrize(
    "command, c_layers",
    [
        ("sample --dist laplace --n 100 --seed 1 --output out", ""),
        ("ecdf --input r.txt --returns-only --output out", ""),
        ("ecdf --input r.txt --returns-only --format svg --output out", ""),
        ("hist --input r.txt --returns-only --output out", "json"),
        ("analyze --input r.txt --returns-only", "json statistics"),
        ("analyze --input r.txt --returns-only --format markdown", "statistics"),
        ("analyze --input p.csv --format markdown", "csv datetime statistics"),
        ("ecdf --input p.csv --output out", "csv datetime"),
        ("ecdf --input p.csv --format svg --output out", "csv datetime"),
        ("hist --input p.csv --output out", "json csv datetime"),
        ("analyze --input p.csv", "json csv datetime statistics"),
    ],
)
def test_subcommand_loads_only_the_modules_it_uses(command, c_layers, tmp_path, monkeypatch):
    returns = sample_laplace(200, LaplaceParams(mu=0.0, scale=0.008), 2012)
    (tmp_path / "p.csv").write_text(ohlcv_csv_from_returns(returns), encoding="utf-8")
    (tmp_path / "r.txt").write_text(returns_to_lines(returns), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = "import sys; from returndist.cli import main; assert main(sys.argv[1:]) == 0"
    modules = _child_modules(code, *command.split())
    loaded = _top_level(modules)
    assert "collections.abc" not in modules
    assert loaded & _PYTHON_LAYERS == set()
    assert loaded & _C_LAYERS == {f"_{name}" for name in c_layers.split()}


@pytest.mark.parametrize("command, code", [("--help", 0), ("analyze --inptu x", 1)])
def test_help_and_usage_errors_load_argparse(command, code, capsys):
    child = f"import sys; from returndist.cli import main; assert main(sys.argv[1:]) == {code}"
    assert "argparse" in _child_modules(child, *command.split())
    # argparse itself exits 2 on bad arguments; main returns 1 for them, with the same output
    with pytest.raises(SystemExit) as parsed:
        build_parser().parse_args(command.split())
    assert parsed.value.code == (2 if code else 0)
    output = capsys.readouterr()
    assert main(command.split()) == code
    assert capsys.readouterr() == output


@pytest.mark.parametrize(
    "path, symbol",
    [
        ("dir/SPX.csv", "SPX"),
        ("./x.csv", "x"),
        ("a.tar.gz", "a.tar"),
        ("a..b", "a."),
        ("..x", "."),
        ("foo.", "foo."),
        (".hidden", ".hidden"),
    ],
)
def test_symbol_is_file_stem(path, symbol, tmp_path, monkeypatch, capsys):
    # the file name less its last suffix, as pathlib.Path(path).stem gives it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dir").mkdir()
    (tmp_path / path).write_text("0.01\n-0.02\n0.03\n0.005\n-0.01\n", encoding="utf-8")
    assert main(["analyze", "--input", path, "--returns-only"]) == 0
    assert json.loads(capsys.readouterr().out)["symbol"] == symbol


def _stream_lines(rows: int, null_every: int = 300) -> list[str]:
    """Header and priced OHLCV lines whose close and adj close differ; each line that
    straddles a multiple of null_every characters gets one cell "null", padded to the
    cell's width so that no later line moves."""
    lines = [_HEADER]
    prices = prices_from_returns([0.01 * ((i * 7) % 5 - 2) for i in range(rows - 1)])
    for i, p in enumerate(prices):
        day = date(2012, 1, 3) + timedelta(days=i)
        lines.append(f"{day},{p!r},{p * 1.01!r},{p * 0.99!r},{p!r},{p * 0.5!r},{1000 + i}")
    start = len(lines[0]) + 1
    for k in range(1, len(lines)):
        end = start + len(lines[k]) + 1
        if start // null_every != (end - 1) // null_every and k % 2:
            cells = lines[k].split(",")
            column = 1 + k % 6
            cells[column] = "null".rjust(len(cells[column]))
            lines[k] = ",".join(cells)
        start = end
    return lines


def _stream_text(variant: str) -> str:
    lines = _stream_lines(70)
    if variant == "long-header":
        lines[0] = ",".join(f"  {name}" + " " * 60 for name in OHLCV_HEADER)
    elif variant == "newest-first":
        lines[1:] = lines[:0:-1]
    text = "\n".join(lines) + "\n"
    if variant == "no-final-newline":
        text = text[:-1]
    elif variant == "bom":
        text = "\ufeff" + text
    elif variant == "crlf":
        text = text.replace("\n", "\r\n")
    return text


@pytest.mark.parametrize("price_column", ["adj_close", "close"])
@pytest.mark.parametrize("chunk_chars", [40, 300, 1 << 20])
@pytest.mark.parametrize(
    "variant", ["plain", "long-header", "no-final-newline", "bom", "crlf", "newest-first"]
)
def test_streamed_load_equals_row_parser(variant, chunk_chars, price_column, tmp_path,
                                         monkeypatch):
    monkeypatch.setattr(market_data, "_CHUNK_CHARS", chunk_chars)
    path = tmp_path / "SPX.csv"
    path.write_bytes(_stream_text(variant).encode("utf-8"))
    args = build_parser().parse_args(
        ["analyze", "--input", str(path), "--price-column", price_column]
    )
    series, warnings = parse_rows_only(path.read_text(encoding="utf-8"), "SPX")
    expected = "SPX", simple_returns(series, price_column).values, warnings
    assert len(warnings) >= 3
    with row_parser_calls() as calls:
        assert _load_returns(args) == expected
    assert calls == []  # the column pass alone gave that result


@pytest.mark.parametrize("chunk_chars", [300, market_data._CHUNK_CHARS, 1 << 20])
def test_invalid_utf8_offset_is_absolute(chunk_chars, tmp_path, monkeypatch, capsys):
    # past the text decoder's 8192-byte buffer and past the first piece read
    monkeypatch.setattr(market_data, "_CHUNK_CHARS", chunk_chars)
    data = bytearray("\n".join(_stream_lines(12_000, null_every=1 << 30)).encode())
    offset = max(8192, chunk_chars) + 20_000
    assert offset < len(data)
    data[offset] = 0xFF
    path = tmp_path / "bad.csv"
    path.write_bytes(bytes(data))
    with pytest.raises(UnicodeDecodeError) as decoding:
        bytes(data).decode("utf-8")
    assert decoding.value.start == offset
    assert main(["analyze", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"returndist: error: {path}: not valid UTF-8 at byte {offset}\n"
    )


def _analyze_stdin(data: bytes, *options: str) -> subprocess.CompletedProcess:
    """``returndist analyze`` in a child process, reading ``data`` from a pipe."""
    return subprocess.run(
        [sys.executable, "-m", "returndist", "analyze", "--input", "/dev/stdin", *options],
        input=data,
        env={**os.environ, "PYTHONPATH": str(Path(returndist.__file__).parent.parent)},
        capture_output=True,
    )


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("bad", ["header", "first-block-cell", "returns-only"])
def test_invalid_utf8_reported_before_parse_error(bad, source, tmp_path, capsys):
    # the parse fails in the first block, but the invalid byte 2 MiB on is the error named
    lines = _stream_lines(3, null_every=1 << 30)
    options = []
    if bad == "header":
        lines[0] = lines[0].replace("Volume", "Vol")
    elif bad == "first-block-cell":
        lines[1] = lines[1].replace(",", ",x", 1)
    else:  # "bogus" on line 2 of a returns-only input, then returns as long as an OHLCV line
        lines, options = ["0.01", "bogus", "0.01" + "0" * 60], ["--returns-only"]
    data = bytearray("\n".join(lines + lines[2:] * 40_000).encode())
    offset = (2 << 20) + 7
    data[offset] = 0xFF
    if source == "file":
        path = tmp_path / "bad.csv"
        path.write_bytes(bytes(data))
        code, err = main(["analyze", "--input", str(path), *options]), capsys.readouterr().err
    else:
        path = "/dev/stdin"
        proc = _analyze_stdin(bytes(data), *options)
        code, err = proc.returncode, proc.stderr.decode()
    assert (code, err) == (2, f"returndist: error: {path}: not valid UTF-8 at byte {offset}\n")


@pytest.mark.parametrize("variant", ["columnar", "declined", "late-quoted"])
def test_piped_input_equals_file(variant, tmp_path, capsys):
    # a pipe cannot be read twice: the row parser carries on in the same read,
    # from the first line (blank lines) or from a later block (a quoted cell)
    n = 12_000 if variant == "late-quoted" else 300
    text = ohlcv_csv_from_returns(sample_laplace(n, LaplaceParams(0.0, 0.006), 9))
    if variant == "declined":
        text = text.replace("\n", "\n\n")
    elif variant == "late-quoted":
        head, _, last = text[:-1].rpartition("\n")
        assert len(head) > market_data._CHUNK_CHARS  # past the first piece read
        quoted = '","'.join(last.split(","))
        text = f'{head}\n"{quoted}"\n'
    path = tmp_path / "stdin.csv"  # the same symbol as /dev/stdin
    path.write_text(text, encoding="utf-8")
    assert main(["analyze", "--input", str(path)]) == 0
    proc = _analyze_stdin(text.encode())
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == capsys.readouterr().out


def _load_peak_ratio(text: str, tmp_path) -> float:
    """The tracemalloc peak of loading a 100k-row CSV, over the file's size."""
    path = tmp_path / "BIG.csv"
    path.write_text(text, encoding="utf-8")
    args = build_parser().parse_args(["analyze", "--input", str(path)])
    tracemalloc.start()
    try:
        _, values, _ = _load_returns(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(values) == 99_999
    return peak / path.stat().st_size


def _big_csv() -> str:
    return ohlcv_csv_from_returns(sample_laplace(99_999, LaplaceParams(0.0, 0.006), 5))


def test_load_peak_memory_bounded(tmp_path):
    # the streamed load holds the dates, one price column, the returns and one
    # piece's cells: about 1.0 times the file at its peak (1.7 with 1 MiB
    # pieces); holding the whole text and all seven columns cost about 4.1
    assert _load_peak_ratio(_big_csv(), tmp_path) < 1.4


def test_declined_load_peak_memory_bounded(tmp_path):
    # a quoted first date sends every row to the row parser, which keeps the
    # same dates and one column: about 1.15 times the file at its peak (1.7 with
    # 1 MiB pieces); re-reading the whole text cost about 8 times the file
    header, _, rows = _big_csv().partition("\n")
    day, _, rest = rows.partition(",")
    assert _load_peak_ratio(f'{header}\n"{day}",{rest}', tmp_path) < 1.4


def test_bom_led_returns_load_in_the_same_peak(tmp_path):
    # U+FEFF is outside Latin-1: joined with the returns, it made the whole
    # text 2 bytes per character
    text = returns_to_lines(sample_laplace(100_000, LaplaceParams(0.0, 0.006), 5))
    path = tmp_path / "r.txt"
    args = _fast_args(["analyze", "--input", str(path), "--returns-only"])
    peaks = []
    for lead in ("", "\ufeff"):
        path.write_text(lead + text, encoding="utf-8")
        tracemalloc.start()
        try:
            _, values, _ = _load_returns(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(values) == 100_000
        peaks.append(peak)
    assert peaks[1] <= 1.02 * peaks[0]
