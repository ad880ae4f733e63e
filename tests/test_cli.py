"""End-to-end CLI tests: commands, formats, and exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import returndist
from returndist.cli import main
from returndist.distfit import LaplaceParams, Xoshiro256PlusPlus, sample_laplace
from returndist.market_data import OHLCV_HEADER

from conftest import ohlcv_csv_from_returns


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

    def test_constant_returns_exit_3(self, tmp_path, capsys):
        path = tmp_path / "flat.txt"
        path.write_text("0.01\n" * 50, encoding="utf-8")
        assert main(["analyze", "--input", str(path), "--returns-only"]) == 3

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
        for argv in cases:
            assert main(argv) == 1, argv
            capsys.readouterr()

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
        import xml.etree.ElementTree as ET

        out = tmp_path / "curves.svg"
        assert main([
            "ecdf", "--input", str(laplace_csv), "--format", "svg", "--output", str(out),
        ]) == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")

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


_SIX = (1.0, -2.0, 0.5, 1.3, -0.7, 0.2)
_HEADER = ",".join(OHLCV_HEADER)
_FAILING_INPUTS = {
    # m2 is subnormal, so m2**1.5 underflows to zero
    "tiny.txt": "".join(f"{v * 1e-160!r}\n" for v in _SIX),
    # cubed deviations overflow to +inf and -inf
    "huge.txt": "".join(f"{v * 1e307!r}\n" for v in _SIX),
    # adj close jumps from 1e-300 to 1e300: an infinite return
    "jump.csv": _HEADER + "\n" + "".join(
        f"2012-01-{3 + i:02d},1,1,1,1,{p},10\n" for i, p in enumerate(("1e-300", "1e300", "2e300"))
    ),
    # over csv's 131 072-character field limit
    "wide.csv": _HEADER + "\n2012-01-03,1,1,1,1,1," + "9" * 140_000 + "\n",
}


@pytest.mark.parametrize(
    ("name", "command", "code"),
    [
        ("tiny.txt", "analyze", 3),
        ("huge.txt", "analyze", 3),
        ("huge.txt", "ecdf", 3),
        ("jump.csv", "analyze", 2),
        ("jump.csv", "ecdf", 2),
        ("jump.csv", "hist", 2),
        ("wide.csv", "analyze", 2),
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


_FIELD_VALUES = (b"null", b"1e300", b"1e-300", b"5e-324", b"0", b"-1", b"")
_TOKENS = (b"-", b"e", b".", b",", b"\n", b'"', b" ", b"\x00")


def _mutate(data: bytes, rng: Xoshiro256PlusPlus) -> bytes:
    """Apply 1-3 random edits: overwrite a byte with a digit, replace a
    whole field with an extreme number, ``null`` or nothing, insert a
    token, delete or duplicate a span, or (rarely) insert a raw byte."""
    buf = bytearray(data)
    for _ in range(1 + rng.next_uint64() % 3):
        at = rng.next_uint64() % (len(buf) + 1)
        op = rng.next_uint64() % 16
        fields = [m.span() for m in re.finditer(rb"[^,\n]+", buf)]
        if op < 4:
            buf[at : at + 1] = b"%d" % (rng.next_uint64() % 10)
        elif op < 10 and fields:
            lo, hi = fields[rng.next_uint64() % len(fields)]
            buf[lo:hi] = _FIELD_VALUES[rng.next_uint64() % len(_FIELD_VALUES)]
        elif op < 12:
            buf[at:at] = _TOKENS[rng.next_uint64() % len(_TOKENS)]
        elif op < 13:
            del buf[at : at + 1 + rng.next_uint64() % 40]
        elif op < 15:
            buf[at:at] = buf[at : at + 1 + rng.next_uint64() % 40]
        else:
            buf.insert(at, rng.next_uint64() % 256)
    return bytes(buf)


def _reject_constant(name: str) -> None:
    raise AssertionError(f"{name} in JSON output")


def test_fuzzed_input_never_escapes(tmp_path, capsys):
    valid = ohlcv_csv_from_returns([0.01 * ((i * 7) % 5 - 2) for i in range(29)]).encode()
    rng = Xoshiro256PlusPlus(2019)
    path = tmp_path / "fuzz.csv"
    out = tmp_path / "out"
    for case in range(200):
        if case % 4 == 0:
            data = bytes(rng.next_uint64() % 256 for _ in range(rng.next_uint64() % 200))
        else:
            data = _mutate(valid, rng)
        path.write_bytes(data)
        for command in ("analyze", "ecdf", "hist"):
            argv = [command, "--input", str(path)]
            if command != "analyze":
                argv += ["--output", str(out)]
            code = main(argv)
            captured = capsys.readouterr()
            assert code in (0, 2, 3), (case, command, data, captured.err)
            assert "Traceback" not in captured.err
            if code == 0 and command != "ecdf":
                text = captured.out if command == "analyze" else out.read_text()
                json.loads(text, parse_constant=_reject_constant)


def test_cli_imports_only_stdlib():
    src = Path(returndist.__file__).parent.parent
    code = "import sys, returndist.cli; print(*sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = {name.partition(".")[0] for name in proc.stdout.split()}
    assert loaded - sys.stdlib_module_names - {"returndist", "__main__"} == set()
