"""Golden outputs: every subcommand and format on fixed inputs, by sha256.

Each case runs ``main`` in-process on an input built here and hashes its
exit code, stdout, stderr and output file. The digests are committed in
``golden.sha256``; a change that alters output bytes on purpose
regenerates that file with ``tests/regen_golden.py`` and names each
changed case in CHANGES.md.

argparse's usage text and the ``csv`` module's messages differ between
Python versions, so those cases hash only the exit code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from pathlib import Path

from returndist.cli import main
from returndist.distfit import LaplaceParams, NormalParams, sample_laplace, sample_normal
from returndist.market_data import OHLCV_HEADER, returns_to_lines

from conftest import ohlcv_csv_from_returns

MANIFEST = Path(__file__).with_name("golden.sha256")

_HEADER = ",".join(OHLCV_HEADER)
_PAPER = sample_laplace(1879, LaplaceParams(mu=0.0, scale=0.006), 7)
_SHORT = sample_laplace(40, LaplaceParams(mu=0.0005, scale=0.01), 11)
_SIX = (1.0, -2.0, 0.5, 1.3, -0.7, 0.2)


def _rows(*rows: str) -> bytes:
    return (_HEADER + "\n" + "".join(row + "\n" for row in rows)).encode()


def _lines(values) -> bytes:
    return returns_to_lines(values).encode()


def _inputs() -> list[tuple[str, str, bytes, tuple[str, ...]]]:
    """(case label, file name, file bytes, extra options) for each input."""
    short_csv = ohlcv_csv_from_returns(_SHORT)
    data_rows = short_csv.splitlines()[1:]
    with_nulls = data_rows[:5] + ["2013-01-01,null,null,null,null,null,null"] + data_rows[5:]
    inputs = [
        ("paper.csv", ohlcv_csv_from_returns(_PAPER).encode(), ()),
        ("paper.txt", _lines(_PAPER), ()),
        ("normal.txt", _lines(sample_normal(1000, NormalParams(0.0002, 0.01), 7)), ()),
        ("short.csv", short_csv.encode(), ()),
        ("nulls.csv", _rows(*with_nulls), ()),
        ("crlf.csv", short_csv.replace("\n", "\r\n").encode(), ()),
        ("quoted.csv", _rows(*(",".join(f'"{c}"' for c in r.split(",")) for r in data_rows)), ()),
        ("blank-lines.csv", _rows(*(r + "\n" for r in data_rows)), ()),
        ("newest-first.csv", _rows(*reversed(data_rows)), ()),
        ("bom.csv", b"\xef\xbb\xbf" + short_csv.encode(), ()),
        ("close.csv", _rows(*(
            ",".join((*r.split(",")[:4], str(101.0 + (i * 7) % 5), *r.split(",")[5:]))
            for i, r in enumerate(data_rows)
        )), ("--price-column", "close")),
        ("n4.txt", b"0.01\n-0.02\n0.03\n0.005\n", ()),
        ("ties.txt", b"0.01\n0.01\n-0.02\n0.01\n0.03\n-0.02\n0.0\n", ()),
        ("blank-lines.txt", b"\n 0.01\n\n-0.02 \n0.03\n0.005\n-0.01\n", ()),
        ("bom.txt", b"\xef\xbb\xbf" + _lines(_SHORT), ()),
        ("constant.txt", b"0.01\n" * 6, ()),
        ("constant-big.txt", b"1.8014398509481984e+16\n" * 4, ()),
        ("n3.txt", b"0.01\n-0.02\n0.03\n", ()),
        # the paper-sized returns times 2^k: the edges of the scales whose
        # statistics are exact, and of the parent's exact range
        *((f"scaled{k}.txt", _lines([math.ldexp(r, k) for r in _PAPER]), ())
          for k in (-1069, -1009, -249, -248, 259, 260, 1028)),
        ("tiny.txt", "".join(f"{v * 1e-160!r}\n" for v in _SIX).encode(), ()),
        ("huge.txt", "".join(f"{v * 1e307!r}\n" for v in _SIX).encode(), ()),
        # bin widths that are subnormal, and 0
        ("subnormal.txt", b"1e-320\n2e-320\n3e-320\n", ()),
        ("zero-width.txt", b"0\n5e-324\n", ()),
        ("jump.csv", _rows(*(
            f"2012-01-{3 + i:02d},1,1,1,1,{p},10" for i, p in enumerate(("1e-300", "1e300", "2e300"))
        )), ()),
        ("wide.csv", _rows("2012-01-03,1,1,1,1,1," + "9" * 140_000), ()),
        ("not-utf8.csv", short_csv.encode()[:300] + b"\xff" + short_csv.encode()[300:], ()),
        ("bad-header.csv", b"Date,Open,High,Low,Close,Volume\n2012-01-03,1,1,1,1,10\n", ()),
        ("bad-date.csv", _rows("2012-01-03,1,1,1,1,1,10", "2012-13-04,1,1,1,1,1,10"), ()),
        ("duplicate-date.csv", _rows("2012-01-03,1,1,1,1,1,10", "2012-01-03,1,1,1,1,2,10"), ()),
        ("bad-price.csv", _rows("2012-01-03,1,1,1,1,1,10", "2012-01-04,1,1,1,1,x,10"), ()),
        ("zero-price.csv", _rows("2012-01-03,1,1,1,1,1,10", "2012-01-04,1,1,1,1,0,10"), ()),
        ("negative-volume.csv", _rows("2012-01-03,1,1,1,1,1,10", "2012-01-04,1,1,1,1,2,-1"), ()),
        ("fields.csv", _rows("2012-01-03,1,1,1,1,1,10", "2012-01-04,1,1,1,1,2"), ()),
        ("empty.csv", _rows(), ()),
        ("bom-only.csv", b"\xef\xbb\xbf", ()),
        ("one-price.csv", _rows("2012-01-03,1,1,1,1,1,10"), ()),
        ("empty.txt", b"", ()),
        ("bad-return.txt", b"0.01\nabc\n", ()),
        ("nan-return.txt", b"0.01\nnan\n", ()),
        (os.fsdecode(b"x\xffy.txt"), _lines(_SHORT), ()),
        ("a|b.txt", _lines(_SHORT), ()),
        ("a\x01b.txt", _lines(_SHORT), ()),
    ]
    labelled = [(name.encode("unicode_escape").decode(), name, data, extra)
                for name, data, extra in inputs]
    return labelled + [("missing.csv", "missing.csv", None, ())]


_VARIANTS = (
    ("analyze-json", ("analyze", "--format", "json")),
    ("analyze-markdown", ("analyze", "--format", "markdown")),
    ("ecdf-csv", ("ecdf", "--format", "csv", "--output", "out")),
    ("ecdf-svg", ("ecdf", "--format", "svg", "--output", "out")),
    ("hist-1", ("hist", "--bins", "1", "--output", "out")),
    ("hist-40", ("hist", "--bins", "40", "--output", "out")),
    ("hist-100", ("hist", "--bins", "100", "--output", "out")),
)

_SAMPLE = ("sample", "--output", "out")

# (case label, argv, exit code only)
_OTHER_CASES = (
    ("sample-laplace", (*_SAMPLE, "--dist", "laplace", "--n", "300", "--seed", "3",
                        "--mu", "0.001", "--lambda", "0.01"), False),
    ("sample-normal", (*_SAMPLE, "--dist", "normal", "--n", "301", "--seed", "3",
                       "--sigma", "0.02"), False),
    ("sample-default-scale", (*_SAMPLE, "--dist", "laplace", "--n", "5", "--seed", "0"), False),
    # the sizes the benchmark draws at, so a faster generator must give the same stream
    ("sample-laplace-50k", (*_SAMPLE, "--dist", "laplace", "--n", "50000", "--seed", "1",
                            "--lambda", "0.006"), False),
    ("sample-normal-200k", (*_SAMPLE, "--dist", "normal", "--n", "200000", "--seed", "1"), False),
    ("sample-overflow", (*_SAMPLE, "--dist", "normal", "--n", "1000", "--seed", "1",
                         "--sigma", "1e308"), False),
    ("sample-n-zero", (*_SAMPLE, "--dist", "normal", "--n", "0", "--seed", "1"), False),
    ("sample-seed-range", (*_SAMPLE, "--dist", "normal", "--n", "5", "--seed", "-1"), False),
    ("sample-lambda-for-normal", (*_SAMPLE, "--dist", "normal", "--n", "5", "--seed", "1",
                                  "--lambda", "1"), False),
    ("sample-negative-scale", (*_SAMPLE, "--dist", "laplace", "--n", "5", "--seed", "1",
                               "--lambda", "-1"), False),
    ("hist-bins-zero", ("hist", "--input", "n4.txt", "--returns-only", "--bins", "0",
                        "--output", "out"), False),
    ("usage-no-command", (), True),
    ("usage-missing-dist", (*_SAMPLE, "--n", "5", "--seed", "1"), True),
    ("usage-bad-bins", ("hist", "--input", "n4.txt", "--bins", "x", "--output", "out"), True),
    ("usage-bad-format", ("analyze", "--input", "n4.txt", "--format", "xml"), True),
)


def _digest(code: int, out: str, err: str, output: bytes | None) -> str:
    h = hashlib.sha256()
    parts = (str(code).encode(), out.encode("utf-8", "surrogatepass"),
             err.encode("utf-8", "surrogatepass"), b"-" if output is None else b"+" + output)
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def _run(argv: list[str], code_only: bool) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code_only:
        return _digest(code, "", "", None)
    try:
        with open("out", "rb") as fh:
            output = fh.read()
        os.remove("out")
    except FileNotFoundError:
        output = None
    return _digest(code, out.getvalue(), err.getvalue(), output)


def golden_digests() -> dict[str, str]:
    """Case label to digest, run in the current directory, which must be empty."""
    digests = {}
    for label, name, data, extra in _inputs():
        if data is not None:
            with open(os.fsencode(name), "wb") as fh:
                fh.write(data)
        options = (*extra, "--returns-only") if name.endswith(".txt") else extra
        code_only = label == "wide.csv"  # a csv.Error message
        for variant, argv in _VARIANTS:
            argv = [argv[0], "--input", name, *options, *argv[1:]]
            digests[f"{label}:{variant}"] = _run(argv, code_only)
    for label, argv, code_only in _OTHER_CASES:
        digests[label] = _run(list(argv), code_only)
    return digests


def read_manifest(path: Path = MANIFEST) -> dict[str, str]:
    pairs = (line.split("  ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {label: digest for digest, label in pairs}


def changed_cases(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """The labels whose digests differ, or that only one side has, in manifest order."""
    return [label for label in {**expected, **actual} if expected.get(label) != actual.get(label)]


def test_outputs_match_the_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    changed = changed_cases(read_manifest(), golden_digests())
    assert not changed, f"{len(changed)} golden cases changed: {', '.join(changed)}"
