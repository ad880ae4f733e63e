"""Output checks: each raises CheckFailed naming what is wrong.

A benchmark operation counts as failed when its process exits non-zero,
prints a traceback, or produces an output one of these checks rejects.
"""

from __future__ import annotations

import json
import math
import statistics
import xml.etree.ElementTree as ET

SW_VALIDATED_N = 5000  # above this the program must warn that SW is extrapolated

# Acceptance criterion 1 (n = 5000 normal draws over 50 seeds).
MC_MAX_MEDIAN_ABS_SKEW = 0.08
MC_MAX_MEDIAN_ABS_KURT = 0.15
MC_MIN_MEDIAN_W = 0.999
MC_MAX_REJECTION_RATE = 0.14


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _reject_constant(token: str) -> float:
    raise CheckFailed(f"non-finite JSON number {token}")


def _json(data: bytes, what: str):
    try:
        return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{what} is not valid JSON: {exc}") from None


def process_ok(returncode: int, stderr: bytes) -> None:
    _require(returncode == 0, f"exit code {returncode}: {stderr[-300:]!r}")
    _require(b"Traceback (most recent call last)" not in stderr, "traceback on stderr")


def analyze_json(stdout: bytes, price_rows: int, null_rows: int) -> None:
    """`analyze --format json` on a Laplace-returns CSV."""
    report = _json(stdout, "analyze output")
    _require(isinstance(report, dict), "analyze output is not a JSON object")
    n = report.get("n")
    _require(n == price_rows - 1, f"n={n!r}, expected rows read - 1 = {price_rows - 1}")
    _require(
        report.get("better_fit") == "laplace",
        f"better_fit={report.get('better_fit')!r} on Laplace returns",
    )
    for key in ("skew", "excess_kurtosis", "shapiro_w", "shapiro_p", "ks_normal",
                "ks_laplace", "log_lik_normal", "log_lik_laplace", "aic_normal", "aic_laplace"):
        value = report.get(key)
        _require(
            isinstance(value, (int, float)) and math.isfinite(value), f"{key}={value!r}"
        )
    warnings = report.get("warnings", [])
    skipped = sum("null field, row skipped" in w for w in warnings)
    _require(skipped == null_rows, f"{skipped} null-row warnings, expected {null_rows}")
    large_n = any(w.startswith("shapiro-wilk: n=") for w in warnings)
    _require(large_n == (n > SW_VALIDATED_N), f"large-n SW warning is {large_n} at n={n}")


def return_lines(data: bytes, n: int) -> None:
    """The `sample` command's output: n finite floats, one per line."""
    lines = data.decode("utf-8").splitlines()
    _require(len(lines) == n, f"{len(lines)} return lines, expected {n}")
    try:
        values = [float(line) for line in lines]
    except ValueError as exc:
        raise CheckFailed(f"unparsable return line: {exc}") from None
    _require(all(math.isfinite(v) for v in values), "non-finite sampled return")


def ecdf_svg(data: bytes, n: int) -> None:
    """ECDF staircase plus two fitted curves, each with a point per value."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse as XML: {exc}") from None
    _require(root.tag.endswith("svg"), f"root element is {root.tag!r}")
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    _require(len(polylines) == 3, f"{len(polylines)} polylines, expected 3")
    sizes = [len(p.get("points", "").split()) for p in polylines]
    _require(sizes == [2 * n + 1, n, n], f"polyline sizes {sizes} for n={n}")


def histogram_json(data: bytes, n: int, bins: int) -> None:
    hist = _json(data, "histogram output")
    counts = hist.get("counts", [])
    _require(len(counts) == bins, f"{len(counts)} bins, expected {bins}")
    _require(len(hist.get("bin_edges", [])) == bins + 1, "bin_edges length")
    _require(sum(counts) == n and hist.get("n") == n, f"counts sum to {sum(counts)}, expected {n}")


def montecarlo(iterations: list[dict]) -> None:
    """Acceptance criterion 1 on the normal draws, and `better_fit` on
    the Laplace draws of every iteration."""
    _require(len(iterations) > 0, "no iterations")
    wrong = [it["seed"] for it in iterations if it["better_fit"] != "laplace"]
    _require(not wrong, f"better_fit != laplace on Laplace draws, seeds {wrong[:5]}")
    med_skew = statistics.median(it["abs_skew"] for it in iterations)
    med_kurt = statistics.median(it["abs_kurt"] for it in iterations)
    med_w = statistics.median(it["w"] for it in iterations)
    rate = sum(it["p"] < 0.05 for it in iterations) / len(iterations)
    _require(med_skew < MC_MAX_MEDIAN_ABS_SKEW, f"median |skew| {med_skew}")
    _require(med_kurt < MC_MAX_MEDIAN_ABS_KURT, f"median |kurt| {med_kurt}")
    _require(med_w > MC_MIN_MEDIAN_W, f"median W {med_w}")
    _require(rate <= MC_MAX_REJECTION_RATE, f"p < 0.05 rate {rate}")
