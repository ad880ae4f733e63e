"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured values (run with -s to see them on success)."""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time

import pytest

from returndist.cli import main
from returndist.distfit import (
    LaplaceParams,
    NormalParams,
    Xoshiro256PlusPlus,
    fit_laplace,
    median,
    sample_laplace,
    sample_normal,
)
from returndist.gof import compare_fits
from returndist.moments import excess_kurtosis, skewness
from returndist.normality import shapiro_wilk

from conftest import laplace_cdf, normal_cdf, normal_quantile, ohlcv_csv_from_returns, word
from sw_cases import SW_CASES, build_dataset
from test_normality import SW_REFERENCE

STD_NORMAL = NormalParams(mean=0.0, sigma=1.0)
STD_LAPLACE = LaplaceParams(mu=0.0, scale=1.0)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_standard_normal_benchmark():
    started = time.perf_counter()
    abs_skews, abs_kurts, w_stats, rejections = [], [], [], 0
    for seed in range(50):
        sample = sample_normal(5000, STD_NORMAL, 100 + seed)
        abs_skews.append(abs(skewness(sample)))
        abs_kurts.append(abs(excess_kurtosis(sample)))
        result = shapiro_wilk(sample)
        w_stats.append(result.w)
        rejections += result.p_value < 0.05
    elapsed = time.perf_counter() - started
    med_skew = statistics.median(abs_skews)
    med_kurt = statistics.median(abs_kurts)
    med_w = statistics.median(w_stats)
    rate = rejections / 50.0
    ok = (
        med_skew < 0.08
        and med_kurt < 0.15
        and med_w > 0.9990
        and 0.0 <= rate <= 0.14
        and elapsed < 10.0
    )
    _report(
        "criterion 1 (standard-normal benchmark, n=5000 x 50 seeds)",
        ok,
        f"median|skew|={med_skew:.4f}, median|kurt|={med_kurt:.4f}, "
        f"median W={med_w:.5f}, p<0.05 rate={rate:.2f}, {elapsed:.1f}s",
    )


def test_criterion_2_shapiro_wilk_oracle_equivalence():
    max_w_diff = 0.0
    max_p_rel = 0.0
    for case in SW_CASES:
        w_ref, p_ref = SW_REFERENCE[case[0] + f"-s{case[5]}"]
        result = shapiro_wilk(build_dataset(case))
        max_w_diff = max(max_w_diff, abs(result.w - w_ref))
        if p_ref > 1e-10:
            max_p_rel = max(max_p_rel, abs(result.p_value - p_ref) / p_ref)
    ok = max_w_diff < 1e-4 and max_p_rel < 1e-3
    _report(
        "criterion 2 (Shapiro-Wilk oracle equivalence, 20 datasets)",
        ok,
        f"max|W diff|={max_w_diff:.2e}, max p rel diff={max_p_rel:.2e}",
    )


def test_criterion_3_fat_tail_rejection():
    started = time.perf_counter()
    rejections = sum(
        shapiro_wilk(sample_laplace(1879, STD_LAPLACE, 300 + seed)).p_value < 1e-10
        for seed in range(100)
    )
    elapsed = time.perf_counter() - started
    ok = rejections >= 95 and elapsed < 30.0
    _report(
        "criterion 3 (fat-tail rejection, Laplace n=1879 x 100 seeds)",
        ok,
        f"p<1e-10 in {rejections}/100 seeds, {elapsed:.1f}s",
    )


def test_criterion_4_laplace_moment_theory():
    sample = sample_laplace(100000, STD_LAPLACE, 314159)
    kurt = excess_kurtosis(sample)
    skew = skewness(sample)
    ok = abs(kurt - 3.0) <= 0.3 and abs(skew) < 0.1
    _report(
        "criterion 4 (Laplace moment theory, n=100000)",
        ok,
        f"excess kurtosis={kurt:.3f} (target 3.0 +/- 0.3), skew={skew:.4f}",
    )


def test_criterion_5_better_fit_property():
    laplace_wins = 0
    for seed in range(100):
        report = compare_fits(sample_laplace(1879, STD_LAPLACE, 500 + seed))
        laplace_wins += (
            report.laplace.ks_distance < report.normal.ks_distance
            and report.laplace.aic < report.normal.aic
        )
    normal_wins = 0
    for seed in range(100):
        report = compare_fits(sample_normal(1879, STD_NORMAL, 700 + seed))
        normal_wins += (
            report.normal.ks_distance < report.laplace.ks_distance
            and report.normal.aic < report.laplace.aic
        )
    ok = laplace_wins >= 95 and normal_wins >= 95
    _report(
        "criterion 5 (Laplace wins on Laplace data and vice versa, n=1879)",
        ok,
        f"laplace wins {laplace_wins}/100, normal wins {normal_wins}/100",
    )


def test_criterion_6_estimator_exactness():
    fit = fit_laplace([-1.0, 0.0, 1.0])
    exact = fit.mu == 0.0 and fit.scale == 2.0 / 3.0

    rng = Xoshiro256PlusPlus(2024)
    optimal = True
    for _ in range(1000):
        n = 2 + word(rng) % 14
        data = [4.0 * u - 2.0 for u in rng._floats(n)]
        center = median(data)
        best = math.fsum(abs(x - center) for x in data)
        lo, hi = min(data), max(data)
        grid = [lo + (hi - lo) * k / 100.0 for k in range(101)] + data
        if any(math.fsum(abs(x - c) for x in data) < best - 1e-9 for c in grid):
            optimal = False
            break
    ok = exact and optimal
    _report(
        "criterion 6 (estimator exactness and median optimality)",
        ok,
        f"fit=({fit.mu}, {fit.scale}) exact={exact}, "
        f"median optimal on 1000 random samples={optimal}",
    )


def test_criterion_7_numerical_kernels():
    max_round_trip = 0.0
    for k in range(-600, 601):
        x = k / 100.0
        recovered = normal_quantile(normal_cdf(x, STD_NORMAL))
        max_round_trip = max(max_round_trip, abs(recovered - x))

    params = LaplaceParams(mu=0.25, scale=1.3)
    step = 1e-5
    max_derivative_gap = 0.0
    for k in range(-800, 801):
        x = params.mu + k / 100.0
        if abs(x - params.mu) <= 2.0 * step or k == 0:
            continue
        numeric = (laplace_cdf(x + step, params) - laplace_cdf(x - step, params)) / (2.0 * step)
        density = math.exp(-abs(x - params.mu) / params.scale) / (2.0 * params.scale)
        max_derivative_gap = max(max_derivative_gap, abs(numeric - density))

    ok = max_round_trip < 1e-7 and max_derivative_gap < 1e-6
    _report(
        "criterion 7 (numerical kernels)",
        ok,
        f"max quantile(cdf(x)) error={max_round_trip:.2e} on |x|<=6, "
        f"max CDF-derivative vs pdf gap={max_derivative_gap:.2e}",
    )


def test_criterion_8_end_to_end_determinism(tmp_path, capsys):
    returns = sample_laplace(1999, LaplaceParams(mu=0.0, scale=0.009), 88)
    csv_path = tmp_path / "SYN2000.csv"
    csv_path.write_text(ohlcv_csv_from_returns(returns), encoding="utf-8")
    assert len(csv_path.read_text().splitlines()) == 2001  # header + 2000 rows

    started = time.perf_counter()
    code = main(["analyze", "--input", str(csv_path)])
    elapsed = time.perf_counter() - started
    first = capsys.readouterr().out
    assert code == 0
    payload = json.loads(first)
    assert payload["n"] == 1999

    def run_subprocess() -> bytes:
        return subprocess.run(
            [sys.executable, "-m", "returndist", "analyze", "--input", str(csv_path)],
            capture_output=True,
            check=True,
        ).stdout

    identical = run_subprocess() == run_subprocess()
    ok = identical and elapsed < 1.0
    _report(
        "criterion 8 (end-to-end determinism and speed)",
        ok,
        f"bit-identical across processes={identical}, pipeline on 2000 rows "
        f"took {elapsed * 1000:.0f}ms",
    )


INDEX_ENV_VARS = ("RETURNDIST_SP500_CSV", "RETURNDIST_DJIA_CSV", "RETURNDIST_NASDAQ_CSV")


def test_criterion_9_real_index_data(capsys):
    configured = [(name, os.environ[name]) for name in INDEX_ENV_VARS if os.environ.get(name)]
    if not configured:
        print("[acceptance] criterion 9 (real index data): SKIP (no index CSV env vars set)")
        pytest.skip(f"set any of {INDEX_ENV_VARS} to run against real index data")
    for name, path in configured:
        code = main(["analyze", "--input", path])
        out = capsys.readouterr().out
        assert code == 0, f"{name}: analyze exited {code}"
        payload = json.loads(out)
        ok = (
            payload["skew"] < 0.0
            and payload["excess_kurtosis"] > 2.0
            and payload["shapiro_w"] < 0.98
            and payload["shapiro_p"] < 1e-10
        )
        _report(
            f"criterion 9 ({name})",
            ok,
            f"skew={payload['skew']:.4f}, kurt={payload['excess_kurtosis']:.4f}, "
            f"W={payload['shapiro_w']:.4f}, p={payload['shapiro_p']:.3e}",
        )
