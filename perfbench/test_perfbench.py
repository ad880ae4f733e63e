"""Self-tests for the benchmark: `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import run
from tracing import per_op

HERE = Path(__file__).resolve().parent


def test_same_seed_gives_identical_inputs():
    first = inputs.ohlcv_csv(7, 500, 4)
    assert first == inputs.ohlcv_csv(7, 500, 4)
    assert first.text != inputs.ohlcv_csv(8, 500, 4).text
    lines = first.text.splitlines()
    assert lines[0] == inputs.HEADER and len(lines) == 501
    assert sum(line.endswith(inputs.NULL_ROW_FIELDS) for line in lines) == 4


def test_workload_plans_are_seeded(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    run.WORKLOADS["paper-1879"].prepare(3, a)
    run.WORKLOADS["paper-1879"].prepare(3, b)
    assert (a / "SPX.csv").read_bytes() == (b / "SPX.csv").read_bytes()
    plan = run.WORKLOADS["curves-50k"].prepare(3, a)
    assert plan.commands == run.WORKLOADS["curves-50k"].prepare(3, a).commands


def _report(**changes) -> bytes:
    report = {"symbol": "SPX", "n": 9, "skew": 0.1, "excess_kurtosis": 3.0, "shapiro_w": 0.9,
              "shapiro_p": 1e-5, "normal_fit": {"mean": 0.0, "sigma": 0.01},
              "laplace_fit": {"mu": 0.0, "scale": 0.006}, "ks_normal": 0.05,
              "ks_laplace": 0.02, "log_lik_normal": 10.0, "log_lik_laplace": 12.0,
              "aic_normal": -16.0, "aic_laplace": -20.0, "better_fit": "laplace",
              "warnings": ["line 4: null field, row skipped"]}
    report.update(changes)
    return json.dumps(report).encode()


def test_analyze_check_accepts_a_correct_report():
    checks.analyze_json(_report(), price_rows=10, null_rows=1)


@pytest.mark.parametrize("output", [
    _report(n=10),
    _report(better_fit="normal"),
    _report(warnings=[]),
    _report(warnings=["line 4: null field, row skipped", "shapiro-wilk: n=9 exceeds"]),
    _report().replace(b'"skew": 0.1', b'"skew": NaN'),
    b'{"n": 9',
    b"",
])
def test_analyze_check_rejects_wrong_output(output):
    with pytest.raises(checks.CheckFailed):
        checks.analyze_json(output, price_rows=10, null_rows=1)


def _svg(n: int, stair_points: int | None = None) -> bytes:
    def line(k):
        return '<polyline points="%s"/>' % " ".join(["1,2"] * k)
    stair = 2 * n + 1 if stair_points is None else stair_points
    body = line(stair) + line(n) + line(n)
    return f'<svg xmlns="http://www.w3.org/2000/svg">{body}</svg>'.encode()


def test_curve_checks():
    checks.ecdf_svg(_svg(3), 3)
    checks.histogram_json(b'{"n": 5, "bin_edges": [0, 1, 2], "counts": [2, 3]}', 5, 2)
    checks.return_lines(b"0.1\n-0.2\n", 2)
    for bad in (_svg(3)[:-3], _svg(3, stair_points=6), _svg(3).replace(b"<svg", b"<svg a=\"&\"")):
        with pytest.raises(checks.CheckFailed):
            checks.ecdf_svg(bad, 3)
    with pytest.raises(checks.CheckFailed):
        checks.histogram_json(b'{"n": 5, "bin_edges": [0, 1, 2], "counts": [2, 2]}', 5, 2)
    for bad in (b"0.1\n", b"0.1\nnan\n", b"0.1\nx\n"):
        with pytest.raises(checks.CheckFailed):
            checks.return_lines(bad, 2)


def _iterations(count=50, **changes):
    it = {"seed": 1, "abs_skew": 0.02, "abs_kurt": 0.05, "w": 0.9996, "p": 0.5,
          "better_fit": "laplace"}
    return [{**it, **changes} for _ in range(count)]


def test_montecarlo_check():
    checks.montecarlo(_iterations())
    for wrong in (_iterations(abs_skew=0.09), _iterations(abs_kurt=0.2), _iterations(w=0.998),
                  _iterations(p=0.01), _iterations(better_fit="normal")):
        with pytest.raises(checks.CheckFailed):
            checks.montecarlo(wrong)


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(100)]
    assert run.tail_of(values) == (89.0, 90.0)
    assert run.tail_of(values[:22]) == (11.0, 100 * 12 / 22)
    assert run.tail_of(values[:21]) == (10.0, 50.0)
    assert run.tail_of(values[:4]) == (1.5, 50.0)


def test_self_time_excludes_direct_children():
    spans = [["op", 0.0, 10.0, -1, 0], ["cli.main", 1.0, 9.0, 0, 0],
             ["report.analyze_returns", 2.0, 8.0, 1, 0], ["gof.compare_fits", 3.0, 5.0, 2, 0],
             ["normality.shapiro_wilk", 5.0, 6.0, 2, 0]]
    totals = per_op([{"spans": spans, "counts": [[0, {"gof.calls": 1}]]}])[0]
    assert totals["cli.main_self_s"] == 2.0
    assert totals["report.analyze_returns_s"] == 6.0
    assert totals["report.analyze_returns_self_s"] == 3.0
    assert totals["report.self_s"] == 3.0
    assert totals["gof.calls"] == 1


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (n, u) for n, u, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, "higher" if n in run.HIGHER_IS_BETTER else "lower") for n, u, _ in run.PER_LAYER]


def test_run_prints_a_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paper-1879", "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {n for n, _, _ in run.PER_LAYER}
