"""Tests for report assembly, histogram data, and the ECDF overlay."""

from __future__ import annotations

import builtins
import json
import math
import re
import tracemalloc
from bisect import bisect_right
from operator import sub

import pytest

from returndist.distfit import (
    LaplaceParams,
    NormalParams,
    fit_laplace,
    fit_normal,
    sample_laplace,
    sample_normal,
)
from returndist.errors import (
    DegenerateFitError,
    DegenerateSampleError,
    DomainError,
    InsufficientDataError,
)
from returndist.gof import compare_fits, log_likelihood
from returndist.moments import central_moment, moment_report
from returndist.normality import shapiro_wilk
from returndist.report import (
    _render_json,
    analyze_returns,
    ecdf_overlay,
    histogram,
    render_ecdf_csv,
    render_ecdf_svg,
    render_histogram_json,
    render_report_json,
    render_report_markdown,
    report_from_dict,
    report_to_dict,
)

from conftest import laplace_cdf, normal_cdf

STD_LAPLACE = LaplaceParams(mu=0.0, scale=1.0)
STD_NORMAL = NormalParams(mean=0.0, sigma=1.0)


def sample_report(seed: int = 3):
    values = sample_laplace(600, STD_LAPLACE, seed)
    return analyze_returns(values, "SYN", ["w1"])


def seeded_samples(sizes):
    """Normal and Laplace draws of each size, each also rounded to one
    decimal with its last value set to its first, so it has ties."""
    for n in sizes:
        for seed, (draw, params) in enumerate(
            ((sample_normal, STD_NORMAL), (sample_laplace, STD_LAPLACE))
        ):
            values = draw(n, params, 1000 * n + seed)
            yield values
            tied = [round(x, 1) for x in values]
            tied[-1] = tied[0]
            yield tied


def _overlay_per_point(values):
    """The overlay's definition, one point at a time: the reference for
    ecdf_overlay."""
    normal_params, laplace_params = fit_normal(values), fit_laplace(values)
    sorted_x = sorted(values)
    return [
        (
            x,
            bisect_right(sorted_x, x) / len(sorted_x),
            normal_cdf(x, normal_params),
            laplace_cdf(x, laplace_params),
        )
        for x in sorted_x
    ]



def _csv_per_point(rows):
    """The ECDF table one f-string per row: the reference for render_ecdf_csv."""
    lines = ["x,ecdf,normal_cdf,laplace_cdf"]
    for x, e, fn, fl in rows:
        lines.append(f"{x!r},{e!r},{fn!r},{fl!r}")
    return "\n".join(lines) + "\n"


def _svg_per_point(rows, symbol):
    """The ECDF figure with one f-string per pixel and per vertex: the
    reference for render_ecdf_svg."""
    width, height, left, right, top, bottom_margin = 720, 480, 72, 24, 42, 54
    xs = [r[0] for r in rows]
    lo, hi = min(xs), max(xs)
    span = (hi - lo) or 1.0
    lo -= 0.02 * span
    hi += 0.02 * span
    plot_w = width - left - right
    plot_h = height - top - bottom_margin

    def px(x):
        return f"{left + plot_w * (x - lo) / (hi - lo):.2f}"

    def py(q):
        return f"{top + plot_h * (1.0 - q):.2f}"

    bottom = py(0.0)
    stair = [f"{px(rows[0][0])},{bottom}"]
    previous = bottom
    for x, e, _, _ in rows:
        stair.append(f"{px(x)},{previous} {px(x)},{py(e)}")
        previous = py(e)
    curves = [
        " ".join(stair),
        " ".join(f"{px(r[0])},{py(r[2])}" for r in rows),
        " ".join(f"{px(r[0])},{py(r[3])}" for r in rows),
    ]
    title = symbol.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    axis = "#444444"
    x0, y0 = left, top + plot_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}: empirical CDF vs fitted models</text>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="{axis}"/>',
        f'<line x1="{x0}" y1="{top}" x2="{x0}" y2="{y0}" stroke="{axis}"/>',
    ]
    for k in range(5):
        x = lo + (hi - lo) * k / 4.0
        parts.append(f'<line x1="{px(x)}" y1="{y0}" x2="{px(x)}" y2="{y0 + 5}" stroke="{axis}"/>')
        parts.append(
            f'<text x="{px(x)}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x:.4g}</text>'
        )
    for k in range(6):
        q = k / 5.0
        parts.append(f'<line x1="{x0 - 5}" y1="{py(q)}" x2="{x0}" y2="{py(q)}" stroke="{axis}"/>')
        parts.append(
            f'<text x="{x0 - 9}" y="{py(q)}" text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif" font-size="11">{q:.1f}</text>'
        )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">daily return</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.0f})">F(x)</text>'
    )
    style = (("empirical", "#222222"), ("normal fit", "#1f77b4"), ("laplace fit", "#d62728"))
    for points, (_, color) in zip(curves, style):
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    for i, (label, color) in enumerate(style):
        ly = top + 10 + 18 * i
        parts.append(
            f'<line x1="{x0 + 14}" y1="{ly}" x2="{x0 + 40}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x0 + 46}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _histogram_counts_per_point(values, bins):
    """Bin counts one value at a time: the reference for histogram."""
    lo, hi = min(values), max(values)
    width = (hi - lo) / bins
    counts = [0] * bins
    for x in values:
        counts[min(int((x - lo) / width), bins - 1)] += 1
    return tuple(counts)

class TestAnalyzeReturns:
    def test_field_contracts(self):
        report = sample_report()
        assert report.symbol == "SYN"
        assert report.n == 600
        assert report.better_fit == "laplace"
        assert report.warnings == ("w1",)
        for name in (
            "skew", "excess_kurtosis", "shapiro_w", "shapiro_p",
            "ks_normal", "ks_laplace", "log_lik_normal", "log_lik_laplace",
            "aic_normal", "aic_laplace",
        ):
            assert math.isfinite(getattr(report, name)), name

    def test_large_n_warning_appended(self):
        values = sample_normal(5001, STD_NORMAL, 12)
        report = analyze_returns(values, "BIG")
        assert any("5001" in w for w in report.warnings)

    def test_json_round_trip(self):
        report = sample_report()
        recovered = report_from_dict(json.loads(render_report_json(report)))
        assert recovered == report

    def test_dict_keys_stable(self):
        payload = report_to_dict(sample_report())
        assert list(payload) == [
            "symbol", "n", "skew", "excess_kurtosis", "shapiro_w", "shapiro_p",
            "normal_fit", "laplace_fit", "ks_normal", "ks_laplace",
            "log_lik_normal", "log_lik_laplace", "aic_normal", "aic_laplace",
            "better_fit", "warnings",
        ]

    def test_markdown_matches_json_to_six_digits(self):
        report = sample_report()
        payload = report_to_dict(report)
        rendered = {}
        for line in render_report_markdown(report).splitlines()[2:]:
            if not line.startswith("|"):
                continue
            _, key, value, _ = (part.strip() for part in line.split("|"))
            rendered[key] = value
        flat = dict(payload)
        flat["normal_mean"] = payload["normal_fit"]["mean"]
        flat["normal_sigma"] = payload["normal_fit"]["sigma"]
        flat["laplace_mu"] = payload["laplace_fit"]["mu"]
        flat["laplace_scale"] = payload["laplace_fit"]["scale"]
        for key, value in rendered.items():
            if key in ("symbol", "better_fit"):
                assert value == flat[key]
            else:
                assert float(value) == float(f"{flat[key]:.6g}"), key

    def test_markdown_lists_warnings(self):
        assert "- warning: w1" in render_report_markdown(sample_report())

    def test_markdown_escapes_pipes(self):
        values = sample_laplace(50, STD_LAPLACE, 4)
        for symbol in ("a|b", "|", "a||b", "a\\|b"):
            markdown = render_report_markdown(analyze_returns(values, symbol))
            table = [line for line in markdown.splitlines() if line.startswith("|")]
            assert len(table) == 19
            for line in table:
                assert len(re.findall(r"(?<!\\)\|", line)) == 3, line
            assert symbol.replace("|", r"\|") in table[2]

    @pytest.mark.parametrize("symbol", ["a\nb", "a\rb", "a\r\nb", "\n|"])
    def test_markdown_one_row_per_metric(self, symbol):
        # a file name may hold CR or LF, which would end the table line
        report = analyze_returns(sample_laplace(50, STD_LAPLACE, 4), symbol)
        markdown = render_report_markdown(report)
        table = markdown.split("\n")
        assert len(table) == 19 and "\r" not in markdown
        assert all(line.startswith("|") and line.endswith("|") for line in table)
        cell = symbol.replace("|", r"\|").replace("\r", "\ufffd").replace("\n", "\ufffd")
        assert table[2].split()[3] == cell

    def test_json_rejects_non_finite(self):
        report = report_from_dict({**report_to_dict(sample_report()), "skew": math.inf})
        with pytest.raises(ValueError):
            render_report_json(report)

    @pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan))
    @pytest.mark.parametrize("field", ("skew", "excess_kurtosis", "shapiro_p", "aic_laplace"))
    def test_json_names_the_non_finite_field(self, field, value):
        payload = report_to_dict(sample_report())
        # a later field that is not finite either: the first one is named
        report = report_from_dict({**payload, field: value, "ks_laplace": math.nan})
        name = "ks_laplace" if field == "aic_laplace" else field
        with pytest.raises(ValueError, match=f"^{name} is not finite; rescale the sample$"):
            render_report_json(report)

    def test_markdown_replaces_lone_surrogates(self):
        # an undecodable byte of a file name reaches the symbol as a lone surrogate
        report = analyze_returns(sample_laplace(50, STD_LAPLACE, 4), "a\udcffb|c")
        markdown = render_report_markdown(report)
        assert markdown.splitlines()[2].split()[3] == "a\ufffdb\\|c"
        markdown.encode("utf-8")

    @pytest.mark.parametrize(
        "symbol", ["SPX", "", "日本é", "a\x01b\x1f", 'q"uote', "back\\slash", "x\udcffy", "\u2028\x7f"]
    )
    @pytest.mark.parametrize("warnings", [(), ("w1", "line 3: \"null\"\tfield")])
    def test_json_writer_equals_json_dumps(self, symbol, warnings):
        # the writer's own layout, string escapes and number forms against json's
        report = analyze_returns(sample_laplace(60, STD_LAPLACE, 5), symbol, warnings)
        payload = report_to_dict(report)
        assert render_report_json(report) == json.dumps(payload, indent=2, allow_nan=False)
        hist = histogram([-1.5, 0.0, 2.0**-1074, 3.25, 1e300], 4)
        expected = {"symbol": symbol, "n": 5, **hist._asdict()}
        assert render_histogram_json(symbol, hist) == json.dumps(expected, indent=2)

    def test_json_writer_forms(self):
        # the forms report and histogram payloads hold: no None, bool or empty dict
        payload = {"a": [], "f": [1, -0.0, [2**70]], "g": {"h": (1e-300, 0.1)}, "é\n": ""}
        assert _render_json(payload) == json.dumps(payload, indent=2, allow_nan=False)

    @pytest.mark.parametrize("value", (math.inf, -math.inf, math.nan))
    def test_json_writer_names_a_non_finite_value_in_a_tuple(self, value):
        payload = {"symbol": "X", "n": 2, "bin_edges": (0.0, value), "counts": (1, 1)}
        with pytest.raises(ValueError, match="^bin_edges is not finite; rescale the sample$"):
            _render_json(payload)


class TestHistogram:
    def test_counts_partition_sample(self):
        values = sample_normal(1000, STD_NORMAL, 21)
        hist = histogram(values, 37)
        assert sum(hist.counts) == 1000
        assert len(hist.counts) == 37
        assert len(hist.bin_edges) == 38

    def test_density_integrates_to_one(self):
        values = sample_laplace(500, STD_LAPLACE, 8)
        hist = histogram(values, 60)
        integral = math.fsum(
            d * (hist.bin_edges[i + 1] - hist.bin_edges[i])
            for i, d in enumerate(hist.densities)
        )
        assert integral == pytest.approx(1.0, abs=1e-9)

    def test_edges_ascending_and_span_data(self):
        values = sample_normal(300, STD_NORMAL, 5)
        hist = histogram(values, 10)
        assert list(hist.bin_edges) == sorted(hist.bin_edges)
        assert hist.bin_edges[0] == min(values)
        assert hist.bin_edges[-1] == max(values)

    def test_degenerate_range_single_bin(self):
        hist = histogram([0.01] * 25, 1)
        assert hist.counts == (25,)
        assert hist.bin_edges == (0.01 - 0.5, 0.01 + 0.5)
        assert hist.densities == (25 / (25 * 1.0),)

    def test_degenerate_range_ignores_requested_bins(self):
        assert len(histogram([2.0, 2.0], 50).counts) == 1

    def test_mode_bin_at_center(self):
        # unimodality: the bin holding mu carries the max count; n large
        # enough that a boundary splitting the peak rarely decides it
        hits = 0
        for seed in range(100):
            values = sample_laplace(20000, STD_LAPLACE, 40_000 + seed)
            hist = histogram(values, 50)
            width = hist.bin_edges[1] - hist.bin_edges[0]
            index = min(int((0.0 - hist.bin_edges[0]) / width), len(hist.counts) - 1)
            hits += hist.counts[index] == max(hist.counts)
        assert hits >= 95

    @pytest.mark.parametrize("bins", (1, 7, 100))
    def test_counts_equal_per_point_reference(self, bins):
        for values in seeded_samples((5, 37, 1879)):
            values = values + [max(values)] * 2  # x == hi at least three times
            assert histogram(values, bins).counts == _histogram_counts_per_point(values, bins)

    def test_index_past_last_bin_folds_into_it(self):
        # the width rounds down to a subnormal, so (x - lo) / width reaches
        # bins + 1 for the largest value, not only bins
        values = [1e-321 * k for k in range(1, 10)] + [9e-321]
        lo, hi = min(values), max(values)
        assert int((hi - lo) / ((hi - lo) / 100)) == 101
        assert histogram(values, 100).counts == _histogram_counts_per_point(values, 100)

    @pytest.mark.parametrize(
        "values, bins, shown",
        [
            ([-math.inf, 1.0, 0.0], 100, "[-inf, 1.0] into 100 bins"),  # width inf
            ([1.0, math.inf], 1, "[1.0, inf] into 1 bins"),
            ([-5e-324, 5e-324, 0.0], 100, "[-5e-324, 5e-324] into 100 bins"),  # width 0
        ],
    )
    def test_range_float64_cannot_bin(self, values, bins, shown):
        with pytest.raises(DomainError, match=re.escape(shown)):
            histogram(values, bins)

    @pytest.mark.parametrize("values, bins", [([-1e308, 1e308, 0.0], 100), ([-1e308, 1e308], 1)])
    def test_overflowing_range_is_cut(self, values, bins):
        # hi - lo overflows, though the range and every bin width are finite
        hist = histogram(values, bins)
        assert hist.bin_edges[0] == -1e308 and hist.bin_edges[-1] == 1e308
        assert len(hist.bin_edges) == bins + 1 and sum(hist.counts) == len(values)
        assert 0.0 < min(hist.densities[:1] + hist.densities[-1:]) < math.inf

    @pytest.mark.parametrize("bins", (1, 40, 100))
    def test_power_of_two_scales_near_float64_max(self, bins):
        # n times the bin width overflows from about k = 1020, and hi - lo at
        # k = 1028; the densities are then subnormal, so each is compared in
        # ulps at its own scale
        values = sample_laplace(1879, LaplaceParams(mu=0.0, scale=0.006), 7)
        reference = histogram(values, bins)
        for k in range(1020, 1029):
            hist = histogram([math.ldexp(x, k) for x in values], bins)
            assert hist.counts == reference.counts, k
            assert [math.ldexp(edge, -k) for edge in hist.bin_edges] == list(reference.bin_edges)
            for density, expected in zip(hist.densities, reference.densities):
                error = abs(math.ldexp(density, k) - expected)
                assert error <= 2 * math.ldexp(math.ulp(density), k), (k, density, expected)

    @pytest.mark.parametrize(
        "value, half",
        [
            (2.0**52 - 1.0, 0.5),
            (2.0**52, 1.0),
            (1e16, 2.0),
            (-1e16, 2.0),
            (1e300, math.ulp(1e300)),
            (-1e300, math.ulp(1e300)),
        ],
    )
    def test_degenerate_range_half_width(self, value, half):
        # from 2^52 on, value ± 0.5 rounds onto the value: the bin is one ulp either side
        hist = histogram([value] * 3, 1)
        assert hist.bin_edges == (value - half, value + half)
        assert hist.bin_edges[0] < value < hist.bin_edges[1]
        assert hist.counts == (3,)
        assert math.isfinite(hist.densities[0])

    def test_json_names_overflowing_densities(self):
        # the bin width is subnormal, so every density overflows to inf
        hist = histogram([1e-320, 2e-320, 3e-320], 100)
        assert math.inf in hist.densities
        with pytest.raises(ValueError, match="^densities is not finite; rescale the sample$"):
            render_histogram_json("TINY", hist)

    def test_validation(self):
        with pytest.raises(DomainError):
            histogram([1.0, 2.0], 0)
        with pytest.raises(InsufficientDataError):
            histogram([], 5)


class TestOrderInvariance:
    @pytest.mark.parametrize("n", (4, 5, 37, 1879, 5001))
    def test_report_independent_of_input_order(self, n):
        for values in seeded_samples((n,)):
            report = analyze_returns(values, "SYN")
            assert analyze_returns(sorted(values), "SYN") == report
            assert analyze_returns(values[::-1], "SYN") == report


class TestCentredSample:
    """analyze_returns sorts and centres the sample once and hands that to
    the moments, Shapiro-Wilk and fit-comparison kernels."""

    def test_fields_equal_standalone_functions(self):
        for values in seeded_samples((4, 5, 37, 1879, 5001)):
            report = analyze_returns(values, "SYN")
            moments, sw, gof = moment_report(values), shapiro_wilk(values), compare_fits(values)
            assert (report.n, report.skew, report.excess_kurtosis) == (
                moments.n, moments.skew, moments.excess_kurtosis
            )
            assert (report.shapiro_w, report.shapiro_p) == (sw.w, sw.p_value)
            assert (report.normal_fit, report.laplace_fit) == (gof.normal.params, gof.laplace.params)
            assert (report.ks_normal, report.ks_laplace) == (
                gof.normal.ks_distance, gof.laplace.ks_distance
            )
            assert (report.log_lik_normal, report.log_lik_laplace) == (
                gof.normal.log_likelihood, gof.laplace.log_likelihood
            )
            assert (report.aic_normal, report.aic_laplace, report.better_fit) == (
                gof.normal.aic, gof.laplace.aic, gof.better_fit
            )
            assert fit_normal(values) == NormalParams(moments.mean, math.sqrt(moments.m2))

    def test_log_likelihoods_from_fit_sums_equal_log_likelihood(self):
        # the last sample's fsum of d * d differs from that of d ** 2
        d_squared_differs = [
            0.0009792502451397651, 0.0007281421008989415, 0.0006606232561249079,
            0.7410312675935824,
        ]
        for values in [*seeded_samples((4, 5, 37, 1879, 5001)), d_squared_differs]:
            gof = compare_fits(values)
            for score in (gof.normal, gof.laplace):
                assert score.log_likelihood == log_likelihood(values, score.params)

    def test_one_mean_and_one_sum_of_squares_pass(self, monkeypatch):
        # the normal log-likelihood reads the sum of squares the moments,
        # Shapiro-Wilk and the Normal fit read
        values = sample_laplace(50, STD_LAPLACE, 5)
        mean = math.fsum(values) / len(values)
        squares = (
            sorted((x - mean) * (x - mean) for x in values),
            sorted((x - mean) ** 2 for x in values),
        )
        fsum, summed = math.fsum, []

        def recording_fsum(terms):
            terms = list(terms)
            summed.append(sorted(terms))
            return fsum(terms)

        monkeypatch.setattr(math, "fsum", recording_fsum)
        analyze_returns(values, "SYN")
        assert summed.count(sorted(values)) == 1
        assert sum(terms in squares for terms in summed) == 1

    @pytest.mark.parametrize("call", (analyze_returns, compare_fits, ecdf_overlay))
    def test_one_sort(self, call, monkeypatch):
        # the Laplace fit reads the median off the sorted copy the caller made
        values = sample_laplace(50, STD_LAPLACE, 5)
        sort, sorts = builtins.sorted, []

        def recording_sorted(*args, **kwargs):
            sorts.append(args)
            return sort(*args, **kwargs)

        monkeypatch.setattr(builtins, "sorted", recording_sorted)
        call(*((values, "SYN") if call is analyze_returns else (values,)))
        assert len(sorts) == 1

    def test_central_moment_equals_moment_report(self):
        for values in seeded_samples((4, 5, 37, 1879, 5001)):
            moments = moment_report(values)
            assert [central_moment(values, k) for k in (2, 3, 4)] == [
                moments.m2, moments.m3, moments.m4
            ]

    @pytest.mark.parametrize("values", ([1, 2, 3, 4, 5], [1, 2, 3, 3, 4, 5]))
    def test_integer_sample_gives_float_location(self, values):
        report = analyze_returns(values, "INT")
        for mu in (report.laplace_fit.mu, fit_laplace(values).mu):
            assert type(mu) is float and mu == 3.0
        assert '"mu": 3.0,' in render_report_json(report)

    @pytest.mark.parametrize(
        ("call", "values", "error", "message"),
        [
            (analyze_returns, [1.0, 2.0, 3.0], InsufficientDataError,
             "moment report needs n >= 4, got 3"),
            (analyze_returns, [1.0] * 5, DegenerateSampleError,
             "moments undefined for a zero-variance sample"),
            (ecdf_overlay, [1.0, 2.0, 3.0], InsufficientDataError,
             "fit comparison needs n >= 4, got 3"),
            (ecdf_overlay, [1.0] * 5, DegenerateFitError,
             "all sample values identical; normal sigma is zero"),
            (shapiro_wilk, [1.0, 2.0], InsufficientDataError, "shapiro-wilk needs n >= 3, got 2"),
            (shapiro_wilk, [1.0] * 3, DegenerateSampleError,
             "shapiro-wilk undefined for a zero-variance sample"),
            (fit_normal, [1.0], InsufficientDataError, "normal fit needs n >= 2, got 1"),
            (compare_fits, [1.0, 2.0, 3.0], InsufficientDataError,
             "fit comparison needs n >= 4, got 3"),
        ],
    )
    def test_error_type_and_message(self, call, values, error, message):
        args = (values, "SYN") if call is analyze_returns else (values,)
        with pytest.raises(Exception) as caught:
            call(*args)
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        ("call", "values"),
        [
            # unscaled, every squared deviation underflows to zero
            pytest.param(analyze_returns, [1e-170, 2e-170, 3e-170, 4e-170], id="analyze-squares-0"),
            pytest.param(ecdf_overlay, [1e-170, 2e-170, 3e-170, 4e-170], id="ecdf-squares-0"),
            # unscaled, the sum of squares is the smallest subnormal and /n is 0
            pytest.param(analyze_returns, [0.0, 0.0, 0.0, 2.0**-537], id="analyze-variance-0"),
            pytest.param(ecdf_overlay, [0.0, 0.0, 0.0, 2.0**-537], id="ecdf-variance-0"),
            # unscaled, a square, the sum of the squares, the sum of the sample overflow
            pytest.param(analyze_returns, [1e300, -1e300, 0.0, 1.0], id="analyze-square-inf"),
            pytest.param(analyze_returns, [1e154, -1e154] * 4, id="analyze-squares-sum-inf"),
            pytest.param(ecdf_overlay, [1.7e308, 1.7e308, -1.0, 0.0], id="ecdf-sum-inf"),
            # unscaled, the variance's 1.5th power and square underflow; a
            # fourth-power sum overflows; cubes are +-inf; m2**1.5 overflows
            pytest.param(moment_report, [-1e-150, 1e-150, 0.0, 0.0], id="moments-m2-powers-0"),
            pytest.param(moment_report, [-1.1e77, 1.1e77] * 2, id="moments-fourths-sum-inf"),
            pytest.param(moment_report, [-1e103, 1e103, 0.0, 0.0], id="moments-cubes-inf"),
            pytest.param(moment_report, [0.0] * 100 + [1e104], id="moments-m2-power-inf"),
        ],
    )
    def test_extreme_scale_is_unit_scale(self, call, values):
        # the same values times 2^-k, exactly, with max |x| in [0.5, 1)
        k = math.frexp(max(map(abs, values)))[1]
        unit = [math.ldexp(x, -k) for x in values]
        if call is analyze_returns:
            got, want = analyze_returns(values, "SYN"), analyze_returns(unit, "SYN")
            for field in ("skew", "excess_kurtosis", "shapiro_w", "shapiro_p", "ks_normal",
                          "ks_laplace", "better_fit"):
                assert getattr(got, field) == getattr(want, field), field
            assert got.normal_fit.sigma == math.ldexp(want.normal_fit.sigma, k)
            assert got.laplace_fit.scale == math.ldexp(want.laplace_fit.scale, k)
        elif call is ecdf_overlay:
            got, want = ecdf_overlay(values), ecdf_overlay(unit)
            assert got[0] == sorted(values)
            assert got[1:] == want[1:]
        else:
            got, want = moment_report(values), moment_report(unit)
            assert (got.skew, got.excess_kurtosis) == (want.skew, want.excess_kurtosis)
            assert got.m2 == math.ldexp(want.m2, 2 * k)


class TestEcdfOverlay:
    def test_equals_per_point_reference(self):
        for values in seeded_samples((4, 5, 37, 1879)):
            columns = ecdf_overlay(values)
            assert all(type(column) is list for column in columns)
            assert list(zip(*columns)) == _overlay_per_point(values)

    def test_no_log_likelihood_pass(self, monkeypatch):
        # one mean, one sum of squares and the Laplace fit's |x - mu|: the
        # overlay takes no pass for a log-likelihood it does not report
        values = sample_laplace(50, STD_LAPLACE, 5)
        mean = math.fsum(values) / len(values)
        fsum, summed = math.fsum, []

        def recording_fsum(terms):
            terms = list(terms)
            summed.append(terms)
            return fsum(terms)

        monkeypatch.setattr(math, "fsum", recording_fsum)
        ecdf_overlay(values)
        assert len(summed) == 3
        assert sorted(summed[1]) == sorted((x - mean) * (x - mean) for x in values)

    def test_row_contract(self):
        # four columns, one row per value: x ascending, the ECDF rising to 1
        values = sample_laplace(400, STD_LAPLACE, 91)
        columns = ecdf_overlay(values)
        assert len(columns) == 4
        assert [len(column) for column in columns] == [len(values)] * 4
        x, ecdf_column, _, _ = columns
        assert ecdf_column == sorted(ecdf_column)
        assert ecdf_column[-1] == 1.0
        assert x == sorted(values)

    def test_laplace_curve_closer_on_laplace_data(self):
        wins = 0
        for seed in range(100):
            _, e, fn, fl = ecdf_overlay(sample_laplace(1879, STD_LAPLACE, 60_000 + seed))
            gap_normal = max(map(abs, map(sub, e, fn)))
            gap_laplace = max(map(abs, map(sub, e, fl)))
            wins += gap_laplace < gap_normal
        assert wins >= 95

    def test_csv_rendering(self):
        values = sample_normal(50, STD_NORMAL, 2)
        lines = render_ecdf_csv(ecdf_overlay(values)).splitlines()
        assert lines[0] == "x,ecdf,normal_cdf,laplace_cdf"
        assert len(lines) == 51
        first = [float(cell) for cell in lines[1].split(",")]
        assert first[0] == min(values)
        for cell_line in lines[1:]:
            cells = [float(cell) for cell in cell_line.split(",")]
            assert all(0.0 <= c <= 1.0 for c in cells[1:])

    @pytest.mark.parametrize("n", (4, 5, 37, 1879, 50_000))
    def test_renderers_equal_per_point_references(self, n):
        for values in seeded_samples((n,)):
            columns = ecdf_overlay(values)
            rows = list(zip(*columns))
            assert render_ecdf_csv(columns) == _csv_per_point(rows)
            for symbol in ("DEMO", "a<b&c>%s"):
                assert render_ecdf_svg(columns, symbol) == _svg_per_point(rows, symbol)

    def test_svg_title_replaces_only_characters_xml_forbids(self):
        columns = ecdf_overlay(sample_normal(20, STD_NORMAL, 3))
        kept = "\t\x7f\xe9\u20ac\ud7ff\ue000\ufffd\U0001f600\U0010ffff"
        forbidden = "\x00\x08\x0b\x0c\x1f\ud800\udfff\ufffe\uffff"
        expected = _svg_per_point(list(zip(*columns)), kept + "\ufffd" * len(forbidden))
        assert render_ecdf_svg(columns, kept + forbidden) == expected

    def test_svg_peak_memory_bounded(self):
        # printing each polyline from pixel floats holds about 3.0 times the
        # document at its peak; a string per pixel value costs about 6
        columns = ecdf_overlay(sample_laplace(50_000, STD_LAPLACE, 7))
        tracemalloc.start()
        try:
            svg = render_ecdf_svg(columns, "MEM")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(svg)

    def test_svg_rendering(self):
        import xml.etree.ElementTree as ET

        values = sample_normal(80, STD_NORMAL, 3)
        columns = ecdf_overlay(values)
        ns = "{http://www.w3.org/2000/svg}"
        for symbol in ("DEMO", "a<b&c"):
            svg = render_ecdf_svg(columns, symbol)
            root = ET.fromstring(svg)
            assert root.tag == f"{ns}svg"
            polylines = root.findall(f"{ns}polyline")
            assert len(polylines) == 3
            labels = {el.text for el in root.iter(f"{ns}text")}
            assert {"empirical", "normal fit", "laplace fit"} <= labels
            assert any(symbol in (t or "") for t in labels)
