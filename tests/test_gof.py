"""Tests for ECDF construction and goodness-of-fit scoring."""

from __future__ import annotations

import math
import operator
from itertools import repeat

import pytest

from returndist.distfit import (
    LaplaceParams,
    NormalParams,
    Xoshiro256PlusPlus,
    sample_laplace,
    sample_normal,
)
from returndist.errors import DegenerateFitError, DomainError, InsufficientDataError
from returndist import distfit, gof
from returndist.gof import (
    _ecdf_steps,
    _fits,
    _ks_distance,
    compare_fits,
    ecdf,
    ks_statistic,
    log_likelihood,
)
from returndist.moments import _centred

from conftest import laplace_cdf, laplace_quantile, normal_cdf

STD_LAPLACE = LaplaceParams(mu=0.0, scale=1.0)
STD_NORMAL = NormalParams(mean=0.0, sigma=1.0)


class TestEcdf:
    def test_counting(self):
        curve = ecdf([1.0, 2.0, 3.0])
        assert curve.evaluate(2.0) == pytest.approx(2.0 / 3.0)

    def test_below_minimum(self):
        assert ecdf([1.0, 2.0, 3.0]).evaluate(0.5) == 0.0

    def test_at_maximum(self):
        assert ecdf([1.0, 2.0, 3.0]).evaluate(3.0) == 1.0

    def test_right_continuity_with_ties(self):
        curve = ecdf([1.0, 1.0, 2.0])
        assert curve.evaluate(1.0) == pytest.approx(2.0 / 3.0)
        assert curve.evaluate(1.0 - 1e-12) == 0.0

    def test_permutation_invariant(self):
        a = ecdf([3.0, 1.0, 2.0, -4.0])
        b = ecdf([-4.0, 2.0, 3.0, 1.0])
        assert a == b

    def test_steps_contract(self):
        curve = ecdf([5.0, 1.0, 4.0, 2.0])
        assert curve.sorted_x == (1.0, 2.0, 4.0, 5.0)

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            ecdf([])


class TestKsStatistic:
    def test_single_point_against_laplace(self):
        assert ks_statistic([0.0], lambda x: laplace_cdf(x, STD_LAPLACE)) == 0.5

    def test_two_points_at_quartiles(self):
        sample = [laplace_quantile(0.25, STD_LAPLACE), laplace_quantile(0.75, STD_LAPLACE)]
        d = ks_statistic(sample, lambda x: laplace_cdf(x, STD_LAPLACE))
        assert d == pytest.approx(0.25)

    def test_self_ecdf_bound(self):
        rng = Xoshiro256PlusPlus(404)
        sample = rng._floats(257)  # continuous, no ties
        curve = ecdf(sample)
        assert ks_statistic(sample, curve.evaluate) <= 1.0 / len(sample) + 1e-12

    def test_affine_invariance(self):
        sample = sample_laplace(400, STD_LAPLACE, 99)
        base = ks_statistic(sample, lambda x: laplace_cdf(x, STD_LAPLACE))
        for a, b in ((2.0, 1.0), (0.25, -3.0)):
            moved = [a * x + b for x in sample]
            params = LaplaceParams(mu=b, scale=a)
            d = ks_statistic(moved, lambda x: laplace_cdf(x, params))
            assert d == pytest.approx(base, abs=1e-9)

    def test_fitted_laplace_beats_normal_on_laplace_data(self):
        wins = 0
        for seed in range(100):
            sample = sample_laplace(1879, STD_LAPLACE, 7000 + seed)
            report = compare_fits(sample)
            wins += report.laplace.ks_distance <= report.normal.ks_distance
        assert wins >= 95


class TestLogLikelihood:
    def test_laplace_peak_density(self):
        assert log_likelihood([0.0], STD_LAPLACE) == pytest.approx(math.log(0.5))

    def test_normal_peak_density(self):
        assert log_likelihood([0.0], STD_NORMAL) == pytest.approx(-0.5 * math.log(2.0 * math.pi))

    def test_laplace_ml_optimality_in_location(self):
        for seed in Xoshiro256PlusPlus(512)._words(50):
            sample = sample_laplace(25, STD_LAPLACE, seed)
            fit = compare_fits(sample).laplace.params
            perturbed = LaplaceParams(mu=fit.mu + 0.01 * fit.scale, scale=fit.scale)
            assert log_likelihood(sample, fit) >= log_likelihood(sample, perturbed)

    def test_matches_direct_density_sum(self):
        mu, b = STD_LAPLACE.mu, STD_LAPLACE.scale
        sample = sample_laplace(100, STD_LAPLACE, 1)
        direct = math.fsum(math.log(math.exp(-abs(x - mu) / b) / (2.0 * b)) for x in sample)
        assert log_likelihood(sample, STD_LAPLACE) == pytest.approx(direct)


@pytest.mark.parametrize(
    ("call", "args", "error", "message"),
    [
        (ks_statistic, ([], math.erfc), InsufficientDataError,
         "ks statistic needs a non-empty sample"),
        (log_likelihood, ([], STD_NORMAL), InsufficientDataError,
         "log-likelihood needs a non-empty sample"),
        (log_likelihood, ([0.0], object()), DomainError, "unsupported params type object"),
    ],
)
def test_error_type_and_message(call, args, error, message):
    with pytest.raises(Exception) as caught:
        call(*args)
    assert type(caught.value) is error
    assert str(caught.value) == message


def _ks_per_point(sample, cdf):
    """The definition, one point at a time: the reference for the KS kernel."""
    n = len(sample)
    distance = 0.0
    for i, x in enumerate(sorted(sample), start=1):
        f = cdf(x)
        distance = max(distance, i / n - f, f - (i - 1) / n)
    return distance


def _ks_map_truediv(cdf_values):
    """The KS kernel as it was written before the shared ECDF steps."""
    n = len(cdf_values)
    above = max(map(operator.sub, map(operator.truediv, range(1, n + 1), repeat(n)), cdf_values))
    below = max(map(operator.sub, cdf_values, map(operator.truediv, range(n), repeat(n))))
    return max(0.0, above, below)


class TestKsKernel:
    @pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 37, 1879, 5001))
    def test_shared_steps_equal_map_truediv(self, n):
        assert _ecdf_steps(n) == list(map(operator.truediv, range(n + 1), repeat(n)))
        sample = sample_laplace(n, STD_LAPLACE, n)
        for values in (sample, [round(x, 1) for x in sample]):  # without and with ties
            sorted_x = sorted(values)
            for cdfs, params in (
                (distfit._laplace_cdfs, STD_LAPLACE),
                (distfit._normal_cdfs, STD_NORMAL),
                (distfit._laplace_cdfs, LaplaceParams(mu=0.5, scale=0.1)),
            ):
                cdf_values = cdfs(sorted_x, params)
                assert _ks_distance(cdf_values, _ecdf_steps(n)) == _ks_map_truediv(cdf_values)


def _search_sample(family: str, n: int) -> list[float]:
    """n values of a family, divided so that the largest |x| is 2^-5: times
    2^1028 they stay finite."""
    if family == "normal":
        values = sample_normal(n, STD_NORMAL, n)
    elif family == "laplace":
        values = sample_laplace(n, STD_LAPLACE, n)
    elif family == "heavy-tailed":  # symmetric Pareto tails of index 2: no finite variance
        rng = Xoshiro256PlusPlus(n)
        values = [
            math.copysign((1.0 - u) ** -0.5 - 1.0, v - 0.5)
            for u, v in zip(rng._floats(n), rng._floats(n))
        ]
    else:  # the Laplace quantiles at (i + 1/2) / n: the fitted Laplace gaps all stay near
        # the largest, so the search can skip almost nothing
        values = distfit._laplace_quantiles([(i + 0.5) / n for i in range(n)], STD_LAPLACE)
    peak = max(map(abs, values))
    return [x / peak / 32.0 for x in values]


class TestKsSearch:
    """compare_fits finds each KS distance by a bounded search over the
    order statistics; it is the full scan's, bit for bit."""

    @staticmethod
    def _assert_equals_full_scan(sample):
        """compare_fits's KS distances are the full scan's; returns them."""
        centred = _centred(sorted(sample), 4, "fit comparison")
        full = [
            _ks_distance(cdfs(centred.values, params), _ecdf_steps(centred.n))
            for _, params, cdfs, _ in _fits(centred)
        ]
        report = compare_fits(sample)
        assert [report.normal.ks_distance, report.laplace.ks_distance] == full
        return full

    @pytest.mark.parametrize("n", (5000, 20_000))
    @pytest.mark.parametrize("family", ("normal", "laplace", "heavy-tailed", "laplace-quantiles"))
    def test_equals_full_scan(self, n, family):
        sample = _search_sample(family, n)
        for values in (sample, [round(x, 4) for x in sample]):  # without and with ties
            distances = [
                self._assert_equals_full_scan([math.ldexp(x, k) for x in values])
                for k in (0, -600, 600, 1028)
            ]
            assert distances == distances[:1] * 4  # scale-invariant, as the full scan is

    @pytest.mark.parametrize(("draw", "params"), ((sample_normal, STD_NORMAL),
                                                  (sample_laplace, STD_LAPLACE)))
    def test_equals_full_scan_with_long_ties(self, draw, params):
        # where a tie spans a run, the gap at its last point equals the run's
        # bound: a bound off by one step skips it
        for seed in range(100):
            n = 17 + seed * 31
            self._assert_equals_full_scan([round(x, seed % 3) for x in draw(n, params, seed)])

    @pytest.mark.parametrize(("draw", "params"), ((sample_normal, STD_NORMAL),
                                                  (sample_laplace, STD_LAPLACE)))
    def test_kernels_see_a_tenth_of_the_points(self, monkeypatch, draw, params):
        n = 20_000
        seen = {}
        for name in ("_normal_cdfs", "_laplace_cdfs"):
            kernel = getattr(gof, name)

            def counting(xs, p, kernel=kernel, name=name):
                xs = list(xs)
                seen[name] = seen.get(name, 0) + len(xs)
                return kernel(xs, p)

            monkeypatch.setattr(gof, name, counting)
        compare_fits(draw(n, params, 1))
        assert seen.keys() == {"_normal_cdfs", "_laplace_cdfs"}
        assert max(seen.values()) <= n // 10, seen


class TestCompareFits:
    @pytest.mark.parametrize("seed", range(12))
    def test_ks_bit_identical_to_per_point_definition(self, seed):
        n = (4, 5, 37, 1879)[seed % 4]
        draw = sample_laplace if seed % 2 else sample_normal
        sample = draw(n, STD_LAPLACE if seed % 2 else STD_NORMAL, seed)
        if seed % 3 == 0:
            sample = [round(x, 1) for x in sample]  # ties
        report = compare_fits(sample)
        sorted_x = sorted(sample)
        for score, cdf, cdfs in (
            (report.normal, normal_cdf, distfit._normal_cdfs),
            (report.laplace, laplace_cdf, distfit._laplace_cdfs),
        ):
            per_point = [cdf(x, score.params) for x in sorted_x]
            assert cdfs(sorted_x, score.params) == per_point
            expected = _ks_per_point(sample, lambda x: cdf(x, score.params))
            assert score.ks_distance == expected
            assert ks_statistic(sample, lambda x: cdf(x, score.params)) == expected

    def test_laplace_sample_prefers_laplace(self):
        sample = sample_laplace(5000, STD_LAPLACE, 42)
        assert compare_fits(sample).better_fit == "laplace"

    def test_normal_sample_prefers_normal(self):
        sample = sample_normal(5000, STD_NORMAL, 42)
        assert compare_fits(sample).better_fit == "normal"

    def test_structural_contract(self):
        report = compare_fits([0.1, -0.4, 0.2, 0.9, -1.3])
        for score in (report.normal, report.laplace):
            assert math.isfinite(score.ks_distance)
            assert math.isfinite(score.log_likelihood)
            assert math.isfinite(score.aic)
            assert 0.0 <= score.ks_distance <= 1.0
        assert report.better_fit in ("normal", "laplace")

    def test_aic_is_affine_in_ll(self):
        report = compare_fits(sample_normal(200, STD_NORMAL, 17))
        for score in (report.normal, report.laplace):
            assert score.aic == pytest.approx(4.0 - 2.0 * score.log_likelihood)

    def test_aic_order_equals_ll_order(self):
        for seed in range(20):
            family = sample_laplace if seed % 2 else sample_normal
            params = STD_LAPLACE if seed % 2 else STD_NORMAL
            report = compare_fits(family(300, params, seed))
            assert (report.normal.aic < report.laplace.aic) == (
                report.normal.log_likelihood > report.laplace.log_likelihood
            )

    def test_errors(self):
        with pytest.raises(InsufficientDataError):
            compare_fits([1.0, 2.0, 3.0])
        with pytest.raises(DegenerateFitError):
            compare_fits([2.0, 2.0, 2.0, 2.0])


class TestTrueFamilyWins:
    """Laplace-generated data: fitted Laplace wins on both KS and AIC;
    normal-generated data inverts, in at least 95 of 100 seeds each."""

    def test_laplace_generated(self):
        ks_wins = aic_wins = 0
        for seed in range(100):
            report = compare_fits(sample_laplace(1879, STD_LAPLACE, 10_000 + seed))
            ks_wins += report.laplace.ks_distance < report.normal.ks_distance
            aic_wins += report.laplace.aic < report.normal.aic
        assert ks_wins >= 95
        assert aic_wins >= 95

    def test_normal_generated(self):
        ks_wins = aic_wins = 0
        for seed in range(100):
            report = compare_fits(sample_normal(1879, STD_NORMAL, 20_000 + seed))
            ks_wins += report.normal.ks_distance < report.laplace.ks_distance
            aic_wins += report.normal.aic < report.laplace.aic
        assert ks_wins >= 95
        assert aic_wins >= 95
