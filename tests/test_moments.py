"""Tests for skewness, kurtosis, and central moments."""

from __future__ import annotations

import math

import pytest

from returndist.distfit import (
    LaplaceParams,
    NormalParams,
    Xoshiro256PlusPlus,
    fit_laplace,
    fit_normal,
    sample_laplace,
    sample_normal,
)
from returndist.errors import DegenerateSampleError, DomainError, InsufficientDataError
from returndist.gof import compare_fits
from returndist.moments import central_moment, excess_kurtosis, moment_report, skewness
from returndist.normality import shapiro_wilk

from conftest import word


class TestCentralMoment:
    def test_symmetric_pair_variance(self):
        assert central_moment([-1.0, 1.0], 2) == 1.0

    def test_constant_data(self):
        assert central_moment([5.0, 5.0, 5.0], 3) == 0.0

    def test_hand_computed_third(self):
        # deviations (-1, -1, 2): (-1 - 1 + 8) / 3
        assert central_moment([0.0, 0.0, 3.0], 3) == pytest.approx(2.0)

    def test_first_moment_is_zero(self):
        assert central_moment([0.3, 1.9, -4.0, 2.2], 1) == pytest.approx(0.0, abs=1e-15)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            central_moment([1.0, 2.0], 0)
        with pytest.raises(DomainError):
            central_moment([1.0, 2.0], 9)

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            central_moment([], 2)


class TestSkewness:
    def test_symmetric(self):
        assert skewness([-1.0, 0.0, 1.0]) == 0.0

    def test_hand_computed(self):
        # m3 = 2, m2 = 2: 2 / 2^1.5
        assert skewness([0.0, 0.0, 3.0]) == pytest.approx(0.70710678, abs=1e-8)

    def test_standard_normal_sample(self):
        sample = sample_normal(5000, NormalParams(0.0, 1.0), 1234)
        assert abs(skewness(sample)) < 0.1

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            skewness([2.0, 2.0, 2.0])

    def test_too_small(self):
        with pytest.raises(InsufficientDataError):
            skewness([1.0, 2.0])


class TestExcessKurtosis:
    def test_two_point_mass(self):
        assert excess_kurtosis([-1.0, 1.0, -1.0, 1.0]) == -2.0

    def test_laplace_theory(self):
        sample = sample_laplace(100000, LaplaceParams(0.0, 1.0), 314159)
        assert excess_kurtosis(sample) == pytest.approx(3.0, abs=0.3)

    def test_standard_normal_sample(self):
        sample = sample_normal(5000, NormalParams(0.0, 1.0), 1234)
        assert abs(excess_kurtosis(sample)) < 0.25

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            excess_kurtosis([3.0, 3.0, 3.0, 3.0])

    def test_too_small(self):
        with pytest.raises(InsufficientDataError):
            excess_kurtosis([1.0, 2.0, 3.0])


class TestInvariances:
    def fixture_sample(self) -> list[float]:
        return sample_laplace(500, LaplaceParams(0.0, 1.0), 55)

    def test_location_invariance(self):
        sample = self.fixture_sample()
        s0, k0 = skewness(sample), excess_kurtosis(sample)
        for c in (1.0, -7.3, 1e4):
            shifted = [x + c for x in sample]
            assert skewness(shifted) == pytest.approx(s0, abs=1e-9)
            assert excess_kurtosis(shifted) == pytest.approx(k0, abs=1e-9)

    def test_positive_scale_invariance(self):
        sample = self.fixture_sample()
        s0, k0 = skewness(sample), excess_kurtosis(sample)
        for c in (0.001, 2.0, 3e5):
            scaled = [c * x for x in sample]
            assert skewness(scaled) == pytest.approx(s0, abs=1e-9)
            assert excess_kurtosis(scaled) == pytest.approx(k0, abs=1e-9)

    def test_negative_scale_flips_skew_only(self):
        sample = [0.0, 0.0, 0.1, 3.0, 0.4]
        assert skewness([-x for x in sample]) == pytest.approx(-skewness(sample), abs=1e-9)
        assert excess_kurtosis([-x for x in sample]) == pytest.approx(
            excess_kurtosis(sample), abs=1e-9
        )

    def test_kurtosis_lower_bound(self):
        rng = Xoshiro256PlusPlus(66)
        for _ in range(300):
            n = 4 + word(rng) % 12
            sample = rng._floats(n)
            if central_moment(sample, 2) == 0.0:
                continue
            assert excess_kurtosis(sample) >= -2.0 - 1e-12


class TestMomentReport:
    def test_consistency_with_scalar_functions(self):
        sample = sample_normal(512, NormalParams(1.0, 2.0), 9)
        report = moment_report(sample)
        assert report.n == 512
        assert report.skew == skewness(sample)
        assert report.excess_kurtosis == excess_kurtosis(sample)
        assert report.m2 == pytest.approx(central_moment(sample, 2))
        assert report.m3 == pytest.approx(central_moment(sample, 3))
        assert report.m4 == pytest.approx(central_moment(sample, 4))

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            moment_report([1.0] * 10)

    def test_too_small(self):
        with pytest.raises(InsufficientDataError):
            moment_report([1.0, 2.0, 3.0])

    @pytest.mark.parametrize(
        ("sample", "found"),
        [
            ([1e308, 1e308, math.inf, 0.0], "inf"),
            ([math.inf, 1.0, 2.0, 3.0], "inf"),
            ([1.0, math.nan, 2.0, 3.0], "nan"),
            ([math.nan, 1.0, 2.0, 3.0], "nan"),
            ([1.0, 2.0, math.nan, -math.inf], "inf"),
        ],
    )
    def test_non_finite_rejected(self, sample, found):
        with pytest.raises(DomainError, match=f"^moment report needs finite values, got {found}$"):
            moment_report(sample)
        # every reader of the centred sample refuses it the same way
        for reader in (shapiro_wilk, compare_fits, fit_normal, fit_laplace, skewness):
            with pytest.raises(DomainError, match=f"needs finite values, got {found}$"):
                reader(sample)
