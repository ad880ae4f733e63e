"""Shapiro-Wilk tests against the frozen scipy.stats.shapiro reference.

Reference values were generated with tests/regen_oracle_values.py before
normality.py was written; scipy itself is not needed to run this suite.
"""

from __future__ import annotations

import math

import pytest

from returndist.distfit import (
    LaplaceParams,
    NormalParams,
    sample_laplace,
    sample_normal,
)
from returndist.errors import DegenerateSampleError, InsufficientDataError
from returndist.normality import (
    _EXTREME_1,
    _EXTREME_2,
    _SMALL_N_GAMMA,
    _poly,
    shapiro_wilk,
    sw_coefficients,
)
from conftest import normal_quantile
from sw_cases import SW_CASES, build_dataset

# Frozen from tests/regen_oracle_values.py (scipy 1.15.3).
SW_REFERENCE = {
    "normal-n10-s1010": (0.9046336829388595, 0.2461245785438846),
    "normal-n10-s2010": (0.934350899127921, 0.49202333990285346),
    "laplace-n10-s3010": (0.9413715286045354, 0.568373475117331),
    "laplace-n10-s4010": (0.7973076398243408, 0.013446142631855972),
    "uniform-n10-s5010": (0.8859605202912102, 0.15264195740096675),
    "normal-n50-s1050": (0.9899399836160352, 0.9447657435223032),
    "normal-n50-s2050": (0.9802247528782428, 0.5614813643223101),
    "laplace-n50-s3050": (0.8926779507879762, 0.00027779855969687993),
    "laplace-n50-s4050": (0.927809630853325, 0.004570090773810167),
    "uniform-n50-s5050": (0.9621919266752855, 0.10983345453424542),
    "normal-n500-s1500": (0.9964258520525356, 0.32891743964349224),
    "normal-n500-s2500": (0.9973577769436719, 0.6115308851561694),
    "laplace-n500-s3500": (0.9613002452502482, 3.4337022413033776e-10),
    "laplace-n500-s4500": (0.949127051796453, 4.348762760749415e-12),
    "uniform-n500-s5500": (0.9539069352974455, 2.2084070580453083e-11),
    "normal-n2000-s3000": (0.9992289021343183, 0.5899088760876634),
    "normal-n2000-s4000": (0.9989740005432419, 0.30881651507345864),
    "laplace-n2000-s5000": (0.9616077022790565, 1.3242249388185256e-22),
    "laplace-n2000-s6000": (0.962777487650787, 2.858360971502738e-22),
    "uniform-n2000-s7000": (0.9541586722462848, 1.430841447776525e-24),
}

# Frozen from scipy 1.15.3 on hand-typed datasets; pins the p-value
# branch boundaries (n <= 11 vs n >= 12) and the tiny-p clamp.
SW_SMALL_REFERENCE = {
    "n4": ([1.0, 2.0, 3.0, 5.0], 0.9713736654999263, 0.8499708189581867),
    "n5": ([2.0, 1.0, 4.0, 8.0, 9.0], 0.900963268768698, 0.41523242670712146),
    "n6": ([1.1, 2.3, 0.5, 4.2, 3.3, 2.8], 0.9718758550073638, 0.9047903886929062),
    "n7-outlier": ([0.1, 0.2, 0.15, 0.3, 0.25, 0.2, 9.0], 0.47196215422100474, 7.273155143195108e-06),
    "n11": ([0.48, -1.3, 0.06, 1.1, -0.45, 2.2, -0.11, 0.91, -0.76, 0.33, 1.7], 0.9890152203178351, 0.9962781058757878),
    "n12": ([0.48, -1.3, 0.06, 1.1, -0.45, 2.2, -0.11, 0.91, -0.76, 0.33, 1.7, -2.4], 0.9892701898629875, 0.9995945705662551),
}


def _reference_coefficients(n: int) -> tuple[float, ...]:
    """The weight vector built as it was before the half-vector
    construction: a full-length list, per-point Blom scores, and a mirror
    loop."""
    if n == 3:
        root_half = math.sqrt(0.5)
        return (root_half, 0.0, -root_half)

    half = n // 2
    scores = [normal_quantile((i - 0.375) / (n + 0.25)) for i in range(1, half + 1)]
    norm_sq = 2.0 * math.fsum(v * v for v in scores)
    norm = math.sqrt(norm_sq)
    u = 1.0 / math.sqrt(n)

    a = [0.0] * n
    a1 = _poly(_EXTREME_1, u) - scores[0] / norm
    if n > 5:
        a2 = _poly(_EXTREME_2, u) - scores[1] / norm
        rescale_sq = (norm_sq - 2.0 * scores[0] ** 2 - 2.0 * scores[1] ** 2) / (
            1.0 - 2.0 * a1 * a1 - 2.0 * a2 * a2
        )
        a[1] = a2
        interior_start = 2
    else:
        rescale_sq = (norm_sq - 2.0 * scores[0] ** 2) / (1.0 - 2.0 * a1 * a1)
        interior_start = 1
    a[0] = a1
    rescale = math.sqrt(rescale_sq)
    for i in range(interior_start, half):
        a[i] = -scores[i] / rescale
    for i in range(half):
        a[n - 1 - i] = -a[i]
    return tuple(a)


class TestCoefficients:
    def test_n3_exact(self):
        a = sw_coefficients(3)
        root_half = math.sqrt(0.5)
        assert a == (root_half, 0.0, -root_half)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 11, 12, 50, 500, 2000, 5000])
    def test_antisymmetric_zero_sum_unit_norm(self, n):
        a = sw_coefficients(n)
        assert len(a) == n
        for i in range(n):
            assert a[i] == -a[n - 1 - i]
        assert abs(math.fsum(a)) < 1e-9
        assert abs(math.fsum(v * v for v in a) - 1.0) < 1e-8

    def test_first_weight_positive_and_largest(self):
        a = sw_coefficients(20)
        assert a[0] > 0.0
        assert a[0] == max(a)
        assert list(a[:10]) == sorted(a[:10], reverse=True)

    def test_too_small(self):
        with pytest.raises(InsufficientDataError):
            sw_coefficients(2)

    def test_equal_to_reference_construction(self):
        for n in [*range(3, 601), 1879, 5000, 5001, 20000, 199_979]:
            assert sw_coefficients(n) == _reference_coefficients(n), n


class TestStatistic:
    def test_arithmetic_progression_n3(self):
        res = shapiro_wilk([1.0, 2.0, 3.0])
        assert res.w == pytest.approx(1.0, abs=1e-6)
        assert res.p_value == pytest.approx(1.0, abs=1e-6)

    def test_w_at_most_one(self):
        data = [0.2, -1.4, 3.3, 0.0, 0.8, -0.6, 2.2, 1.1]
        assert shapiro_wilk(data).w <= 1.0 + 1e-9

    def test_affine_image_of_scores_gives_w_one(self):
        a = sw_coefficients(10)
        data = [2.5 * v + 7.0 for v in a]
        assert shapiro_wilk(data).w == pytest.approx(1.0, abs=1e-6)

    def test_random_data_below_one(self):
        data = sample_normal(100, NormalParams(0.0, 1.0), 8)
        assert shapiro_wilk(data).w < 1.0 - 1e-6

    def test_affine_invariance(self):
        data = sample_laplace(200, LaplaceParams(0.0, 1.0), 77)
        base = shapiro_wilk(data).w
        for a, b in ((2.0, 0.0), (-3.0, 1.5), (1e-4, 100.0), (1e4, -5.0)):
            transformed = [a * x + b for x in data]
            assert shapiro_wilk(transformed).w == pytest.approx(base, abs=1e-9)

    def test_ties_allowed(self):
        res = shapiro_wilk([1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0])
        assert 0.0 < res.w <= 1.0
        assert 0.0 <= res.p_value <= 1.0

    def test_errors(self):
        with pytest.raises(InsufficientDataError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(DegenerateSampleError):
            shapiro_wilk([3.0, 3.0, 3.0, 3.0])

    def test_small_n_transform_covers_every_exact_w(self):
        # log(1 - W) < gamma(n) in exact arithmetic: gamma > 0 >= log(1 - W)
        # for 5 <= n <= 11, and at n = 4, W >= 4 a1^2 / 3, reached by (0, 0, 0, 1)
        assert all(_poly(_SMALL_N_GAMMA, float(n)) > 0.0 for n in range(5, 12))
        a1 = sw_coefficients(4)[0]
        assert 4.0 * a1 * a1 / 3.0 > 1.0 - math.exp(_poly(_SMALL_N_GAMMA, 4.0))

    def test_w_of_subnormal_squares_is_the_unit_scale_w(self):
        # unscaled, each squared deviation is just over half the smallest
        # subnormal and rounds up to it, which made W 0.25, below the n = 4 minimum
        d = math.sqrt(0.5001) * 2.0**-537
        unit = shapiro_wilk([-1.0, -1.0, 1.0, 1.0])
        assert unit.w == 0.7286341481736174
        assert shapiro_wilk([-d, -d, d, d]) == unit

    def test_large_n_flag(self):
        data = sample_normal(5001, NormalParams(0.0, 1.0), 4)
        assert shapiro_wilk(data).large_n_warning
        assert not shapiro_wilk(data[:5000]).large_n_warning
        assert shapiro_wilk(data).n == 5001

    def test_concurrent_calls_identical(self):
        # the coefficient cache must not leak between threads
        from concurrent.futures import ThreadPoolExecutor

        data = sample_normal(800, NormalParams(0.0, 1.0), 55)
        expected = shapiro_wilk(data)
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: shapiro_wilk(data), range(12)))
        assert all(r == expected for r in results)


class TestReferenceAgreement:
    @pytest.mark.parametrize("case", SW_CASES, ids=[c[0] + f"-s{c[5]}" for c in SW_CASES])
    def test_matches_reference(self, case):
        label = case[0] + f"-s{case[5]}"
        w_ref, p_ref = SW_REFERENCE[label]
        res = shapiro_wilk(build_dataset(case))
        assert res.w == pytest.approx(w_ref, abs=1e-4)
        if p_ref > 1e-10:
            assert res.p_value == pytest.approx(p_ref, rel=1e-3)
        else:
            assert res.p_value < 1e-9

    @pytest.mark.parametrize("label", sorted(SW_SMALL_REFERENCE))
    def test_matches_reference_small_n(self, label):
        data, w_ref, p_ref = SW_SMALL_REFERENCE[label]
        res = shapiro_wilk(data)
        assert res.w == pytest.approx(w_ref, abs=1e-4)
        assert res.p_value == pytest.approx(p_ref, rel=1e-3, abs=1e-8)


class TestCalibrationAndPower:
    def test_null_rejection_rate_near_nominal(self):
        params = NormalParams(mean=0.0, sigma=1.0)
        rejections = sum(
            shapiro_wilk(sample_normal(1879, params, seed)).p_value < 0.05
            for seed in range(200)
        )
        assert 0.01 <= rejections / 200.0 <= 0.12

    def test_laplace_power(self):
        params = LaplaceParams(mu=0.0, scale=1.0)
        detections = sum(
            shapiro_wilk(sample_laplace(1879, params, seed)).p_value < 0.001
            for seed in range(200)
        )
        assert detections / 200.0 >= 0.99
