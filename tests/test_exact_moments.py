"""Accuracy against an exact oracle.

The oracle takes each float of a sample as the rational it is: moments
are ``fractions.Fraction``, and the square roots and logarithms are taken
in ``decimal`` at 60 digits, far below a float64 ulp. Each statistic is
checked to within 64 ulp of its exact value; the log-likelihoods against
the exact maximum of each family's likelihood, which the fitted float
parameters miss only to second order.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction

import pytest

from returndist.distfit import LaplaceParams, NormalParams, sample_laplace, sample_normal
from returndist.moments import moment_report
from returndist.normality import _coefficients, shapiro_wilk
from returndist.report import analyze_returns

N = 1879  # the paper's sample size
MAX_ULPS = 64
EXPONENTS = (0, -600, 600)

_CONTEXT = decimal.Context(prec=60)
_TWO_PI = 2 * decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494")
_BASE = {
    "laplace": sample_laplace(N, LaplaceParams(mu=0.0, scale=0.006), 7),
    "normal": sample_normal(N, NormalParams(mean=0.0003, sigma=0.01), 7),
}
SAMPLES = {
    f"{family}*2^{k}": [math.ldexp(x, k) for x in sample]
    for family, sample in _BASE.items()
    for k in EXPONENTS
}
# ill-conditioned: the mean dwarfs the spread, so the rounded mean shifts every deviation
OFFSET = [1000.0 + x for x in sample_laplace(N, LaplaceParams(mu=0.0, scale=1e-9), 3)]
NEAR_CONSTANT = [1.0] * (N - 1) + [1.0 + 2.0**-52]


def _decimal(q: Fraction) -> decimal.Decimal:
    return _CONTEXT.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))


def _ulps(got: float, exact: Fraction | decimal.Decimal) -> float:
    """|got - exact| in units of the last place of exact rounded to float."""
    exact = Fraction(exact)
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


class _Exact:
    """A sample in order, and its exact sum of squared deviations and central moments m2..m4."""

    def __init__(self, sample: list[float]) -> None:
        xs = sorted(map(Fraction, sample))
        n = len(xs)
        mean = sum(xs) / n
        deviations = [x - mean for x in xs]
        squares = [d * d for d in deviations]
        self.ordered = xs
        self.sum_squares = sum(squares)
        self.m2 = self.sum_squares / n
        self.m3 = sum(d * s for d, s in zip(deviations, squares)) / n
        self.m4 = sum(s * s for s in squares) / n

    def skew(self) -> decimal.Decimal:
        m2 = _decimal(self.m2)
        return _CONTEXT.divide(_decimal(self.m3), _CONTEXT.multiply(m2, _CONTEXT.sqrt(m2)))

    def excess_kurtosis(self) -> Fraction:
        return self.m4 / (self.m2 * self.m2) - 3

    def shapiro_w(self, weights: tuple[float, ...]) -> Fraction:
        """W with the given lower-half weights, mirrored onto the upper half with opposite sign."""
        xs = self.ordered
        root = sum(Fraction(a) * (xs[i] - xs[-1 - i]) for i, a in enumerate(weights))
        return min(root * root / self.sum_squares, Fraction(1))

    def normal_log_likelihood(self) -> decimal.Decimal:
        """-n/2 (ln(2 pi m2) + 1), the likelihood's maximum."""
        n = len(self.ordered)
        log = _CONTEXT.ln(_CONTEXT.multiply(_TWO_PI, _decimal(self.m2)))
        return _CONTEXT.multiply(decimal.Decimal(-n) / 2, log + 1)

    def laplace_log_likelihood(self) -> decimal.Decimal:
        """-n (ln(2 b) + 1), b the mean |x - median|; n is odd, so the median is a value."""
        xs, n = self.ordered, len(self.ordered)
        median = xs[n // 2]
        b = sum(abs(x - median) for x in xs) / n
        return _CONTEXT.multiply(decimal.Decimal(-n), _CONTEXT.ln(_decimal(2 * b)) + 1)


_EXACT = {name: _Exact(sample) for name, sample in SAMPLES.items()}


@pytest.mark.parametrize("name", SAMPLES)
class TestWithinUlpsOfExact:
    def test_skew_and_excess_kurtosis(self, name):
        report, exact = moment_report(SAMPLES[name]), _EXACT[name]
        assert _ulps(report.skew, exact.skew()) <= MAX_ULPS
        assert _ulps(report.excess_kurtosis, exact.excess_kurtosis()) <= MAX_ULPS

    def test_shapiro_w_given_the_weights(self, name):
        w = shapiro_wilk(SAMPLES[name]).w
        assert _ulps(w, _EXACT[name].shapiro_w(_coefficients(N))) <= MAX_ULPS

    def test_log_likelihoods(self, name):
        report, exact = analyze_returns(SAMPLES[name], "X"), _EXACT[name]
        assert _ulps(report.log_lik_normal, exact.normal_log_likelihood()) <= MAX_ULPS
        assert _ulps(report.log_lik_laplace, exact.laplace_log_likelihood()) <= MAX_ULPS


@pytest.mark.parametrize(
    "sample, shift", [(OFFSET, 1000.0), (NEAR_CONSTANT, 1.0)], ids=["offset", "near-constant"]
)
def test_translation_safe(sample, shift):
    # sample - shift is exact (Sterbenz), so both have the same exact moments
    assert _ulps(moment_report(sample).skew, _Exact(sample).skew()) <= MAX_ULPS
    got, shifted = analyze_returns(sample, "X"), analyze_returns([x - shift for x in sample], "X")
    assert _ulps(got.skew, Fraction(shifted.skew)) <= MAX_ULPS
    assert _ulps(got.excess_kurtosis, Fraction(shifted.excess_kurtosis)) <= MAX_ULPS
