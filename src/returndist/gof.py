"""Empirical CDF and Normal-vs-Laplace goodness-of-fit comparison.

KS distance, log-likelihood, and AIC score both candidate families on
the same sample; the smaller AIC wins, ties broken toward smaller KS.

`compare_fits` finds each fitted family's KS distance by a bounded search,
not by evaluating its CDF at all n order statistics. The CDF is taken at
a grid of about sqrt(n) of them first. Between two evaluated points a and
b, no gap at a point a < i < b exceeds max(b/n - F(a), F(b) - (a+1)/n),
because F, i/n and IEEE rounding are all monotone. A run whose bound is
not above the largest gap found (less a 2^-40 margin for libm's erfc and
exp, which are monotone only to within an ulp) is skipped. Each other run
is split into 8 parts until it holds at most 16 points, which are
evaluated whole. Each gap is computed as the full scan computes it, so
the distance is the full scan's, bit for bit. `ks_statistic` takes any
callable, which need not be monotone, and scans every point.
"""

from __future__ import annotations

import bisect
import math
import operator
from itertools import islice

from ._record import Record
from .distfit import (
    LaplaceParams,
    NormalParams,
    _fit_laplace,
    _fit_normal,
    _laplace_cdfs,
    _normal_cdfs,
    _unscaled,
)
from .errors import DomainError, InsufficientDataError
from .moments import _centred

MODEL_PARAMETER_COUNT = 2  # location + scale, both families

_KS_MARGIN = 2.0**-40  # a run is skipped when its bound is this far below the best gap
_KS_PARTS = 8  # the parts a run is split into, after the first split into about sqrt(n)
_KS_LEAF = 16  # a run of at most this many points is evaluated whole


class EcdfCurve(Record):
    """Right-continuous step function (#points <= x) / n."""

    sorted_x: tuple[float, ...]

    def evaluate(self, x: float) -> float:
        return bisect.bisect_right(self.sorted_x, x) / len(self.sorted_x)


class FitScore(Record):
    family: str
    params: NormalParams | LaplaceParams
    ks_distance: float
    log_likelihood: float
    aic: float


class GofReport(Record):
    normal: FitScore
    laplace: FitScore
    better_fit: str


def ecdf(sample: Sequence[float]) -> EcdfCurve:
    if len(sample) == 0:
        raise InsufficientDataError("ecdf needs a non-empty sample")
    return EcdfCurve(sorted_x=tuple(sorted(sample)))


def _ecdf_steps(n: int) -> list[float]:
    """The ECDF levels i / n for i = 0..n."""
    return [i / n for i in range(n + 1)]


def _ks_distance(cdf_values: list[float], steps: list[float]) -> float:
    """sup |ECDF - F| from F at each order statistic, in ascending order,
    taking both one-sided gaps at every point; steps is _ecdf_steps(n)."""
    above = max(map(operator.sub, islice(steps, 1, None), cdf_values))
    below = max(map(operator.sub, cdf_values, steps))
    return max(0.0, above, below)


def ks_statistic(sample: Sequence[float], cdf: Callable[[float], float]) -> float:
    """sup |ECDF - F| for a continuous F, taking both one-sided gaps at
    every order statistic."""
    n = len(sample)
    if n == 0:
        raise InsufficientDataError("ks statistic needs a non-empty sample")
    return _ks_distance(list(map(cdf, sorted(sample))), _ecdf_steps(n))


def _ks_search(
    values: Sequence[float], cdfs: Callable, params: NormalParams | LaplaceParams
) -> float:
    """_ks_distance(cdfs(values, params), _ecdf_steps(n)) bit for bit, for the CDF list
    kernel of a family, from the CDF at the points the module's bounded search needs."""
    n = len(values)
    best = 0.0
    # each run: the points a < i < b, between a and b where F is known; F is 0 before
    # the first point and 1 after the last
    runs = [(-1, 0.0, n, 1.0)]
    parts = math.isqrt(n)  # the first split: a grid of about sqrt(n) points
    while runs:
        a, fa, b, fb = runs.pop()
        if b - a < 2 or max(b / n - fa, fb - (a + 1) / n) <= best - _KS_MARGIN:
            continue
        t = 1 if b - a - 1 <= _KS_LEAF else -(-(b - a) // parts)
        parts = _KS_PARTS
        points = range(a + t, b, t)
        fs = cdfs(values[a + t : b : t], params)
        best = max(
            best,
            *[(i + 1) / n - f for i, f in zip(points, fs)],
            *[f - i / n for i, f in zip(points, fs)],
        )
        if t > 1:
            points = [a, *points, b]
            fs = [fa, *fs, fb]
            runs += zip(points, fs, points[1:], fs[1:])
    return best


def _normal_log_likelihood(n: int, sq_dev: float, sigma: float) -> float:
    """From n and the sum of (x - mean) * (x - mean)."""
    return -0.5 * n * math.log(2.0 * math.pi * sigma * sigma) - sq_dev / (2.0 * sigma * sigma)


def _laplace_log_likelihood(n: int, abs_dev: float, scale: float) -> float:
    """From n and the sum of |x - mu|."""
    return -n * math.log(2.0 * scale) - abs_dev / scale


def log_likelihood(sample: Sequence[float], params: NormalParams | LaplaceParams) -> float:
    """Sum of log densities under the given fitted family."""
    n = len(sample)
    if n == 0:
        raise InsufficientDataError("log-likelihood needs a non-empty sample")
    if isinstance(params, LaplaceParams):
        abs_dev = math.fsum(abs(x - params.mu) for x in sample)
        return _laplace_log_likelihood(n, abs_dev, params.scale)
    if isinstance(params, NormalParams):
        deviations = (x - params.mean for x in sample)
        return _normal_log_likelihood(n, math.fsum(d * d for d in deviations), params.sigma)
    raise DomainError(f"unsupported params type {type(params).__name__}")


def _aic(ll: float) -> float:
    return 2.0 * MODEL_PARAMETER_COUNT - 2.0 * ll


def _fits(centred: _Centred) -> tuple:
    """(family, params, CDF list kernel, log-likelihood) for each family fitted to
    the ascending centred values, on their scale. Each log-likelihood is O(1) from
    a sum its fit already took: the centred sum of squares, or the sum of |x - mu|."""
    n, sum_squares = centred.n, centred.sum_squares
    normal = _fit_normal(centred)
    laplace, abs_dev = _fit_laplace(centred.values)
    return (
        ("normal", normal, _normal_cdfs, _normal_log_likelihood(n, sum_squares, normal.sigma)),
        ("laplace", laplace, _laplace_cdfs, _laplace_log_likelihood(n, abs_dev, laplace.scale)),
    )


def _compare_fits(centred: _Centred) -> GofReport:
    """KS on the centred values' scale, where it is the caller's bit for bit."""
    shift = centred.n * centred.exponent * math.log(2.0)  # 2^-e adds n * e * ln 2 to an LL
    scores = []
    for family, params, cdfs, ll in _fits(centred):
        ks = _ks_search(centred.values, cdfs, params)
        params, ll = _unscaled(params, centred.exponent), ll - shift
        scores.append(FitScore(family, params, ks, ll, _aic(ll)))
    better = min(scores, key=lambda s: (s.aic, s.ks_distance))
    return GofReport(normal=scores[0], laplace=scores[1], better_fit=better.family)


def compare_fits(sample: Sequence[float]) -> GofReport:
    """Fit both families and score each with KS distance, LL, and AIC."""
    return _compare_fits(_centred(sorted(sample), 4, "fit comparison"))
