"""Empirical CDF and Normal-vs-Laplace goodness-of-fit comparison.

KS distance, log-likelihood, and AIC score both candidate families on
the same sample; the smaller AIC wins, ties broken toward smaller KS.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections.abc import Callable, Sequence
from itertools import repeat

from ._record import Record
from .distfit import (
    LaplaceParams,
    NormalParams,
    _fit_normal,
    _laplace_cdfs,
    _normal_cdfs,
    fit_laplace,
)
from .errors import DomainError, InsufficientDataError
from .moments import _centred

MODEL_PARAMETER_COUNT = 2  # location + scale, both families


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


def _ks_distance(cdf_values: list[float]) -> float:
    """sup |ECDF - F| from F at each order statistic, in ascending order,
    taking both one-sided gaps at every point."""
    n = len(cdf_values)
    above = max(map(operator.sub, map(operator.truediv, range(1, n + 1), repeat(n)), cdf_values))
    below = max(map(operator.sub, cdf_values, map(operator.truediv, range(n), repeat(n))))
    return max(0.0, above, below)


def ks_statistic(sample: Sequence[float], cdf: Callable[[float], float]) -> float:
    """sup |ECDF - F| for a continuous F, taking both one-sided gaps at
    every order statistic."""
    if len(sample) == 0:
        raise InsufficientDataError("ks statistic needs a non-empty sample")
    return _ks_distance(list(map(cdf, sorted(sample))))


def log_likelihood(sample: Sequence[float], params: NormalParams | LaplaceParams) -> float:
    """Sum of log densities under the given fitted family."""
    if len(sample) == 0:
        raise InsufficientDataError("log-likelihood needs a non-empty sample")
    n = len(sample)
    if isinstance(params, LaplaceParams):
        abs_dev = math.fsum(abs(x - params.mu) for x in sample)
        return -n * math.log(2.0 * params.scale) - abs_dev / params.scale
    if isinstance(params, NormalParams):
        sq_dev = math.fsum((x - params.mean) ** 2 for x in sample)
        return (
            -0.5 * n * math.log(2.0 * math.pi * params.sigma * params.sigma)
            - sq_dev / (2.0 * params.sigma * params.sigma)
        )
    raise DomainError(f"unsupported params type {type(params).__name__}")


def _aic(ll: float) -> float:
    return 2.0 * MODEL_PARAMETER_COUNT - 2.0 * ll


def _fits(centred: tuple) -> tuple[Sequence[float], tuple]:
    """The ascending sample, and (family, params, CDF list kernel) for each family fitted to it."""
    sorted_x = centred[0]
    return sorted_x, (
        ("normal", _fit_normal(centred), _normal_cdfs),
        ("laplace", fit_laplace(sorted_x), _laplace_cdfs),
    )


def _compare_fits(centred: tuple) -> GofReport:
    sorted_x, fits = _fits(centred)
    scores = []
    for family, params, cdfs in fits:
        ll = log_likelihood(sorted_x, params)
        ks = _ks_distance(cdfs(sorted_x, params))
        scores.append(FitScore(family, params, ks, ll, _aic(ll)))
    better = min(scores, key=lambda s: (s.aic, s.ks_distance))
    return GofReport(normal=scores[0], laplace=scores[1], better_fit=better.family)


def compare_fits(sample: Sequence[float]) -> GofReport:
    """Fit both families and score each with KS distance, LL, and AIC."""
    return _compare_fits(_centred(sorted(sample), 4, "fit comparison"))
