"""Shapiro-Wilk test for normality.

W = (sum a_i x_(i))^2 / sum (x_i - xbar)^2, with the weight vector a
built from the standard-normal quantiles of Blom plotting positions
normalized to unit length and the two extreme weights replaced by
Royston's polynomial corrections (Royston 1992, Statistics and
Computing 2; Remark AS R94, 1995). The quantile is Wichura's AS 241
(Applied Statistics 37, 1988), as in R's swilk.c, taken in C from
CPython's ``_statistics``. The p-value comes from Royston's normalizing
transformation of (1 - W): exact for n = 3, a log-transform with
polynomial mean/sd in n for 4 <= n <= 11, and in ln(n) for n >= 12,
referred to the upper normal tail. Royston validated the approximation
up to n = 5000; beyond that the result is still computed but flagged.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain
from operator import mul, neg

from ._record import Record
from .distfit import _SQRT2
from .errors import DegenerateSampleError, InsufficientDataError
from .moments import _centred

ROYSTON_MAX_VALIDATED_N = 5000

# Polynomial coefficients (ascending powers), Royston 1992 / AS R94.
_EXTREME_1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_EXTREME_2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SMALL_N_MEAN = (0.5440, -0.39978, 0.025054, -6.714e-4)
_SMALL_N_LOG_SD = (1.3822, -0.77857, 0.062767, -0.0020322)
_LARGE_N_MEAN = (-1.5861, -0.31082, -0.083751, 0.0038915)
_LARGE_N_LOG_SD = (-0.4803, -0.082676, 0.0030302)
_SMALL_N_GAMMA = (-2.273, 0.459)


class SWResult(Record):
    n: int
    w: float
    p_value: float
    large_n_warning: bool


def _poly(coefficients: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=8)
def _coefficients(n: int) -> tuple[float, ...]:
    """The n // 2 positive weights of the lower order statistics; the
    upper half mirrors them with opposite sign, and an odd n's middle one is 0."""
    if n == 3:
        return (math.sqrt(0.5),)

    # imported here: only a run that builds weights loads the C quantile
    from _statistics import _normal_dist_inv_cdf as quantile

    half = n // 2
    # Blom scores for the lower half; all negative.
    scores = [quantile((i - 0.375) / (n + 0.25), 0.0, 1.0) for i in range(1, half + 1)]
    norm_sq = 2.0 * math.fsum(v * v for v in scores)
    norm = math.sqrt(norm_sq)
    u = 1.0 / math.sqrt(n)

    # Royston's polynomials set 1 (n <= 5) or 2 extreme weights; the rest rescale to unit norm
    ends = 2 if n > 5 else 1
    lower = [_poly(c, u) - s / norm for c, s in zip((_EXTREME_1, _EXTREME_2)[:ends], scores)]
    rescale_num, rescale_den = norm_sq, 1.0
    for s, a in zip(scores, lower):
        rescale_num -= 2.0 * s**2
        rescale_den -= 2.0 * a * a
    rescale = math.sqrt(rescale_num / rescale_den)
    # in place: each score is freed as its weight is made, which bounds peak memory
    for i in range(ends, half):
        scores[i] = -scores[i] / rescale
    scores[:ends] = lower
    return tuple(scores)


def sw_coefficients(n: int) -> tuple[float, ...]:
    """Weight vector a for sample size n: antisymmetric, unit norm,
    positive weights on the lower order statistics."""
    if n < 3:
        raise InsufficientDataError(f"shapiro-wilk needs n >= 3, got {n}")
    lower = _coefficients(n)
    return (*lower, *[0.0] * (n % 2), *[-a for a in reversed(lower)])


def _p_value(n: int, w: float) -> float:
    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return min(max(p, 0.0), 1.0)
    complement = 1.0 - w
    if complement < 1e-300:
        return 1.0
    y = math.log(complement)
    if n <= 11:
        # y < gamma: _centred leaves no subnormal sum to round W below its minimum
        gamma = _poly(_SMALL_N_GAMMA, float(n))
        z = (-math.log(gamma - y) - _poly(_SMALL_N_MEAN, float(n))) / math.exp(
            _poly(_SMALL_N_LOG_SD, float(n))
        )
    else:
        log_n = math.log(n)
        z = (y - _poly(_LARGE_N_MEAN, log_n)) / math.exp(_poly(_LARGE_N_LOG_SD, log_n))
    return 0.5 * math.erfc(z / _SQRT2)


def _shapiro_wilk(centred: _Centred) -> SWResult:
    """W and p from a centred sample whose values are in ascending order."""
    n, deviations, sum_squares = centred.n, centred.deviations, centred.sum_squares
    if sum_squares == 0.0:
        raise DegenerateSampleError("shapiro-wilk undefined for a zero-variance sample")
    lower = _coefficients(n)
    # the terms a*d of the full weight vector: -(a*d) == a*(-d) exactly, and the
    # middle weight of an odd n adds only a signed zero, which the square removes
    numerator_root = math.fsum(
        chain(map(mul, lower, deviations), map(mul, lower, map(neg, reversed(deviations))))
    )
    w_stat = min(numerator_root * numerator_root / sum_squares, 1.0)
    return SWResult(
        n=n,
        w=w_stat,
        p_value=_p_value(n, w_stat),
        large_n_warning=n > ROYSTON_MAX_VALIDATED_N,
    )


def shapiro_wilk(sample: Sequence[float]) -> SWResult:
    """W statistic and p-value; small p rejects normality."""
    return _shapiro_wilk(_centred(sorted(sample), 3, "shapiro-wilk"))
