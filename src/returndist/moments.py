"""Descriptive moment statistics: skewness and excess kurtosis.

Population (biased) estimators throughout, computed two-pass. The first
pass, `_centred` (scale, mean, deviations, sum of squares), is taken once
per analysis and read by the moments, Shapiro-Wilk, the Normal fit and
the Normal log-likelihood. Kurtosis is in Fisher's excess form, zero in
expectation for normal data.
"""

from __future__ import annotations

import math
from itertools import repeat

from ._record import Record
from .errors import DegenerateSampleError, DomainError, InsufficientDataError

MAX_MOMENT_ORDER = 8


class MomentsReport(Record):
    n: int
    mean: float
    m2: float
    m3: float
    m4: float
    skew: float
    excess_kurtosis: float


class _Centred(Record):
    """A sample's values (times 2^-exponent), their fsum mean (corrected where it dwarfs
    the spread), deviations x - mean, fsum(d*d)."""

    values: Sequence[float]
    n: int
    mean: float
    deviations: list[float]
    sum_squares: float
    exponent: int


def _centred(sample: Sequence[float], min_n: int, what: str) -> _Centred:
    """The sample centred on its mean; first scaled by 2^-e to max |x| < 1 when max |x|
    is m * 2^e with e outside [-128, 128], where no sum or power the readers take
    could overflow or underflow. They map back what is not scale-invariant."""
    n = len(sample)
    if n < min_n:
        raise InsufficientDataError(f"{what} needs n >= {min_n}, got {n}")
    # max and min find any inf, or return a nan that comes first; a nan elsewhere
    # makes the fsum mean nan: two O(1) checks on values computed anyway, no extra pass
    peak = max(-min(sample), max(sample))
    if not math.isfinite(peak):
        raise DomainError(f"{what} needs finite values, got {peak}")
    exponent = math.frexp(peak)[1]
    if -128 <= exponent <= 128:
        exponent = 0
    else:
        sample = [math.ldexp(x, -exponent) for x in sample]
    mean = math.fsum(sample) / n
    if not math.isfinite(mean):
        raise DomainError(f"{what} needs finite values, got {mean}")
    deviations = [x - mean for x in sample]
    sum_squares = math.fsum(d * d for d in deviations)
    # the rounded mean shifts every deviation by one offset c, which the third moment
    # carries as about 3*c*m2; the corrected two-pass step (Chan, Golub & LeVeque 1983)
    # removes it. As |c| <= 3 ulp(mean) + 2^-52 rms(d), a closed gate proves
    # c*c*n <= 2^-80 * sum_squares, so no pass is added unless |mean| dwarfs the spread
    if n * (3 * math.ulp(mean)) ** 2 > 2**-82 * sum_squares:
        c = math.fsum(deviations) / n
        if c * c * n > 2**-80 * sum_squares:
            mean += c
            deviations = [d - c for d in deviations]
            sum_squares = math.fsum(d * d for d in deviations)
    return _Centred(sample, n, mean, deviations, sum_squares, exponent)


def _ldexp(x: float, exponent: int, limit: float = math.inf) -> float:
    """x * 2^exponent, or +-limit where that overflows: math.ldexp raises there."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.copysign(limit, x)


def central_moment(sample: Sequence[float], k: int) -> float:
    """k-th central sample moment, (1/n) * sum(d * d * ... * d), d = x - mean."""
    if not 1 <= k <= MAX_MOMENT_ORDER:
        raise DomainError(f"moment order must be in 1..{MAX_MOMENT_ORDER}, got {k}")
    centred = _centred(sample, 1, "central moment")
    moment = math.fsum(math.prod(repeat(d, k)) for d in centred.deviations) / centred.n
    return _ldexp(moment, k * centred.exponent)


def _moments(centred: _Centred) -> MomentsReport:
    """The moments on the caller's scale; m2..m4 saturate to +-inf there."""
    n, e, deviations = centred.n, centred.exponent, centred.deviations
    m2 = centred.sum_squares / n
    if m2 == 0.0:
        raise DegenerateSampleError("moments undefined for a zero-variance sample")
    m3 = math.fsum(d * d * d for d in deviations) / n
    m4 = math.fsum(d * d * d * d for d in deviations) / n
    return MomentsReport(
        n, math.ldexp(centred.mean, e), _ldexp(m2, 2 * e), _ldexp(m3, 3 * e), _ldexp(m4, 4 * e),
        skew=m3 / m2**1.5, excess_kurtosis=m4 / (m2 * m2) - 3.0,
    )


def skewness(sample: Sequence[float]) -> float:
    """Standardized third central moment, m3 / m2^(3/2)."""
    return _moments(_centred(sample, 3, "skewness")).skew


def excess_kurtosis(sample: Sequence[float]) -> float:
    """Fisher excess kurtosis, m4 / m2^2 - 3."""
    return _moments(_centred(sample, 4, "excess kurtosis")).excess_kurtosis


def moment_report(sample: Sequence[float]) -> MomentsReport:
    """Mean, central moments up to order 4, skew, and excess kurtosis."""
    return _moments(_centred(sample, 4, "moment report"))
