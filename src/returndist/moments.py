"""Descriptive moment statistics: skewness and excess kurtosis.

Population (biased) estimators throughout, computed two-pass. The first
pass, `_centred` (mean, deviations, sum of squares), is taken once per
analysis and read by the moments, Shapiro-Wilk, the Normal fit and the
Normal log-likelihood. Kurtosis is in Fisher's excess form, zero in
expectation for normal data.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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


def _centred(sample: Sequence[float], min_n: int, what: str) -> tuple:
    """(sample, n, fsum mean, deviations x - mean in sample order, fsum(d*d)).

    A sample whose variance, fsum(d*d) / n, overflows, or is 0 without the
    sample being constant, is refused here with its cause named."""
    n = len(sample)
    if n < min_n:
        raise InsufficientDataError(f"{what} needs n >= {min_n}, got {n}")
    try:
        mean = math.fsum(sample) / n
        deviations = [x - mean for x in sample]
        sum_squares = math.fsum(d * d for d in deviations)
    except OverflowError:  # an fsum's partial sums left float64
        sum_squares = math.inf
    variance = sum_squares / n
    if math.isinf(variance):
        raise DegenerateSampleError("squared deviations overflow; rescale the sample")
    if variance == 0.0 and min(sample) != max(sample):
        raise DegenerateSampleError("squared deviations underflow to zero; rescale the sample")
    return sample, n, mean, deviations, sum_squares


def central_moment(sample: Sequence[float], k: int) -> float:
    """k-th central sample moment, (1/n) * sum(d * d * ... * d), d = x - mean."""
    if not 1 <= k <= MAX_MOMENT_ORDER:
        raise DomainError(f"moment order must be in 1..{MAX_MOMENT_ORDER}, got {k}")
    _, n, _, deviations, _ = _centred(sample, 1, "central moment")
    return math.fsum(math.prod(repeat(d, k)) for d in deviations) / n


def _moments(centred: tuple) -> MomentsReport:
    _, n, mean, deviations, sum_squares = centred
    m2 = sum_squares / n
    if m2 == 0.0:
        raise DegenerateSampleError("moments undefined for a zero-variance sample")
    try:
        m3 = math.fsum(d * d * d for d in deviations) / n
        m4 = math.fsum(d * d * d * d for d in deviations) / n
        skew = m3 / m2**1.5
        excess_kurtosis = m4 / (m2 * m2) - 3.0
    except ZeroDivisionError:  # m2**1.5 or m2 * m2 underflowed
        raise DegenerateSampleError(
            "powers of the variance underflow to zero; rescale the sample"
        ) from None
    except (OverflowError, ValueError):
        # an fsum's partial sums, inf - inf in an fsum, or m2**1.5, which is at
        # most the largest cubed deviation
        raise DegenerateSampleError(
            "third and fourth powers of the deviations overflow; rescale the sample"
        ) from None
    return MomentsReport(
        n=n, mean=mean, m2=m2, m3=m3, m4=m4, skew=skew, excess_kurtosis=excess_kurtosis
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
