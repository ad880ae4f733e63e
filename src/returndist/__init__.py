"""Daily return distribution analysis: normality tests and Normal-vs-Laplace fits."""

from types import ModuleType as _ModuleType

from .distfit import (
    LaplaceParams,
    NormalParams,
    Xoshiro256PlusPlus,
    fit_laplace,
    fit_normal,
    median,
    sample_laplace,
    sample_normal,
)
from .errors import (
    DataFormatError,
    DegenerateFitError,
    DegenerateSampleError,
    DomainError,
    EmptyInputError,
    InsufficientDataError,
    ReturnDistError,
)
from .gof import EcdfCurve, FitScore, GofReport, compare_fits, ecdf, ks_statistic, log_likelihood
from .market_data import (
    PriceSeries,
    ReturnSeries,
    parse_ohlcv_csv,
    parse_return_lines,
    price_series_to_csv,
    returns_to_lines,
    simple_returns,
)
from .moments import MomentsReport, central_moment, excess_kurtosis, moment_report, skewness
from .normality import SWResult, shapiro_wilk, sw_coefficients
from .report import (
    AnalysisReport,
    HistogramData,
    analyze_returns,
    ecdf_overlay,
    histogram,
    report_from_dict,
    report_to_dict,
)

__version__ = "0.1.0"

# every public name imported above, not the submodules bound alongside them
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
