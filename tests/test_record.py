"""The frozen-record contract of every report and parameter type."""

from __future__ import annotations

import copy
import math
import pickle
from datetime import date

import pytest

from returndist.distfit import LaplaceParams, NormalParams
from returndist.errors import DomainError
from returndist.gof import EcdfCurve, FitScore, GofReport
from returndist.market_data import PriceSeries, ReturnSeries
from returndist.moments import MomentsReport
from returndist.normality import SWResult
from returndist.report import AnalysisReport, HistogramData

NORMAL = NormalParams(mean=0.5, sigma=2.0)
LAPLACE = LaplaceParams(mu=-0.25, scale=0.125)
NORMAL_SCORE = FitScore(
    family="normal", params=NORMAL, ks_distance=0.1, log_likelihood=-1.5, aic=7.0
)
LAPLACE_SCORE = FitScore(
    family="laplace", params=LAPLACE, ks_distance=0.05, log_likelihood=-1.25, aic=6.5
)
NORMAL_REPR = "NormalParams(mean=0.5, sigma=2.0)"
LAPLACE_REPR = "LaplaceParams(mu=-0.25, scale=0.125)"
NORMAL_SCORE_REPR = (
    f"FitScore(family='normal', params={NORMAL_REPR}, ks_distance=0.1, "
    "log_likelihood=-1.5, aic=7.0)"
)
LAPLACE_SCORE_REPR = (
    f"FitScore(family='laplace', params={LAPLACE_REPR}, ks_distance=0.05, "
    "log_likelihood=-1.25, aic=6.5)"
)

# one instance of each record type, built by keyword as the package builds them,
# with the repr the dataclass versions of these types printed
CASES = [
    (NORMAL, NORMAL_REPR),
    (LAPLACE, LAPLACE_REPR),
    (
        MomentsReport(
            n=4, mean=0.25, m2=1.5, m3=-0.5, m4=3.0,
            skew=-0.2721655269759087, excess_kurtosis=-1.6666666666666667,
        ),
        "MomentsReport(n=4, mean=0.25, m2=1.5, m3=-0.5, m4=3.0, "
        "skew=-0.2721655269759087, excess_kurtosis=-1.6666666666666667)",
    ),
    (
        SWResult(n=3, w=0.75, p_value=0.0, large_n_warning=False),
        "SWResult(n=3, w=0.75, p_value=0.0, large_n_warning=False)",
    ),
    (EcdfCurve(sorted_x=(1.0, 2.0)), "EcdfCurve(sorted_x=(1.0, 2.0))"),
    (NORMAL_SCORE, NORMAL_SCORE_REPR),
    (
        GofReport(normal=NORMAL_SCORE, laplace=LAPLACE_SCORE, better_fit="laplace"),
        f"GofReport(normal={NORMAL_SCORE_REPR}, laplace={LAPLACE_SCORE_REPR}, "
        "better_fit='laplace')",
    ),
    (
        AnalysisReport(
            symbol="SPX", n=1879, skew=-0.5, excess_kurtosis=6.25, shapiro_w=0.9,
            shapiro_p=1e-19, normal_fit=NORMAL, laplace_fit=LAPLACE, ks_normal=0.1,
            ks_laplace=0.05, log_lik_normal=-1.5, log_lik_laplace=-1.25, aic_normal=7.0,
            aic_laplace=6.5, better_fit="laplace",
            warnings=("line 3: null field, row skipped",),
        ),
        "AnalysisReport(symbol='SPX', n=1879, skew=-0.5, excess_kurtosis=6.25, "
        f"shapiro_w=0.9, shapiro_p=1e-19, normal_fit={NORMAL_REPR}, "
        f"laplace_fit={LAPLACE_REPR}, ks_normal=0.1, ks_laplace=0.05, "
        "log_lik_normal=-1.5, log_lik_laplace=-1.25, aic_normal=7.0, aic_laplace=6.5, "
        "better_fit='laplace', warnings=('line 3: null field, row skipped',))",
    ),
    (
        HistogramData(bin_edges=(0.0, 0.5, 1.0), counts=(3, 1), densities=(1.5, 0.5)),
        "HistogramData(bin_edges=(0.0, 0.5, 1.0), counts=(3, 1), densities=(1.5, 0.5))",
    ),
    (
        PriceSeries(
            symbol="SPX", dates=(date(2020, 1, 2), date(2020, 1, 3)), open=(1.0, 2.0),
            high=(1.5, 2.5), low=(0.5, 1.5), close=(1.25, 2.25), adj_close=(1.2, 2.2),
            volume=(100, 0),
        ),
        "PriceSeries(symbol='SPX', dates=(datetime.date(2020, 1, 2), "
        "datetime.date(2020, 1, 3)), open=(1.0, 2.0), high=(1.5, 2.5), low=(0.5, 1.5), "
        "close=(1.25, 2.25), adj_close=(1.2, 2.2), volume=(100, 0))",
    ),
    (
        ReturnSeries(symbol="SPX", dates=(date(2020, 1, 3),), values=(0.8333333333333335,)),
        "ReturnSeries(symbol='SPX', dates=(datetime.date(2020, 1, 3),), "
        "values=(0.8333333333333335,))",
    ),
]
IDS = [type(record).__name__ for record, _ in CASES]


def _values(record) -> list:
    return [getattr(record, name) for name in record._fields]


def test_every_record_type_covered():
    assert len(set(IDS)) == len(IDS) == 11


@pytest.mark.parametrize("record, expected", CASES, ids=IDS)
class TestRecordContract:
    def test_repr_is_golden(self, record, expected):
        assert repr(record) == expected

    def test_positional_equals_keyword(self, record, expected):
        cls = type(record)
        assert cls(*_values(record)) == record
        split = len(record._fields) // 2
        head = _values(record)[:split]
        assert cls(*head, **dict(zip(record._fields[split:], _values(record)[split:]))) == record

    def test_missing_or_extra_arguments(self, record, expected):
        cls, values = type(record), _values(record)
        keywords = dict(zip(record._fields, values))
        with pytest.raises(TypeError):
            cls(*values[:-1])
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(**keywords, extra=1)
        with pytest.raises(TypeError):
            cls(values[0], **keywords)  # the first field given twice
        renamed = dict(keywords)
        renamed["unknown"] = renamed.pop(record._fields[-1])
        with pytest.raises(TypeError):
            cls(**renamed)  # the right count, one name wrong

    def test_frozen(self, record, expected):
        name = record._fields[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            record.other = 1
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert repr(record) == expected

    def test_hash_and_class_strict_equality(self, record, expected):
        twin = type(record)(*_values(record))
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert len({record, twin}) == 1
        assert record != tuple(_values(record))
        for other, _ in CASES:
            if other is not record:
                assert record != other

    def test_pickle_and_deepcopy_round_trip(self, record, expected):
        protocols = range(pickle.HIGHEST_PROTOCOL + 1)
        pickled = [pickle.dumps(record, protocol) for protocol in protocols]
        for clone in (*map(pickle.loads, pickled), copy.deepcopy(record)):
            assert type(clone) is type(record)
            assert clone == record
            assert repr(clone) == expected


def test_equality_is_class_strict():
    assert NormalParams(0.0, 1.0) != LaplaceParams(0.0, 1.0)
    assert NormalParams(0.0, 1.0) == NormalParams(mean=0.0, sigma=1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: NormalParams(mean=math.nan, sigma=1.0), "normal mean must be finite, got nan"),
        (lambda: NormalParams(0.0, -0.5), "normal sigma must be finite and > 0, got -0.5"),
        (lambda: LaplaceParams(mu=math.inf, scale=1.0), "laplace mu must be finite, got inf"),
        (lambda: LaplaceParams(0.0, 0.0), "laplace scale must be finite and > 0, got 0.0"),
    ],
)
def test_params_validate_on_construction(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message
