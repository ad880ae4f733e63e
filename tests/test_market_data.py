"""Tests for OHLCV CSV parsing and return computation."""

from __future__ import annotations

from datetime import date, timedelta

import pytest

from returndist.distfit import Xoshiro256PlusPlus
from returndist.errors import (
    DataFormatError,
    DomainError,
    EmptyInputError,
    InsufficientDataError,
)
from returndist.market_data import (
    OHLCV_HEADER,
    PriceSeries,
    parse_ohlcv_csv,
    parse_return_lines,
    price_series_to_csv,
    returns_to_lines,
    simple_returns,
)

HEADER = ",".join(OHLCV_HEADER)


def make_csv(*rows: str) -> str:
    return HEADER + "\n" + "\n".join(rows) + "\n"


def make_series(prices: list[float], symbol: str = "TEST") -> PriceSeries:
    start = date(2012, 1, 1)
    dates = tuple(start + timedelta(days=i) for i in range(len(prices)))
    column = tuple(prices)
    return PriceSeries(symbol, dates, column, column, column, column, column, (1000,) * len(dates))


class TestParse:
    def test_single_row(self):
        series, warnings = parse_ohlcv_csv(
            make_csv("2012-01-03,100,101,99,100.5,100.5,1000"), "SPX"
        )
        assert warnings == []
        assert series == PriceSeries(
            "SPX", (date(2012, 1, 3),), (100.0,), (101.0,), (99.0,), (100.5,), (100.5,), (1000,)
        )
        assert len(series) == 1

    def test_descending_dates_resorted(self):
        series, _ = parse_ohlcv_csv(
            make_csv(
                "2012-01-04,101,102,100,101.5,101.5,2000",
                "2012-01-03,100,101,99,100.5,100.5,1000",
            ),
            "SPX",
        )
        assert series.dates == (date(2012, 1, 3), date(2012, 1, 4))
        assert series.close == (100.5, 101.5)
        assert series.volume == (1000, 2000)

    def test_null_row_skipped_with_warning(self):
        series, warnings = parse_ohlcv_csv(
            make_csv("2012-01-03,null,null,null,null,null,null"), "SPX"
        )
        assert series == PriceSeries("SPX", (), (), (), (), (), (), ())
        assert len(series) == 0
        assert len(warnings) == 1
        assert "null" in warnings[0]

    def test_null_in_single_price_field(self):
        series, warnings = parse_ohlcv_csv(
            make_csv(
                "2012-01-03,100,101,99,100.5,null,1000",
                "2012-01-04,101,102,100,101.5,101.5,2000",
            ),
            "SPX",
        )
        assert len(series) == 1
        assert len(warnings) == 1

    def test_bad_header(self):
        with pytest.raises(DataFormatError):
            parse_ohlcv_csv("Date,Open,Close\n2012-01-03,1,2\n", "X")

    def test_empty_text(self):
        with pytest.raises(DataFormatError):
            parse_ohlcv_csv("", "X")

    def test_header_only(self):
        with pytest.raises(EmptyInputError):
            parse_ohlcv_csv(HEADER + "\n", "X")

    def test_bad_date_reports_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_ohlcv_csv(make_csv("03/01/2012,100,101,99,100.5,100.5,1000"), "X")

    def test_negative_price_reports_line(self):
        with pytest.raises(DataFormatError, match="line 3"):
            parse_ohlcv_csv(
                make_csv(
                    "2012-01-03,100,101,99,100.5,100.5,1000",
                    "2012-01-04,-101,102,100,101.5,101.5,2000",
                ),
                "X",
            )

    def test_zero_price_rejected(self):
        with pytest.raises(DataFormatError):
            parse_ohlcv_csv(make_csv("2012-01-03,0,101,99,100.5,100.5,1000"), "X")

    def test_unparsable_price(self):
        with pytest.raises(DataFormatError, match="unparsable"):
            parse_ohlcv_csv(make_csv("2012-01-03,abc,101,99,100.5,100.5,1000"), "X")

    def test_duplicate_date(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            parse_ohlcv_csv(
                make_csv(
                    "2012-01-03,100,101,99,100.5,100.5,1000",
                    "2012-01-03,100,101,99,100.5,100.5,1000",
                ),
                "X",
            )

    def test_bom_tolerated(self):
        series, _ = parse_ohlcv_csv(
            "﻿" + make_csv("2012-01-03,100,101,99,100.5,100.5,1000"), "X"
        )
        assert len(series) == 1

    def test_oversized_field_is_data_error(self):
        text = make_csv("2012-01-03,100,101,99,100.5,100.5," + "9" * 140_000)
        with pytest.raises(DataFormatError, match="line 2: field larger than field limit"):
            parse_ohlcv_csv(text, "X")

    def test_blank_lines_ignored(self):
        series, warnings = parse_ohlcv_csv(
            HEADER + "\n\n2012-01-03,100,101,99,100.5,100.5,1000\n\n", "X"
        )
        assert len(series) == 1
        assert warnings == []


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        text = make_csv(
            "2012-01-03,100.25,101.5,99.125,100.5,98.7654321,123456",
            "2012-01-04,101,102,100,101.5,99.25,2000",
        )
        first, _ = parse_ohlcv_csv(text, "SPX")
        second, warnings = parse_ohlcv_csv(price_series_to_csv(first), "SPX")
        assert second == first
        assert warnings == []


class TestSimpleReturns:
    def test_basic_gain(self):
        returns = simple_returns(make_series([100.0, 105.0]))
        assert returns.values == (0.05,)
        assert returns.dates == (date(2012, 1, 2),)

    def test_flat(self):
        assert simple_returns(make_series([100.0, 100.0, 100.0])).values == (0.0, 0.0)

    def test_loss(self):
        assert simple_returns(make_series([200.0, 190.0])).values == (-0.05,)

    def test_price_field_selection(self):
        dates = (date(2012, 1, 3), date(2012, 1, 4))
        ones = (1.0, 1.0)
        series = PriceSeries("X", dates, ones, ones, ones, (100.0, 110.0), (50.0, 51.0), (0, 0))
        assert simple_returns(series, "close").values[0] == pytest.approx(0.10)
        assert simple_returns(series, "adj_close").values[0] == pytest.approx(0.02)

    def test_unknown_field(self):
        with pytest.raises(DomainError):
            simple_returns(make_series([1.0, 2.0]), "open")

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            simple_returns(make_series([100.0]))

    def test_zero_denominator(self):
        dates = (date(2012, 1, 3), date(2012, 1, 4), date(2012, 1, 5))
        prices = (1.0, 0.0, 1.0)
        series = PriceSeries("X", dates, prices, prices, prices, prices, prices, (0, 0, 0))
        with pytest.raises(DomainError, match="zero price on 2012-01-05 denominator"):
            simple_returns(series)

    def test_non_finite_return(self):
        series = make_series([1.0, 1e-300, 1e300])
        with pytest.raises(DataFormatError, match="non-finite return on 2012-01-03"):
            simple_returns(series)

    def test_length_contract(self):
        series = make_series([100.0, 101.0, 99.0, 103.0])
        assert len(simple_returns(series)) == len(series) - 1

    def test_scale_invariance(self):
        rng = Xoshiro256PlusPlus(15)
        prices = [100.0]
        for _ in range(300):
            prices.append(prices[-1] * (1.0 + 0.02 * (rng.next_float() - 0.5)))
        base = simple_returns(make_series(prices)).values
        for c in (3.0, 1e-4, 7.5e6):
            scaled = simple_returns(make_series([c * p for p in prices])).values
            for a, b in zip(base, scaled):
                assert abs(a - b) < 1e-12

    def test_reconstruction(self):
        rng = Xoshiro256PlusPlus(16)
        prices = [250.0]
        for _ in range(500):
            prices.append(prices[-1] * (1.0 + 0.03 * (rng.next_float() - 0.5)))
        returns = simple_returns(make_series(prices)).values
        level = prices[0]
        for r, expected in zip(returns, prices[1:]):
            level *= 1.0 + r
            assert abs(level - expected) / expected < 1e-9

    def test_returns_above_minus_one(self):
        rng = Xoshiro256PlusPlus(17)
        prices = [1.0]
        for _ in range(200):
            prices.append(max(prices[-1] * 2.0 * rng.next_float(), 1e-9))
        assert all(r > -1.0 for r in simple_returns(make_series(prices)).values)


class TestReturnLines:
    def test_round_trip(self):
        values = [0.01, -0.025, 3.5e-05, 0.0]
        assert parse_return_lines(returns_to_lines(values)) == values

    def test_blank_lines_skipped(self):
        assert parse_return_lines("0.01\n\n-0.02\n") == [0.01, -0.02]

    def test_unparsable_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_return_lines("0.01\nbogus\n")

    def test_non_finite_rejected(self):
        with pytest.raises(DataFormatError):
            parse_return_lines("0.01\nnan\n")

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_return_lines("\n\n")
