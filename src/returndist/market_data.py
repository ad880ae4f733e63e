"""OHLCV CSV parsing and simple daily return computation."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields
from datetime import date
from typing import Iterator, Sequence

from .errors import (
    DataFormatError,
    DomainError,
    EmptyInputError,
    InsufficientDataError,
)

OHLCV_HEADER = ("Date", "Open", "High", "Low", "Close", "Adj Close", "Volume")

PRICE_FIELDS = ("adj_close", "close")

# the five price columns as error messages name them: "open" ... "adj close"
_PRICE_NAMES = tuple(name.lower() for name in OHLCV_HEADER[1:6])


@dataclass(frozen=True)
class PriceSeries:
    """One tuple per OHLCV column, each in ascending date order."""

    symbol: str
    dates: tuple[date, ...]
    open: tuple[float, ...]
    high: tuple[float, ...]
    low: tuple[float, ...]
    close: tuple[float, ...]
    adj_close: tuple[float, ...]
    volume: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class ReturnSeries:
    """Simple daily returns, dated at the later of each price pair."""

    symbol: str
    dates: tuple[date, ...]
    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)


def _parse_price(raw: str, lineno: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataFormatError(f"line {lineno}: unparsable {column} {raw!r}") from None
    if not math.isfinite(value):
        raise DataFormatError(f"line {lineno}: non-finite {column} {raw!r}")
    if value <= 0.0:
        raise DataFormatError(f"line {lineno}: non-positive {column} {value}")
    return value


def _csv_records(text: str) -> Iterator[list[str]]:
    # exhausting the generator frees the reader's 4-byte-per-character copy of the text
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise DataFormatError(f"line {reader.line_num}: {exc}") from None


def parse_ohlcv_csv(text: str, symbol: str) -> tuple[PriceSeries, list[str]]:
    """Parse a Yahoo Finance CSV export into a date-sorted PriceSeries.

    Rows containing the literal ``null`` are skipped and reported in the
    returned warnings list. Raises DataFormatError for a bad header,
    malformed CSV, unparsable fields, non-positive prices, or duplicate
    dates, and EmptyInputError when there are no data rows at all.
    """
    records = _csv_records(text)
    header = next(records, None)
    if header is None:
        raise DataFormatError("missing CSV header")
    if header:
        header[0] = header[0].lstrip("﻿")
    if tuple(col.strip() for col in header) != OHLCV_HEADER:
        raise DataFormatError(
            f"unknown header {','.join(header)!r}; expected {','.join(OHLCV_HEADER)!r}"
        )

    rows: dict[date, tuple] = {}
    warnings: list[str] = []
    for lineno, row in enumerate(records, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(OHLCV_HEADER):
            raise DataFormatError(
                f"line {lineno}: expected {len(OHLCV_HEADER)} fields, got {len(row)}"
            )
        if any(cell.strip() == "null" for cell in row[1:]):
            warnings.append(f"line {lineno}: null field, row skipped")
            continue
        try:
            row_date = date.fromisoformat(row[0].strip())
        except ValueError:
            raise DataFormatError(f"line {lineno}: unparsable date {row[0]!r}") from None
        if row_date in rows:
            raise DataFormatError(f"line {lineno}: duplicate date {row_date.isoformat()}")
        prices = [_parse_price(raw, lineno, name) for raw, name in zip(row[1:6], _PRICE_NAMES)]
        try:
            volume = int(row[6].strip())
        except ValueError:
            raise DataFormatError(f"line {lineno}: unparsable volume {row[6]!r}") from None
        if volume < 0:
            raise DataFormatError(f"line {lineno}: negative volume {volume}")
        rows[row_date] = (*prices, volume)

    if not rows and not warnings:
        raise EmptyInputError("CSV contains no data rows")
    dates = tuple(sorted(rows))
    columns = list(zip(*map(rows.get, dates))) or [()] * (len(OHLCV_HEADER) - 1)
    return PriceSeries(symbol, dates, *columns), warnings


def price_series_to_csv(series: PriceSeries) -> str:
    """Serialize a PriceSeries back to Yahoo CSV form (parse round-trips)."""
    # str() of a date is its ISO form, and of a float its round-tripping repr
    rows = zip(*(getattr(series, column.name) for column in fields(series)[1:]))
    lines = [",".join(OHLCV_HEADER), *(",".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def simple_returns(prices: PriceSeries, field: str = "adj_close") -> ReturnSeries:
    """Fractional price changes between consecutive points of a series."""
    if field not in PRICE_FIELDS:
        raise DomainError(f"price field must be one of {PRICE_FIELDS}, got {field!r}")
    if len(prices) < 2:
        raise InsufficientDataError(
            f"need at least 2 price points to compute returns, got {len(prices)}"
        )
    column = getattr(prices, field)
    if 0.0 in column[:-1]:
        day = prices.dates[column.index(0.0) + 1]
        raise DomainError(f"zero price on {day.isoformat()} denominator")
    values = tuple((cur - prev) / prev for prev, cur in zip(column, column[1:]))
    finite = list(map(math.isfinite, values))
    if not all(finite):
        day = prices.dates[finite.index(False) + 1]
        raise DataFormatError(f"non-finite return on {day.isoformat()}")
    return ReturnSeries(symbol=prices.symbol, dates=prices.dates[1:], values=values)


def parse_return_lines(text: str) -> list[float]:
    """Parse the one-return-per-line format written by the sample command."""
    values: list[float] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            value = float(stripped)
        except ValueError:
            raise DataFormatError(f"line {lineno}: unparsable return {stripped!r}") from None
        if not math.isfinite(value):
            raise DataFormatError(f"line {lineno}: non-finite return {stripped!r}")
        values.append(value)
    if not values:
        raise EmptyInputError("input contains no return values")
    return values


def returns_to_lines(values: Sequence[float]) -> str:
    """Serialize returns one value per line, full float precision."""
    return "\n".join(repr(float(v)) for v in values) + "\n"
