"""OHLCV CSV parsing and simple daily return computation."""

from __future__ import annotations

import csv
import io
import math
import operator
from collections.abc import Iterator, Sequence
from datetime import date
from itertools import compress, islice, repeat

from ._record import Record
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

# text per columnar chunk, cut at a newline: bounds the cells alive at once
_CHUNK_CHARS = 1 << 20


class PriceSeries(Record):
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


class ReturnSeries(Record):
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


def _csv_records(text: str) -> Iterator[tuple[int, list[str]]]:
    """Each CSV record with the physical line it starts on."""
    # exhausting the generator frees the reader's 4-byte-per-character copy of the text
    reader = csv.reader(io.StringIO(text))
    lineno = 1
    try:
        for row in reader:
            yield lineno, row
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise DataFormatError(f"line {reader.line_num}: {exc}") from None


def _parse_rows(text: str, symbol: str) -> tuple[PriceSeries, list[str]]:
    """The csv-module parser: any input, every check and message, row by row."""
    records = _csv_records(text)
    _, header = next(records, (1, None))
    if header is None:
        raise DataFormatError("missing CSV header")
    if header:
        header[0] = header[0].lstrip("\ufeff")
    if tuple(col.strip() for col in header) != OHLCV_HEADER:
        raise DataFormatError(
            f"unknown header {','.join(header)!r}; expected {','.join(OHLCV_HEADER)!r}"
        )

    rows: dict[date, tuple] = {}
    warnings: list[str] = []
    for lineno, row in records:
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


def _parse_columns(text: str, symbol: str) -> tuple[PriceSeries, list[str]] | None:
    """Whole-column parse of a plain LF file, sorted by date.

    Returns None, having raised nothing, when the text could parse
    differently from ``_parse_rows`` or fails any of its checks: quotes,
    CR or NUL, a bad header, a line without exactly seven fields or over
    the csv field limit, an unconvertible cell, a non-finite or
    non-positive price, a negative volume, or a duplicate date.
    Otherwise the result equals ``_parse_rows``'s.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    head_end = text.find("\n")
    if head_end < 0:
        return None
    header = text[:head_end].lstrip("\ufeff").split(",")
    if tuple(col.strip() for col in header) != OHLCV_HEADER:
        return None
    limit = csv.field_size_limit()
    dates: list[date] = []
    prices: tuple[list[float], ...] = ([], [], [], [], [])
    volume: list[int] = []
    warnings: list[str] = []
    lineno = 2
    start, stop = head_end + 1, len(text) - text.endswith("\n")
    while start <= stop:
        # one chunk of whole lines, so only one chunk's cells exist at a time
        end = text.find("\n", start + _CHUNK_CHARS, stop)
        if end < 0:
            end = stop
        lines = text[start:end].split("\n")
        start = end + 1
        if set(map(str.count, lines, repeat(","))) != {6} or max(map(len, lines)) > limit:
            return None
        for i in compress(range(len(lines)), map(operator.contains, lines, repeat("null"))):
            if any(cell.strip() == "null" for cell in lines[i].split(",")[1:]):
                warnings.append(f"line {lineno + i}: null field, row skipped")
                lines[i] = ""
        lineno += len(lines)
        cells = ",".join(filter(None, lines)).split(",")
        if cells == [""]:  # every line of the chunk was a null row
            continue
        # each chunk's values are checked as they are converted, so a bad cell
        # stops the pass at its chunk
        try:
            dates.extend(map(date.fromisoformat, cells[0::7]))
            for k, column in enumerate(prices, start=1):
                values = list(map(float, cells[k::7]))
                if not all(map(math.isfinite, values)) or min(values) <= 0.0:
                    return None
                column += values
            values = list(map(int, cells[6::7]))
        except ValueError:
            return None
        if min(values) < 0:
            return None
        volume += values
    if not dates:
        return None
    if not all(map(operator.lt, dates, islice(dates, 1, None))):
        # rows out of date order (a newest-first export) are sorted here, as _parse_rows does
        order = sorted(range(len(dates)), key=dates.__getitem__)
        dates = list(map(dates.__getitem__, order))
        if not all(map(operator.lt, dates, islice(dates, 1, None))):
            return None  # a duplicate date, which _parse_rows reports with its line
        prices = tuple(list(map(column.__getitem__, order)) for column in prices)
        volume = list(map(volume.__getitem__, order))
    return PriceSeries(symbol, tuple(dates), *map(tuple, prices), tuple(volume)), warnings


def parse_ohlcv_csv(text: str, symbol: str) -> tuple[PriceSeries, list[str]]:
    """Parse a Yahoo Finance CSV export into a date-sorted PriceSeries.

    Rows containing the literal ``null`` are skipped and reported in the
    returned warnings list. Raises DataFormatError for a bad header,
    malformed CSV, unparsable fields, non-positive prices, or duplicate
    dates, and EmptyInputError when there are no data rows at all.
    Plain LF files without quotes or blank lines are converted a whole
    column at a time; any other input, and every error, goes through the
    csv module row by row, with the same result.
    """
    return _parse_columns(text, symbol) or _parse_rows(text, symbol)


def price_series_to_csv(series: PriceSeries) -> str:
    """Serialize a PriceSeries back to Yahoo CSV form (parse round-trips)."""
    # str() of a date is its ISO form, and of a float its round-tripping repr
    rows = zip(*(getattr(series, column) for column in series._fields[1:]))
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
    """Parse the one-return-per-line format written by the sample command.

    A file of finite numbers, one per line, is converted a whole file at a
    time; any other input, and every error, goes through the line loop,
    with the same result.
    """
    lines = text.splitlines()
    try:
        # float() strips the same whitespace as str.strip(), so a line it
        # takes gives the loop's value
        values = list(map(float, lines))
        if values and all(map(math.isfinite, values)):
            return values
    except ValueError:  # a blank or unparsable line
        pass
    values = []
    for lineno, line in enumerate(lines, start=1):
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
    return "%r\n" * len(values) % tuple(map(float, values))
