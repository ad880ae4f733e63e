"""OHLCV CSV parsing and simple daily return computation."""

from __future__ import annotations

import csv
import io
import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from datetime import date
from functools import partial
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

# characters per piece of text fed to the columnar parser; each block of whole
# lines it makes ends at a piece's last newline, which bounds the cells alive at once
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


# the columns after the date, in file order: "open" ... "volume"
_COLUMNS = PriceSeries._fields[2:]


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


def _line_blocks(pieces: Iterable[str]) -> Iterator[str]:
    """The text that the pieces join to, as blocks of whole lines without their
    final newline: one block per piece that holds a newline, ending at its last
    one, and the text after the last newline as a block of its own. A piece
    without a newline joins the next block, so a line may span any number of
    pieces."""
    tail = ""
    for piece in pieces:
        cut = piece.rfind("\n")
        if cut < 0:
            tail += piece
        else:
            yield tail + piece[:cut]
            tail = piece[cut + 1 :]
    if tail:
        yield tail


def _parse_block(
    block: str, lineno: int, dates: list[date], kept: dict[str, list], warnings: list[str]
) -> int | None:
    """Append one block's dates, kept columns and warnings; return the line number
    after the block, or None where ``_parse_columns`` declines. Its lines and cells
    die on return, before the next block is read."""
    if '"' in block or "\r" in block or "\0" in block:
        return None
    lines = block.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    if lineno == 1:
        header = lines.pop(0).lstrip("\ufeff").split(",")
        if tuple(col.strip() for col in header) != OHLCV_HEADER:
            return None
        if not lines:
            return 2
        lineno = 2
    if set(map(str.count, lines, repeat(","))) != {6}:
        return None
    for i in compress(range(len(lines)), map(operator.contains, lines, repeat("null"))):
        if any(cell.strip() == "null" for cell in lines[i].split(",")[1:]):
            warnings.append(f"line {lineno + i}: null field, row skipped")
            lines[i] = ""
    cells = ",".join(filter(None, lines)).split(",")
    if cells == [""]:  # every line of the block was a null row
        return lineno + len(lines)
    # the values are checked as they are converted, so a bad cell stops the pass at its block
    try:
        dates += map(date.fromisoformat, cells[0::7])
        for k, name in enumerate(_COLUMNS[:5], start=1):
            values = list(map(float, cells[k::7]))
            if not all(map(math.isfinite, values)) or min(values) <= 0.0:
                return None
            if name in kept:
                kept[name] += values
        values = list(map(int, cells[6::7]))
    except ValueError:
        return None
    if min(values) < 0:
        return None
    if "volume" in kept:
        kept["volume"] += values
    return lineno + len(lines)


def _parse_columns(
    blocks: Iterable[str], keep: Sequence[str]
) -> tuple[list[date], list[list], list[str]] | None:
    """The dates, the columns named in ``keep`` and the warnings of a plain
    LF OHLCV text given as ``_line_blocks``, in ascending date order.

    Each block is checked and converted whole, then dropped, so only one
    block's lines and cells are alive at a time; of the converted cells only
    the dates and the kept columns stay. Every cell is checked, kept or not.
    Returns None, having raised nothing, when the text could parse
    differently from ``_parse_rows`` or fails any of its checks: quotes, CR
    or NUL, a bad header, a line without exactly seven fields or over the
    csv field limit, an unconvertible cell, a non-finite or non-positive
    price, a negative volume, a duplicate date, or no priced row. Otherwise
    the dates, kept columns and warnings equal ``_parse_rows``'s.
    """
    dates: list[date] = []
    kept: dict[str, list] = {name: [] for name in keep}
    warnings: list[str] = []
    lineno: int | None = 1
    for block in blocks:
        lineno = _parse_block(block, lineno, dates, kept, warnings)
        if lineno is None:
            return None
    if not dates:
        return None
    columns = list(kept.values())
    if not all(map(operator.lt, dates, islice(dates, 1, None))):
        # rows out of date order (a newest-first export) are sorted here, as _parse_rows does
        order = sorted(range(len(dates)), key=dates.__getitem__)
        dates = list(map(dates.__getitem__, order))
        if not all(map(operator.lt, dates, islice(dates, 1, None))):
            return None  # a duplicate date, which _parse_rows reports with its line
        columns = [list(map(column.__getitem__, order)) for column in columns]
    return dates, columns, warnings


def _text_pieces(text: str) -> Iterator[str]:
    """The text in slices of ``_CHUNK_CHARS`` characters."""
    return (text[i : i + _CHUNK_CHARS] for i in range(0, len(text), _CHUNK_CHARS))


def _read_columns(
    fh: io.TextIOBase, keep: Sequence[str]
) -> tuple[list[date], list[list], list[str]] | None:
    """``_parse_columns`` on a text file read ``_CHUNK_CHARS`` characters at a time."""
    return _parse_columns(_line_blocks(iter(partial(fh.read, _CHUNK_CHARS), "")), keep)


def parse_ohlcv_csv(text: str, symbol: str) -> tuple[PriceSeries, list[str]]:
    """Parse a Yahoo Finance CSV export into a date-sorted PriceSeries.

    Rows containing the literal ``null`` are skipped and reported in the
    returned warnings list. Raises DataFormatError for a bad header,
    malformed CSV, unparsable fields, non-positive prices, or duplicate
    dates, and EmptyInputError when there are no data rows at all.
    Plain LF files without quotes or blank lines are fed to the columnar
    parser in ``_CHUNK_CHARS``-character slices, each cut back to its last
    newline and converted a column at a time; any other input, and every
    error, goes through the csv module row by row, with the same result.
    """
    parsed = _parse_columns(_line_blocks(_text_pieces(text)), _COLUMNS)
    if parsed is None:
        return _parse_rows(text, symbol)
    dates, columns, warnings = parsed
    return PriceSeries(symbol, tuple(dates), *map(tuple, columns)), warnings


def price_series_to_csv(series: PriceSeries) -> str:
    """Serialize a PriceSeries back to Yahoo CSV form (parse round-trips)."""
    # str() of a date is its ISO form, and of a float its round-tripping repr
    rows = zip(*(getattr(series, column) for column in series._fields[1:]))
    lines = [",".join(OHLCV_HEADER), *(",".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _returns(dates: Sequence[date], column: Sequence[float]) -> tuple[float, ...]:
    """Fractional changes between consecutive prices of a column, errors dated by ``dates``."""
    if len(column) < 2:
        raise InsufficientDataError(
            f"need at least 2 price points to compute returns, got {len(column)}"
        )
    if 0.0 in column[:-1]:
        day = dates[column.index(0.0) + 1]
        raise DomainError(f"zero price on {day.isoformat()} denominator")
    values = tuple((cur - prev) / prev for prev, cur in zip(column, islice(column, 1, None)))
    finite = list(map(math.isfinite, values))
    if not all(finite):
        day = dates[finite.index(False) + 1]
        raise DataFormatError(f"non-finite return on {day.isoformat()}")
    return values


def simple_returns(prices: PriceSeries, field: str = "adj_close") -> ReturnSeries:
    """Fractional price changes between consecutive points of a series."""
    if field not in PRICE_FIELDS:
        raise DomainError(f"price field must be one of {PRICE_FIELDS}, got {field!r}")
    values = _returns(prices.dates, getattr(prices, field))
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
