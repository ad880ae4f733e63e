"""OHLCV CSV parsing, simple daily return computation, and the reading of
input files, OHLCV or one return per line, into returns."""

from __future__ import annotations

import codecs
import io
import math
import operator
from itertools import chain, islice, repeat

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

# characters per piece of text fed to the columnar parser, and bytes per read of a
# file; each block of whole lines it makes ends at a piece's last newline, which
# bounds the cells alive at once. 64 KiB timed fastest from 16 KiB to 1 MiB because
# the dozen passes over a block stay in a core's L2 cache and its buffers stay under
# malloc's 128 KiB mmap threshold, so they reuse freed heap instead of faulting in pages.
_CHUNK_CHARS = 1 << 16


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


def _parse_rows(
    blocks: Iterable[str], lineno: int, dates: list[date], kept: dict[str, list],
    null_lines: list[int],
) -> None:
    """The csv-module parser: any input, every check and message, row by row.
    Reads the blocks from line ``lineno`` to the end, appending each row to
    ``dates`` and ``kept`` (a list per column it names) and each null row's
    line to ``null_lines``, the lists ``_parse_block`` appends to. Those
    hold the rows before that line, every one from a block the column pass
    took whole (a block it declines appends nothing); a date repeated among
    them is the first error raised. At line 1 it is handed the header line
    alone, and the header is checked here only."""
    # imported here and in _parse_block: only an OHLCV read pays for _csv and _datetime;
    # their Python layers csv.py (which loads re) and datetime.py add nothing used here
    import _csv
    from _datetime import date

    seen = set(dates)
    if len(seen) < len(dates):
        raise _duplicate_error(dates, null_lines)
    # the blocks end at newlines, so the lines read are the lines of the text
    reader = _csv.reader(chain.from_iterable(map(io.StringIO, blocks)))
    offset = lineno - 1
    picks = [(_COLUMNS.index(name), column) for name, column in kept.items()]
    try:
        for row in reader:
            line, lineno = lineno, offset + reader.line_num + 1
            if line == 1:
                if tuple(col.strip() for col in row) != OHLCV_HEADER:
                    raise DataFormatError(
                        f"unknown header {','.join(row)!r}; expected {','.join(OHLCV_HEADER)!r}"
                    )
                continue
            if all(not cell.strip() for cell in row):
                continue
            if len(row) != len(OHLCV_HEADER):
                raise DataFormatError(
                    f"line {line}: expected {len(OHLCV_HEADER)} fields, got {len(row)}"
                )
            if any(cell.strip() == "null" for cell in row[1:]):
                null_lines.append(line)
                continue
            try:
                row_date = date.fromisoformat(row[0].strip())
            except ValueError:
                raise DataFormatError(f"line {line}: unparsable date {row[0]!r}") from None
            if row_date in seen:
                raise DataFormatError(f"line {line}: duplicate date {row_date.isoformat()}")
            values = [_parse_price(raw, line, name) for raw, name in zip(row[1:6], _PRICE_NAMES)]
            try:
                volume = int(row[6].strip())
            except ValueError:
                raise DataFormatError(f"line {line}: unparsable volume {row[6]!r}") from None
            if volume < 0:
                raise DataFormatError(f"line {line}: negative volume {volume}")
            values.append(volume)
            seen.add(row_date)
            dates.append(row_date)
            for k, column in picks:
                column.append(values[k])
    except _csv.Error as exc:
        raise DataFormatError(f"line {offset + reader.line_num}: {exc}") from None


def _line_blocks(pieces: Iterable[str]) -> Iterator[str]:
    """The text that the pieces join to, less one leading BOM, as blocks of
    whole lines that join back to it: one block per piece that holds a
    newline, ending with its last one, and the text after the last newline as
    a block of its own. A piece without a newline joins the next block, so a
    line may span any number of pieces. No block is empty, so a text that is
    only a BOM gives none."""
    tail, bom = "", "\ufeff"  # dropped from the start of the first block only
    for piece in pieces:
        cut = piece.rfind("\n") + 1
        if cut:
            yield (tail + piece[:cut]).removeprefix(bom)
            tail, bom = piece[cut:], ""
        else:
            tail += piece
    if tail := tail.removeprefix(bom):
        yield tail


# plainness is judged per block: a block is plain when its lines are at most
# this many characters and each priced line, its ASCII digits deleted, is
# _PLAIN_SIGNS. A price cell of it is digits with exactly one dot: a decimal
# under 1e308 and, with a digit 1-9, at least 1e-307, so finite and > 0; a
# volume cell is digits, far inside int's digit limit. A block that is not
# plain converts every column.
_PLAIN_CHARS = 308

# the date's two dashes and six commas, with one dot in each price
_PLAIN_SIGNS = b"--,.,.,.,.,.,"


def _parse_block(
    block: str, lineno: int, dates: list[date], kept: dict[str, list], null_lines: list[int]
) -> int | None:
    """The column pass over one block: appends its rows to the lists that
    ``_parse_rows`` fills, ``dates``, ``kept`` (a list per column it names)
    and ``null_lines``, and returns the line number after the block; or
    returns None, having appended nothing, where ``_parse_columns`` hands the
    block to the row parser. It appends only once every check of the block
    has passed. The block starts at line ``lineno``, after the header line,
    so every line of it is a data row. In a plain block (``_PLAIN_CHARS``) a
    column not in ``kept`` is checked as text: a price column passes when no
    cell is only zeros and dots, the volume when no cell is empty. Any other
    column, and every column of a block that is not plain, is converted and
    checked. A date repeated across rows is not checked here.
    Its lines and cells die on return, before the next block is read."""
    # imported here and in _parse_rows: only an OHLCV read pays for _csv and _datetime
    import _csv
    from _datetime import date

    if '"' in block or "\r" in block or "\0" in block:
        return None
    lines = block.removesuffix("\n").split("\n")
    longest = max(map(len, lines))
    # "" in lines: a blank line, which the row parser skips
    if longest > _csv.field_size_limit() or "" in lines:
        return None
    nulls = []
    i = end = 0  # the index of the line after the last hit's, and where it starts
    # a line with a null cell holds an "n", which find locates by memchr, far
    # faster than "null"; the newlines between lines[i] and it give its line
    while (hit := block.find("n", end)) >= 0:
        i += block.count("\n", end, hit)
        end = block.find("\n", hit) + 1 or len(block)
        row = lines[i].split(",")
        if any(cell.strip() == "null" for cell in row[1:]):
            if len(row) != len(OHLCV_HEADER):
                return None
            nulls.append(lineno + i)
            lines[i] = ""
        i += 1
    text = "\n".join(filter(None, lines))
    if not text:  # only null rows
        null_lines += nulls
        return lineno + len(lines)
    # the newlines stay in the signature: without them a 7-comma line ending
    # in a date and a 5-comma line after it would realign to two plain lines
    priced = len(lines) - len(nulls)
    signs = text.isascii() and text.encode().translate(None, b"0123456789")
    plain = longest <= _PLAIN_CHARS and signs == b"\n".join(repeat(_PLAIN_SIGNS, priced))
    if not (plain or set(map(str.count, filter(None, lines), repeat(","))) <= {6}):
        return None
    cells = text.replace("\n", ",").split(",")
    converted = {}  # each converted column, appended once every check of the block has passed
    # the values are checked as they are converted, so a bad cell stops the pass at its block
    try:
        days = list(map(date.fromisoformat, cells[0::7]))
        for k, name in enumerate(_COLUMNS[:5], start=1):
            column = cells[k::7]
            # a cell led by 1-9, or with one anywhere, is a positive decimal
            if plain and name not in kept and (
                min(column) >= "1" or "" not in map(str.strip, column, repeat("0."))
            ):
                continue
            values = converted[name] = list(map(float, column))
            if not all(map(math.isfinite, values)) or min(values) <= 0.0:
                return None
        if not (plain and "volume" not in kept and "" not in cells[6::7]):
            values = converted["volume"] = list(map(int, cells[6::7]))
            if min(values) < 0:
                return None
    except ValueError:
        return None
    dates += days
    for name, column in kept.items():
        column += converted[name]
    null_lines += nulls
    return lineno + len(lines)


def _duplicate_error(dates: list[date], null_lines: list[int]) -> DataFormatError:
    """The error for the first date that repeats an earlier one, where each row
    takes one line after the header and the null rows sit at ``null_lines``."""
    seen: set[date] = set()
    for i, day in enumerate(dates):
        if day in seen:
            break
        seen.add(day)
    lineno = i + 2
    for null_line in null_lines:  # each null row at or before the row moves it a line on
        if null_line > lineno:
            break
        lineno += 1
    return DataFormatError(f"line {lineno}: duplicate date {day.isoformat()}")


def _parse_columns(
    blocks: Iterator[str], keep: Sequence[str]
) -> tuple[list[date], list[list], list[str]]:
    """The dates, the columns named in ``keep`` and the warnings of an OHLCV
    text given as ``_line_blocks``, in ascending date order.

    Both parsers append to one set of lists, the dates, a list per kept
    column and the null rows' lines, which this function owns. The first
    line, the header, is split off the first block and read by
    ``_parse_rows`` alone, so quoting in it changes nothing after it. The
    rest of the text goes to the column pass, ``_parse_block``, a block at
    a time: each block is checked and converted whole, appended, then
    dropped, so only one block's lines and cells are alive at a time; of
    the converted cells only the dates and the kept columns stay. Every
    cell is checked, kept or not: a dropped column as text in a plain block
    (``_PLAIN_CHARS``), every column converted in any other.
    From the first block ``_parse_block`` declines (quotes, CR or NUL, a
    blank line, a line without seven fields or over the csv field limit, a
    bad cell), having appended nothing of it, ``_parse_rows`` reads row by
    row to the end, appending to the same lists. The result and every
    error equal those of ``_parse_rows`` over the whole text, but for a
    header whose quoted field holds a newline: the header is one line, so
    that field ends at the newline.
    """
    dates: list[date] = []
    kept: dict[str, list] = {name: [] for name in keep}
    null_lines: list[int] = []
    if (block := next(blocks, None)) is None:
        raise DataFormatError("missing CSV header")
    cut = block.find("\n") + 1 or len(block)
    _parse_rows((block[:cut],), 1, dates, kept, null_lines)  # the header line only
    blocks, lineno = filter(None, chain((block[cut:],), blocks)), 2
    for block in blocks:
        if (after := _parse_block(block, lineno, dates, kept, null_lines)) is None:
            # the row parser reads this block and every block after it
            _parse_rows(chain((block,), blocks), lineno, dates, kept, null_lines)
            break
        lineno = after
    if not dates and not null_lines:
        raise EmptyInputError("CSV contains no data rows")
    columns = list(kept.values())
    if not all(map(operator.lt, dates, islice(dates, 1, None))):
        # rows out of date order (a newest-first export) are sorted here
        order = sorted(range(len(dates)), key=dates.__getitem__)
        in_order = list(map(dates.__getitem__, order))
        if not all(map(operator.lt, in_order, islice(in_order, 1, None))):
            # only the column pass lets a repeat through, so the rows are one line each
            raise _duplicate_error(dates, null_lines)
        dates = in_order
        columns = [list(map(column.__getitem__, order)) for column in columns]
    return dates, columns, [f"line {n}: null field, row skipped" for n in null_lines]


def _decoded_pieces(fh: io.BufferedIOBase, path: str) -> Iterator[str]:
    """The text of a binary file, as a text-mode read gives it (CRLF and CR
    read as LF, a BOM kept for the reader to drop), decoded ``_CHUNK_CHARS``
    bytes at a time."""
    decoder = io.IncrementalNewlineDecoder(codecs.getincrementaldecoder("utf-8")(), translate=True)
    done = 0  # the bytes read before this read
    final = False
    while not final:
        raw = fh.read(_CHUNK_CHARS)
        final = not raw
        try:
            text = decoder.decode(raw, final)
        except UnicodeDecodeError as exc:
            # exc.object is the bytes the decoder held back from earlier reads, then raw
            start = done + len(raw) - len(exc.object) + exc.start
            raise DataFormatError(f"{path}: not valid UTF-8 at byte {start}") from None
        done += len(raw)
        del raw
        yield text


def _read_returns(
    path: str, price_column: str, returns_only: bool
) -> tuple[Sequence[float], list[str]]:
    """The returns and the warnings of an input file: one return per line
    when ``returns_only``, else an OHLCV export whose ``price_column`` gives
    the returns. The file is read in ``_decoded_pieces`` and, for an OHLCV
    export, only the dates and that column are kept."""
    with open(path, "rb") as fh:
        pieces = _decoded_pieces(fh, path)
        if returns_only:
            # the BOM leaves the first block before the join: U+FEFF would make the
            # joined text 2 bytes per character
            return _return_values("".join(_line_blocks(pieces))), []
        try:
            dates, (column,), warnings = _parse_columns(_line_blocks(pieces), (price_column,))
        except DataFormatError:
            # invalid UTF-8 anywhere in the file is the error reported, as a whole-file read gives it
            for _ in pieces:
                pass
            raise
    return _returns(dates, column), warnings


def parse_ohlcv_csv(text: str, symbol: str) -> tuple[PriceSeries, list[str]]:
    """Parse a Yahoo Finance CSV export into a date-sorted PriceSeries.

    Rows containing the literal ``null`` are skipped and reported in the
    returned warnings list. Raises DataFormatError for a bad header,
    malformed CSV, unparsable fields, non-positive prices, or duplicate
    dates, and EmptyInputError when there are no data rows at all.
    The header line is read by the csv module. The rest of the text is cut
    into ``_CHUNK_CHARS``-character slices, each cut back to its last
    newline, and plain LF lines are converted a column at a time; from the
    first slice with anything else (quotes, blank lines) or a bad cell, the
    csv module reads row by row, with the same results.
    Every column is kept, so every cell is converted; a parse that drops
    columns checks them as text in a plain block instead.
    """
    pieces = (text[i : i + _CHUNK_CHARS] for i in range(0, len(text), _CHUNK_CHARS))
    dates, columns, warnings = _parse_columns(_line_blocks(pieces), _COLUMNS)
    return PriceSeries(symbol, tuple(dates), *map(tuple, columns)), warnings


def price_series_to_csv(series: PriceSeries) -> str:
    """Serialize a PriceSeries back to Yahoo CSV form (parse round-trips)."""
    # str() of a date is its ISO form, and of a float its round-tripping repr
    rows = zip(*(getattr(series, column) for column in series._fields[1:]))
    lines = [",".join(OHLCV_HEADER), *(",".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _returns(dates: Sequence[date], column: Sequence[float]) -> tuple[float, ...]:
    """Fractional changes between consecutive prices of a column, errors dated by
    ``dates``. A zero price is found by the division it makes fail, so the
    column is read once; a zero last price divides nothing."""
    if len(column) < 2:
        raise InsufficientDataError(
            f"need at least 2 price points to compute returns, got {len(column)}"
        )
    try:
        values = tuple((cur - prev) / prev for prev, cur in zip(column, islice(column, 1, None)))
    except ZeroDivisionError:  # at the first zero in the column, which is not the last price
        day = dates[column.index(0.0) + 1]
        raise DomainError(f"zero price on {day.isoformat()} denominator") from None
    if not all(map(math.isfinite, values)):
        day = dates[list(map(math.isfinite, values)).index(False) + 1]
        raise DataFormatError(f"non-finite return on {day.isoformat()}")
    return values


def simple_returns(prices: PriceSeries, field: str = "adj_close") -> ReturnSeries:
    """Fractional price changes between consecutive points of a series."""
    if field not in PRICE_FIELDS:
        raise DomainError(f"price field must be one of {PRICE_FIELDS}, got {field!r}")
    values = _returns(prices.dates, getattr(prices, field))
    return ReturnSeries(symbol=prices.symbol, dates=prices.dates[1:], values=values)


def parse_return_lines(text: str) -> list[float]:
    """Parse the one-return-per-line format written by the sample command,
    less one leading BOM. Lines end at LF only, as in an OHLCV file, so
    errors name physical lines: a CR, form feed or U+2028 is whitespace
    around a return or, inside one, part of an unparsable line."""
    return _return_values(text.removeprefix("\ufeff"))


def _return_values(text: str) -> list[float]:
    """The returns of a returns file's text, its BOM already dropped.

    The lines are converted a whole file at a time up to the first blank,
    unparsable or non-finite one, and the line loop, which gives every
    error, carries on from that line: no line before it is converted twice.
    """
    lines = text.removesuffix("\n").split("\n")
    values: list[float] = []
    try:
        # float() strips the same whitespace as str.strip(), so a line it takes
        # gives the loop's value; list.extend keeps the values taken before a
        # blank or unparsable line raised
        values.extend(map(float, lines))
    except ValueError:
        pass
    if not all(map(math.isfinite, values)):
        del values[list(map(math.isfinite, values)).index(False) :]
    for lineno, line in enumerate(islice(lines, len(values), None), start=len(values) + 1):
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
