"""Tests for OHLCV CSV parsing and return computation."""

from __future__ import annotations

import math
import re
from datetime import date, timedelta
from itertools import accumulate

import pytest

from returndist import market_data
from returndist.distfit import LaplaceParams, Xoshiro256PlusPlus, sample_laplace
from returndist.errors import (
    DataFormatError,
    DomainError,
    EmptyInputError,
    InsufficientDataError,
)
from returndist.market_data import (
    OHLCV_HEADER,
    PRICE_FIELDS,
    PriceSeries,
    parse_ohlcv_csv,
    parse_return_lines,
    price_series_to_csv,
    returns_to_lines,
    simple_returns,
)

from conftest import mutate, ohlcv_csv_from_returns, parse_rows_only, row_parser_calls, word

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

    @pytest.mark.parametrize("field, named", [('"Date\n"', "Date\n"), ('"Da\nte"', "Da\n")])
    def test_header_is_one_line(self, field, named):
        # a quoted header field does not run on past the header's newline
        text = make_csv("2012-01-03,100,101,99,100.5,100.5,1000").replace("Date", field, 1)
        with pytest.raises(DataFormatError, match=f"^unknown header {re.escape(repr(named))};"):
            parse_ohlcv_csv(text, "X")

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

    def test_line_numbers_after_multi_line_field(self):
        lines = (
            "2012-01-03,100,101,99,100.5,\"1\n\",1000",  # physical lines 2 and 3
            "2012-01-04,101,102,100,101.5,101.5,2000",
        )
        _, warnings = parse_ohlcv_csv(make_csv(*lines, "2012-01-05,null,1,1,1,1,1"), "X")
        assert warnings == ["line 5: null field, row skipped"]
        with pytest.raises(DataFormatError, match="^line 5: unparsable date 'bad'$"):
            parse_ohlcv_csv(make_csv(*lines, "bad,1,1,1,1,1,1"), "X")

    def test_blank_lines_ignored(self):
        series, warnings = parse_ohlcv_csv(
            HEADER + "\n\n2012-01-03,100,101,99,100.5,100.5,1000\n\n", "X"
        )
        assert len(series) == 1
        assert warnings == []


def _outcome(parse, text: str):
    try:
        return parse(text, "X")
    except Exception as exc:
        return type(exc), str(exc)


def _assert_kept_column_agrees(text: str, calls: list[tuple[int, str]]) -> None:
    """_parse_columns keeping one price column, as the CLI does, equals the
    row-wise reference's dates, that column and warnings (or its error), and
    hands the row parser the blocks that parse_ohlcv_csv handed it in
    ``calls``: checking a dropped column as text declines no other block."""
    reference = _outcome(parse_rows_only, text)
    chunk = market_data._CHUNK_CHARS
    for field in PRICE_FIELDS:
        pieces = (text[i : i + chunk] for i in range(0, len(text), chunk))
        with row_parser_calls() as field_calls:
            try:
                outcome = market_data._parse_columns(market_data._line_blocks(pieces), (field,))
            except Exception as exc:
                outcome = type(exc), str(exc)
        if isinstance(reference[0], PriceSeries):
            series, warnings = reference
            assert outcome == (list(series.dates), [list(getattr(series, field))], warnings)
        else:
            assert outcome == reference
        assert field_calls == calls


def _assert_paths_agree(text: str, columnar: bool) -> None:
    """parse_ohlcv_csv equals the row-wise reference, and the row parser read
    the header line and nothing else exactly when ``columnar`` (the column
    pass declines, it never raises); so does the parse that keeps one price
    column."""
    with row_parser_calls() as calls:
        outcome = _outcome(parse_ohlcv_csv, text)
    assert outcome == _outcome(parse_rows_only, text)
    assert (not calls) == columnar
    _assert_kept_column_agrees(text, calls)


# plain rows: one dot in each price, so a block of them is checked as text
ROW_1 = "2012-01-03,100.0,101.0,99.0,100.5,100.5,1000"
ROW_2 = "2012-01-04,101.0,102.0,100.0,101.5,101.5,2000"
ROW_3 = "2012-01-05,102.0,103.0,101.0,102.5,102.5,3000"


def _with(row: str, index: int, cell: str) -> str:
    cells = row.split(",")
    cells[index] = cell
    return ",".join(cells)


_NULL_ROW = "2012-01-04,null,null,null,null,null,null"
_LATE_NULL_ROW = "2012-01-06,null,null,null,null,null,null"


class TestColumnarPath:
    @pytest.mark.parametrize(
        "text",
        [
            make_csv(ROW_1, ROW_2, ROW_3),
            HEADER + "\n" + ROW_1 + "\n" + ROW_2,  # no final newline
            "\ufeff" + make_csv(ROW_1, ROW_2),
            make_csv(ROW_1, _with(ROW_2, 3, "null"), ROW_3, "2012-01-06, null ,1,1,1,1,1"),
            make_csv(_with(ROW_1, 1, " 100 "), _with(ROW_2, 6, " 2000")),
            make_csv(ROW_1, _with(ROW_2, 1, "0" * 100_000 + "101")),
            make_csv(ROW_3, _with(ROW_2, 2, "null"), ROW_1),
            make_csv(ROW_1, ROW_3, ROW_2),
            make_csv(_with(ROW_1, 1, "null"), ROW_2, ROW_3),
            HEADER + "\n" + ROW_1 + "\n" + _with(ROW_2, 6, "null"),
            make_csv(_with(ROW_1, 2, "null"), _with(_with(ROW_2, 1, "null"), 5, "null"), ROW_3),
        ],
        ids=[
            "plain", "no-final-newline", "bom", "null-rows", "spaced-numbers", "long-field",
            "descending-dates", "unsorted-dates", "null-first-row", "null-last-row-no-newline",
            "null-adjacent-rows",
        ],
    )
    def test_columnar_inputs(self, text):
        _assert_paths_agree(text, columnar=True)

    @pytest.mark.parametrize(
        "text, columnar",
        [
            (make_csv(ROW_1, ROW_2).replace("\n", "\r\n"), False),
            (make_csv(ROW_1, _with(ROW_2, 1, '"101"')), False),
            (HEADER + "\n\n" + ROW_1 + "\n\n" + ROW_2 + "\n", False),
            (make_csv(ROW_1, " , , , , , , ", ROW_2), False),
            (make_csv(ROW_1, _with(ROW_2, 0, " 2012-01-04")), False),
            (make_csv(ROW_1, ROW_2 + "\0"), False),
            (make_csv(ROW_1, ROW_2, ""), False),
            (make_csv(ROW_1, _with(_with(ROW_2, 1, "0" * 70_000 + "101"), 2, "0" * 70_000 + "102")),
             False),
            (make_csv("2012-01-03,null,null,null,null,null,null"), True),
            (make_csv(ROW_1, _with(ROW_2, 1, "nullx"), ROW_3), False),
            (make_csv(ROW_1, _with(ROW_2, 0, "null"), ROW_3), False),
            (make_csv(ROW_1, _with(ROW_2, 0, "2012-01-04null"), _with(ROW_3, 3, "null")), False),
            ("\ufeff" + make_csv(ROW_1, ROW_2).replace("Date", '"Date"', 1), True),
        ],
        ids=[
            "crlf", "quoted-field", "blank-lines", "whitespace-row", "spaced-date", "nul",
            "trailing-blank-line", "line-over-csv-limit", "all-null", "null-prefixed-price",
            "null-date", "null-in-date-then-null-row", "bom-quoted-header",
        ],
    )
    def test_fallback_inputs(self, text, columnar):
        _assert_paths_agree(text, columnar)

    # each "null" found is matched to its line by text, and repeated or
    # unusual null lines must still land on the right line numbers
    @pytest.mark.parametrize("chunk_chars", [1 << 20, 40])
    @pytest.mark.parametrize(
        "text, columnar",
        [
            (make_csv(ROW_1, _NULL_ROW, _NULL_ROW, ROW_3), True),
            (make_csv(_with(ROW_1, 1, "nullx"), _NULL_ROW, ROW_3), False),
            (HEADER + "\n" + ROW_1 + "\n" + ROW_2 + "\n" + _with(ROW_3, 3, "null"), True),
            (make_csv(ROW_1, _with(_with(ROW_2, 2, " null "), 4, "null"), ROW_3), True),
            (make_csv(ROW_1, _with(ROW_2, 6, "null"), _with(ROW_2, 6, "null"), ROW_3), True),
            # a null row after a repeated date leaves the repeat's line where it is
            (make_csv(ROW_1, ROW_2, ROW_1, _LATE_NULL_ROW), True),
            (make_csv(ROW_1, _NULL_ROW, ROW_2, ROW_1, _LATE_NULL_ROW), True),
            (make_csv(ROW_1, ROW_2, ROW_1, _LATE_NULL_ROW, _with(ROW_3, 1, '"102"')), False),
        ],
        ids=[
            "identical-null-rows", "nullx-before-null-row", "null-last-line-no-newline",
            "spaced-and-bare-null-cells", "identical-null-volume-rows",
            "null-row-after-repeat", "null-rows-around-repeat", "null-row-after-repeat-then-quote",
        ],
    )
    def test_null_scan(self, monkeypatch, chunk_chars, text, columnar):
        monkeypatch.setattr(market_data, "_CHUNK_CHARS", chunk_chars)
        _assert_paths_agree(text, columnar)

    # an empty or header-only text and a duplicate date are errors the
    # column pass raises itself, having read every block
    @pytest.mark.parametrize(
        "text, columnar",
        [
            ("", True),
            ("\ufeff", True),
            ("\ufeff\ufeff" + make_csv(ROW_1, ROW_2), True),
            (HEADER + "\n", True),
            (HEADER, True),
            ("Date,Open,Close\n2012-01-03,1,2\n", True),
            (make_csv(ROW_1, ROW_1), True),
            (make_csv(ROW_2, ROW_1, ROW_3, ROW_1), True),
            (make_csv(ROW_1, ROW_2 + ",5"), False),
            (make_csv(ROW_1, ROW_2.rpartition(",")[0]), False),
            (make_csv(ROW_1, ROW_2 + "," + ROW_3[:10], ROW_3[11:]), False),
            (make_csv(ROW_1, "2012-01-04,null,null,null,null,null", ROW_3), False),
            (make_csv(ROW_1, _with(ROW_2, 0, "03/01/2012")), False),
            (make_csv(ROW_1, _with(ROW_2, 2, "abc")), False),
            (make_csv(ROW_1, _with(ROW_2, 6, "1.5")), False),
            (make_csv(ROW_1, _with(ROW_2, 6, "-1")), False),
            (make_csv(ROW_1, _with(ROW_2, 4, "nan")), False),
            (make_csv(ROW_1, _with(ROW_2, 5, "inf")), False),
            (make_csv(ROW_1, _with(ROW_2, 3, "-0.0")), False),
            (make_csv(ROW_1, _with(ROW_2, 1, "0")), False),
            (make_csv(ROW_1, _with(ROW_2, 6, "9" * 140_000)), False),
            (make_csv(ROW_1, _with(ROW_2, 0, "2012-01-0\udcff")), False),
            (HEADER.replace(",", "," + " " * 140_000, 1) + "\n" + ROW_1 + "\n" + ROW_2 + "\n",
             True),
            (make_csv(ROW_1, ROW_2).replace("Date", '"Date\n"', 1), True),
            (make_csv(ROW_1, ROW_2).replace("Date", '"Da\nte"', 1), True),
        ],
        ids=[
            "empty", "bom-only", "two-boms", "header-only", "header-no-newline", "bad-header", "duplicate-date",
            "unsorted-duplicate-date", "extra-field", "missing-field", "realigning-lines",
            "null-row-five-commas", "bad-date", "bad-price",
            "float-volume", "negative-volume", "nan-price", "inf-price", "negative-zero-price",
            "zero-price", "field-over-csv-limit", "surrogate", "header-field-over-csv-limit",
            "newline-ending-quoted-header-field", "newline-inside-quoted-header-field",
        ],
    )
    def test_errors_come_from_row_parser(self, text, columnar):
        with pytest.raises((DataFormatError, EmptyInputError)):
            parse_ohlcv_csv(text, "X")
        _assert_paths_agree(text, columnar)

    # cells in a column the parse drops: the first ten are finite and > 0 to
    # float, though only the first four pass the text check; a block holding
    # any other converts every column
    @pytest.mark.parametrize("row", [0, 1, 2])
    @pytest.mark.parametrize("index", [1, 4])
    @pytest.mark.parametrize(
        "cell, columnar",
        [
            (".5", True), ("1.", True), ("00.50", True), ("0.5", True),
            ("1e3", True), ("+1", True), (" 1", True), ("1_0", True), ("\u0661\u0662", True),
            ("100", True),
            ("0", False), ("0.0", False), ("0.000", False), (".", False), ("", False),
            ("1.2.3", False), ("nan", False), ("-1", False),
            ("9" * 309, False), ("0." + "0" * 400 + "1", False),
        ],
        ids=[
            "lead-dot", "trail-dot", "zero-padded", "sub-one", "exponent", "plus", "spaced",
            "underscore", "arabic-digits", "no-dot", "zero", "zero-point-zero",
            "zero-point-zeros", "dot", "empty", "two-dots", "nan", "negative",
            "overflow-309-digits", "underflow-403-chars",
        ],
    )
    def test_dropped_price_cells(self, cell, columnar, index, row):
        rows = [ROW_1, ROW_2, ROW_3]
        rows[row] = _with(rows[row], index, cell)
        _assert_paths_agree(make_csv(*rows), columnar)

    @pytest.mark.parametrize("row", [0, 1, 2])
    @pytest.mark.parametrize(
        "cell, columnar",
        [("0", True), ("007", True), ("+5", True), ("1_000", True), ("1.0", False),
         ("5.", False), ("", False), ("\u00b2", False)],
        ids=["zero", "zero-padded", "plus", "underscore", "decimal", "trailing-dot", "empty",
             "superscript-two"],
    )
    def test_dropped_volume_cells(self, cell, columnar, row):
        rows = [ROW_1, ROW_2, ROW_3]
        rows[row] = _with(rows[row], 6, cell)
        _assert_paths_agree(make_csv(*rows), columnar)

    @pytest.mark.parametrize("open_cell", [None, "1e3"])
    def test_dropped_columns_not_converted(self, monkeypatch, open_cell):
        # only the kept column is converted, but in the block where a cell
        # is not plain every column is
        monkeypatch.setattr(market_data, "_CHUNK_CHARS", 300)
        text = ohlcv_csv_from_returns([0.001 * (i % 7 - 3) for i in range(60)])
        expected = market_data._parse_columns(market_data._line_blocks([text]), ("adj_close",))
        if open_cell:
            lines = text.splitlines()
            lines[40] = _with(lines[40], 1, open_cell)
            text = "\n".join(lines) + "\n"
        converted: dict[str, list[str]] = {"float": [], "int": []}
        monkeypatch.setattr(
            market_data, "float", lambda cell: converted["float"].append(cell) or float(cell),
            raising=False,
        )
        monkeypatch.setattr(
            market_data, "int", lambda cell: converted["int"].append(cell) or int(cell),
            raising=False,
        )
        blocks = list(market_data._line_blocks(text[i : i + 300] for i in range(0, len(text), 300)))
        assert len(blocks) > 10
        with row_parser_calls() as calls:
            outcome = market_data._parse_columns(iter(blocks), ("adj_close",))
        assert outcome == expected and calls == []
        cells_seen: dict[str, list[str]] = {"float": [], "int": []}
        for block in blocks:
            rows = [line.split(",") for line in block.splitlines() if line[0].isdigit()]
            if any(row[1] == open_cell for row in rows):
                cells_seen["float"] += [row[k] for k in range(1, 6) for row in rows]
                cells_seen["int"] += [row[6] for row in rows]
            else:
                cells_seen["float"] += [row[5] for row in rows]
        assert converted == cells_seen

    @pytest.mark.parametrize("chunk_chars", [1 << 20, 300])
    def test_realigning_lines_declined(self, monkeypatch, chunk_chars):
        # a 7-comma line ending in the next row's date, then that row's other
        # six cells: with a comma for the newline between them they are two
        # plain rows, so only a plainness check that keeps the newlines declines
        monkeypatch.setattr(market_data, "_CHUNK_CHARS", chunk_chars)
        lines = ohlcv_csv_from_returns([0.001] * 20).splitlines()
        k = 2
        day, _, rest = lines[k + 1].partition(",")
        lines[k : k + 2] = [lines[k] + "," + day, rest]
        text = "\n".join(lines) + "\n"
        pieces = (text[i : i + chunk_chars] for i in range(0, len(text), chunk_chars))
        blocks = list(market_data._line_blocks(pieces))
        assert lines[k + 1] + "\n" in blocks[0]  # the pair lies in the first block
        message = f"^line {k + 1}: expected 7 fields, got 8$"
        for keep in (("adj_close",), market_data._COLUMNS):
            with row_parser_calls() as calls, pytest.raises(DataFormatError, match=message):
                market_data._parse_columns(iter(blocks), keep)
            assert calls == [(2, text.partition("\n")[2])]
        with row_parser_calls() as calls, pytest.raises(DataFormatError, match=message):
            parse_ohlcv_csv(text, "X")
        assert calls == [(2, text.partition("\n")[2])]

    @pytest.mark.parametrize("chunk_chars", [1 << 20, 40])
    def test_mutations_match_row_parser(self, monkeypatch, chunk_chars):
        monkeypatch.setattr(market_data, "_CHUNK_CHARS", chunk_chars)
        valid = ohlcv_csv_from_returns([0.01 * ((i * 7) % 5 - 2) for i in range(29)]).encode()
        rng = Xoshiro256PlusPlus(1879)
        columnar = 0
        for case in range(300):
            text = mutate(valid, rng).decode("utf-8", "surrogateescape")
            with row_parser_calls() as calls:
                outcome = _outcome(parse_ohlcv_csv, text)
            assert outcome == _outcome(parse_rows_only, text), (case, text)
            _assert_kept_column_agrees(text, calls)
            columnar += not calls
        assert 0 < columnar < 300

    @pytest.mark.parametrize("order", ["oldest-first", "newest-first", "shuffled"])
    def test_chunk_boundaries(self, monkeypatch, order):
        monkeypatch.setattr(market_data, "_CHUNK_CHARS", 300)
        returns = sample_laplace(1878, LaplaceParams(mu=0.0, scale=0.006), 1879)
        lines = ohlcv_csv_from_returns(returns).splitlines()
        if order == "newest-first":
            lines[1:] = lines[:0:-1]
        elif order == "shuffled":
            rng = Xoshiro256PlusPlus(3)
            lines[1:] = sorted(lines[1:], key=lambda _: word(rng))
        for k in (100, 900, 1500):
            lines[k] = lines[k].partition(",")[0] + ",null,null,null,null,null,null"
        text = "\n".join(lines) + "\n"
        with row_parser_calls() as calls:
            series, warnings = parse_ohlcv_csv(text, "X")
        assert (series, warnings) == parse_rows_only(text, "X")
        assert warnings == [f"line {k + 1}: null field, row skipped" for k in (100, 900, 1500)]
        assert len(series) == 1876
        assert calls == []

    def test_shipped_block_size_boundaries(self):
        # about 330 KB at the shipped block size: null rows end the first block
        # and start the second, and a priced line straddles the second piece's end
        chunk = market_data._CHUNK_CHARS
        text = ohlcv_csv_from_returns(sample_laplace(3000, LaplaceParams(0.0, 0.006), 33))
        pieces = (text[i : i + chunk] for i in range(0, len(text), chunk))
        blocks = list(market_data._line_blocks(pieces))
        assert len(blocks) >= 4
        # lines[first] starts the second block and lines[second] the third
        first, second = accumulate(block.count("\n") for block in blocks[:2])
        lines = text.split("\n")
        # lines[k] spans text[starts[k] : starts[k + 1]], its newline included
        starts = list(accumulate((len(line) + 1 for line in lines), initial=0))
        assert starts[first] < chunk < starts[first + 1]
        assert starts[second] < 2 * chunk < starts[second + 1]
        for k in (first - 1, first):  # padded to the cell's width, so no line moves
            lines[k] = _with(lines[k], 5, "null".rjust(len(lines[k].split(",")[5])))
        text = "\n".join(lines)
        _assert_paths_agree(text, columnar=True)
        assert parse_ohlcv_csv(text, "X")[1] == [
            f"line {k + 1}: null field, row skipped" for k in (first - 1, first)
        ]

    @pytest.mark.parametrize("bad_cells", [",null,1,1,1,1,1", ",1,1,1,1,1,-1"])
    def test_row_first_in_later_chunk(self, monkeypatch, bad_cells):
        chunk_chars = 300
        monkeypatch.setattr(market_data, "_CHUNK_CHARS", chunk_chars)
        lines = ohlcv_csv_from_returns([0.001] * 30).splitlines()
        text = "\n".join(lines) + "\n"
        # the first block ends at the last newline in the first chunk_chars characters
        first_end = text.rfind("\n", 0, chunk_chars)
        k = text.count("\n", 0, first_end + 1)
        assert 1 < k and text.find("\n", first_end + 1) >= chunk_chars  # line k straddles
        lines[k] = lines[k].partition(",")[0] + bad_cells
        text = "\n".join(lines) + "\n"
        _assert_paths_agree(text, columnar="null" in bad_cells)
        if "null" in bad_cells:
            assert parse_ohlcv_csv(text, "X")[1] == [f"line {k + 1}: null field, row skipped"]
        else:
            with pytest.raises(DataFormatError, match=f"^line {k + 1}: negative volume -1$"):
                parse_ohlcv_csv(text, "X")

    @pytest.mark.parametrize("chunk_chars", [1 << 20, 300])
    def test_bom_dropped_at_text_start_only(self, monkeypatch, chunk_chars):
        # a BOM that starts a later block is data: its line's date does not parse
        monkeypatch.setattr(market_data, "_CHUNK_CHARS", chunk_chars)
        lines = ohlcv_csv_from_returns([0.001] * 30).splitlines()
        text = "\ufeff" + "\n".join(lines) + "\n"
        k = text.count("\n", 0, text.rfind("\n", 0, 300) + 1)  # line k + 1 starts block 2
        lines[k] = "\ufeff" + lines[k]
        text = "\ufeff" + "\n".join(lines) + "\n"
        message = f"line {k + 1}: unparsable date {lines[k].partition(',')[0]!r}"
        _assert_paths_agree(text, columnar=False)
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            parse_ohlcv_csv(text, "X")

    @pytest.mark.parametrize(
        "edit",
        ["bad-last-volume", "late-quoted-cell", "quoted-header-late-quoted-cell",
         "late-date-leading-space"],
    )
    def test_row_parser_starts_at_declined_block(self, monkeypatch, edit):
        # the blocks before it are parsed once, by the column pass only; a
        # quoted header is read with the header line and declines no block.
        # A leading space in a date is declined at the dates' conversion and
        # stripped by the row parser, so the declined block appended nothing
        monkeypatch.setattr(market_data, "_CHUNK_CHARS", 300)
        original = ohlcv_csv_from_returns([0.001] * 60)
        lines = original.splitlines()
        k = len(lines) - 1 if edit == "bad-last-volume" else len(lines) - 5
        if edit == "bad-last-volume":
            lines[k] = _with(lines[k], 6, "-1")
        elif edit == "late-date-leading-space":
            lines[k] = " " + lines[k]
        else:
            lines[k] = _with(lines[k], 5, '"' + lines[k].split(",")[5] + '"')
        if edit == "quoted-header-late-quoted-cell":
            lines[0] = lines[0].replace("Date", '"Date"')
        text = "\n".join(lines) + "\n"
        blocks = list(market_data._line_blocks(text[i : i + 300] for i in range(0, len(text), 300)))
        starts = list(accumulate((block.count("\n") for block in blocks), initial=1))
        first = max(start for start in starts if start <= k + 1)  # the declined block's line
        assert len(blocks) > 10 and first > 50
        with row_parser_calls() as calls:
            outcome = _outcome(parse_ohlcv_csv, text)
        assert outcome == _outcome(parse_rows_only, text)
        assert calls == [(first, "".join(text.splitlines(keepends=True)[first - 1 :]))]
        if edit == "bad-last-volume":
            assert outcome == (DataFormatError, f"line {k + 1}: negative volume -1")
        else:
            assert outcome == parse_ohlcv_csv(original, "X")


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

    def test_zero_last_price(self):
        # the last price is no denominator
        assert simple_returns(make_series([1.0, 2.0, 0.0])).values == (1.0, -1.0)

    def test_zero_price_after_non_finite_return(self):
        assert (1e300 - 1e-300) / 1e-300 == math.inf  # the return before the zero
        with pytest.raises(DomainError, match="^zero price on 2012-01-04 denominator$"):
            simple_returns(make_series([1e-300, 1e300, 0.0, 1.0]))

    def test_first_of_two_zero_prices_named(self):
        with pytest.raises(DomainError, match="^zero price on 2012-01-03 denominator$"):
            simple_returns(make_series([1.0, 0.0, 2.0, 0.0, 1.0]))

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
        for u in rng._floats(300):
            prices.append(prices[-1] * (1.0 + 0.02 * (u - 0.5)))
        base = simple_returns(make_series(prices)).values
        for c in (3.0, 1e-4, 7.5e6):
            scaled = simple_returns(make_series([c * p for p in prices])).values
            for a, b in zip(base, scaled):
                assert abs(a - b) < 1e-12

    def test_reconstruction(self):
        rng = Xoshiro256PlusPlus(16)
        prices = [250.0]
        for u in rng._floats(500):
            prices.append(prices[-1] * (1.0 + 0.03 * (u - 0.5)))
        returns = simple_returns(make_series(prices)).values
        level = prices[0]
        for r, expected in zip(returns, prices[1:]):
            level *= 1.0 + r
            assert abs(level - expected) / expected < 1e-9

    def test_returns_above_minus_one(self):
        rng = Xoshiro256PlusPlus(17)
        prices = [1.0]
        for u in rng._floats(200):
            prices.append(max(prices[-1] * 2.0 * u, 1e-9))
        assert all(r > -1.0 for r in simple_returns(make_series(prices)).values)


def _return_lines_per_line(text: str):
    """The return-file parser one line at a time, lines ending at LF only,
    less one leading BOM, as a value list or the (type, message) it raises:
    the reference for parse_return_lines."""
    values = []
    for lineno, line in enumerate(text.removeprefix("\ufeff").split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            value = float(stripped)
        except ValueError:
            return DataFormatError, f"line {lineno}: unparsable return {stripped!r}"
        if not math.isfinite(value):
            return DataFormatError, f"line {lineno}: non-finite return {stripped!r}"
        values.append(value)
    return values or (EmptyInputError, "input contains no return values")


class TestReturnLines:
    def test_round_trip(self):
        values = [0.01, -0.025, 3.5e-05, 0.0]
        assert parse_return_lines(returns_to_lines(values)) == values

    @pytest.mark.parametrize(
        "text",
        [
            "0.01\n-0.02\n",
            "0.01\n-0.02",
            "0.01\n\n-0.02\n",
            "0.01\n \t\n-0.02\n",
            "\n0.01\n",
            "0.01\r\n-0.02\r\n",
            "0.01\r-0.02\r\n\r\n",
            "0.01\x0b\n-0.02\x0c\n0.03\u2028\n-0.04\x85\n",
            "0.01\x0b-0.02\x0c0.03\u2028-0.04\n",
            "0.01\n0.02\x0c\n-0.01\u2029\x1c\nbad\n",
            "0.01\x0b\x0c\n",
            "  0.01\t\n\t-0.02  \n",
            "\xa00.01\u3000\n",
            "1_0\n2_5e-3\n",
            "_1\n",
            "1__0\n",
            "\u0661\u0662\n\uff10.\uff15\n",
            "0.01\nnan\n",
            "-inf\n0.01\n",
            "0.01\n1e400\n",
            "0.01\nInfinity\n",
            "0.01 0.02\n",
            "0.01\t0.02\n",
            "0.01,0.02\n",
            "0.01\nbogus\n",
            "",
            "\n\n",
            " \t\r\n",
            "\ufeff0.01\n-0.02\n",
            "\ufeff",
            "\ufeff\ufeff0.01\n",
            "0.01\n\ufeff-0.02\n",
        ],
    )
    def test_equals_per_line_reference(self, text):
        try:
            outcome = parse_return_lines(text)
        except (DataFormatError, EmptyInputError) as exc:
            outcome = type(exc), str(exc)
        assert outcome == _return_lines_per_line(text)

    def test_writer_equals_per_value_reference(self):
        values = [*sample_laplace(500, LaplaceParams(mu=0.0, scale=0.006), 4), 0, -3, 0.1, -0.0]
        text = returns_to_lines(values)
        assert text == "\n".join(repr(float(v)) for v in values) + "\n"
        assert parse_return_lines(text) == [float(v) for v in values]

    @pytest.mark.parametrize("where", ["start", "middle", "end"])
    @pytest.mark.parametrize(
        "rejected",
        [("",), (" \t",), ("bogus",), ("nan",), ("-1e400",), ("", "bogus"), ("0.5", "", "inf")],
        ids=["blank", "whitespace", "bogus", "nan", "overflow", "blank-then-bogus",
             "blank-then-inf"],
    )
    def test_rejected_lines_anywhere(self, where, rejected):
        values = sample_laplace(400, LaplaceParams(mu=0.0, scale=0.006), 8)
        lines = returns_to_lines(values).splitlines()
        k = {"start": 0, "middle": 200, "end": len(lines)}[where]
        lines[k:k] = rejected
        text = "\n".join(lines) + "\n"
        try:
            outcome = parse_return_lines(text)
        except (DataFormatError, EmptyInputError) as exc:
            outcome = type(exc), str(exc)
        assert outcome == _return_lines_per_line(text)

    @pytest.mark.parametrize("tail", ["\n", "\n\n", "\n \n0.25\n"])
    def test_no_line_converted_twice(self, monkeypatch, tail):
        # a blank line stops the whole-file conversion; the loop carries on from it
        values = sample_laplace(1000, LaplaceParams(mu=0.0, scale=0.006), 9)
        text = returns_to_lines(values).removesuffix("\n") + tail
        converted = []

        def counting_float(line):
            converted.append(line)
            return float(line)

        monkeypatch.setattr(market_data, "float", counting_float, raising=False)
        parsed = parse_return_lines(text)
        assert parsed == values + [float(v) for v in tail.split()]
        assert len(converted) == len(text.splitlines())

    def test_writer_of_no_values_is_empty(self):
        # no values, no lines
        assert returns_to_lines([]) == ""

    def test_blank_lines_skipped(self):
        assert parse_return_lines("0.01\n\n-0.02\n") == [0.01, -0.02]

    def test_unparsable_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_return_lines("0.01\nbogus\n")

    @pytest.mark.parametrize("brk", ["\x0c", "\x85", "\u2028", "\r"])
    def test_errors_name_physical_lines(self, brk):
        # only LF ends a line: a break that str.splitlines also takes is whitespace
        with pytest.raises(DataFormatError, match="^line 4: unparsable return 'bad'$"):
            parse_return_lines(f"0.01\n0.02{brk}\n-0.01\nbad\n")
        message = f"line 2: unparsable return {f'0.02{brk}0.03'!r}"
        with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
            parse_return_lines(f"0.01\n0.02{brk}0.03\n")

    def test_non_finite_rejected(self):
        with pytest.raises(DataFormatError):
            parse_return_lines("0.01\nnan\n")

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_return_lines("\n\n")
