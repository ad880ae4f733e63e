"""Shared helpers for building synthetic and mutated market data."""

from __future__ import annotations

import contextlib
import re
from collections.abc import Iterator
from datetime import date, timedelta
from statistics import NormalDist
from unittest import mock

from returndist import market_data
from returndist.distfit import (
    LaplaceParams,
    NormalParams,
    Xoshiro256PlusPlus,
    _laplace_cdfs,
    _laplace_quantiles,
    _normal_cdfs,
)
from returndist.market_data import OHLCV_HEADER, PriceSeries, parse_ohlcv_csv


def prices_from_returns(returns: list[float], start: float = 100.0) -> list[float]:
    prices = [start]
    for r in returns:
        prices.append(prices[-1] * (1.0 + r))
    return prices


def ohlcv_csv_from_prices(prices: list[float]) -> str:
    start_date = date(2012, 1, 3)
    lines = [",".join(OHLCV_HEADER)]
    for i, price in enumerate(prices):
        day = start_date + timedelta(days=i)
        lines.append(
            f"{day.isoformat()},{price!r},{price!r},{price!r},{price!r},{price!r},1000"
        )
    return "\n".join(lines) + "\n"


def ohlcv_csv_from_returns(returns: list[float], start: float = 100.0) -> str:
    return ohlcv_csv_from_prices(prices_from_returns(returns, start))


def parse_rows_only(text: str, symbol: str) -> tuple[PriceSeries, list[str]]:
    """The reference parse: ``parse_ohlcv_csv`` with the column pass declining
    every block, so the csv-module row parser reads the header line, then
    the rest of the text from line 2."""
    with mock.patch.object(market_data, "_parse_block", lambda *args: None):
        return parse_ohlcv_csv(text, symbol)


@contextlib.contextmanager
def row_parser_calls() -> Iterator[list[tuple[int, str]]]:
    """Each call of the row parser made within the block after the header's,
    as the line it starts at and the text of the blocks handed to it. The
    header's call is checked, not listed: it comes first, at line 1, and
    reads one line, so an empty list means the row parser read the header
    line and nothing else."""
    calls: list[tuple[int, str]] = []
    headers: list[str] = []
    parse_rows = market_data._parse_rows

    def spy(blocks, lineno, *rest):
        blocks = list(blocks)
        text = "".join(blocks)
        if lineno == 1:
            assert not headers and not calls
            assert "\n" not in text[:-1]
            headers.append(text)
        else:
            assert len(headers) == 1
            calls.append((lineno, text))
        return parse_rows(iter(blocks), lineno, *rest)

    with mock.patch.object(market_data, "_parse_rows", spy):
        yield calls


def laplace_cdf(x: float, p: LaplaceParams) -> float:
    """The Laplace CDF at one point, from the list kernel."""
    return _laplace_cdfs((x,), p)[0]


def laplace_quantile(q: float, p: LaplaceParams) -> float:
    """The Laplace quantile at one level, from the list kernel."""
    return _laplace_quantiles((q,), p)[0]


def normal_cdf(x: float, p: NormalParams) -> float:
    """The Normal CDF at one point, from the list kernel."""
    return _normal_cdfs((x,), p)[0]


# the standard-normal quantile at q in (0, 1): Wichura's AS 241, the kernel of
# the Shapiro-Wilk weights (statistics calls the same C function normality does)
normal_quantile = NormalDist().inv_cdf


def word(rng: Xoshiro256PlusPlus) -> int:
    """The generator's next 64-bit output."""
    return rng._words(1)[0]


def uniform(rng: Xoshiro256PlusPlus) -> float:
    """The generator's next uniform on (0, 1)."""
    return rng._floats(1)[0]


_FIELD_VALUES = (b"null", b"1e300", b"1e-300", b"5e-324", b"0", b"-1", b"", b"100", b"0.5",
                 b"0.000", b".", b"1.2.3")
_TOKENS = (b"-", b"e", b".", b",", b"\n", b'"', b" ", b"\x00")


def mutate(data: bytes, rng: Xoshiro256PlusPlus) -> bytes:
    """Apply 1-3 random edits: overwrite a byte with a digit, replace a
    whole field with an extreme number, ``null`` or nothing, insert a
    token, delete or duplicate a span, or (rarely) insert a raw byte."""
    buf = bytearray(data)
    for _ in range(1 + word(rng) % 3):
        at = word(rng) % (len(buf) + 1)
        op = word(rng) % 16
        fields = [m.span() for m in re.finditer(rb"[^,\n]+", buf)]
        if op < 4:
            buf[at : at + 1] = b"%d" % (word(rng) % 10)
        elif op < 10 and fields:
            lo, hi = fields[word(rng) % len(fields)]
            buf[lo:hi] = _FIELD_VALUES[word(rng) % len(_FIELD_VALUES)]
        elif op < 12:
            buf[at:at] = _TOKENS[word(rng) % len(_TOKENS)]
        elif op < 13:
            del buf[at : at + 1 + word(rng) % 40]
        elif op < 15:
            buf[at:at] = buf[at : at + 1 + word(rng) % 40]
        else:
            buf.insert(at, word(rng) % 256)
    return bytes(buf)
