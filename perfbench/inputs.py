"""Seeded benchmark inputs: Yahoo-format OHLCV CSVs of Laplace returns.

Everything is drawn from ``random.Random(seed)``, whose ``random()``
stream is fixed across Python versions and platforms, so one seed gives
byte-identical files on every machine. The program under test never
sees the seed, only the files written here (and, for the sampler chain,
the ``--seed`` argument the benchmark derives from it).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import date, timedelta

HEADER = "Date,Open,High,Low,Close,Adj Close,Volume"
NULL_ROW_FIELDS = ",null,null,null,null,null,null"

# SPX-like daily returns: Laplace scale 0.006 (sd about 0.85 %).
RETURN_SCALE = 0.006
START_PRICE = 1000.0
FIRST_DATE = date(1800, 1, 2)


@dataclass(frozen=True)
class CsvInput:
    """A generated OHLCV file and the counts its analysis must report."""

    text: str
    rows: int  # data rows, null rows included
    null_rows: int

    @property
    def price_rows(self) -> int:
        return self.rows - self.null_rows

    @property
    def returns(self) -> int:
        return self.price_rows - 1


def laplace_variate(rng: random.Random, scale: float) -> float:
    """Inverse-transform Laplace(0, scale) draw."""
    u = rng.random() - 0.5
    while u == -0.5:  # random() can return 0.0; log(0) is undefined
        u = rng.random() - 0.5
    return -scale * math.copysign(math.log1p(-2.0 * abs(u)), u)


def ohlcv_csv(seed: int, rows: int, null_rows: int) -> CsvInput:
    """``rows`` consecutive weekday rows, ``null_rows`` of them Yahoo
    ``null`` placeholders at seeded positions (never the first row)."""
    if not 0 <= null_rows < rows - 2:
        raise ValueError(f"need 0 <= null_rows < rows - 2, got {null_rows} of {rows}")
    rng = random.Random(seed)
    nulls = set(rng.sample(range(1, rows), null_rows))
    lines = [HEADER]
    day = FIRST_DATE
    close = START_PRICE
    for i in range(rows):
        stamp = day.isoformat()
        day += timedelta(days=3 if day.weekday() == 4 else 1)
        if i in nulls:
            lines.append(stamp + NULL_ROW_FIELDS)
            continue
        open_ = close
        close = open_ * (1.0 + laplace_variate(rng, RETURN_SCALE))
        high = max(open_, close) * (1.0 + 0.002 * rng.random())
        low = min(open_, close) * (1.0 - 0.002 * rng.random())
        volume = rng.randrange(1_000_000, 5_000_000_000)
        lines.append(f"{stamp},{open_!r},{high!r},{low!r},{close!r},{close!r},{volume}")
    return CsvInput(text="\n".join(lines) + "\n", rows=rows, null_rows=null_rows)
