"""Analysis report assembly and rendering: JSON, Markdown, CSV, SVG."""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, compress, islice, repeat
from operator import eq, sub, truediv

from ._record import Record
from .distfit import LaplaceParams, NormalParams
from .errors import DomainError, InsufficientDataError
from .gof import _compare_fits, _ecdf_steps, _fits
from .moments import _centred, _ldexp, _moments
from .normality import ROYSTON_MAX_VALIDATED_N, _shapiro_wilk


class AnalysisReport(Record):
    symbol: str
    n: int
    skew: float
    excess_kurtosis: float
    shapiro_w: float
    shapiro_p: float
    normal_fit: NormalParams
    laplace_fit: LaplaceParams
    ks_normal: float
    ks_laplace: float
    log_lik_normal: float
    log_lik_laplace: float
    aic_normal: float
    aic_laplace: float
    better_fit: str
    warnings: tuple[str, ...]


class HistogramData(Record):
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    densities: tuple[float, ...]


def analyze_returns(
    values: Sequence[float], symbol: str, warnings: Sequence[str] = ()
) -> AnalysisReport:
    """Moments, Shapiro-Wilk, and the Normal-vs-Laplace fit comparison, all
    order-invariant, from one sorted and centred copy of the values."""
    # x * 1.0 is x (a -0.0 too) as a new float: the copies lie in memory in sorted
    # order, so each later pass over them reads memory in order
    centred = _centred([x * 1.0 for x in sorted(values)], 4, "moment report")
    moments = _moments(centred)
    sw = _shapiro_wilk(centred)
    gof = _compare_fits(centred)
    all_warnings = list(warnings)
    if sw.large_n_warning:
        all_warnings.append(
            f"shapiro-wilk: n={sw.n} exceeds the validated range "
            f"(n <= {ROYSTON_MAX_VALIDATED_N}); p-value approximation untested"
        )
    fields = {
        "symbol": symbol,
        "n": moments.n,
        "skew": moments.skew,
        "excess_kurtosis": moments.excess_kurtosis,
        "shapiro_w": sw.w,
        "shapiro_p": sw.p_value,
    }
    for score in (gof.normal, gof.laplace):
        family = score.family
        fields[f"{family}_fit"] = score.params
        fields[f"ks_{family}"] = score.ks_distance
        fields[f"log_lik_{family}"] = score.log_likelihood
        fields[f"aic_{family}"] = score.aic
    return AnalysisReport(**fields, better_fit=gof.better_fit, warnings=tuple(all_warnings))


_NESTED = {"normal_fit": NormalParams, "laplace_fit": LaplaceParams}


def report_to_dict(report: AnalysisReport) -> dict:
    payload = report._asdict()
    for name in _NESTED:
        payload[name] = payload[name]._asdict()
    return {**payload, "warnings": list(report.warnings)}


def report_from_dict(payload: dict) -> AnalysisReport:
    values = {name: payload[name] for name in AnalysisReport._fields}
    for name, params in _NESTED.items():
        values[name] = params(**values[name])
    values["warnings"] = tuple(values["warnings"])
    return AnalysisReport(**values)


def _render_json(payload: dict) -> str:
    """The text of json.dumps(payload, indent=2, allow_nan=False) for the
    forms a report or histogram payload holds: str, int, float, and dicts,
    lists and tuples of them, no dict empty; a NaN or an infinity anywhere in
    a field raises naming that field."""
    # only json's C string encoder: json.py would load json.decoder, json.scanner and re
    from _json import encode_basestring_ascii as quote

    def write(value: object, indent: str, field: str) -> str:
        if isinstance(value, str):
            return quote(value)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise ValueError(f"{field} is not finite; rescale the sample")
            return float.__repr__(value)
        if isinstance(value, int):
            return int.__repr__(value)
        if not value:  # an empty list: a report without warnings
            return "[]"
        inner = indent + "  "
        if isinstance(value, dict):
            items = [f"{quote(k)}: {write(v, inner, field or k)}" for k, v in value.items()]
            return "{\n" + inner + f",\n{inner}".join(items) + f"\n{indent}}}"
        items = [write(v, inner, field) for v in value]
        return "[\n" + inner + f",\n{inner}".join(items) + f"\n{indent}]"

    return write(payload, "", "")


def render_report_json(report: AnalysisReport) -> str:
    return _render_json(report_to_dict(report))


def _text(value: str, escapes: dict[str, str]) -> str:
    """value with each character mapped by escapes, and U+FFFD for each lone
    surrogate (an undecodable byte of a file name), which UTF-8 cannot encode."""
    return "".join("\ufffd" if "\ud800" <= c <= "\udfff" else escapes.get(c, c) for c in value)


def render_report_markdown(report: AnalysisReport) -> str:
    payload = report_to_dict(report)
    warnings = payload.pop("warnings")
    rows = [("metric", "value")]
    for name, value in payload.items():
        if isinstance(value, dict):  # a family's params, a row each
            family = name.removesuffix("_fit")
            rows.extend((f"{family}_{param}", f"{v:.6g}") for param, v in value.items())
        elif isinstance(value, float):
            rows.append((name, f"{value:.6g}"))
        else:  # a bare | in a cell would start a new column, and CR or LF a new line
            rows.append((name, _text(str(value), {"|": r"\|", "\n": "\ufffd", "\r": "\ufffd"})))
    key_width, value_width = (max(map(len, column)) for column in zip(*rows))
    lines = [f"| {k.ljust(key_width)} | {v.rjust(value_width)} |" for k, v in rows]
    lines.insert(1, f"|:{'-' * key_width}-|-{'-' * value_width}:|")
    return "\n".join(lines + [f"- warning: {w}" for w in warnings])


def histogram(values: Sequence[float], bins: int) -> HistogramData:
    """Equal-width histogram over [min, max], densities integrating to 1.

    A degenerate range (all values equal) becomes a single bin centred on the
    value, of half-width max(0.5, ulp(value)): 0.5 unless |value| >= 2^52, where
    value ± 0.5 would round onto it. A finite range whose width overflows is
    cut at half scale and scaled back. A bin width of 0, or of inf (an
    infinite value), raises DomainError.
    """
    if bins < 1:
        raise DomainError(f"bin count must be >= 1, got {bins}")
    n = len(values)
    if n == 0:
        raise InsufficientDataError("histogram needs a non-empty sample")
    lo, hi = min(values), max(values)
    if lo == hi:
        half = max(0.5, math.ulp(lo))
        edges = (lo - half, lo + half)
        counts = [n]
    elif hi - lo == math.inf and -math.inf < lo and hi < math.inf:
        # a finite range too wide for float64: half of it fits
        halved = histogram([x * 0.5 for x in values], bins)
        return HistogramData(
            bin_edges=tuple(edge * 2.0 for edge in halved.bin_edges),
            counts=halved.counts,
            densities=tuple(density * 0.5 for density in halved.densities),
        )
    else:
        width = (hi - lo) / bins
        if not 0.0 < width < math.inf:
            raise DomainError(f"cannot cut [{lo!r}, {hi!r}] into {bins} bins in float64")
        edges = tuple(lo + i * width for i in range(bins)) + (hi,)
        # bin index of each value; an index past the last bin (x == hi, or values
        # near hi when a subnormal width rounds down) folds into the last bin
        tally = Counter(map(int, map(truediv, map(sub, values, repeat(lo)), repeat(width))))
        counts = list(map(tally.__getitem__, range(bins)))
        counts[-1] += n - sum(counts)
    # where n times a bin's width overflows, the density is divided by each in turn
    densities = tuple(
        count / n_width if (n_width := n * (b - a)) < math.inf else count / n / (b - a)
        for count, a, b in zip(counts, edges, edges[1:])
    )
    return HistogramData(bin_edges=edges, counts=tuple(counts), densities=densities)


def render_histogram_json(symbol: str, hist: HistogramData) -> str:
    return _render_json({"symbol": symbol, "n": sum(hist.counts), **hist._asdict()})


def ecdf_overlay(values: Sequence[float]) -> tuple[list[float], ...]:
    """The columns (x, ecdf, normal_cdf, laplace_cdf) at each sorted value,
    with both families fitted to the sample."""
    sorted_x = sorted(values)
    n = len(sorted_x)
    centred = _centred(sorted_x, 4, "fit comparison")
    # (#points <= x) / n: the rank of the last member of x's run of ties,
    # carried down each run from its end
    ecdf_values = _ecdf_steps(n)[1:]
    for i in reversed(list(compress(range(n - 1), map(eq, sorted_x, islice(sorted_x, 1, None))))):
        ecdf_values[i] = ecdf_values[i + 1]
    # each CDF on the centred values' scale: the caller's, bit for bit
    return (sorted_x, ecdf_values, *(cdfs(centred.values, p) for _, p, cdfs, _ in _fits(centred)))


def render_ecdf_csv(columns: Sequence[Sequence[float]]) -> str:
    # %r is repr, as f"{x!r}" is: one format call for the whole table
    return "x,ecdf,normal_cdf,laplace_cdf\n" + "%r,%r,%r,%r\n" * len(columns[0]) % tuple(
        chain.from_iterable(zip(*columns))
    )


_SVG_WIDTH = 720
_SVG_HEIGHT = 480
_MARGIN_LEFT = 72
_MARGIN_TOP = 42
_PLOT_W = _SVG_WIDTH - _MARGIN_LEFT - 24  # less the right margin
_PLOT_H = _SVG_HEIGHT - _MARGIN_TOP - 54  # less the bottom margin
_X0, _Y0 = _MARGIN_LEFT, _MARGIN_TOP + _PLOT_H  # where the axes meet
_AXIS = 'stroke="#444444"'
_LARGEST = math.nextafter(math.inf, 0.0)  # the largest finite float
_FONT = 'font-family="sans-serif"'

_SERIES_STYLE = (
    ("empirical", "#222222"),
    ("normal fit", "#1f77b4"),
    ("laplace fit", "#d62728"),
)

# the title as XML text: &, < and > escaped, and U+FFFD for each character XML 1.0
# forbids: C0 controls other than tab, LF and CR, U+FFFE, U+FFFF and the surrogates
_XML_TEXT = {"&": "&amp;", "<": "&lt;", ">": "&gt;"} | dict.fromkeys(
    map(chr, (*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF)), "\ufffd"
)


def _py(values: Sequence[float]) -> list[float]:
    # the pixel y of each level q, as floats printed .2f
    return [_MARGIN_TOP + _PLOT_H * (1.0 - q) for q in values]


# the figure less its data, which fills the % slots: title, x ticks and the curves' points
_SVG_TEMPLATE = "\n".join((
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
    f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
    f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
    f'<text x="{_SVG_WIDTH / 2:.0f}" y="24" text-anchor="middle" {_FONT} '
    'font-size="15">%s: empirical CDF vs fitted models</text>',
    f'<line x1="{_X0}" y1="{_Y0}" x2="{_X0 + _PLOT_W}" y2="{_Y0}" {_AXIS}/>',
    f'<line x1="{_X0}" y1="{_MARGIN_TOP}" x2="{_X0}" y2="{_Y0}" {_AXIS}/>',
    *(  # each x tick: its pixel x three times, then its label
        f'<line x1="%.2f" y1="{_Y0}" x2="%.2f" y2="{_Y0 + 5}" {_AXIS}/>\n'
        f'<text x="%.2f" y="{_Y0 + 20}" text-anchor="middle" {_FONT} font-size="11">%.4g</text>',
    ) * 5,
    *(
        f'<line x1="{_X0 - 5}" y1="{sy:.2f}" x2="{_X0}" y2="{sy:.2f}" {_AXIS}/>\n'
        f'<text x="{_X0 - 9}" y="{sy:.2f}" text-anchor="end" dominant-baseline="middle" '
        f'{_FONT} font-size="11">{k / 5.0:.1f}</text>'
        for k, sy in enumerate(_py([k / 5.0 for k in range(6)]))
    ),
    f'<text x="{_X0 + _PLOT_W / 2:.0f}" y="{_SVG_HEIGHT - 12}" text-anchor="middle" '
    f'{_FONT} font-size="12">daily return</text>',
    f'<text x="18" y="{_MARGIN_TOP + _PLOT_H / 2:.0f}" text-anchor="middle" '
    f'{_FONT} font-size="12" transform="rotate(-90 18 {_MARGIN_TOP + _PLOT_H / 2:.0f})">'
    "F(x)</text>",
    *(
        f'<polyline points="%s" fill="none" stroke="{color}" stroke-width="1.5"/>'
        for _, color in _SERIES_STYLE
    ),
    *(
        f'<line x1="{_X0 + 14}" y1="{ly}" x2="{_X0 + 40}" y2="{ly}" '
        f'stroke="{color}" stroke-width="2"/>\n'
        f'<text x="{_X0 + 46}" y="{ly + 4}" {_FONT} font-size="12">{label}</text>'
        for ly, (label, color) in zip(range(_MARGIN_TOP + 10, _SVG_HEIGHT, 18), _SERIES_STYLE)
    ),
    "</svg>\n",
))


def render_ecdf_svg(columns: Sequence[Sequence[float]], symbol: str) -> str:
    """Standalone SVG: ECDF staircase plus both fitted CDF curves. Where max |x|
    is m * 2^e with e > 128, the pixels come from the values times 2^(128 - e),
    so no width or product overflows and a power-of-two scale moves no pixel;
    the tick labels stay at the values' own scale, clamped to the largest finite
    float, so a padded axis end past it reads as a number, not ``inf``."""
    lo, hi = min(columns[0]), max(columns[0])
    shift = max(0, math.frexp(max(-lo, hi))[1] - 128)
    xs = [math.ldexp(x, -shift) for x in columns[0]] if shift else columns[0]
    lo, hi = math.ldexp(lo, -shift), math.ldexp(hi, -shift)
    pad = 0.02 * ((hi - lo) or 1.0)
    lo, hi = lo - pad, hi + pad

    def px(values: Sequence[float]) -> list[float]:
        return [_MARGIN_LEFT + _PLOT_W * (x - lo) / (hi - lo) for x in values]

    x_ticks = [lo + (hi - lo) * k / 4.0 for k in range(5)]
    ticks = [v for x, p in zip(x_ticks, px(x_ticks)) for v in (p, p, p, _ldexp(x, shift, _LARGEST))]
    title = _text(symbol, _XML_TEXT)

    def polylines() -> Iterator[str]:
        """Each curve's points, printed by one % call over its pixel floats:
        no string is made per value."""
        x_pixels = px(xs)
        for k, y in enumerate(map(_py, columns[1:])):
            if k == 0:
                # staircase for the empirical CDF: after (first x, x axis), each step
                # rises from the previous level: (x, previous y), (x, y)
                values = [x_pixels[0], _Y0, 0.0, _Y0] + [0.0] * (4 * len(y) - 2)
                values[2::4] = values[4::4] = x_pixels
                values[5::4] = y
                values[7::4] = y[:-1]
            else:
                values = [0.0] * (2 * len(y))
                values[0::2], values[1::2] = x_pixels, y
            values = tuple(values)  # the list is freed before the text is printed
            yield " ".join(repeat("%.2f,%.2f", len(values) // 2)) % values

    # the pixel lists die with the generator, before the document is printed:
    # bounds peak memory
    return _SVG_TEMPLATE % (title, *ticks, *polylines())
