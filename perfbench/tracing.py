"""In-memory spans around the public functions of each returndist module.

`Tracer.install` replaces each function listed in LAYER_FUNCTIONS, in
every loaded returndist module that binds it under its own name, with a
wrapper that records a span [name, start, end, parent, op]. Callers look
those names up at call time (module globals and `from .x import y`
bindings such as `returndist.report.shapiro_wilk`), so every call made
through the package passes a wrapper. Spans stay in memory; `dump`
returns them once, for the process to write when it ends.

Per-value kernels (pdf, cdf, quantile, the generator's methods) are not
wrapped: they run once per sample value, and a span each would cost
more than the work it times. Their time shows as self time of the
public function that calls them.

The program is single-threaded and has no queue or lock, so every span
is busy time. There is no waiting to trace, and none is reported.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# `errors` is a layer too, but it only defines exception types.
LAYER_FUNCTIONS = {
    "cli": ("main",),
    "market_data": (
        "parse_ohlcv_csv",
        "simple_returns",
        "parse_return_lines",
        "returns_to_lines",
        "price_series_to_csv",
    ),
    "moments": ("moment_report", "central_moment", "skewness", "excess_kurtosis"),
    "normality": ("shapiro_wilk", "sw_coefficients"),
    "distfit": ("fit_normal", "fit_laplace", "median", "sample_normal", "sample_laplace"),
    "gof": ("compare_fits", "ks_statistic", "log_likelihood", "ecdf"),
    "report": (
        "analyze_returns",
        "report_to_dict",
        "report_from_dict",
        "render_report_json",
        "render_report_markdown",
        "histogram",
        "render_histogram_json",
        "ecdf_overlay",
        "render_ecdf_csv",
        "render_ecdf_svg",
    ),
}
LAYERS = tuple(LAYER_FUNCTIONS)
RENDERERS = ("render_report_json", "render_report_markdown", "render_histogram_json",
             "render_ecdf_csv", "render_ecdf_svg")


def _text_bytes(text: str) -> int:
    # isascii() is O(1) in CPython, so the common case costs no pass over the text
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def _count_parse(tracer: "Tracer", args: tuple, result) -> None:
    series, warnings = result
    tracer.count("market_data.rows_read", len(series))
    tracer.count("market_data.rows_skipped", len(warnings))
    tracer.count("market_data.input_bytes", _text_bytes(args[0]))


def _count_output(tracer: "Tracer", args: tuple, result) -> None:
    tracer.count("report.output_bytes", _text_bytes(result))


HOOKS = {"parse_ohlcv_csv": _count_parse, **{name: _count_output for name in RENDERERS}}


class Tracer:
    """Span recorder for one process. `cache_info` is the SW coefficient
    cache's `cache_info`; each operation records its hits and misses."""

    def __init__(self, cache_info):
        self.spans: list[list] = []
        self.counts: dict = {}
        self.op = None
        self._stack: list[int] = []
        self._cache_info = cache_info

    def count(self, name: str, value: float) -> None:
        counts = self.counts.setdefault(self.op, {})
        counts[name] = counts.get(name, 0) + value

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index][1] = start
        self.spans[index][2] = end

    @contextmanager
    def operation(self, op: int):
        """Root span of one benchmark operation; spans inside share `op`."""
        self.op = op
        before = self._cache_info()
        index = self._open("op")
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start)
            after = self._cache_info()
            self.count("normality.coeff_cache_hits", after.hits - before.hits)
            self.count("normality.coeff_cache_misses", after.misses - before.misses)

    def wrap(self, layer: str, fn, hook=None):
        name = f"{layer}.{fn.__name__}"

        def traced(*args, **kwargs):
            self.count(f"{layer}.calls", 1)
            index = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(f"{layer}.failed", 1)
                raise
            finally:
                self._close(index, start)
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "returndist" or n.startswith("returndist.")]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"returndist.{layer}"]
            for name in names:
                original = getattr(home, name)
                traced = self.wrap(layer, original, HOOKS.get(name))
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, traced)

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": [[op, c] for op, c in self.counts.items()]}


def per_op(dumps: list[dict]) -> dict:
    """Merge span dumps (one per process) into per-operation totals:
    {op: {metric: value}} with `<span>_s` inclusive time, `<span>_self_s`
    self time, `<layer>.self_s`, and every counter. A span's self time is
    its duration minus that of its direct children; the program is
    single-threaded, so children never overlap."""
    ops: dict = {}
    for dump in dumps:
        spans = dump["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, parent, op), children in zip(spans, child_time):
            if name == "op":
                continue
            totals = ops.setdefault(op, {})
            duration = end - start
            self_time = duration - children
            layer = name.split(".", 1)[0]
            for key, value in ((f"{name}_s", duration), (f"{name}_self_s", self_time),
                               (f"{layer}.self_s", self_time)):
                totals[key] = totals.get(key, 0.0) + value
        for op, counts in dump["counts"]:
            totals = ops.setdefault(op, {})
            for key, value in counts.items():
                totals[key] = totals.get(key, 0) + value
    return ops
