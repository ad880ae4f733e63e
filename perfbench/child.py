"""Benchmark child process: one traced CLI call, or the library loop.

    child.py cli SPANS_OUT OP -- ARGV...
        Import returndist.cli (timed), wrap every layer's public
        functions, run cli.main(ARGV) in this process, write the spans to
        SPANS_OUT and exit with main's code. Stdout is the program's own.
    child.py montecarlo OUT SEED FIRST SECONDS TRACE
        The library loop of the montecarlo-5000x50 workload: one warm-up
        iteration, then iterations FIRST, FIRST + 1, ... until SECONDS
        have passed (at least one). Writes times, check data and each
        iteration's output sha256 to OUT.

Nothing is imported before returndist.cli except what the interpreter
has already loaded, so the import time is what a CLI user pays.
"""

import sys
import time

_started = time.perf_counter()
import returndist.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _started

import hashlib  # noqa: E402
import json  # noqa: E402

from tracing import Tracer  # noqa: E402

MC_SIZE = 5000


def _tracer() -> Tracer:
    tracer = Tracer(cache_info=returndist.normality._coefficients.cache_info)
    tracer.install()
    return tracer


def run_cli(spans_out: str, op: int, argv: list[str]) -> int:
    tracer = _tracer()
    try:
        with tracer.operation(op):
            code = returndist.cli.main(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, **tracer.dump()}, fh)
    return code


def run_montecarlo(out: str, seed: int, first: int, seconds: float, traced: bool) -> int:
    rd = returndist
    tracer = _tracer() if traced else None
    normal = rd.NormalParams(mean=0.0, sigma=1.0)
    laplace = rd.LaplaceParams(mu=0.0, scale=1.0)
    base = (seed % 2**40) << 20

    def iteration(s: int):
        # looked up on the package at call time, so the wrappers apply
        draws = rd.sample_normal(MC_SIZE, normal, s)
        moments = rd.moment_report(draws)
        sw = rd.shapiro_wilk(draws)
        report = rd.analyze_returns(rd.sample_laplace(MC_SIZE, laplace, s), "laplace")
        return moments, sw, report

    def run(op: int):
        if tracer is None:
            return iteration(base + op)
        with tracer.operation(op):
            return iteration(base + op)

    run(-1)  # warm-up: fills the SW coefficient cache for n = 5000
    iterations = []
    deadline = time.perf_counter() + seconds
    i = first
    while not iterations or time.perf_counter() < deadline:
        start = time.perf_counter()
        moments, sw, report = run(i)
        wall = time.perf_counter() - start
        iterations.append({
            "wall_s": wall, "at": start + wall / 2, "seed": base + i, "abs_skew": abs(moments.skew),
            "abs_kurt": abs(moments.excess_kurtosis), "w": sw.w, "p": sw.p_value,
            "better_fit": report.better_fit,
            "sha256": hashlib.sha256(repr((moments, sw, report)).encode()).hexdigest(),
        })
        i += 1
    result = {"import_s": IMPORT_S, "iterations": iterations}
    if tracer is not None:
        result.update(tracer.dump())
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        spans_out, op, sep, *cli_argv = rest
        if sep != "--":
            raise SystemExit("usage: child.py cli SPANS_OUT OP -- ARGV...")
        return run_cli(spans_out, int(op), cli_argv)
    if mode == "montecarlo":
        out, seed, first, seconds, trace = rest
        return run_montecarlo(out, int(seed), int(first), float(seconds), trace == "1")
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
