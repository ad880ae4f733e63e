"""returndist benchmark: seeded workloads through the real CLI and the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from `src/` beside this
directory and run as `python -m returndist` with `src` on PYTHONPATH.
The driver is one process with at most one child at a time, a closed
loop: the next operation starts when the previous one has ended.

--trace 0 prints the end-to-end metrics (END_TO_END), with times
scaled to a 50 ms interpreter floor (FLOOR_REF_S). --trace 1 alternates
plain and traced operations and prints the per-layer metrics
(PER_LAYER) from the traced ones, in raw seconds, plus the tracing
overhead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The full record (environment, input sizes, samples, output
digests) goes to perfbench/results/.

Bytecode: every child gets PYTHONPYCACHEPREFIX in a directory this run
owns, with PYTHONDONTWRITEBYTECODE removed, and the cache is warmed by
an untimed `python -m returndist --help`, as an installed package would
have bytecode.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import inputs
from tracing import LAYERS, per_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

BYTECODE = ("children write and read bytecode under a PYTHONPYCACHEPREFIX the run owns "
            "(PYTHONDONTWRITEBYTECODE removed), warmed by an untimed `-m returndist --help`")
SETUP_REPEATS = 24  # fresh `import returndist.cli` (and `-c pass`) processes per run
LOCAL_FLOORS = 3  # floor samples nearest in time that scale one timing
MIN_OPS = 3  # plain operations, however slow the machine
MC_CHUNKS = 6  # child runs the library loop is split into, calibration between them
# End-to-end times are scaled to a machine whose `python -c pass` takes this
# long, each by the floor sampled nearest to it in time: on a shared machine
# the speed of the same work drifts by up to 2x over tens of seconds, and the
# floor drifts with it, so the scaled times stay steady where raw ones do not.
FLOOR_REF_S = 0.05
MC_ITERATIONS = 50  # acceptance criterion 1 is judged on the first 50 seeds
TAIL_BEYOND = 10
PROCESS_TIMEOUT_S = 60.0

END_TO_END = (
    ("wall_s", "s", "median wall time of one operation"),
    ("wall_tail_s", "s", "highest percentile of operation wall time with 10 samples beyond it"),
    ("rows_per_s", "rows/s", "input returns processed per second of median wall"),
    ("setup_s", "s", "median wall of a fresh process that only imports returndist.cli"),
    ("peak_rss_mb", "MB", "peak resident memory of the child processes"),
)

# (name, unit, what it should move). `<fn>_s` is the inclusive time of
# that function per operation; self_s excludes the wrapped calls inside.
PER_LAYER = (
    ("cli.import_s", "s", "setup_s; wall_s on paper-1879"),
    ("cli.interp_floor_s", "s", "nothing: the `python -c pass` floor no change can beat"),
    ("cli.main_self_s", "s", "wall_s on bulk-200k and curves-50k (argparse, file read/write)"),
    ("market_data.parse_ohlcv_csv_s", "s", "wall_s, rows_per_s, peak_rss_mb on bulk-200k"),
    ("market_data.simple_returns_s", "s", "wall_s, rows_per_s on bulk-200k"),
    ("market_data.parse_return_lines_s", "s", "wall_s on curves-50k"),
    ("market_data.returns_to_lines_s", "s", "wall_s on curves-50k"),
    ("market_data.rows_read", "count", "rows_per_s on bulk-200k; zero on curves and montecarlo"),
    ("market_data.rows_skipped", "count", "nothing: input property, checked against the input"),
    ("market_data.input_bytes", "B", "peak_rss_mb on bulk-200k"),
    ("moments.moment_report_s", "s", "wall_s on bulk-200k and montecarlo-5000x50"),
    ("normality.shapiro_wilk_s", "s", "wall_s on bulk-200k (cold) and montecarlo-5000x50 (warm)"),
    ("normality.sw_coefficients_s", "s", "wall_s on bulk-200k (cold cache)"),
    ("normality.coeff_cache_hit_ratio", "ratio", "wall_s on montecarlo-5000x50"),
    ("distfit.fit_normal_s", "s", "wall_s on bulk-200k and curves-50k"),
    ("distfit.fit_laplace_s", "s", "wall_s on bulk-200k and curves-50k"),
    ("distfit.sample_normal_s", "s", "wall_s on montecarlo-5000x50"),
    ("distfit.sample_laplace_s", "s", "wall_s on montecarlo-5000x50 and curves-50k"),
    ("gof.compare_fits_s", "s", "wall_s on bulk-200k, curves-50k, montecarlo-5000x50"),
    ("gof.ks_statistic_s", "s", "wall_s on bulk-200k, curves-50k, montecarlo-5000x50"),
    ("gof.log_likelihood_s", "s", "wall_s on bulk-200k, curves-50k, montecarlo-5000x50"),
    ("gof.ecdf_s", "s", "wall_s on curves-50k (via ecdf_overlay)"),
    ("report.analyze_returns_s", "s", "wall_s on paper-1879, bulk-200k, montecarlo-5000x50"),
    ("report.analyze_returns_self_s", "s", "wall_s on bulk-200k and montecarlo-5000x50"),
    ("report.render_report_json_s", "s", "wall_s on paper-1879 and bulk-200k"),
    ("report.ecdf_overlay_s", "s", "wall_s on curves-50k"),
    ("report.render_ecdf_svg_s", "s", "wall_s on curves-50k"),
    ("report.histogram_s", "s", "wall_s on curves-50k"),
    ("report.output_bytes", "B", "wall_s on curves-50k (rendered bytes written)"),
    *((f"{layer}.self_s", "s", f"wall_s wherever {layer} runs") for layer in LAYERS[1:]),
    *((f"{layer}.calls", "count", f"wall_s wherever {layer} runs") for layer in LAYERS),
    *((f"{layer}.failed", "count", "fail_frac") for layer in LAYERS),
    ("trace.overhead_s", "s", "nothing: traced minus untraced median operation wall"),
)
HIGHER_IS_BETTER = {"rows_per_s", "normality.coeff_cache_hit_ratio", "market_data.rows_read"}


# ---------------------------------------------------------------- processes


@dataclass
class Proc:
    wall: float
    code: int
    stdout: bytes
    stderr: bytes


class Runner:
    """Starts children, one at a time, with the benchmark's environment."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
        self.env["PYTHONPATH"] = str(SRC)
        self.python = sys.executable

    def run(self, argv: list[str], timeout: float = PROCESS_TIMEOUT_S) -> Proc:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([self.python, *argv], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, cwd=self.work, env=self.env)
            # wait(timeout=...) polls with sleeps of up to 50 ms, which would
            # quantise every wall time; block in waitpid and kill on a timer
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
                proc.kill()  # no-op once reaped; stops the child on interrupt
                proc.wait()
            wall = time.perf_counter() - start
        return Proc(wall, code, out_path.read_bytes(), err_path.read_bytes())

    def timed(self, argv: list[str]) -> float:
        proc = self.run(argv)
        checks.process_ok(proc.code, proc.stderr)
        return proc.wall


def peak_child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------- workloads


@dataclass
class Plan:
    """One operation: CLI calls run in order, the files they write, and
    the check their outputs must pass."""

    commands: list[list[str]]
    outputs: list[Path]
    check: Callable[[list[bytes], list[bytes]], None]
    returns: int
    inputs: dict


def plan_csv(rows: int, null_rows: int) -> Callable[[int, Path], Plan]:
    def prepare(seed: int, work: Path) -> Plan:
        csv = inputs.ohlcv_csv(seed, rows, null_rows)
        path = work / "SPX.csv"
        path.write_text(csv.text, encoding="utf-8")

        def check(stdouts: list[bytes], files: list[bytes]) -> None:
            checks.analyze_json(stdouts[0], csv.price_rows, csv.null_rows)

        return Plan(
            commands=[["analyze", "--input", path.name, "--format", "json"]],
            outputs=[], check=check, returns=csv.returns,
            inputs={"rows": rows, "null_rows": null_rows, "returns": csv.returns,
                    "input_bytes": len(csv.text),
                    "input_sha256": hashlib.sha256(csv.text.encode()).hexdigest()},
        )

    return prepare


CURVES_N = 50_000
CURVES_BINS = 100


def plan_curves(seed: int, work: Path) -> Plan:
    sample_seed = seed % 2**64
    returns, svg, hist = work / "returns.txt", work / "curves.svg", work / "hist.json"

    def check(stdouts: list[bytes], files: list[bytes]) -> None:
        checks.return_lines(files[0], CURVES_N)
        checks.ecdf_svg(files[1], CURVES_N)
        checks.histogram_json(files[2], CURVES_N, CURVES_BINS)

    return Plan(
        commands=[
            ["sample", "--dist", "laplace", "--n", str(CURVES_N), "--seed", str(sample_seed),
             "--lambda", "0.006", "--output", returns.name],
            ["ecdf", "--input", returns.name, "--returns-only", "--format", "svg",
             "--output", svg.name],
            ["hist", "--input", returns.name, "--returns-only", "--bins", str(CURVES_BINS),
             "--output", hist.name],
        ],
        outputs=[returns, svg, hist], check=check, returns=CURVES_N,
        inputs={"returns": CURVES_N, "sample_seed": sample_seed, "bins": CURVES_BINS},
    )


@dataclass(frozen=True)
class Workload:
    why: str
    prepare: Callable[[int, Path], Plan] | None  # None: the in-process library loop


WORKLOADS = {
    "paper-1879": Workload(
        "the paper's sample size: interpreter start and import are most of the wall time",
        plan_csv(1879, 3)),
    "bulk-200k": Workload(
        "200k-row CSV: OHLCV parsing dominates, the SW large-n path runs, import is under 4 %",
        plan_csv(200_000, 20)),
    "curves-50k": Workload(
        "sample, ecdf svg, hist chain on 50k returns: renderers and sampler, no CSV parser",
        plan_curves),
    "montecarlo-5000x50": Workload(
        "library loop, warm SW cache, no interpreter start: the paper's acceptance benchmark",
        None),
}
MC_RETURNS = 2 * 5000  # normal and Laplace draws per iteration


# ---------------------------------------------------------------- measuring


@dataclass
class Op:
    wall: float
    at: float | None = None  # perf_counter (CLOCK_MONOTONIC, shared by all processes) mid-run
    error: str | None = None
    digest: str | None = None  # sha256 of the outputs
    key: object = None  # operations with equal keys must have equal outputs
    spans: list[dict] = field(default_factory=list)
    iteration: dict | None = None  # the library loop's check data


def run_op(runner: Runner, plan: Plan, op: int, traced: bool) -> Op:
    for path in plan.outputs:
        path.unlink(missing_ok=True)
    wall, stdouts, spans = 0.0, [], []
    for k, command in enumerate(plan.commands):
        if traced:
            spans_path = runner.work / f"spans-{k}.json"
            argv = [str(HERE / "child.py"), "cli", spans_path.name, str(op), "--", *command]
        else:
            argv = ["-m", "returndist", *command]
        proc = runner.run(argv)
        wall += proc.wall
        try:
            checks.process_ok(proc.code, proc.stderr)
            if traced:
                spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
        except (checks.CheckFailed, OSError, ValueError) as exc:
            return Op(wall, error=f"{command[0]}: {exc}")
        stdouts.append(proc.stdout)
    try:
        files = [path.read_bytes() for path in plan.outputs]
        plan.check(stdouts, files)
    except (checks.CheckFailed, OSError) as exc:
        return Op(wall, error=str(exc))
    digest = hashlib.sha256()
    for blob in (*stdouts, *files):
        digest.update(hashlib.sha256(blob).digest())
    # every operation reads the same input, so all outputs must be identical
    return Op(wall, digest=digest.hexdigest(), key="input", spans=spans)


class LibraryLoop:
    """montecarlo-5000x50 as short child runs, so that calibration samples
    fall between them. A traced step repeats the seeds of the plain step
    before it, so tracing must leave every result byte-identical."""

    def __init__(self, runner: Runner, seed: int, chunk_seconds: float):
        self.runner = runner
        self.seed = seed
        self.chunk_seconds = chunk_seconds
        self.next_index = 1
        self.last_first = 1

    def step(self, traced: bool) -> list[Op]:
        first = self.last_first if traced else self.next_index
        out = self.runner.work / "montecarlo.json"
        argv = [str(HERE / "child.py"), "montecarlo", out.name, str(self.seed), str(first),
                str(self.chunk_seconds), str(int(traced))]
        proc = self.runner.run(argv, timeout=self.chunk_seconds + PROCESS_TIMEOUT_S)
        try:
            checks.process_ok(proc.code, proc.stderr)
            result = json.loads(out.read_text(encoding="utf-8"))
        except (checks.CheckFailed, OSError, ValueError) as exc:
            return [Op(proc.wall, error=str(exc))]
        ops = [Op(it["wall_s"], it["at"], digest=it["sha256"], key=it["seed"], iteration=it)
               for it in result["iterations"]]
        for op in ops:
            if op.iteration["better_fit"] != "laplace":
                op.error = f"better_fit {op.iteration['better_fit']!r} on Laplace draws"
        ops[0].spans = [result] if traced else []
        if not traced:
            self.last_first = first
            self.next_index = first + len(ops)
        return ops


def check_outputs(ops: list[Op]) -> str:
    """Fail every operation whose outputs differ from the first with the
    same key; return one sha256 over the outputs of the first
    MC_ITERATIONS keys, for comparison with another commit on the same seed."""
    first: dict = {}
    for op in ops:
        if op.error is None:
            expected = first.setdefault(op.key, op.digest)
            if op.digest != expected:
                op.error = f"output sha256 {op.digest} differs from {expected} for {op.key!r}"
    combined = hashlib.sha256()
    for digest in list(first.values())[:MC_ITERATIONS]:  # in order of first appearance
        combined.update(digest.encode())
    return combined.hexdigest()


def closed_loop(step: Callable[[bool], list[Op]], seconds: float, trace: bool, min_plain: int,
                calibration: "Calibration") -> tuple[list[Op], list[Op]]:
    """Plain steps (each followed, in traced runs, by a traced step) until
    `seconds` have passed, with calibration samples spread in between."""
    plain: list[Op] = []
    traced: list[Op] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(plain) < min_plain:
        for ops, traced_step in ((plain, False), (traced, True))[: 1 + trace]:
            step_start = time.perf_counter()
            new = step(traced_step)
            step_mid = (step_start + time.perf_counter()) / 2
            for op in new:
                op.at = step_mid if op.at is None else op.at
            ops += new
        calibration.top_up((time.perf_counter() - start) / seconds)
    calibration.top_up(1.0)
    return plain, traced


def tail_of(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples above it. With fewer than 2 * TAIL_BEYOND + 1
    samples no such statistic lies above the median, so the median it is."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND - 1, (len(ordered) - 1) // 2)
    if rank == (len(ordered) - 1) // 2:
        return median(ordered), 50.0
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(traced_ops: list[dict], imports: list[float], floor: float,
                  overhead: float) -> dict:
    """Per-layer metrics: medians over traced operations, failures summed."""
    metrics = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".failed"):
            metrics[name] = sum(op.get(name, 0) for op in traced_ops)
        else:
            metrics[name] = median(op.get(name, 0) for op in traced_ops)
    hits = sum(op.get("normality.coeff_cache_hits", 0) for op in traced_ops)
    misses = sum(op.get("normality.coeff_cache_misses", 0) for op in traced_ops)
    metrics["normality.coeff_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["cli.import_s"] = median(imports)
    metrics["cli.interp_floor_s"] = floor
    metrics["trace.overhead_s"] = overhead
    return metrics


def self_time_facts(traced_ops: list[dict]) -> dict:
    """Median self time of each wrapped function, the largest of them, and
    their sum: all the time spent inside the program after its import."""
    samples: dict[str, list[float]] = {}
    for op in traced_ops:
        for key, value in op.items():
            if key.endswith("_self_s") and not key.endswith(".self_s"):
                samples.setdefault(key[: -len("_self_s")], []).append(value)
    self_s = {name: median(values) for name, values in samples.items()}
    largest = max(self_s, key=self_s.get, default=None)
    return {"function_self_s": self_s, "largest_self_time": largest,
            "all_layers_self_s": sum(self_s.values())}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


class Calibration:
    """Fresh-process timings spread evenly over the measuring window, so
    that they see the same machine as the operations: `import
    returndist.cli` (setup_s) and `python -c pass` (the interpreter floor)."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.setup: list[float] = []
        self.floor: list[float] = []
        self.floor_at: list[float] = []

    def top_up(self, share: float) -> None:
        """Take samples until a `share` (0..1) of SETUP_REPEATS are in."""
        while len(self.setup) < math.ceil(SETUP_REPEATS * min(share, 1.0)):
            start = time.perf_counter()
            self.floor.append(self.runner.timed(["-c", "pass"]))
            self.floor_at.append((start + time.perf_counter()) / 2)
            self.setup.append(self.runner.timed(["-c", "import returndist.cli"]))

    def scale(self, at: float) -> float:
        """FLOOR_REF_S over the median of the LOCAL_FLOORS floor samples
        taken nearest to `at`."""
        nearest = sorted(range(len(self.floor)), key=lambda i: abs(self.floor_at[i] - at))
        return FLOOR_REF_S / median(self.floor[i] for i in nearest[:LOCAL_FLOORS])

    def scaled_setup(self) -> list[float]:
        return [s * self.scale(at) for s, at in zip(self.setup, self.floor_at)]


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    workload = WORKLOADS[name]
    runner = Runner(work)
    # compiles every module, __main__ included, into the run's bytecode cache
    runner.timed(["-m", "returndist", "--help"])
    calibration = Calibration(runner)
    record: dict = {"workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
                    "trace": int(trace)}
    if workload.prepare is None:
        record["inputs"] = {"iteration_size": MC_RETURNS // 2, "seed": seed,
                            "iterations_checked": MC_ITERATIONS}
        returns = MC_RETURNS
        loop = LibraryLoop(runner, seed, seconds / MC_CHUNKS)
        plain, traced = closed_loop(loop.step, seconds, trace, MC_ITERATIONS, calibration)
        try:
            checks.montecarlo([op.iteration for op in plain[:MC_ITERATIONS] if op.iteration])
        except checks.CheckFailed as exc:
            for op in plain[:MC_ITERATIONS]:
                op.error = op.error or f"acceptance criterion 1: {exc}"
    else:
        plan = workload.prepare(seed, work)
        record["inputs"] = {**plan.inputs, "seed": seed}
        returns = plan.returns
        if trace:
            run_op(runner, plan, -1, traced=True)  # compiles the tracer's bytecode
        numbers = itertools.count()
        plain, traced = closed_loop(lambda t: [run_op(runner, plan, next(numbers), t)],
                                    seconds, trace, MIN_OPS, calibration)
    dumps = [dump for op in traced for dump in op.spans]
    traced_totals = [v for op, v in per_op(dumps).items() if op >= 0]
    imports = [dump["import_s"] for dump in dumps]
    output_sha256 = check_outputs(plain + traced)
    floor = median(calibration.floor)

    ops = plain + traced
    failed = [op for op in ops if op.error]
    walls = [op.wall for op in plain]
    wall = median(walls)
    tail, tail_pct = tail_of(walls)
    setup = median(calibration.setup)
    scaled_walls = [op.wall * calibration.scale(op.at) for op in plain]
    scaled_wall = median(scaled_walls)
    record.update({
        "attempted": len(ops), "failed": len(failed), "fail_frac": len(failed) / len(ops),
        "errors": sorted({op.error for op in failed})[:10], "output_sha256": output_sha256,
        "samples": len(walls), "tail_percentile": tail_pct, "interp_floor_s": floor,
        "raw": {"wall_s": wall, "wall_tail_s": tail, "rows_per_s": returns / wall,
                "setup_s": setup},
        "wall_samples_s": walls, "setup_samples_s": calibration.setup,
        "floor_samples_s": calibration.floor,
    })
    if trace:
        record["traced_wall_s"] = median(op.wall for op in traced)
        record.update(self_time_facts(traced_totals))
        metrics = layer_metrics(traced_totals, imports, floor, record["traced_wall_s"] - wall)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": scaled_wall,
            "wall_tail_s": tail_of(scaled_walls)[0],
            "rows_per_s": returns / scaled_wall,
            "setup_s": median(calibration.scaled_setup()),
            "peak_rss_mb": peak_child_rss_mb(),
        }
        units = {n: u for n, u, _ in END_TO_END}
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    record["environment"] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "git_sha": git_sha(),
        "bytecode": BYTECODE,
    }
    return record


# ---------------------------------------------------------------- output


def print_summary(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} operations, {record['failed']} failed, "
          f"fail_frac {record['fail_frac']:.4g}")
    print(f"  inputs {json.dumps(record['inputs'])}")
    print(f"  python {env['python']}, nproc {env['nproc']}, git {env['git_sha'] or 'unknown'}; "
          f"bytecode: {env['bytecode']}")
    raw = record["raw"]
    print(f"  interp floor (python -c pass) {record['interp_floor_s']:.4f} s; raw wall_s "
          f"{raw['wall_s']:.4f} s, wall_tail_s {raw['wall_tail_s']:.4f} s "
          f"(p{record['tail_percentile']:.1f} of {record['samples']} samples), setup_s "
          f"{raw['setup_s']:.4f} s")
    if record["trace"]:
        notes = {n: m for n, _, m in PER_LAYER}
        largest = record["largest_self_time"]
        print(f"  traced {record['traced_wall_s']:.4f} s vs untraced {raw['wall_s']:.4f} s per "
              f"operation; no layer waits (single-threaded, no queue or lock)")
        print(f"  largest self time {largest} "
              f"{record['function_self_s'].get(largest, 0.0):.4f} s; all layers after import "
              f"{record['all_layers_self_s']:.4f} s vs cli.import_s "
              f"{record['metrics']['cli.import_s']['value']:.4f} s")
    else:
        notes = {n: m for n, _, m in END_TO_END}
        print(f"  times below are scaled to a {FLOOR_REF_S * 1000:.0f} ms interpreter floor")
    for name, metric in record["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']:6s}  {notes[name]}")
    print(f"  output sha256 {record['output_sha256']}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "returndist" / "cli.py").is_file():
        print(f"error: the program is not here ({SRC / 'returndist'} is missing)", file=sys.stderr)
        return 2
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_summary(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
