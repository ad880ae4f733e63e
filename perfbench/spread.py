"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads paper-1879,bulk-200k --seeds 1-10 \\
        --seconds 20 [--trace 1] [--out set.json] [--against earlier.json]

For every workload and metric it prints the median of the runs, the
quartile spread (q3 - q1) / median, and the metric's bound from
BENCHMARK.json. With --against it also prints how far each median moved
from an earlier set, as a share of that set's median, in the direction
that is worse. Runs go one at a time, each as its own run.py process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# kept from each run's record beside its result line
RECORDED = ("output_sha256", "raw", "interp_floor_s", "samples", "tail_percentile", "inputs",
            "environment", "traced_wall_s", "largest_self_time", "all_layers_self_s")


def seeds(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def worse_by(now: float, before: float, better: str) -> float:
    if not before:
        return 0.0
    change = (now - before) / before
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}

    result: dict = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            line = json.loads(lines[-1])
            record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace{args.trace}.json")
                                .read_text(encoding="utf-8"))
            runs.append({"seed": seed, **line, **{k: record[k] for k in RECORDED if k in record}})
            if not line["correct"]:
                status = 1
            print(f"{workload} seed {seed}: correct={line['correct']} attempted={line['attempted']} "
                  f"failed={line['failed']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
        result["workloads"][workload] = {"runs": runs, "metrics": metrics}
        for name, stats in metrics.items():
            bound = declared.get(name, {}).get("bound")
            line = (f"{workload:20s} {name:34s} median {stats['median']:12.6g} "
                    f"spread {stats['spread']:7.2%}")
            if bound is not None:
                line += f" bound {bound:.0%}" + (" WIDE" if stats["spread"] > bound / 3 else "")
            before = earlier.get("workloads", {}).get(workload, {}).get("metrics", {}).get(name)
            if before is not None:
                moved = worse_by(stats["median"], before["median"], declared[name]["better"])
                line += f" worse-by {moved:+.2%}"
                if bound is not None and moved > bound:
                    line += " REGRESSED"
            print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
