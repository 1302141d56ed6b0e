"""Steadiness check: run the benchmark repeatedly and hold it to its bounds.

    python3 perfbench/steady.py --runs 10 --save first.json
    python3 perfbench/steady.py --runs 10 --against first.json
    python3 perfbench/steady.py --runs 10 --fixed-seed 1

Each set runs every workload of BENCHMARK.json N times, untraced, on seeds
1..N.  For each end-to-end metric the spread is the distance between the
first and third quartiles of its values over their median
(``statistics.quantiles(v, n=4)``); it must stay within the metric's bound in
BENCHMARK.json, setup_s included.  With ``--against``, the new set's median
must also be no worse than the saved set's by more than the bound.  With
``--fixed-seed S`` every run uses seed S, so the spread is the host's and the
program's own noise alone, without the variation between inputs.  Exit code 0
when everything holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(spec: dict, seeds: list[int]) -> dict:
    """{workload: {metric: [value per run]}}"""
    values: dict = {}
    for name in (w["name"] for w in spec["workloads"]):
        per_metric: dict[str, list[float]] = {}
        for seed in seeds:
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            start = time.monotonic()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.monotonic() - start
            if done.returncode != 0:
                raise SystemExit(f"{name} seed {seed}: run failed\n{done.stdout}{done.stderr}")
            result = json.loads(done.stdout.splitlines()[-1])
            for metric, entry in result["metrics"].items():
                per_metric.setdefault(metric, []).append(entry["value"])
            print(f"{name} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()), flush=True)
        values[name] = per_metric
    return values


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worsening(before: float, after: float, better: str) -> float:
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before
    return change if better == "lower" else -change


def judge(spec: dict, values: dict, baseline: dict | None) -> bool:
    ok = True
    for workload, per_metric in values.items():
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            series = per_metric[name]
            s = spread(series)
            line = f"{workload:18s} {name:15s} median {statistics.median(series):10.4f}  spread {s:6.3f} (bound {bound})"
            if s > bound:
                ok = False
                line += "  SPREAD TOO WIDE"
            elif s > bound / 3:
                line += "  (above a third of the bound)"
            if baseline is not None:
                worse = worsening(
                    statistics.median(baseline[workload][name]),
                    statistics.median(series),
                    entry["better"],
                )
                line += f"  vs saved {worse:+.3f}"
                if worse > bound:
                    ok = False
                    line += "  WORSE THAN BOUND"
            print(line)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload")
    parser.add_argument("--fixed-seed", type=int, help="run every run on this seed")
    parser.add_argument("--save", help="write this set's values to a JSON file")
    parser.add_argument("--against", help="compare with a set saved by --save")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.fixed_seed is None:
        seeds = list(range(1, args.runs + 1))
    else:
        seeds = [args.fixed_seed] * args.runs
    values = run_set(spec, seeds)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1), encoding="utf-8")
    baseline = None
    if args.against:
        baseline = json.loads(Path(args.against).read_text(encoding="utf-8"))
    return 0 if judge(spec, values, baseline) else 1


if __name__ == "__main__":
    sys.exit(main())
