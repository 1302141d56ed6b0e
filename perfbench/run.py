"""minorlab benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload minor-check --seed 1 --seconds 20 --trace 0

One client sends requests one at a time and sends the next only when the
previous one returned (a closed loop in one process; suite-batch's timed
run_suite calls run with ``workers=1``, and the library's pool of two workers
is checked and timed outside the end-to-end metrics).  Requests run in whole
cycles; a run serves the fixed number of cycles that take ``--seconds`` of
busy time on the reference machine (``Workload.cycles_for``), so every run of
one workload does the same amount of work however fast the host is.  Every result is checked; a
wrong one makes ``correct`` false and the exit code 1.

End-to-end request times are put on one reference host speed with the probe
of ``hostprobe.py``, timed before every request, so that the shared host's
changing speed does not pass for a change in minorlab.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it serves the same requests untraced and
then traced, and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import hostprobe
import tracing
from workloads import SUITE_WORKERS, UNCHECKED, WORKLOADS, WRONG, Verdict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 9

#: Timed in a fresh process: the import plus the library's first-call set-up
#: (scipy's max-flow and the cached density constant).
SETUP_CODE = """
import time
start = time.perf_counter()
import minorlab
from minorlab import connectivity, extremal, families
extremal.lower_bound_edge_target(40, 40, 5, 0.05)
connectivity.vertex_connectivity(families.cycle_graph(6))
print(time.perf_counter() - start)
"""


def load_library() -> SimpleNamespace:
    """Import minorlab from this checkout's sources, never from elsewhere."""
    package = SRC / "minorlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no minorlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import minorlab

    if Path(minorlab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"benchmark: imported minorlab from {minorlab.__file__}")
    names = ("connectivity", "coloring", "decompose", "errors", "experiments",
             "extremal", "formats", "minor")
    return SimpleNamespace(**{n: importlib.import_module(f"minorlab.{n}") for n in names})


class Tally:
    """Latencies and verdicts of the requests served in one pass."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        # request times at the reference host speed, when the pass was probed
        self.scaled_latencies: list[float] = []
        self.by_label: dict[str, list[float]] = defaultdict(list)
        self.busy = 0.0
        self.weight = 0
        self.honest = 0
        self.unchecked = 0
        self.wrong: list[str] = []

    def add(self, label: str, weight: int, seconds: float, verdict: Verdict) -> None:
        self.latencies.append(seconds)
        self.by_label[label].append(seconds)
        self.busy += seconds
        self.weight += weight
        self.honest += verdict.honest
        self.unchecked += verdict.status == UNCHECKED
        if verdict.status == WRONG:
            self.wrong.append(f"{label}: {verdict.message}")


def serve(workload, lib, req, tally: Tally, tracer=None, request_id=0) -> None:
    """Send one request, time it, and check its result."""
    if tracer is not None:
        tracer.request = request_id
        span = tracer.begin(f"request.{req.kind}")
    start = time.perf_counter()
    try:
        out = workload.execute[req.kind](lib, req.args)
    except Exception as exc:  # a crash is a wrong result, and the run goes on
        elapsed = time.perf_counter() - start
        verdict = Verdict(WRONG, message=f"raised {type(exc).__name__}: {exc}")
    else:
        elapsed = time.perf_counter() - start
        verdict = workload.check[req.kind](req, out)
    if tracer is not None:
        tracer.end(span)
    tally.add(req.args.get("suite", req.kind), req.weight, elapsed, verdict)


def warm_up(workload, lib, seed: int) -> Tally:
    """One request of each kind from a cycle that no timed pass uses."""
    tally = Tally()
    seen = set()
    for req in workload.cycle(seed, -1):
        if req.kind not in seen:
            seen.add(req.kind)
            serve(workload, lib, req, tally)
    return tally


def closed_loop(
    workload, lib, seed, cycles, tracer=None, probe=False, after_cycle=None, **override
) -> Tally:
    """Serve cycles 0..cycles-1 in order, optionally traced or with changed args.

    With `probe`, the host probe is timed before every request, outside the
    request's time, and each cycle's times are also kept at the reference host
    speed given by the median of that cycle's probes.  `after_cycle(index)`
    runs between cycles, outside every request's time.
    """
    tally = Tally()
    request_id = 0
    for index in range(cycles):
        first = len(tally.latencies)
        probes = []
        for req in workload.cycle(seed, index):
            if override:
                req = dataclasses.replace(req, args={**req.args, **override})
            if probe:
                probes.append(hostprobe.probe_seconds())
            serve(workload, lib, req, tally, tracer, request_id)
            request_id += 1
        if probe:
            scale = hostprobe.scale(probes)
            tally.scaled_latencies.extend(t * scale for t in tally.latencies[first:])
        if after_cycle is not None:
            after_cycle(index)
    return tally


def pool_matches_serial(workload, lib, seed: int) -> list[str]:
    """suite-batch: the same batch on a pool must give byte-identical reports."""
    problems = []
    for req in workload.cycle(seed, 0):
        pooled = workload.execute[req.kind](lib, {**req.args, "workers": SUITE_WORKERS})
        serial = workload.execute[req.kind](lib, req.args)
        if (pooled.json_text(), pooled.csv_text()) != (serial.json_text(), serial.csv_text()):
            problems.append(f"{req.args['suite']}: report differs between 1 and {SUITE_WORKERS} workers")
    return problems


def percentile(values: list[float], share: float) -> float:
    """The smallest value with at least `share` of the values at or below it."""
    return sorted(values)[math.ceil(share * len(values)) - 1]


#: Runs SETUP_CODE in a fresh process per line read and answers its time.  Set-up
#: processes are its children, not the benchmark's, so their memory stays out
#: of the benchmark's RUSAGE_CHILDREN until it has read the pool workers' peak.
LAUNCHER_CODE = """
import subprocess, sys
for line in sys.stdin:
    done = subprocess.run([sys.executable, "-c", sys.argv[1]],
                          capture_output=True, text=True, timeout=120, check=True)
    print(done.stdout.split()[-1], flush=True)
"""


class SetupTimer:
    """Times import plus first-call set-up in fresh processes, spread over a run.

    `after_cycle` takes SETUP_REPEATS samples evenly spaced over `cycles`
    cycles, so that they see the host in the same spells as the requests do.
    """

    def __init__(self, cycles: int) -> None:
        self.cycles = cycles
        self.times: list[float] = []
        self.launcher = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER_CODE, SETUP_CODE],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def after_cycle(self, index: int) -> None:
        due = (index + 1) * SETUP_REPEATS // self.cycles - index * SETUP_REPEATS // self.cycles
        for _ in range(due):
            self.launcher.stdin.write("\n")
            self.launcher.stdin.flush()
            answer = self.launcher.stdout.readline()
            if not answer:
                raise RuntimeError("benchmark: a set-up process failed")
            self.times.append(float(answer))

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait(timeout=120)
        self.launcher.stdout.close()


def peak_rss_mb(with_workers: bool) -> float:
    """Peak resident set of this process, plus the pool workers' when asked."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        rss_kb += SUITE_WORKERS * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss_kb / 1024.0


def end_to_end(workload, lib, seed: int, seconds: float) -> tuple[dict, list[Tally], list[str]]:
    cycles = workload.cycles_for(seconds)
    setup = SetupTimer(cycles)
    try:
        tally = closed_loop(workload, lib, seed, cycles, probe=True, after_cycle=setup.after_cycle)
        problems = pool_matches_serial(workload, lib, seed) if workload.name == "suite-batch" else []
        # read before the launcher, and with it the set-up processes, is reaped
        rss = peak_rss_mb(workload.name == "suite-batch")
    finally:
        setup.close()
    lat = tally.scaled_latencies
    print(f"unscaled: throughput {tally.weight / tally.busy:.4g}/s, "
          f"p50 {statistics.median(tally.latencies) * 1e3:.4g} ms, "
          f"p95 {percentile(tally.latencies, 0.95) * 1e3:.4g} ms")
    metrics = {
        "throughput_rps": tally.weight / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p95_ms": percentile(lat, 0.95) * 1e3,
        "success_rate": 1.0 - tally.honest / tally.weight,
        "setup_s": statistics.median(setup.times),
        "peak_rss_mb": rss,
    }
    return metrics, [tally], problems


def per_layer(workload, lib, seed: int, seconds: float) -> tuple[dict, list[Tally], list[str]]:
    metrics: dict[str, float] = {}
    problems: list[str] = []
    if workload.name == "suite-batch":
        cycles = workload.cycles_for(seconds / 3)
        untraced = closed_loop(workload, lib, seed, cycles)
        pooled = closed_loop(workload, lib, seed, cycles, workers=SUITE_WORKERS)
        problems = pool_matches_serial(workload, lib, seed)
        for suite, times in untraced.by_label.items():
            metrics[f"experiments.suite_ms.{suite}"] = statistics.mean(times) * 1e3
        metrics["experiments.serial_throughput_rps"] = untraced.weight / untraced.busy
        metrics["experiments.pool_throughput_rps"] = pooled.weight / pooled.busy
        metrics["experiments.pool_overhead_s"] = (
            pooled.busy - untraced.busy / SUITE_WORKERS
        ) / cycles
        tallies = [untraced, pooled]
    else:
        cycles = workload.cycles_for(seconds / 2)
        untraced = closed_loop(workload, lib, seed, cycles)
        tallies = [untraced]
    # spans stay in this process, so the traced pass is serial on every workload
    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced = closed_loop(workload, lib, seed, cycles, tracer)
    tallies.append(traced)
    metrics.update(tracing.layer_metrics(tracer.spans, traced.weight))
    metrics["trace_overhead_pct"] = (traced.busy / untraced.busy - 1.0) * 100.0
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl")
    return metrics, tallies, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lib = load_library()
    workload = WORKLOADS[args.workload]
    warm = warm_up(workload, lib, args.seed)
    measure = per_layer if args.trace else end_to_end
    computed, tallies, problems = measure(workload, lib, args.seed, args.seconds)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in computed and not name.startswith("experiments."):
            raise KeyError(f"benchmark: metric {name} was not computed")
        # only suite-batch reaches the experiments layer; elsewhere it reads 0
        metrics[name] = {"value": computed.get(name, 0.0), "unit": entry["unit"]}
    main_pass = tallies[0]
    wrong = warm.wrong + problems + [w for t in tallies for w in t.wrong]
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(main_pass.latencies)} requests ({main_pass.weight} units) in "
        f"{main_pass.busy:.2f} s busy; honest failures {main_pass.honest}, "
        f"unchecked verdicts {main_pass.unchecked}, wrong results {len(wrong)}"
    )
    for message in wrong[:20]:
        print(f"WRONG {message}")
    result = {
        "correct": not wrong,
        "attempted": main_pass.weight,
        "failed": len(wrong),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
