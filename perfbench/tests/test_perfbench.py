"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import SUITE_BATCH, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def _inputs(workload, seed):
    return [(r.kind, r.args, r.expect, r.graph, r.weight) for r in workload.cycle(seed, 0)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = WORKLOADS[name]
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


@pytest.mark.parametrize("name", ["minor-check", "decompose-connect", "color-pipeline"])
def test_same_seed_same_verdicts(lib, name):
    workload = WORKLOADS[name]

    def verdicts():
        tally = run.Tally()
        statuses = []
        for req in workload.cycle(3, 0):
            run.serve(workload, lib, req, tally)
            statuses.append((req.kind, req.expect, tally.honest, len(tally.wrong)))
        return statuses

    first = verdicts()
    assert first == verdicts()
    assert first[-1][-1] == 0  # no wrong result


def test_suite_reports_identical_for_one_and_two_workers(lib):
    assert run.pool_matches_serial(SUITE_BATCH, lib, seed=5) == []


def test_planted_models_are_models():
    rng = random.Random(1)
    for n in (20, 40):
        edges, model = oracle.planted_clique_minor(n, 5, 0.1, rng)
        assert oracle.model_problem(oracle.adjacency(n, edges), model, 5) is None
    edges, model = oracle.subdivided_k5(3, rng)
    assert oracle.model_problem(oracle.adjacency(15, edges), model, 5) is None


def _result(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "0.01",
                             "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_named_metric_printed_with_unit(name, trace):
    done = _result(name, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = _result("minor-check", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_host_probe_never_collects_garbage():
    import gc

    import hostprobe

    collections = []
    gc.callbacks.append(lambda phase, info: collections.append(phase))
    try:
        times = [hostprobe.probe_seconds() for _ in range(50)]
    finally:
        gc.callbacks.pop()
    assert collections == []
    assert hostprobe.scale(times) > 0


def test_run_length_is_a_fixed_cycle_count():
    for workload in WORKLOADS.values():
        assert workload.cycles_for(0.01) == 1
        assert workload.cycles_for(SPEC["run_seconds"]) * len(workload.cycle(1, 0)) >= 200
