"""Seeded experiment suites with JSON/CSV reports.

Every suite maps a master seed over its trial indices with
:func:`minorlab.seeds.derive_seed`, so reports are byte-identical across
reruns and identical whether trials run serially or on a worker pool.
Every model, coloring, or decomposition a suite produces is re-validated
before being counted a success.
"""

from __future__ import annotations

import functools
import json
import math
import random
from pathlib import Path
from typing import NamedTuple

from .coloring import (
    hall_ratio_list_color,
    minor_free_list_color,
    multipartite_list_color,
    uniform_lists,
    verify_list_coloring,
)
from .connectivity import connectivity_at_least
from .decompose import check_decomposition, small_coboundary_piece
from .errors import AT_LEAST_1, InputError, check_inputs, checked_record
from .extremal import (
    BipartiteSpec,
    connectivity_extremal,
    eval_bounds,
    gen_bipartite,
    lower_bound_bipartite,
    lower_bound_edge_target,
)
from .families import (
    complete_bipartite,
    complete_multipartite,
    gnp_random_graph,
    petersen_graph,
    random_graph_min_degree,
    turan_parts,
)
from .graphs import DEFAULT_BUDGET, Graph, from_edge_list
from .minor import (
    DenseModelParams,
    contraction_round,
    dense_random_model,
    find_kt_minor_exact,
    validate_model,
)
from .seeds import derive_seed

SCHEMA_VERSION = 1

@checked_record
class ExperimentConfig(NamedTuple):
    suite: str
    trials: int = 20
    seed: int = 0
    max_n: int | None = None
    budget: int = DEFAULT_BUDGET
    workers: int = 1

    def _check(self) -> None:
        if self.suite not in SUITES:
            raise InputError(
                f"unknown suite {self.suite!r}; choose one of {', '.join(SUITES)}"
            )
        check_inputs(int, AT_LEAST_1, trials=self.trials, budget=self.budget,
                     workers=self.workers)
        check_inputs(int, seed=self.seed, max_n=0 if self.max_n is None else self.max_n)


class ExperimentReport(NamedTuple):
    config: ExperimentConfig
    columns: tuple[str, ...]
    records: tuple[dict, ...]
    summary: dict

    def json_text(self) -> str:
        # the worker count never changes a report, so the report omits it
        doc = {"schema": SCHEMA_VERSION, **self.config._asdict(), "summary": self.summary}
        del doc["workers"]
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for rec in self.records:
            lines.append(",".join(_cell(rec[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def write(self, out_dir) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        jpath = out / f"{self.config.suite}.json"
        cpath = out / f"{self.config.suite}.csv"
        jpath.write_text(self.json_text(), encoding="ascii")
        cpath.write_text(self.csv_text(), encoding="ascii")
        return jpath, cpath


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Per-suite trial functions (top level so a worker pool can pickle them).
# Each takes (config, trial index, derived seed) and returns only its own
# measurements; _dispatch puts the trial and seed columns in front.
# ---------------------------------------------------------------------------


def _cap(config: ExperimentConfig, default: int, floor: int) -> int:
    if config.max_n is None:
        return default
    return max(floor, min(default, config.max_n))


@functools.lru_cache(maxsize=1)
def _dense_host(n: int, seed: int) -> Graph:
    """The dense-model suite's host graph, shared by every trial of a call.

    Its seed ignores the trial, so a call builds it once, and a worker pool
    once per worker.
    """
    return gnp_random_graph(n, 0.995, seed)


def _trial_dense_model(config: ExperimentConfig, i: int, seed: int) -> dict:
    n = _cap(config, 180, 40)
    G = _dense_host(n, derive_seed(config.seed, 1_000_003))
    model = dense_random_model(G, DenseModelParams(t=4, trials=1, seed=seed))
    success = model is not None
    validated = bool(model is not None and validate_model(G, model))
    min_size = min((len(s) for s in model.branch_sets), default=0) if model else 0
    return {
        "n": n,
        "success": success,
        "validated": validated,
        "min_branch_size": min_size,
    }


def _trial_contraction_round(config: ExperimentConfig, i: int, seed: int) -> dict:
    x_size = 8
    a = _cap(config, math.ceil(10 * x_size * math.log(x_size)), x_size)
    G = complete_bipartite(a, x_size)
    A = frozenset(range(a))
    B = frozenset(range(a, a + x_size))
    H = contraction_round(G, A, B, B, seed=seed)
    return {"a": a, "x_size": x_size, "complete": H.is_complete()}


def _trial_decompose(config: ExperimentConfig, i: int, seed: int) -> dict:
    k = 1 + i % 3
    rng = random.Random(seed)
    hi = _cap(config, 120, 6 * k + 4)
    lo = min(hi, 6 * k + 2)
    n = rng.randint(lo, hi)
    G = random_graph_min_degree(n, 6 * k, seed=seed)
    D = small_coboundary_piece(G, k)
    problems = check_decomposition(G, D)
    return {
        "k": k,
        "n": n,
        "piece_size": len(D.X),
        "coboundary_size": len(D.Y),
        "valid": not problems,
    }


def _colouring_outcome(G, lists, coloring) -> dict:
    """``success``: a colouring came back; ``valid``: it is full and verified."""
    success = coloring is not None
    valid = success and len(coloring) == G.n and verify_list_coloring(G, lists, coloring)
    return {"success": success, "valid": valid}


def _trial_alon(config: ExperimentConfig, i: int, seed: int) -> dict:
    m, r = 4, 3
    G = complete_multipartite([m] * r)
    parts = turan_parts([m] * r)
    size = math.ceil(6 * r * math.log(m))
    lists = uniform_lists(G.n, size)
    coloring = multipartite_list_color(G, parts, lists, trials=1, seed=seed)
    return {"list_size": size, **_colouring_outcome(G, lists, coloring)}


def _disjoint_triangles(count: int):
    edges = []
    for b in range(count):
        edges += [(3 * b, 3 * b + 1), (3 * b + 1, 3 * b + 2), (3 * b, 3 * b + 2)]
    return from_edge_list(3 * count, edges)


def _trial_hallratio(config: ExperimentConfig, i: int, seed: int) -> dict:
    count = _cap(config, 30, 9) // 3
    G = _disjoint_triangles(count)
    lists = uniform_lists(G.n, 3)
    coloring = hall_ratio_list_color(G, lists, rho=3, C=2.0, seed=seed, budget=config.budget)
    return {"n": G.n, **_colouring_outcome(G, lists, coloring)}


def _trial_minorfree(config: ExperimentConfig, i: int, seed: int) -> dict:
    G = petersen_graph()
    lists = uniform_lists(G.n, 12)
    coloring = minor_free_list_color(G, lists, d=6, seed=seed, budget=config.budget)
    return _colouring_outcome(G, lists, coloring)


def _trial_extremal_bipartite(config: ExperimentConfig, i: int, seed: int) -> dict:
    t = 4 if i % 2 == 0 else 5
    side = _cap(config, 30, 2 * t)
    eps = 0.05
    G = lower_bound_bipartite(side, side, t, eps, seed=seed)
    minor_free = find_kt_minor_exact(G, t, budget=config.budget) is None
    target = lower_bound_edge_target(side, side, t, eps)
    return {
        "t": t,
        "side": side,
        "edges": G.m,
        "edge_target": target,
        "minor_free": minor_free,
    }


def _trial_extremal_connectivity(config: ExperimentConfig, i: int, seed: int) -> dict:
    b = _cap(config, 120, 12) // 2
    eps = 0.5
    threshold = math.ceil((1 - eps) * b / 2)
    G = gen_bipartite(BipartiteSpec(b, b, 0.5, seed))
    kappa_ok = connectivity_at_least(G, threshold)
    # k <= t - 2 route of the connectivity construction: K_{a, t-2}
    small = connectivity_extremal(5, 3, seed=derive_seed(seed, 1))
    small_kappa_ok = connectivity_at_least(small, 3)
    small_minor_free = find_kt_minor_exact(small, 5, budget=config.budget) is None
    return {
        "b": b,
        "threshold": threshold,
        "kappa_ok": kappa_ok,
        "small_kappa_ok": small_kappa_ok,
        "small_minor_free": small_minor_free,
    }


def _trial_bounds(config: ExperimentConfig, i: int, seed: int) -> dict:
    t = 3 + i % 8
    report = eval_bounds(
        t,
        beta=0.3,
        delta=0.1,
        eps=0.5,
        a=10 * t,
        b=10 * t,
        k=t,
        n_vertices=20 * t,
    )
    return {"t": t, **{key: report.values[key] for key in sorted(report.values)}}


#: Each suite's trial function. Its record names every column of the report,
#: and the summary gives the rate of each true/false column.
_SUITES = {
    "dense-model": _trial_dense_model,
    "contraction-round": _trial_contraction_round,
    "decompose": _trial_decompose,
    "alon": _trial_alon,
    "hallratio": _trial_hallratio,
    "minorfree": _trial_minorfree,
    "extremal-bipartite": _trial_extremal_bipartite,
    "extremal-connectivity": _trial_extremal_connectivity,
    "bounds": _trial_bounds,
}

SUITES = tuple(_SUITES)


def _dispatch(job: tuple[ExperimentConfig, int]) -> dict:
    config, i = job
    seed = derive_seed(config.seed, i)
    return {"trial": i, "seed": seed, **_SUITES[config.suite](config, i, seed)}


def run_suite(config: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Run every trial of a suite and aggregate a deterministic report.

    ``config.budget`` bounds every exact search the trials run; a search that
    runs out raises :class:`BudgetExceeded` rather than count as a failure.
    """
    jobs = [(config, i) for i in range(config.trials)]
    if config.workers > 1:
        # imported here so that importing the library does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            # one batch of trials per worker, not one round trip per trial
            chunk = math.ceil(config.trials / config.workers)
            records = list(pool.map(_dispatch, jobs, chunksize=chunk))
    else:
        records = [_dispatch(job) for job in jobs]

    columns = tuple(records[0].keys())
    summary: dict = {"records": len(records)}
    for key in columns:
        if all(isinstance(r[key], bool) for r in records):
            summary[f"{key}_rate"] = sum(r[key] for r in records) / len(records)
    report = ExperimentReport(
        config=config, columns=columns, records=tuple(records), summary=summary
    )
    if out_dir is not None:
        report.write(out_dir)
    return report
