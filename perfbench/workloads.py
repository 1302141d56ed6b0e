"""The four workloads: seeded request mixes, their calls into minorlab, and
the checks on every result.

A workload is a cycle generator plus one executor and one checker per request
kind.  Each cycle is a stratified mix: every cycle holds the same request
templates (kinds and sizes), the seed picks the random content and the order.
A run executes whole cycles, so the share of each template is the same on
every run and seed, and only the random content varies.

Executors call minorlab through module attributes looked up at call time
(``lib.minor.find_kt_minor_exact``), so the traced run's wrappers apply.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import oracle

#: Node budget of every exact minor search on minor-check (about 0.2 s of search).
MINOR_BUDGET = 20_000

#: Trials per run_suite call and size cap on suite-batch.  Timed calls run
#: serially; SUITE_WORKERS is the pool of the report check and of the pooled
#: pass of the per-layer run.
SUITE_TRIALS = 4
SUITE_WORKERS = 2
SUITE_MAX_N = 60

SUITES = (
    "dense-model",
    "contraction-round",
    "decompose",
    "alon",
    "hallratio",
    "minorfree",
    "extremal-bipartite",
    "extremal-connectivity",
    "bounds",
)

OK, HONEST, UNCHECKED, WRONG = "ok", "honest", "unchecked", "wrong"


@dataclass
class Request:
    """One call into the library: what is sent and what is known about it."""

    kind: str
    args: dict
    expect: Any = None  # verdict known by construction; None when unknown
    graph: Any = None  # what the checker needs: (n, edges), or bitmasks
    weight: int = 1  # requests it counts as (trials of a run_suite call)


@dataclass
class Verdict:
    status: str
    honest: int = 0  # honest failures among the request's `weight` units
    message: str = ""


@dataclass
class Workload:
    name: str
    cycle: Callable[[int, int], list[Request]]  # (seed, index) -> one cycle
    execute: dict[str, Callable]  # kind -> timed call into the library
    check: dict[str, Callable]  # kind -> Verdict on the call's result
    #: Busy seconds of one cycle, measured once on a 2-core x86-64 VM.  A run
    #: of ``--seconds`` serves ``round(seconds / cycle_seconds)`` cycles, a
    #: count that does not depend on how fast the host runs that day.
    cycle_seconds: float

    def cycles_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_seconds))


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _graph_request(kind, n, edges, rng, expect=None, **args) -> Request:
    edges = oracle.relabel(n, edges, rng)
    args["text"] = oracle.edge_list_text(n, edges)
    return Request(kind, args, expect, graph=(n, edges))


# ---------------------------------------------------------------------------
# minor-check
# ---------------------------------------------------------------------------


def minor_cycle(seed: int, index: int) -> list[Request]:
    rng = _rng("minor-check", seed, index)
    B = MINOR_BUDGET
    reqs = []
    for n in (20, 24, 28, 32, 36, 40) * 2:
        edges, _ = oracle.planted_clique_minor(n, 5, 0.25, rng)
        reqs.append(_graph_request("find", n, edges, rng, "model", t=5, budget=B))
    for t, sizes in ((5, (6, 8, 10, 12)), (6, (6, 8, 10, 12))):
        for a in sizes:
            edges = oracle.complete_bipartite(a, t - 2)
            reqs.append(_graph_request("find", a + t - 2, edges, rng, "none", t=t, budget=B))
    reqs.append(_graph_request("find", 10, oracle.petersen(), rng, "none", t=6, budget=B))
    reqs.append(_graph_request("hadwiger", 10, oracle.petersen(), rng, 5, budget=B))
    reqs.append(_graph_request("find", 9, oracle.triangulated_grid(3), rng, "none", t=5, budget=B))
    reqs.append(_graph_request("hadwiger", 9, oracle.triangulated_grid(3), rng, 4, budget=B))
    for a in (5, 7):
        edges = oracle.complete_bipartite(a, 3)
        reqs.append(_graph_request("hadwiger", a + 3, edges, rng, 4, budget=B))
    for t in (5, 6):
        for side in (40, 60, 80):
            args = {"side": side, "t": t, "eps": 0.05, "seed": rng.getrandbits(32), "budget": B}
            reqs.append(Request("lower-bound", args))
    for chords in (1, 3):
        edges, _ = oracle.subdivided_k5(chords, rng)
        reqs.append(_graph_request("find", 15, edges, rng, "model", t=5, budget=B))
    rng.shuffle(reqs)
    return reqs


def _find(lib, G, t, budget):
    try:
        model = lib.minor.find_kt_minor_exact(G, t, budget)
    except lib.errors.BudgetExceeded:
        return ("budget",)
    if model is None:
        return ("none",)
    valid = lib.minor.validate_model(G, model)
    return ("model", model.branch_sets, valid, lib.formats.model_to_str(G, model))


def run_find(lib, a):
    G = lib.formats.parse_edge_list(a["text"])
    return _find(lib, G, a["t"], a["budget"])


def run_hadwiger(lib, a):
    G = lib.formats.parse_edge_list(a["text"])
    try:
        return ("h", lib.minor.hadwiger_number(G, a["budget"]))
    except lib.errors.BudgetExceeded:
        return ("budget",)


def run_lower_bound(lib, a):
    G = lib.extremal.lower_bound_bipartite(a["side"], a["side"], a["t"], a["eps"], seed=a["seed"])
    return _find(lib, G, a["t"], a["budget"]) + (G,)


def _check_find(adj, t, expect, out) -> Verdict:
    if out[0] == "budget":
        return Verdict(HONEST, 1)
    if out[0] == "model":
        if expect == "none":
            return Verdict(WRONG, message=f"K_{t} model in a graph built without one")
        problem = oracle.model_problem(adj, out[1], t)
        if problem is None and not (out[2] and "valid=true" in out[3]):
            problem = "the program called its own valid model invalid"
        return Verdict(WRONG, message=problem) if problem else Verdict(OK)
    if expect == "model":
        return Verdict(WRONG, message=f"no K_{t} model found in a graph with a planted one")
    if expect == "none" or oracle.component_edge_bound(adj, t):
        return Verdict(OK)
    return Verdict(UNCHECKED)


def check_find(req, out):
    return _check_find(oracle.adjacency(*req.graph), req.args["t"], req.expect, out)


def check_hadwiger(req, out):
    if out[0] == "budget":
        return Verdict(HONEST, 1)
    if out[1] != req.expect:
        return Verdict(WRONG, message=f"Hadwiger number {out[1]}, expected {req.expect}")
    return Verdict(OK)


def check_lower_bound(req, out):
    G = out[-1]
    side = req.args["side"]
    edges = oracle.edges_of(G)
    if G.n != 2 * side or any(not (u < side <= v) for u, v in edges):
        return Verdict(WRONG, message="lower-bound graph is not bipartite on its two sides")
    return _check_find(oracle.adjacency(G.n, edges), req.args["t"], None, out[:-1])


MINOR_CHECK = Workload(
    "minor-check",
    minor_cycle,
    {"find": run_find, "hadwiger": run_hadwiger, "lower-bound": run_lower_bound},
    {"find": check_find, "hadwiger": check_hadwiger, "lower-bound": check_lower_bound},
    cycle_seconds=2.6,
)


# ---------------------------------------------------------------------------
# decompose-connect
# ---------------------------------------------------------------------------


def _connect_request(rng, b, with_parts, refute) -> Request:
    seed = rng.getrandbits(32)
    adj = oracle.masks(2 * b, oracle.bipartite_sample(b, 0.5, seed))
    if refute:  # kappa <= min degree < k
        k, expect = min(a.bit_count() for a in adj) + 1, False
    else:  # the common-neighbor certificate proves kappa >= k
        k, expect = oracle.bipartite_certificate(adj, b), True
    args = {"b": b, "seed": seed, "k": k, "with_parts": with_parts}
    return Request("connect", args, expect, graph=adj)


def decompose_cycle(seed: int, index: int) -> list[Request]:
    rng = _rng("decompose-connect", seed, index)
    reqs = []
    for c, k in ((3, 1), (5, 1), (8, 1), (3, 2), (6, 2), (4, 3)):
        # sizes spread evenly over 30..40, so only the edges vary with the seed
        sizes = [30 + 10 * i // (c - 1) for i in range(c)]
        rng.shuffle(sizes)
        n, edges = oracle.glued_clusters(sizes, k, rng)
        reqs.append(_graph_request("piece", n, edges, rng, k=k))
    for b in (60, 75, 90, 105, 120, 135, 150) * 2:
        reqs.append(_connect_request(rng, b, with_parts=True, refute=False))
    for b in (60, 90):
        reqs.append(_connect_request(rng, b, with_parts=False, refute=False))
    for b in (75, 105, 135, 150):
        reqs.append(_connect_request(rng, b, with_parts=b % 2 == 1, refute=True))
    rng.shuffle(reqs)
    return reqs


def run_piece(lib, a):
    G = lib.formats.parse_edge_list(a["text"])
    D = lib.decompose.small_coboundary_piece(G, a["k"])
    problems = lib.decompose.check_decomposition(G, D)
    lib.formats.decomposition_to_str(D)
    return D, problems


def run_connect(lib, a):
    b = a["b"]
    G = lib.extremal.gen_bipartite(lib.extremal.BipartiteSpec(b, b, 0.5, a["seed"]))
    parts = (frozenset(range(b)), frozenset(range(b, 2 * b))) if a["with_parts"] else None
    return lib.connectivity.connectivity_at_least(G, a["k"], parts=parts), G


def check_piece(req, out):
    D, problems = out
    if problems:
        return Verdict(WRONG, message=f"check_decomposition reports {problems}")
    problem = oracle.decomposition_problem(
        oracle.adjacency(*req.graph), req.args["k"], D.X, D.Y, D.matching
    )
    return Verdict(WRONG, message=problem) if problem else Verdict(OK)


def check_connect(req, out):
    verdict, G = out
    if list(G.adj) != req.graph:
        return Verdict(WRONG, message="gen_bipartite broke its documented sampling order")
    if verdict != req.expect:
        return Verdict(WRONG, message=f"connectivity >= {req.args['k']} answered {verdict}")
    return Verdict(OK)


DECOMPOSE_CONNECT = Workload(
    "decompose-connect",
    decompose_cycle,
    {"piece": run_piece, "connect": run_connect},
    {"piece": check_piece, "connect": check_connect},
    cycle_seconds=1.85,
)


# ---------------------------------------------------------------------------
# color-pipeline
# ---------------------------------------------------------------------------


def color_cycle(seed: int, index: int) -> list[Request]:
    rng = _rng("color-pipeline", seed, index)
    reqs = []
    for w in (10, 11, 12, 13, 14, 15):
        n = w * w
        lists = oracle.random_lists(n, 12, 16, rng)
        reqs.append(
            _graph_request(
                "minor-free", n, oracle.triangulated_grid(w), rng,
                lists=lists, d=6, seed=rng.getrandbits(32),
            )
        )
    for r, part in ((3, 60), (3, 80), (4, 60)):
        n = r * part
        size = math.ceil(2.0 * r * math.log(n / r) ** 2)
        edges = oracle.random_multipartite([part] * r, 0.5, rng)
        lists = oracle.random_lists(n, size, 2 * size, rng)
        # no relabeling: `lists` and the part blocks refer to these ids
        reqs.append(
            Request(
                "hall",
                {"text": oracle.edge_list_text(n, edges), "lists": lists, "rho": r,
                 "C": 2.0, "seed": rng.getrandbits(32)},
                graph=(n, edges),
            )
        )
    for m, r in ((8, 3), (12, 4), (16, 5), (20, 3), (24, 4), (30, 3)):
        n = m * r
        size = math.ceil(3 * r * math.log(m))
        edges = oracle.random_multipartite([m] * r, 0.7, rng)
        parts = [frozenset(range(i * m, (i + 1) * m)) for i in range(r)]
        lists = oracle.random_lists(n, size, 2 * size, rng)
        reqs.append(
            Request(
                "multipartite",
                {"text": oracle.edge_list_text(n, edges), "parts": parts, "lists": lists,
                 "trials": 8, "seed": rng.getrandbits(32)},
                graph=(n, edges),
            )
        )
    rng.shuffle(reqs)
    return reqs


def _colored(lib, G, lists, coloring):
    if coloring is None:
        return ("none",)
    valid = lib.coloring.verify_list_coloring(G, lists, coloring)
    return ("coloring", coloring, valid, lib.formats.coloring_to_str(coloring))


def run_minor_free(lib, a):
    G = lib.formats.parse_edge_list(a["text"])
    col = lib.coloring.minor_free_list_color(G, a["lists"], d=a["d"], seed=a["seed"])
    return _colored(lib, G, a["lists"], col)


def run_hall(lib, a):
    G = lib.formats.parse_edge_list(a["text"])
    col = lib.coloring.hall_ratio_list_color(G, a["lists"], a["rho"], C=a["C"], seed=a["seed"])
    return _colored(lib, G, a["lists"], col)


def run_multipartite(lib, a):
    G = lib.formats.parse_edge_list(a["text"])
    col = lib.coloring.multipartite_list_color(
        G, a["parts"], a["lists"], trials=a["trials"], seed=a["seed"]
    )
    return _colored(lib, G, a["lists"], col)


def check_coloring(req, out):
    if out[0] == "none":
        return Verdict(HONEST, 1)
    problem = oracle.coloring_problem(oracle.adjacency(*req.graph), req.args["lists"], out[1])
    if problem is None and not out[2]:
        problem = "verify_list_coloring rejected a proper coloring"
    return Verdict(WRONG, message=problem) if problem else Verdict(OK)


COLOR_PIPELINE = Workload(
    "color-pipeline",
    color_cycle,
    {"minor-free": run_minor_free, "hall": run_hall, "multipartite": run_multipartite},
    {"minor-free": check_coloring, "hall": check_coloring, "multipartite": check_coloring},
    cycle_seconds=1.3,
)


# ---------------------------------------------------------------------------
# suite-batch
# ---------------------------------------------------------------------------


def suite_cycle(seed: int, index: int) -> list[Request]:
    batch_seed = _rng("suite-batch", seed, index).getrandbits(32)
    return [
        Request(
            "suite",
            {"suite": s, "trials": SUITE_TRIALS, "seed": batch_seed,
             "max_n": SUITE_MAX_N, "workers": 1},
            weight=SUITE_TRIALS,
        )
        for s in SUITES
    ]


def run_suite(lib, a):
    return lib.experiments.run_suite(lib.experiments.ExperimentConfig(**a))


#: Randomized procedures whose per-trial flag records an honest failure.
_SUCCESS_FLAG = {
    "dense-model": "success",
    "contraction-round": "complete",
    "alon": "success",
    "hallratio": "success",
    "minorfree": "success",
}

#: Per-trial flags that must agree: every success re-validated.
_VALIDATED_FLAG = {
    "dense-model": "validated",
    "alon": "valid",
    "hallratio": "valid",
    "minorfree": "valid",
}


def check_suite(req, report):
    suite = req.args["suite"]
    records = report.records
    if [r["trial"] for r in records] != list(range(req.args["trials"])):
        return Verdict(WRONG, message=f"{suite}: records do not match the trials")
    for r in records:
        if suite in _VALIDATED_FLAG and r[_VALIDATED_FLAG[suite]] != r["success"]:
            return Verdict(WRONG, message=f"{suite}: a success failed re-validation")
        if suite == "decompose" and not r["valid"]:
            return Verdict(WRONG, message="decompose: invalid decomposition")
        # K_{a,3} is 3-connected and has no K_5 minor
        if suite == "extremal-connectivity" and not (r["small_kappa_ok"] and r["small_minor_free"]):
            return Verdict(WRONG, message="extremal-connectivity: wrong verdict on K_{a,3}")
        if suite == "bounds" and not math.isclose(
            r["density_forcing_threshold"], oracle.density_forcing_threshold(r["t"]), rel_tol=1e-12
        ):
            return Verdict(WRONG, message="bounds: density threshold off its formula")
    flag = _SUCCESS_FLAG.get(suite)
    honest = sum(1 for r in records if not r[flag]) if flag else 0
    return Verdict(OK, honest)


SUITE_BATCH = Workload(
    "suite-batch", suite_cycle, {"suite": run_suite}, {"suite": check_suite}, cycle_seconds=0.37
)


WORKLOADS = {w.name: w for w in (MINOR_CHECK, DECOMPOSE_CONNECT, COLOR_PIPELINE, SUITE_BATCH)}
