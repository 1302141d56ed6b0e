"""Command-line harness binding the library together.

Subcommands: generate, check, color, decompose, bounds, experiment.
Exit codes: 0 success, 1 negative verdict (a requested find failed),
2 input error or broken Hall ratio promise, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .coloring import (
    degeneracy_list_color,
    exact_list_color,
    hall_ratio_list_color,
    minor_free_list_color,
    multipartite_list_color,
    uniform_lists,
    verify_list_coloring,
)
from .connectivity import vertex_connectivity
from .decompose import check_decomposition, small_coboundary_piece
from .errors import (
    BudgetExceeded,
    ConstructionError,
    HallRatioViolation,
    InputError,
    InvariantViolation,
    PreconditionError,
)
from .experiments import ExperimentConfig, run_suite
from .extremal import (
    BOUND_INPUTS,
    BipartiteSpec,
    connectivity_extremal,
    eval_bounds,
    gen_bipartite,
    lower_bound_bipartite,
)
from .formats import (
    coloring_to_str,
    decomposition_to_str,
    edge_list_to_str,
    model_to_str,
    parse_lists,
    read_edge_list,
    read_text,
)
from .graphs import DEFAULT_BUDGET, degeneracy, density, exact_alpha, set_of
from .minor import find_kt_minor_exact, hadwiger_number

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def _cmd_generate(args) -> int:
    if args.construction == "bipartite":
        G = gen_bipartite(BipartiteSpec(args.a, args.b, args.p, args.seed))
    elif args.construction == "lower-bound":
        G = lower_bound_bipartite(args.a, args.b, args.t, args.eps, args.seed)
    else:  # connectivity
        G = connectivity_extremal(args.t, args.k, args.seed)
    _write_output(edge_list_to_str(G), args.out)
    return EXIT_OK


def _cmd_check(args) -> int:
    G = read_edge_list(args.path)
    fields: dict = {"n": G.n, "m": G.m}
    fields["density"] = str(density(G)) if G.n else "undefined"
    if G.n:
        fields["degeneracy"] = degeneracy(G)[0]
    if G.n >= 2:
        fields["kappa"] = vertex_connectivity(G)

    alpha = None
    try:
        alpha = exact_alpha(G, budget=args.budget)
        fields["alpha"] = alpha
    except BudgetExceeded:
        fields["alpha"] = "unknown"

    code = EXIT_OK
    model = None
    verdict_key = f"k{args.t}_minor"
    try:
        model = find_kt_minor_exact(G, args.t, budget=args.budget)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        fields[verdict_key] = "BudgetExceeded"
        code = EXIT_BUDGET
    else:
        if model is not None:
            fields[verdict_key] = "Found"
        else:
            fields[verdict_key] = "NotFound"
            code = EXIT_NEGATIVE
            if alpha is not None and G.n and args.t >= 2:
                ok = alpha >= G.n / (2 * (args.t - 1))
                fields["independence_bound_ok"] = "true" if ok else "false"
    try:
        fields["hadwiger"] = hadwiger_number(G, budget=args.budget)
    except BudgetExceeded:
        fields["hadwiger"] = "unknown"

    if args.format == "json":
        doc = dict(fields)
        if model is not None:
            doc["model"] = [sorted(s) for s in model.branch_sets]
        print(json.dumps(doc, sort_keys=True))
    else:
        print("\n".join(f"{k}={v}" for k, v in fields.items()))
        if model is not None:
            sys.stdout.write(model_to_str(G, model))
    return code


def _first_fit_parts(G):
    """Deterministic partition into independent sets, first fit by vertex id."""
    parts: list[int] = []  # one vertex mask per part
    for v in range(G.n):
        for i, part in enumerate(parts):
            if not G.adj[v] & part:
                parts[i] |= 1 << v
                break
        else:
            parts.append(1 << v)
    return [set_of(part) for part in parts]


def _cmd_color(args) -> int:
    G = read_edge_list(args.path)
    if args.lists is not None:
        lists = parse_lists(read_text(args.lists), n=G.n)
    elif args.list_size is not None:
        lists = uniform_lists(G.n, args.list_size)
    else:
        raise InputError("provide either --lists FILE or --list-size K")

    if args.strategy == "degeneracy":
        coloring = degeneracy_list_color(G, lists)
    elif args.strategy == "exact":
        coloring = exact_list_color(G, lists, budget=args.budget)
    elif args.strategy == "multipartite":
        coloring = multipartite_list_color(
            G, _first_fit_parts(G), lists, trials=args.trials, seed=args.seed
        )
    elif args.strategy == "hallratio":
        rho = args.rho if args.rho is not None else float(max(3, G.n))
        coloring = hall_ratio_list_color(
            G, lists, rho, C=args.C, seed=args.seed, trials=args.trials,
            budget=args.budget,
        )
    else:  # minorfree
        coloring = minor_free_list_color(
            G, lists, d=args.d, seed=args.seed, rho=args.rho,
            trials=args.trials, budget=args.budget,
        )

    if coloring is None:
        print("Failure", file=sys.stderr)
        return EXIT_NEGATIVE
    if not verify_list_coloring(G, lists, coloring) or len(coloring) != G.n:
        raise InvariantViolation("produced coloring failed verification")
    _write_output(coloring_to_str(coloring), args.out)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    G = read_edge_list(args.path)
    D = small_coboundary_piece(G, args.k)
    problems = check_decomposition(G, D)
    if problems:
        raise InvariantViolation(f"decomposition failed re-verification: {problems}")
    _write_output(decomposition_to_str(D), args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    given = {name: getattr(args, name) for name, *_ in BOUND_INPUTS}
    report = eval_bounds(args.t, **{name: v for name, v in given.items() if v is not None})
    if args.format == "text":
        lines = [f"{k}={v}" for k, v in sorted(report.values.items())]
        lines += [f"{k}={'true' if v else 'false'}"
                  for k, v in sorted(report.verdicts.items())]
        _write_output("\n".join(lines) + "\n", args.out)
    else:
        doc = {"schema": 1, **report.as_dict()}
        _write_output(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    config = ExperimentConfig._make(getattr(args, name) for name in ExperimentConfig._fields)
    report = run_suite(config, out_dir=args.out_dir)
    sys.stdout.write(report.json_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minorlab",
        description="Graph-minor search, decomposition, list coloring, and "
        "extremal construction experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a constructed graph as an edge list")
    p.add_argument("--construction", choices=("bipartite", "lower-bound", "connectivity"),
                   default="bipartite")
    p.add_argument("--a", type=int, default=30)
    p.add_argument("--b", type=int, default=30)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("check", help="report invariants and a K_t-minor verdict")
    p.add_argument("path")
    p.add_argument("--t", type=int, default=5)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("color", help="list-color a graph")
    p.add_argument("path")
    p.add_argument("--strategy",
                   choices=("degeneracy", "multipartite", "hallratio", "minorfree", "exact"),
                   default="degeneracy")
    p.add_argument("--lists", default=None, help="list assignment file")
    p.add_argument("--list-size", type=int, default=None,
                   help="use the uniform lists {0..K-1} instead of a file")
    p.add_argument("--d", type=int, default=6)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--C", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("decompose", help="extract a small-coboundary piece")
    p.add_argument("path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("bounds", help="evaluate the closed-form bounds as JSON or key=value text")
    p.add_argument("--t", type=int, required=True)
    for name, kind, *_ in BOUND_INPUTS:  # an option not given takes eval_bounds' default
        p.add_argument("--" + name.replace("_", "-"), type=kind, default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="run a seeded experiment suite")
    defaults = ExperimentConfig._field_defaults
    for name in ExperimentConfig._fields:  # --suite, then one int option per field
        p.add_argument("--" + name.replace("_", "-"), required=name not in defaults,
                       type=int if name in defaults else str, default=defaults.get(name))
    p.add_argument("--out-dir", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, PreconditionError, ConstructionError, HallRatioViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
