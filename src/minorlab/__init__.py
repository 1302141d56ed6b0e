"""minorlab: clique-minor search, decomposition, list coloring, and the
random constructions certifying that the associated density and size bounds
are tight at desk scale.

The package is organized around six areas:

- :mod:`minorlab.graphs` - the bitset graph core and classical subroutines
- :mod:`minorlab.connectivity` - vertex connectivity, cuts, and separations
- :mod:`minorlab.minor` - minor models, exact search, randomized builders
- :mod:`minorlab.decompose` - small-coboundary piece extraction
- :mod:`minorlab.coloring` - the list-coloring pipeline
- :mod:`minorlab.extremal` - random bipartite constructions and bound reports

plus :mod:`minorlab.formats`, :mod:`minorlab.experiments`, and the
``minorlab`` command line (:mod:`minorlab.cli`).

Every public name in the table below, and every submodule, binds on first
use (PEP 562): ``minorlab.cycle_graph`` imports :mod:`minorlab.families` and
what it needs, and nothing else.  A bare ``import minorlab`` loads no
submodule; the ``minorlab`` command line imports every module when it starts.
"""

__version__ = "0.1.0"

#: Each submodule with the public names the package re-exports from it.
_EXPORTS = {
    "errors": (
        "BudgetExceeded", "ConstructionError", "HallRatioViolation", "InputError",
        "InvariantViolation", "PreconditionError",
    ),
    "graphs": (
        "DEFAULT_BUDGET", "Graph", "HallViolator", "biconnected_blocks",
        "bipartite_induced", "bits", "components", "contract", "contract_with_classes",
        "degeneracy", "density", "exact_alpha", "find_independent_set", "from_edge_list",
        "induced_subgraph", "induced_subgraph_with_map", "mask_of", "max_independent_set",
        "nonedge_fraction", "quotient", "saturating_matching", "set_of",
    ),
    "families": (
        "complete_bipartite", "complete_graph", "complete_multipartite", "cycle_graph",
        "empty_graph", "gnm_random_graph", "gnp_random_graph", "path_graph",
        "petersen_graph", "random_graph_min_degree", "turan_parts",
    ),
    "connectivity": ("connectivity_at_least", "minimum_separation", "vertex_connectivity"),
    "minor": (
        "DenseModelParams", "MinorModel", "contraction_round", "dense_condition_holds",
        "dense_random_model", "find_kt_minor_exact", "hadwiger_number", "k4_minor_free",
        "model_defect", "validate_model",
    ),
    "decompose": (
        "Decomposition", "check_decomposition", "coboundary", "peel_piece",
        "small_coboundary_piece",
    ),
    "coloring": (
        "degeneracy_list_color", "exact_list_color", "greedy_list_color",
        "hall_ratio_list_color", "independent_sets_extract", "minor_free_list_color",
        "multipartite_list_color", "random_lists", "split_lists_by_colors",
        "uniform_lists", "verify_list_coloring",
    ),
    "extremal": (
        "BipartiteSpec", "BoundReport", "connectivity_extremal", "eval_bounds",
        "gen_bipartite", "lambda_constant", "lower_bound_bipartite",
        "lower_bound_edge_target",
    ),
    "experiments": ("ExperimentConfig", "ExperimentReport", "SUITES", "run_suite"),
    "seeds": ("derive_seed",),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "formats"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the submodule that defines `name` and bind it here.

    A relative ``__import__`` returns the submodule itself, and unlike
    ``importlib.import_module`` it shows in ``python -X importtime``.
    """
    if name in _HOME:
        value = getattr(__import__(_HOME[name], globals(), level=1), name)
    elif name in _SUBMODULES:
        value = __import__(name, globals(), level=1)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBMODULES | set(_HOME))
