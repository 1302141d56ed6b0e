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
"""

from .errors import (
    BudgetExceeded,
    ConstructionError,
    HallRatioViolation,
    InputError,
    InvariantViolation,
    PreconditionError,
)
from .graphs import (
    DEFAULT_BUDGET,
    Graph,
    HallViolator,
    biconnected_blocks,
    bipartite_induced,
    bits,
    components,
    contract,
    contract_with_classes,
    degeneracy,
    density,
    exact_alpha,
    find_independent_set,
    from_edge_list,
    induced_subgraph,
    induced_subgraph_with_map,
    mask_of,
    max_independent_set,
    nonedge_fraction,
    quotient,
    saturating_matching,
    set_of,
)
from .families import (
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    gnm_random_graph,
    gnp_random_graph,
    path_graph,
    petersen_graph,
    random_graph_min_degree,
    turan_parts,
)
from .connectivity import (
    connectivity_at_least,
    minimum_separation,
    vertex_connectivity,
)
from .minor import (
    DenseModelParams,
    MinorModel,
    contraction_round,
    dense_condition_holds,
    dense_random_model,
    find_kt_minor_exact,
    hadwiger_number,
    k4_minor_free,
    model_defect,
    validate_model,
)
from .decompose import (
    Decomposition,
    check_decomposition,
    coboundary,
    peel_piece,
    small_coboundary_piece,
)
from .coloring import (
    degeneracy_list_color,
    exact_list_color,
    greedy_list_color,
    hall_ratio_list_color,
    independent_sets_extract,
    minor_free_list_color,
    multipartite_list_color,
    random_lists,
    split_lists_by_colors,
    uniform_lists,
    verify_list_coloring,
)
from .extremal import (
    BipartiteSpec,
    BoundReport,
    connectivity_extremal,
    eval_bounds,
    gen_bipartite,
    lambda_constant,
    lower_bound_bipartite,
    lower_bound_edge_target,
)
from .experiments import ExperimentConfig, ExperimentReport, SUITES, run_suite
from .seeds import derive_seed

__version__ = "0.1.0"
