"""What importing minorlab loads, and how its lazily bound names resolve."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import minorlab as ml

SRC = str(Path(ml.__file__).resolve().parent.parent)

#: The package's public names, by the submodule that defines each; pinned
#: here, apart from the package's own table, so that a name dropped from
#: that table fails.
PUBLIC = {
    "errors": "BudgetExceeded ConstructionError HallRatioViolation InputError "
    "InvariantViolation PreconditionError",
    "graphs": "DEFAULT_BUDGET Graph HallViolator biconnected_blocks bipartite_induced bits "
    "components contract contract_with_classes degeneracy density exact_alpha "
    "find_independent_set from_edge_list induced_subgraph induced_subgraph_with_map "
    "mask_of max_independent_set nonedge_fraction quotient saturating_matching set_of",
    "families": "complete_bipartite complete_graph complete_multipartite cycle_graph "
    "empty_graph gnm_random_graph gnp_random_graph path_graph petersen_graph "
    "random_graph_min_degree turan_parts",
    "connectivity": "connectivity_at_least minimum_separation vertex_connectivity",
    "minor": "DenseModelParams MinorModel contraction_round dense_condition_holds "
    "dense_random_model find_kt_minor_exact hadwiger_number k4_minor_free model_defect "
    "validate_model",
    "decompose": "Decomposition check_decomposition coboundary peel_piece "
    "small_coboundary_piece",
    "coloring": "degeneracy_list_color exact_list_color greedy_list_color "
    "hall_ratio_list_color independent_sets_extract minor_free_list_color "
    "multipartite_list_color random_lists split_lists_by_colors uniform_lists "
    "verify_list_coloring",
    "extremal": "BipartiteSpec BoundReport connectivity_extremal eval_bounds gen_bipartite "
    "lambda_constant lower_bound_bipartite lower_bound_edge_target",
    "experiments": "ExperimentConfig ExperimentReport SUITES run_suite",
    "seeds": "derive_seed",
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]
SUBMODULES = sorted(PUBLIC) + ["cli", "formats"]


def run_fresh(code: str) -> str:
    """Stdout of `code` run in a new interpreter that imports minorlab from SRC."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": SRC},
    )
    return out.stdout


def modules_loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter holds after `code` that it did not before."""
    return set(run_fresh(
        "import sys\nbefore = set(sys.modules)\n" + code
        + "\nprint(*sorted(set(sys.modules) - before))\n"
    ).split())


def test_bare_import_loads_no_submodule():
    loaded = modules_loaded_by("import minorlab")
    assert {m for m in loaded if m.startswith("minorlab")} == {"minorlab"}
    assert not loaded & {"json", "heapq", "fractions", "decimal"}


def test_benchmark_setup_loads_only_what_it_calls():
    # perfbench/run.py's SETUP_CODE, less its timer
    loaded = modules_loaded_by(
        "import minorlab\n"
        "from minorlab import connectivity, extremal, families\n"
        "extremal.lower_bound_edge_target(40, 40, 5, 0.05)\n"
        "connectivity.vertex_connectivity(families.cycle_graph(6))\n"
    )
    assert {m for m in loaded if m.startswith("minorlab")} == {
        "minorlab", "minorlab.errors", "minorlab.graphs", "minorlab.seeds",
        "minorlab.families", "minorlab.connectivity", "minorlab.extremal",
    }
    assert not loaded & {"json", "heapq", "fractions", "dataclasses", "inspect"}


def test_coloring_loads_its_module_closure():
    # the Hall level's bulk draws come from families' sampler
    loaded = modules_loaded_by("import minorlab.coloring")
    assert {m for m in loaded if m.startswith("minorlab")} == {
        "minorlab", "minorlab.errors", "minorlab.graphs", "minorlab.seeds",
        "minorlab.families", "minorlab.connectivity", "minorlab.decompose",
        "minorlab.coloring",
    }


def test_import_pulls_in_neither_numpy_nor_scipy():
    # minorlab.cli imports every module; the process pool, and the logging it
    # pulls in, load only when run_suite starts a pool; the records are named
    # tuples, so nothing loads dataclasses
    code = (
        "import sys\n"
        "import minorlab.cli\n"
        "assert minorlab.vertex_connectivity(minorlab.cycle_graph(6)) == 2\n"
        "modules = ('numpy', 'scipy', 'multiprocessing', 'concurrent.futures', 'logging',\n"
        "           'dataclasses')\n"
        "print(sorted(m for m in modules if m in sys.modules))\n"
    )
    assert run_fresh(code).strip() == "[]"


@pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
def test_public_name_is_its_submodules_object(module, name):
    assert getattr(ml, name) is getattr(importlib.import_module(f"minorlab.{module}"), name)


def test_dir_and_star_import_list_every_name_before_it_binds():
    listed = run_fresh(
        "import minorlab\n"
        "print(*dir(minorlab))\n"
        "namespace = {}\n"
        "exec('from minorlab import *', namespace)\n"
        "print(*namespace)\n"
    ).splitlines()
    in_dir, starred = set(listed[0].split()), set(listed[1].split())
    public = {name for _, name in NAMES}
    assert public | set(SUBMODULES) <= in_dir
    assert public <= starred
    assert set(ml.__all__) == public


def test_submodules_resolve_as_attributes():
    code = f"import minorlab\nfor m in {SUBMODULES}: print(getattr(minorlab, m).__name__)"
    names = run_fresh(code)
    assert names.split() == [f"minorlab.{m}" for m in SUBMODULES]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'minorlab' has no attribute 'nope'$"):
        ml.nope
