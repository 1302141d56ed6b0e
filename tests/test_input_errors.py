"""Each public entry point rejects a malformed argument with its own message."""

import re

import pytest

import minorlab as ml
from minorlab import connectivity, formats

K4 = ml.complete_graph(4)
NULL = ml.empty_graph(0)

CASES = [
    # graphs
    ("from-edge-list-negative-n", lambda: ml.from_edge_list(-1, []),
     ml.InputError, "vertex count must be non-negative, got -1"),
    # a float count is rejected before it reaches a range() or a [0] * n
    ("from-edge-list-float-n", lambda: ml.from_edge_list(3.0, []),
     ml.InputError, "n must be an integer, got 3.0"),
    ("min-degree-null", NULL.min_degree,
     ml.PreconditionError, "min_degree of a null graph is undefined"),
    ("max-degree-null", NULL.max_degree,
     ml.PreconditionError, "max_degree of a null graph is undefined"),
    ("degeneracy-null", lambda: ml.degeneracy(NULL),
     ml.PreconditionError, "degeneracy of the null graph is undefined"),
    ("matching-overlap", lambda: ml.saturating_matching(ml.path_graph(3), [0, 1], [1, 2]),
     ml.InputError, "Y and X must be disjoint"),
    # connectivity
    ("at-least-one-vertex", lambda: ml.connectivity_at_least(ml.empty_graph(1), 1),
     ml.PreconditionError, "vertex connectivity needs at least 2 vertices"),
    ("separation-one-vertex", lambda: ml.minimum_separation(ml.empty_graph(1)),
     ml.PreconditionError, "a separation needs at least 2 vertices"),
    ("separation-below-float-cap",
     lambda: connectivity.separation_below(ml.cycle_graph(6), 2.0),
     ml.InputError, "cap must be an integer, got 2.0"),
    # minor
    ("find-t-zero", lambda: ml.find_kt_minor_exact(K4, 0),
     ml.InputError, "clique order must be at least 1, got 0"),
    ("find-float-t", lambda: ml.find_kt_minor_exact(ml.petersen_graph(), 4.0),
     ml.InputError, "t must be an integer, got 4.0"),
    ("dense-params-t", lambda: ml.DenseModelParams(t=0),
     ml.InputError, "t must be at least 1, got 0"),
    ("dense-params-l", lambda: ml.DenseModelParams(t=2, l=0),
     ml.InputError, "block size must be at least 1, got 0"),
    ("dense-params-trials", lambda: ml.DenseModelParams(t=2, trials=0),
     ml.InputError, "trials must be at least 1, got 0"),
    ("dense-params-float-t", lambda: ml.DenseModelParams(t=4.0),
     ml.InputError, "t must be an integer, got 4.0"),
    ("dense-params-float-l", lambda: ml.DenseModelParams(t=2, l=2.5),
     ml.InputError, "l must be an integer, got 2.5"),
    ("dense-params-float-trials", lambda: ml.DenseModelParams(t=2, trials=2.5),
     ml.InputError, "trials must be an integer, got 2.5"),
    ("dense-params-float-seed", lambda: ml.DenseModelParams(t=2, seed=1.5),
     ml.InputError, "seed must be an integer, got 1.5"),
    ("dense-blocks-do-not-fit",
     lambda: ml.dense_random_model(ml.complete_graph(18), ml.DenseModelParams(t=2, l=2)),
     ml.InputError, "3*t*l = 12 blocks do not fit in the core of 6 vertices"),
    # decompose
    ("piece-null", lambda: ml.small_coboundary_piece(NULL, 1),
     ml.PreconditionError, "the graph must be non-empty"),
    # coloring
    ("extract-size-zero", lambda: ml.independent_sets_extract(K4, 0, 1),
     ml.InputError, "both the set size and the count must be at least 1"),
    ("minor-free-d-5", lambda: ml.minor_free_list_color(K4, ml.uniform_lists(4, 12), d=5),
     ml.InputError, "peel parameter must be at least 6, got 5"),
    ("minor-free-float-d",
     lambda: ml.minor_free_list_color(K4, ml.uniform_lists(4, 12), d=6.0),
     ml.InputError, "peel parameter must be an integer, got 6.0"),
    ("multipartite-float-trials",
     lambda: ml.multipartite_list_color(K4, [{0}, {1}, {2}, {3}], ml.uniform_lists(4, 4),
                                        trials=2.5),
     ml.InputError, "trials must be an integer, got 2.5"),
    ("hall-ratio-float-redraws",
     lambda: ml.hall_ratio_list_color(K4, ml.uniform_lists(4, 8), rho=4, max_redraws=2.5),
     ml.InputError, "max_redraws must be an integer, got 2.5"),
    # a float seed is rejected where every batch derives its trial seeds
    ("derive-seed-float", lambda: ml.derive_seed(1.5, 0),
     ml.InputError, "seed must be an integer, got 1.5"),
    ("multipartite-float-seed",
     lambda: ml.multipartite_list_color(K4, [{0}, {1}, {2}, {3}], ml.uniform_lists(4, 4),
                                        seed=1.5),
     ml.InputError, "seed must be an integer, got 1.5"),
    ("list-count", lambda: ml.exact_list_color(K4, ml.uniform_lists(3, 4)),
     ml.InputError, "expected one color list per vertex (4), got 3"),
    ("uniform-lists-float-n", lambda: ml.uniform_lists(4.0, 3),
     ml.InputError, "n must be an integer, got 4.0"),
    ("uniform-lists-float-k", lambda: ml.uniform_lists(4, 3.0),
     ml.InputError, "k must be an integer, got 3.0"),
    ("random-lists-float-n", lambda: ml.random_lists(4.0, 2, 5, 0),
     ml.InputError, "n must be an integer, got 4.0"),
    ("random-lists-float-size", lambda: ml.random_lists(4, 2.0, 5, 0),
     ml.InputError, "size must be an integer, got 2.0"),
    ("random-lists-float-universe", lambda: ml.random_lists(4, 2, 5.0, 0),
     ml.InputError, "universe must be an integer, got 5.0"),
    # extremal
    ("spec-negative-side", lambda: ml.BipartiteSpec(-1, 2, 0.5),
     ml.InputError, "part sizes must be non-negative"),
    ("lower-bound-eps-zero", lambda: ml.lower_bound_bipartite(10, 10, 3, 0),
     ml.InputError, "eps must be in (0, 1], got 0"),
    ("connectivity-extremal-t", lambda: ml.connectivity_extremal(2, 1),
     ml.InputError, "t must be at least 3, got 2"),
    ("connectivity-extremal-k", lambda: ml.connectivity_extremal(5, 0),
     ml.InputError, "k must be at least 1, got 0"),
    ("bounds-delta-zero", lambda: ml.eval_bounds(5, delta=0),
     ml.InputError, "delta must be positive, got 0"),
    ("bounds-delta-negative", lambda: ml.eval_bounds(5, delta=-0.5),
     ml.InputError, "delta must be positive, got -0.5"),
    ("bounds-q", lambda: ml.eval_bounds(5, q=1.5),
     ml.InputError, "q must lie in [0, 1], got 1.5"),
    ("bounds-p", lambda: ml.eval_bounds(5, p=1.0),
     ml.InputError, "p must lie in (0, 1), got 1.0"),
    ("bounds-l", lambda: ml.eval_bounds(5, l=0),
     ml.InputError, "l must be at least 1, got 0"),
    ("bounds-negative-side", lambda: ml.eval_bounds(5, a=10, b=-1),
     ml.InputError, "part sizes must be non-negative"),
    ("bounds-k", lambda: ml.eval_bounds(5, k=0),
     ml.InputError, "k must be at least 1, got 0"),
    # formats
    ("lists-no-colon", lambda: formats.parse_lists("0: 1 2\n1 3 4\n"),
     ml.InputError, "line 2: expected 'v: c1 c2 ...', got '1 3 4'"),
    ("coloring-three-fields", lambda: formats.parse_coloring("0 1 2\n"),
     ml.InputError, "line 1: expected 'v c', got '0 1 2'"),
    ("coloring-repeated-vertex", lambda: formats.parse_coloring("0 1\n0 2\n"),
     ml.InputError, "line 2: duplicate color for vertex 0"),
    ("decomposition-short-M",
     lambda: formats.parse_decomposition("# decomposition k=2\nX 1\nY 2\nM 2\n"),
     ml.InputError, "line 4: expected 'M y x'"),
    ("decomposition-unknown-section",
     lambda: formats.parse_decomposition("# decomposition k=2\nX 1\nZ 2\n"),
     ml.InputError, "line 3: unknown section 'Z'"),
    ("decomposition-no-k", lambda: formats.parse_decomposition("X 1\nY 2\n"),
     ml.InputError, "decomposition needs a k= header plus X and Y sections"),
    # experiments and families
    ("experiment-budget-zero", lambda: ml.ExperimentConfig(suite="minorfree", budget=0),
     ml.InputError, "budget must be positive"),
    # _replace builds through _make, which checks like the constructor
    ("experiment-replace-float-trials",
     lambda: ml.ExperimentConfig(suite="bounds")._replace(trials=2.5),
     ml.InputError, "trials must be an integer, got 2.5"),
    ("dense-params-replace-t", lambda: ml.DenseModelParams(t=2)._replace(t=0),
     ml.InputError, "t must be at least 1, got 0"),
    ("bipartite-spec-replace-p", lambda: ml.BipartiteSpec(2, 2, 0.5)._replace(p=1.5),
     ml.InputError, "edge probability must be in [0, 1], got 1.5"),
    ("experiment-float-trials", lambda: ml.ExperimentConfig(suite="bounds", trials=2.5),
     ml.InputError, "trials must be an integer, got 2.5"),
    ("experiment-float-seed", lambda: ml.ExperimentConfig(suite="bounds", seed=1.5),
     ml.InputError, "seed must be an integer, got 1.5"),
    ("experiment-float-max-n", lambda: ml.ExperimentConfig(suite="bounds", max_n=40.5),
     ml.InputError, "max_n must be an integer, got 40.5"),
    ("experiment-float-budget", lambda: ml.ExperimentConfig(suite="minorfree", budget=1e6),
     ml.InputError, "budget must be an integer, got 1000000.0"),
    ("experiment-float-workers", lambda: ml.ExperimentConfig(suite="bounds", workers=1.0),
     ml.InputError, "workers must be an integer, got 1.0"),
    ("cycle-of-two", lambda: ml.cycle_graph(2),
     ml.InputError, "a cycle needs at least 3 vertices, got 2"),
    ("gnp-p-above-one", lambda: ml.gnp_random_graph(5, 1.5, 0),
     ml.InputError, "edge probability must be in [0, 1], got 1.5"),
    ("empty-float-n", lambda: ml.empty_graph(3.0),
     ml.InputError, "n must be an integer, got 3.0"),
    ("complete-float-n", lambda: ml.complete_graph(4.0),
     ml.InputError, "n must be an integer, got 4.0"),
    ("path-float-n", lambda: ml.path_graph(4.0),
     ml.InputError, "n must be an integer, got 4.0"),
    ("cycle-float-n", lambda: ml.cycle_graph(5.0),
     ml.InputError, "n must be an integer, got 5.0"),
    ("multipartite-float-part", lambda: ml.complete_multipartite([2, 1.5]),
     ml.InputError, "part sizes must be integers"),
    ("bipartite-float-side", lambda: ml.complete_bipartite(2.0, 3),
     ml.InputError, "part sizes must be integers"),
    ("turan-float-part", lambda: ml.turan_parts([3.0]),
     ml.InputError, "part sizes must be integers"),
    ("gnp-float-n", lambda: ml.gnp_random_graph(5.0, 0.5, 0),
     ml.InputError, "n must be an integer, got 5.0"),
    ("gnm-float-n", lambda: ml.gnm_random_graph(5.0, 3, 0),
     ml.InputError, "n must be an integer, got 5.0"),
    ("gnm-float-m", lambda: ml.gnm_random_graph(5, 3.0, 0),
     ml.InputError, "m must be an integer, got 3.0"),
    ("min-degree-float-n", lambda: ml.random_graph_min_degree(10.0, 2, 0),
     ml.InputError, "n must be an integer, got 10.0"),
]


@pytest.mark.parametrize("call,error,message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_argument_raises_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_integer_valued_float_t_is_rejected_where_the_int_finds_a_model():
    # t = 3.0 took the K_3 branch and returned a model before t was checked
    assert ml.find_kt_minor_exact(ml.petersen_graph(), 3) is not None
    with pytest.raises(ml.InputError, match="t must be an integer, got 3.0"):
        ml.find_kt_minor_exact(ml.petersen_graph(), 3.0)
