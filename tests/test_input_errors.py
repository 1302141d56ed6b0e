"""Each public entry point rejects a malformed argument with an InputError.

Every numeric argument goes through one rule, ``errors.check_inputs``, and
so fails with one message shape: "<name> must be an integer, got <value!r>",
"<name> must be a real number, got <value!r>", "<name> <words>, got <value>"
for a value outside its range, and "<name> must be finite, got <value>" for
NaN, an infinity or an int too large for a float where the range needs a
finite value; <name> is the parameter as the signature spells it.  Vertex
ids, parts and file contents keep their own messages.
"""

import math
import re
from fractions import Fraction

import pytest

import minorlab as ml
from minorlab import connectivity, errors, formats

HUGE = 10**400  # an int too large for a float

K4 = ml.complete_graph(4)
NULL = ml.empty_graph(0)

CASES = [
    # graphs
    ("from-edge-list-negative-n", lambda: ml.from_edge_list(-1, []),
     ml.InputError, "n must be non-negative, got -1"),
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
    # a vertex id that is not an integer fails the range test or the shift
    # with a TypeError, which the check turns into its own message
    ("matching-float-vertex",
     lambda: ml.saturating_matching(ml.path_graph(3), [1.5], [2]),
     ml.InputError, "vertex must be an integer, got 1.5"),
    ("induced-float-vertex", lambda: ml.induced_subgraph(K4, [0.5]),
     ml.InputError, "vertex must be an integer, got 0.5"),
    ("induced-string-vertex", lambda: ml.induced_subgraph(K4, ["1"]),
     ml.InputError, "vertex must be an integer, got '1'"),
    ("induced-int-vertex-set", lambda: ml.induced_subgraph(K4, 2),
     ml.InputError, "vertices must be an iterable of vertex ids, got 2"),
    # a budget or a count that is not an integer is rejected before the
    # independent-set search compares a step count or a size with it
    ("alpha-string-budget", lambda: ml.exact_alpha(K4, budget="x"),
     ml.InputError, "budget must be an integer, got 'x'"),
    ("alpha-float-budget", lambda: ml.exact_alpha(K4, budget=2.5),
     ml.InputError, "budget must be an integer, got 2.5"),
    ("mis-none-budget", lambda: ml.max_independent_set(K4, budget=None),
     ml.InputError, "budget must be an integer, got None"),
    ("find-set-float-size", lambda: ml.find_independent_set(ml.cycle_graph(8), 2.5),
     ml.InputError, "size must be an integer, got 2.5"),
    ("find-set-float-budget", lambda: ml.find_independent_set(ml.cycle_graph(8), 3, 2.5),
     ml.InputError, "budget must be an integer, got 2.5"),
    # connectivity
    ("at-least-one-vertex", lambda: ml.connectivity_at_least(ml.empty_graph(1), 1),
     ml.PreconditionError, "vertex connectivity needs at least 2 vertices"),
    # parts that are not a pair of vertex collections failed with a bare
    # TypeError from unpacking them into the bipartition check
    ("at-least-int-parts",
     lambda: ml.connectivity_at_least(ml.complete_bipartite(3, 3), 2, parts=5),
     ml.InputError, "parts must be a pair of vertex collections, got 5"),
    ("at-least-one-part",
     lambda: ml.connectivity_at_least(ml.complete_bipartite(3, 3), 2, parts=({0, 1, 2},)),
     ml.InputError, "parts must be a pair of vertex collections, got ({0, 1, 2},)"),
    ("separation-one-vertex", lambda: ml.minimum_separation(ml.empty_graph(1)),
     ml.PreconditionError, "a separation needs at least 2 vertices"),
    ("separation-below-float-cap",
     lambda: connectivity.separation_below(ml.cycle_graph(6), 2.0),
     ml.InputError, "cap must be an integer, got 2.0"),
    # minor
    ("contraction-round-none-seed",
     lambda: ml.contraction_round(ml.complete_bipartite(2, 2), {0, 1}, {2, 3}, {2, 3}, None),
     ml.InputError, "seed must be an integer, got None"),
    ("find-t-zero", lambda: ml.find_kt_minor_exact(K4, 0),
     ml.InputError, "t must be at least 1, got 0"),
    ("find-float-t", lambda: ml.find_kt_minor_exact(ml.petersen_graph(), 4.0),
     ml.InputError, "t must be an integer, got 4.0"),
    # a budget that is not an integer is rejected before the search
    # compares its step count with it
    ("find-string-budget", lambda: ml.find_kt_minor_exact(ml.petersen_graph(), 5, budget="10"),
     ml.InputError, "budget must be an integer, got '10'"),
    ("find-none-budget", lambda: ml.find_kt_minor_exact(ml.petersen_graph(), 5, budget=None),
     ml.InputError, "budget must be an integer, got None"),
    ("find-float-budget", lambda: ml.find_kt_minor_exact(ml.petersen_graph(), 5, budget=2.5),
     ml.InputError, "budget must be an integer, got 2.5"),
    ("hadwiger-float-budget", lambda: ml.hadwiger_number(ml.petersen_graph(), budget=2.5),
     ml.InputError, "budget must be an integer, got 2.5"),
    ("hadwiger-none-budget", lambda: ml.hadwiger_number(NULL, budget=None),
     ml.InputError, "budget must be an integer, got None"),
    ("dense-params-t", lambda: ml.DenseModelParams(t=0),
     ml.InputError, "t must be at least 1, got 0"),
    ("dense-params-l", lambda: ml.DenseModelParams(t=2, l=0),
     ml.InputError, "l must be at least 1, got 0"),
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
    # dense_condition_holds takes t and l as DenseModelParams does: a string t
    # raised a bare TypeError and l = 1.5 returned True
    ("dense-condition-string-t", lambda: ml.dense_condition_holds(K4, "x", 2),
     ml.InputError, "t must be an integer, got 'x'"),
    ("dense-condition-float-l", lambda: ml.dense_condition_holds(K4, 2, 1.5),
     ml.InputError, "l must be an integer, got 1.5"),
    ("dense-condition-t-zero", lambda: ml.dense_condition_holds(K4, 0, 2),
     ml.InputError, "t must be at least 1, got 0"),
    ("dense-condition-l-zero", lambda: ml.dense_condition_holds(K4, 2, 0),
     ml.InputError, "l must be at least 1, got 0"),
    # decompose
    ("piece-null", lambda: ml.small_coboundary_piece(NULL, 1),
     ml.PreconditionError, "the graph must be non-empty"),
    ("coboundary-float-vertex", lambda: ml.coboundary(K4, [1.5]),
     ml.InputError, "vertex must be an integer, got 1.5"),
    # a vertex set that is not iterable fails at iter(), before the loop
    ("coboundary-int-vertex-set", lambda: ml.coboundary(ml.path_graph(3), 5),
     ml.InputError, "vertices must be an iterable of vertex ids, got 5"),
    # coloring
    ("extract-size-zero", lambda: ml.independent_sets_extract(K4, 0, 1),
     ml.InputError, "s must be at least 1, got 0"),
    ("extract-float-size", lambda: ml.independent_sets_extract(ml.cycle_graph(8), 2.5, 1),
     ml.InputError, "s must be an integer, got 2.5"),
    ("extract-float-count", lambda: ml.independent_sets_extract(ml.cycle_graph(8), 2, 1.5),
     ml.InputError, "k must be an integer, got 1.5"),
    ("extract-string-budget",
     lambda: ml.independent_sets_extract(ml.cycle_graph(8), 2, 1, budget="x"),
     ml.InputError, "budget must be an integer, got 'x'"),
    ("exact-color-string-budget",
     lambda: ml.exact_list_color(K4, ml.uniform_lists(4, 4), budget="x"),
     ml.InputError, "budget must be an integer, got 'x'"),
    ("hall-ratio-float-budget",
     lambda: ml.hall_ratio_list_color(ml.path_graph(5), ml.uniform_lists(5, 3), 2, budget=2.5),
     ml.InputError, "budget must be an integer, got 2.5"),
    ("minor-free-none-budget",
     lambda: ml.minor_free_list_color(K4, ml.uniform_lists(4, 12), d=6, budget=None),
     ml.InputError, "budget must be an integer, got None"),
    ("greedy-float-order",
     lambda: ml.greedy_list_color(K4, ml.uniform_lists(4, 4), order=[0.5]),
     ml.InputError, "vertex must be an integer, got 0.5"),
    ("minor-free-d-5", lambda: ml.minor_free_list_color(K4, ml.uniform_lists(4, 12), d=5),
     ml.InputError, "d must be at least 6, got 5"),
    ("minor-free-float-d",
     lambda: ml.minor_free_list_color(K4, ml.uniform_lists(4, 12), d=6.0),
     ml.InputError, "d must be an integer, got 6.0"),
    # checked at entry, not where a piece of two or more vertices compares
    # its size with it
    ("minor-free-string-inner-threshold",
     lambda: ml.minor_free_list_color(ml.complete_graph(8), ml.uniform_lists(8, 12), d=6,
                                      inner_threshold="x"),
     ml.InputError, "inner_threshold must be an integer, got 'x'"),
    ("multipartite-float-trials",
     lambda: ml.multipartite_list_color(K4, [{0}, {1}, {2}, {3}], ml.uniform_lists(4, 4),
                                        trials=2.5),
     ml.InputError, "trials must be an integer, got 2.5"),
    # a real parameter that is not a number is rejected at entry, before a
    # comparison or a formula raises a bare TypeError
    ("hall-ratio-string-rho",
     lambda: ml.hall_ratio_list_color(K4, ml.uniform_lists(4, 8), rho="x"),
     ml.InputError, "rho must be a real number, got 'x'"),
    ("hall-ratio-string-C",
     lambda: ml.hall_ratio_list_color(K4, ml.uniform_lists(4, 8), rho=4, C="x"),
     ml.InputError, "C must be a real number, got 'x'"),
    ("minor-free-string-rho",
     lambda: ml.minor_free_list_color(K4, ml.uniform_lists(4, 12), d=6, rho="x"),
     ml.InputError, "rho must be a real number, got 'x'"),
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
    # rejected at entry, though no Hall level of these inputs derives a seed
    ("minor-free-float-seed",
     lambda: ml.minor_free_list_color(ml.complete_graph(8), ml.uniform_lists(8, 12), d=6,
                                      seed=1.5),
     ml.InputError, "seed must be an integer, got 1.5"),
    ("hall-ratio-float-seed",
     lambda: ml.hall_ratio_list_color(ml.path_graph(5), ml.uniform_lists(5, 3), 2, seed=1.5),
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
    # random.Random(None) would seed from the OS, so no seeded generator
    # takes a seed that is not an integer
    ("random-lists-none-seed", lambda: ml.random_lists(6, 2, 5, None),
     ml.InputError, "seed must be an integer, got None"),
    # extremal
    ("spec-negative-side", lambda: ml.BipartiteSpec(-1, 2, 0.5),
     ml.InputError, "a must be non-negative, got -1"),
    ("spec-none-seed", lambda: ml.BipartiteSpec(3, 3, 0.5, None),
     ml.InputError, "seed must be an integer, got None"),
    ("connectivity-extremal-none-seed", lambda: ml.connectivity_extremal(5, 4, None),
     ml.InputError, "seed must be an integer, got None"),
    ("spec-string-p", lambda: ml.BipartiteSpec(3, 3, "x", 0),
     ml.InputError, "p must be a real number, got 'x'"),
    ("lower-bound-string-eps", lambda: ml.lower_bound_bipartite(10, 10, 5, "x"),
     ml.InputError, "eps must be a real number, got 'x'"),
    ("edge-target-string-eps", lambda: ml.lower_bound_edge_target(10, 10, 5, "x"),
     ml.InputError, "eps must be a real number, got 'x'"),
    ("lambda-string-tol", lambda: ml.lambda_constant("x"),
     ml.InputError, "tol must be a real number, got 'x'"),
    # a NaN fails every comparison, so each range check is written to reject
    # it: lambda_constant(nan) returned (0.444, 5.0), far from the maximum
    ("lambda-nan-tol", lambda: ml.lambda_constant(math.nan),
     ml.InputError, "tol must be finite, got nan"),
    # an infinite tolerance stopped the search after no step: (0.444, 5.0)
    ("lambda-inf-tol", lambda: ml.lambda_constant(math.inf),
     ml.InputError, "tol must be finite, got inf"),
    ("bounds-nan-t", lambda: ml.eval_bounds(math.nan),
     ml.InputError, "t must be finite, got nan"),
    ("bounds-nan-delta", lambda: ml.eval_bounds(5, delta=math.nan),
     ml.InputError, "delta must be finite, got nan"),
    ("bounds-string-t", lambda: ml.eval_bounds("5"),
     ml.InputError, "t must be a real number, got '5'"),
    ("bounds-string-beta", lambda: ml.eval_bounds(5, beta="x"),
     ml.InputError, "beta must be a real number, got 'x'"),
    ("bounds-none-c-bipartite", lambda: ml.eval_bounds(5, c_bipartite=None),
     ml.InputError, "c_bipartite must be a real number, got None"),
    ("lower-bound-eps-zero", lambda: ml.lower_bound_bipartite(10, 10, 3, 0),
     ml.InputError, "eps must lie in (0, 1], got 0"),
    ("connectivity-extremal-t", lambda: ml.connectivity_extremal(2, 1),
     ml.InputError, "t must be at least 3, got 2"),
    ("connectivity-extremal-k", lambda: ml.connectivity_extremal(5, 0),
     ml.InputError, "k must be at least 1, got 0"),
    ("connectivity-extremal-float-t", lambda: ml.connectivity_extremal(5.0, 4),
     ml.InputError, "t must be an integer, got 5.0"),
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
     ml.InputError, "b must be non-negative, got -1"),
    ("bounds-k", lambda: ml.eval_bounds(5, k=0),
     ml.InputError, "k must be at least 1, got 0"),
    # every eval_bounds input is checked by its BOUND_INPUTS row, and NaN and
    # infinity fail every row: they used to flow into the report
    ("bounds-nan-n-vertices", lambda: ml.eval_bounds(5, n_vertices=math.nan),
     ml.InputError, "n_vertices must be an integer, got nan"),
    ("bounds-inf-n-vertices", lambda: ml.eval_bounds(5, n_vertices=math.inf),
     ml.InputError, "n_vertices must be an integer, got inf"),
    ("bounds-negative-n-vertices", lambda: ml.eval_bounds(5, n_vertices=-4),
     ml.InputError, "n_vertices must be non-negative, got -4"),
    ("bounds-nan-graph-density", lambda: ml.eval_bounds(5, graph_density=math.nan),
     ml.InputError, "graph_density must be finite, got nan"),
    ("bounds-inf-graph-density", lambda: ml.eval_bounds(5, graph_density=math.inf),
     ml.InputError, "graph_density must be finite, got inf"),
    ("bounds-negative-graph-density", lambda: ml.eval_bounds(5, graph_density=-1.0),
     ml.InputError, "graph_density must be non-negative, got -1.0"),
    ("bounds-nan-c-bipartite", lambda: ml.eval_bounds(5, c_bipartite=math.nan),
     ml.InputError, "c_bipartite must be finite, got nan"),
    ("bounds-inf-c-bipartite", lambda: ml.eval_bounds(5, c_bipartite=math.inf),
     ml.InputError, "c_bipartite must be finite, got inf"),
    ("bounds-negative-c-bipartite", lambda: ml.eval_bounds(5, c_bipartite=-1.0),
     ml.InputError, "c_bipartite must be positive, got -1.0"),
    ("bounds-inf-t", lambda: ml.eval_bounds(math.inf),
     ml.InputError, "t must be finite, got inf"),
    ("bounds-inf-delta", lambda: ml.eval_bounds(5, delta=math.inf),
     ml.InputError, "delta must be finite, got inf"),
    ("bounds-inf-a", lambda: ml.eval_bounds(5, a=math.inf),
     ml.InputError, "a must be an integer, got inf"),
    ("bounds-float-k", lambda: ml.eval_bounds(5, k=2.0),
     ml.InputError, "k must be an integer, got 2.0"),
    ("bounds-float-l", lambda: ml.eval_bounds(5, l=1.5),
     ml.InputError, "l must be an integer, got 1.5"),
    ("bounds-float-n-vertices", lambda: ml.eval_bounds(5, n_vertices=20.0),
     ml.InputError, "n_vertices must be an integer, got 20.0"),
    # an int too large for a float raised a bare OverflowError from a formula
    ("bounds-huge-n-vertices", lambda: ml.eval_bounds(5, n_vertices=HUGE),
     ml.InputError, f"n_vertices must be finite, got {HUGE}"),
    ("bounds-huge-k", lambda: ml.eval_bounds(5, k=HUGE),
     ml.InputError, f"k must be finite, got {HUGE}"),
    ("bounds-huge-sides", lambda: ml.eval_bounds(5, a=HUGE, b=HUGE, n_vertices=HUGE),
     ml.InputError, f"a must be finite, got {HUGE}"),
    ("bounds-huge-c-bipartite", lambda: ml.eval_bounds(5, c_bipartite=HUGE),
     ml.InputError, f"c_bipartite must be finite, got {HUGE}"),
    # lower_bound_edge_target takes the ranges lower_bound_bipartite takes:
    # t = 0 and a = -1 failed with a bare math domain error, eps = 5 returned
    # a negative target and eps = nan a NaN one
    ("edge-target-t-zero", lambda: ml.lower_bound_edge_target(10, 10, 0, 0.5),
     ml.InputError, "t must be at least 3, got 0"),
    ("edge-target-inf-t", lambda: ml.lower_bound_edge_target(10, 10, math.inf, 0.5),
     ml.InputError, "t must be finite, got inf"),
    ("edge-target-negative-a", lambda: ml.lower_bound_edge_target(-1, 10, 5, 0.5),
     ml.InputError, "a must be non-negative, got -1"),
    ("edge-target-inf-b", lambda: ml.lower_bound_edge_target(10, math.inf, 5, 0.5),
     ml.InputError, "b must be finite, got inf"),
    ("edge-target-eps-five", lambda: ml.lower_bound_edge_target(10, 10, 5, 5),
     ml.InputError, "eps must lie in (0, 1], got 5"),
    ("edge-target-nan-eps", lambda: ml.lower_bound_edge_target(10, 10, 5, math.nan),
     ml.InputError, "eps must lie in (0, 1], got nan"),
    ("edge-target-huge-a", lambda: ml.lower_bound_edge_target(HUGE, 10, 5, 0.5),
     ml.InputError, f"a must be finite, got {HUGE}"),
    ("lower-bound-huge-a", lambda: ml.lower_bound_bipartite(HUGE, 10, 5, 0.5),
     ml.InputError, f"a must be finite, got {HUGE}"),
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
     ml.InputError, "budget must be at least 1, got 0"),
    # _replace builds through _make, which checks like the constructor
    ("experiment-replace-float-trials",
     lambda: ml.ExperimentConfig(suite="bounds")._replace(trials=2.5),
     ml.InputError, "trials must be an integer, got 2.5"),
    ("dense-params-replace-t", lambda: ml.DenseModelParams(t=2)._replace(t=0),
     ml.InputError, "t must be at least 1, got 0"),
    ("bipartite-spec-replace-p", lambda: ml.BipartiteSpec(2, 2, 0.5)._replace(p=1.5),
     ml.InputError, "p must lie in [0, 1], got 1.5"),
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
     ml.InputError, "n must be at least 3, got 2"),
    ("gnp-string-p", lambda: ml.gnp_random_graph(5, "x", 0),
     ml.InputError, "p must be a real number, got 'x'"),
    ("min-degree-string-p", lambda: ml.random_graph_min_degree(10, 3, 0, p="x"),
     ml.InputError, "p must be a real number, got 'x'"),
    ("gnp-p-above-one", lambda: ml.gnp_random_graph(5, 1.5, 0),
     ml.InputError, "p must lie in [0, 1], got 1.5"),
    ("empty-float-n", lambda: ml.empty_graph(3.0),
     ml.InputError, "n must be an integer, got 3.0"),
    ("complete-float-n", lambda: ml.complete_graph(4.0),
     ml.InputError, "n must be an integer, got 4.0"),
    ("path-float-n", lambda: ml.path_graph(4.0),
     ml.InputError, "n must be an integer, got 4.0"),
    ("cycle-float-n", lambda: ml.cycle_graph(5.0),
     ml.InputError, "n must be an integer, got 5.0"),
    ("multipartite-float-part", lambda: ml.complete_multipartite([2, 1.5]),
     ml.InputError, "sizes[1] must be an integer, got 1.5"),
    ("bipartite-float-side", lambda: ml.complete_bipartite(2.0, 3),
     ml.InputError, "a must be an integer, got 2.0"),
    ("turan-float-part", lambda: ml.turan_parts([3.0]),
     ml.InputError, "sizes[0] must be an integer, got 3.0"),
    ("gnp-float-n", lambda: ml.gnp_random_graph(5.0, 0.5, 0),
     ml.InputError, "n must be an integer, got 5.0"),
    ("gnm-float-n", lambda: ml.gnm_random_graph(5.0, 3, 0),
     ml.InputError, "n must be an integer, got 5.0"),
    ("gnm-float-m", lambda: ml.gnm_random_graph(5, 3.0, 0),
     ml.InputError, "m must be an integer, got 3.0"),
    ("gnp-none-seed", lambda: ml.gnp_random_graph(6, 0.5, None),
     ml.InputError, "seed must be an integer, got None"),
    ("gnm-none-seed", lambda: ml.gnm_random_graph(6, 5, None),
     ml.InputError, "seed must be an integer, got None"),
    ("min-degree-float-n", lambda: ml.random_graph_min_degree(10.0, 2, 0),
     ml.InputError, "n must be an integer, got 10.0"),
    ("min-degree-float-d", lambda: ml.random_graph_min_degree(10, 2.5, 0),
     ml.InputError, "d must be an integer, got 2.5"),
    # a negative n returned a null graph, or blamed p for a value derived
    # from n and d; a negative d was accepted
    ("gnp-negative-n", lambda: ml.gnp_random_graph(-5, 0.5, 0),
     ml.InputError, "n must be non-negative, got -5"),
    ("min-degree-negative-n", lambda: ml.random_graph_min_degree(-3, -5, 0),
     ml.InputError, "n must be non-negative, got -3"),
    ("min-degree-negative-d", lambda: ml.random_graph_min_degree(10, -1, 0),
     ml.InputError, "d must lie in [0, 10), got -1"),
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


@pytest.mark.parametrize("real", [1, 0.5, Fraction(1, 2)], ids=["int", "float", "Fraction"])
def test_real_parameters_take_int_float_and_fraction(real):
    # the real-number check lets through what a comparison and a formula take
    assert ml.gnp_random_graph(6, real, 0).n == 6
    assert ml.gen_bipartite(ml.BipartiteSpec(3, 3, real, 0)).n == 6
    assert ml.lambda_constant(real * 1e-3)[0] > 0.638
    assert ml.eval_bounds(5, eps=real / 2, a=10, b=10).values["lower_bound_edge_target"] > 0
    assert ml.lower_bound_edge_target(10, 10, 5, real / 2) > 0
    assert ml.hall_ratio_list_color(ml.path_graph(4), ml.uniform_lists(4, 3), 2 * real + 1) is not None


#: Each shared rule of ``errors`` with a value just inside it and one just
#: outside it.
RULES = {
    "AT_LEAST_1": (1, 0),
    "AT_LEAST_6": (6, 5),
    "NON_NEGATIVE": (0, -1),
    "POSITIVE": (5e-324, 0),
    "FINITE_AT_LEAST_1": (1, 0.5),
    "FINITE_AT_LEAST_3": (3, 2.5),
    "FINITE_NON_NEGATIVE": (0, -5e-324),
    "FINITE_POSITIVE": (5e-324, 0.0),
    "UNIT_INTERVAL": (1, 1.0000000000000002),
    "OPEN_UNIT_INTERVAL": (5e-324, 0),
    "HALF_OPEN_UNIT_INTERVAL": (1, 0),
}


def test_the_rule_table_covers_every_shared_rule():
    shared = {name for name, value in vars(errors).items()
              if name.isupper() and isinstance(value, tuple)}
    assert shared == set(RULES)


@pytest.mark.parametrize("name", RULES)
def test_shared_rule_takes_its_boundary_and_rejects_past_it(name):
    _, words, finite = rule = getattr(errors, name)
    inside, outside = RULES[name]
    errors.check_inputs(float, rule, x=inside)
    with pytest.raises(ml.InputError, match=f"^{re.escape(f'x {words}, got {outside}')}$"):
        errors.check_inputs(float, rule, x=outside)
    # NaN fails every rule; a finite rule names finiteness, for the
    # infinities and an int too large for a float too
    for value in (math.nan, math.inf, HUGE) if finite else (math.nan,):
        message = f"x {'must be finite' if finite else words}, got {value}"
        with pytest.raises(ml.InputError, match=f"^{re.escape(message)}$"):
            errors.check_inputs(float, rule, x=value)
