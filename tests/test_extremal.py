import math
import random
import tracemalloc

import pytest

import minorlab as ml
from minorlab import extremal
from minorlab.graphs import from_rows
from oracles import place_bipartite_ref


# -- generator ----------------------------------------------------------------


def test_gen_bipartite_extremes():
    assert ml.gen_bipartite(ml.BipartiteSpec(4, 5, 0.0, 1)).m == 0
    G = ml.gen_bipartite(ml.BipartiteSpec(4, 5, 1.0, 1))
    assert G == ml.complete_bipartite(4, 5)


def test_gen_bipartite_no_internal_edges():
    G = ml.gen_bipartite(ml.BipartiteSpec(20, 30, 0.7, 9))
    for u in range(20):
        for v in range(u + 1, 20):
            assert not G.has_edge(u, v)
    for u in range(20, 50):
        for v in range(u + 1, 50):
            assert not G.has_edge(u, v)


def test_gen_bipartite_concentration_and_determinism():
    spec = ml.BipartiteSpec(50, 50, 0.5, 123)
    G = ml.gen_bipartite(spec)
    # Binomial(2500, 1/2): mean 1250, sigma 25; require within 4 sigma
    assert abs(G.m - 1250) <= 100
    assert ml.gen_bipartite(spec) == G


def test_gen_bipartite_matches_edge_list_construction():
    # reference: draws in row-major order into an edge list, then
    # from_edge_list, as the generator was first written
    rng = random.Random(31)
    for _ in range(20):
        spec = ml.BipartiteSpec(
            rng.randint(0, 40), rng.randint(0, 40), rng.choice([0.0, 0.1, 0.5, 0.9, 1.0]),
            rng.getrandbits(32),
        )
        draws = random.Random(spec.seed)
        edges = [
            (i, spec.a + j)
            for i in range(spec.a)
            for j in range(spec.b)
            if draws.random() < spec.p
        ]
        assert ml.gen_bipartite(spec) == ml.from_edge_list(spec.a + spec.b, edges)


def test_gen_bipartite_rejects_bad_probability():
    with pytest.raises(ml.InputError):
        ml.BipartiteSpec(3, 3, 1.5, 0)


def test_gen_bipartite_rejects_non_integer_sides():
    for a, b in ((2.0, 3), (3, 2.5), ("3", 3), (None, 0)):
        with pytest.raises(ml.InputError, match="^[ab] must be an integer, got "):
            ml.BipartiteSpec(a, b, 0.5)


def _lower_bound_p():
    _, x_star = ml.lambda_constant(1e-9)
    return 1.0 - math.exp(-x_star)


def _tie_draws(spec):
    """Draws of `spec` whose top 8 of 53 bits equal those of ceil(p 2^53),
    read from the ``random()`` stream: the ones a top byte cannot settle."""
    top = math.ceil(spec.p * 2.0**53) >> 45
    draw = random.Random(spec.seed).random
    return sum(int(draw() * 2.0**53) >> 45 == top for _ in range(spec.a * spec.b))


def _assert_places_as_ref(spec):
    got = [0] * (spec.a + spec.b)
    extremal._place_bipartite(got, 0, spec.a, spec.a, spec.b, spec.seed, extremal._cut(spec.p))
    want = [0] * (spec.a + spec.b)
    m = place_bipartite_ref(want, 0, spec.a, spec)
    assert (from_rows(got).m, got) == (m, want), spec


def test_bulk_draws_place_the_same_edges_as_one_random_call_per_pair(monkeypatch):
    # p values at the ends of [0, 1], at the smallest and largest steps of
    # random(), just past a power of two, and the lower bound's p, whose
    # threshold's top byte is 183
    assert math.ceil(_lower_bound_p() * 2.0**53) >> 45 == 183
    rng = random.Random(2024)
    ps = [0.0, 1.0, 5e-324, 2.0**-53, 1 - 2.0**-53, 0.5, 0.5 + 2.0**-40, _lower_bound_p()]
    ps += [rng.random() for _ in range(200)]
    ties = 0
    for p in ps:
        for a, b in ((0, 5), (5, 0), (1, 1), (2, 2), (3, 7), (150, 150)):
            spec = ml.BipartiteSpec(a, b, p, rng.getrandbits(64))
            _assert_places_as_ref(spec)
            ties += _tie_draws(spec)
    assert ties >= 50
    # several chunks: of 2, 2 and 1 rows
    for p in ps[:8]:
        _assert_places_as_ref(
            ml.BipartiteSpec(5, extremal._CHUNK_DRAWS // 3 + 1, p, rng.getrandbits(64))
        )
    # chunks cut small: of 3, 3 and 1 rows, and rows longer than a chunk
    monkeypatch.setattr(extremal, "_CHUNK_DRAWS", 64)
    for p in ps[:8]:
        for a, b in ((7, 20), (3, 100)):
            _assert_places_as_ref(ml.BipartiteSpec(a, b, p, rng.getrandbits(64)))


def test_gen_bipartite_memory_stays_bounded_on_a_large_spec():
    spec = ml.BipartiteSpec(1000, 1000, 0.5, 1)
    tracemalloc.start()
    try:
        G = ml.gen_bipartite(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak
    assert abs(G.m - 500_000) <= 2_000  # Binomial(10^6, 1/2): sigma 500


# -- the density constant -------------------------------------------------------


def test_lambda_value_matches_reference():
    lam, _ = ml.lambda_constant(1e-6)
    assert abs(lam - 0.63817) <= 1e-4


def test_lambda_stationarity():
    _, x = ml.lambda_constant(1e-6)
    assert abs(2 * x * math.exp(-x) - (1 - math.exp(-x))) <= 1e-6


def test_lambda_local_maximality():
    lam, x = ml.lambda_constant(1e-6)

    def f(y):
        return (1 - math.exp(-y)) / math.sqrt(y)

    assert f(x) >= f(x - 0.01) and f(x) >= f(x + 0.01)
    assert abs(f(x) - lam) < 1e-9


def test_lambda_requires_positive_tolerance():
    with pytest.raises(ml.InputError):
        ml.lambda_constant(0.0)


def test_lambda_stable_across_tolerances():
    coarse, _ = ml.lambda_constant(1e-6)
    fine, _ = ml.lambda_constant(1e-9)
    assert abs(coarse - fine) <= 1e-5


# -- lower-bound construction ------------------------------------------------------


def test_lower_bound_construction_sanity():
    G = ml.lower_bound_bipartite(40, 40, 5, 0.5, seed=2)
    assert G.n == 80
    target = ml.lower_bound_edge_target(40, 40, 5, 0.5)
    assert G.m >= 0.25 * target


def test_lower_bound_eps_near_one_trivially_exceeds_target():
    G = ml.lower_bound_bipartite(30, 30, 4, 1.0, seed=0)
    assert G.m >= ml.lower_bound_edge_target(30, 30, 4, 1.0) == 0.0


def test_lower_bound_outputs_are_minor_free_small_t():
    for seed in range(5):
        for t in (4, 5):
            G = ml.lower_bound_bipartite(30, 30, t, 0.05, seed=seed)
            assert ml.find_kt_minor_exact(G, t) is None


def lower_bound_edge_list_ref(a, b, t, eps, seed):
    """The construction as first written, with no library sampler: block i
    draws ``random() < p`` from ``random.Random(derive_seed(seed, i))`` in
    row-major order, shifted into place as an edge list, then
    from_edge_list."""
    _, x_star = ml.lambda_constant(1e-9)
    p = 1.0 - math.exp(-x_star)
    k = math.ceil(math.sqrt((1 - eps / 4) * 2 * x_star * a * b / (t * t * math.log(t))))
    a_blk, b_blk = a // k, b // k
    edges = []
    for i in range(k):
        draws = random.Random(ml.derive_seed(seed, i))
        for u in range(a_blk):
            for w in range(b_blk):
                if draws.random() < p:
                    edges.append((i * a_blk + u, a + i * b_blk + w))
    return ml.from_edge_list(a + b, edges)


def test_lower_bound_matches_edge_list_construction():
    shapes = [(12, 12, 5), (30, 30, 4), (40, 40, 5), (60, 60, 6), (25, 47, 5), (80, 33, 3)]
    for a, b, t in shapes:
        for seed in (0, 1, 7, 104729):
            for eps in (0.05, 0.5):
                G = ml.lower_bound_bipartite(a, b, t, eps, seed=seed)
                assert G == lower_bound_edge_list_ref(a, b, t, eps, seed), (a, b, t, seed)


def test_lower_bound_degenerate_split_is_reported():
    # a lopsided shape forces more blocks than the short side can supply
    with pytest.raises(ml.ConstructionError):
        ml.lower_bound_bipartite(3, 13, 3, 0.05, seed=0)


def test_lower_bound_validates_inputs():
    with pytest.raises(ml.InputError):
        ml.lower_bound_bipartite(2, 30, 3, 0.5)
    with pytest.raises(ml.InputError):
        ml.lower_bound_bipartite(30, 30, 2, 0.5)


def test_lower_bound_rejects_non_integer_sides_and_order():
    # as BipartiteSpec does: a float side used to raise a bare TypeError
    # from the adjacency list, and a float t was taken as its integer
    for a, b in ((30.0, 30), (30, 30.0), ("30", 30)):
        with pytest.raises(ml.InputError, match="^[ab] must be an integer, got "):
            ml.lower_bound_bipartite(a, b, 4, 0.05)
    for t in (4.0, "4"):
        with pytest.raises(ml.InputError, match="t must be an integer"):
            ml.lower_bound_bipartite(30, 30, t, 0.05)


# -- connectivity construction -------------------------------------------------------


def test_connectivity_extremal_complete_bipartite_route():
    # k <= t - 2: K_{a, t-2}, which never has a K_t minor
    G = ml.connectivity_extremal(5, 3, seed=0)
    a = math.ceil(25 * math.log(5) / 18)
    assert G == ml.complete_bipartite(a, 3)
    assert ml.find_kt_minor_exact(G, 5) is None
    assert ml.vertex_connectivity(G) >= 3


def test_connectivity_extremal_random_route_shape():
    G = ml.connectivity_extremal(5, 4, seed=1)
    a = math.ceil(25 * math.log(5) / 24)
    assert G.n == a + 12  # b = 3k


def test_connectivity_concentration_at_scale():
    hits = 0
    trials = 30
    for i in range(trials):
        G = ml.gen_bipartite(ml.BipartiteSpec(60, 60, 0.5, ml.derive_seed(5, i)))
        parts = (frozenset(range(60)), frozenset(range(60, 120)))
        if ml.connectivity_at_least(G, 15, parts=parts):
            hits += 1
    assert hits / trials >= 0.95


# -- bound evaluation ------------------------------------------------------------------


def test_density_threshold_value():
    report = ml.eval_bounds(4)
    assert abs(report.values["density_forcing_threshold"] - 15.0714) < 1e-3


def test_dense_condition_trivial_at_q_zero():
    report = ml.eval_bounds(5, q=0.0, l=3)
    assert report.values["dense_condition_lhs"] == 0.0
    assert report.verdicts["dense_condition_holds"]


def test_bipartite_density_rhs_formula():
    report = ml.eval_bounds(3, a=10, b=10, n_vertices=20)
    expected = 6400 * 3 * math.sqrt(math.log(3)) * 10 + 1 * 20
    assert abs(report.values["bipartite_density_rhs"] - expected) < 1e-9


def test_eval_bounds_names_violated_constraint():
    with pytest.raises(ml.InputError, match="beta"):
        ml.eval_bounds(4, beta=0.2)
    with pytest.raises(ml.InputError, match="t must be at least 3"):
        ml.eval_bounds(2)
    with pytest.raises(ml.InputError, match="eps"):
        ml.eval_bounds(4, eps=1.5)


def test_bound_inputs_are_the_keyword_inputs_of_eval_bounds():
    # one row per keyword input, in signature order, so no input goes unchecked
    rows = extremal.BOUND_INPUTS
    assert [row[0] for row in rows] == list(ml.eval_bounds.__kwdefaults__)
    assert {kind for _, kind, *_ in rows} == {int, float}


def test_eval_bounds_pure_function_of_inputs():
    a = ml.eval_bounds(6, beta=0.3, delta=0.2, eps=0.4, a=50, b=60, k=3,
                       n_vertices=110, q=0.01, l=2, p=0.5)
    b = ml.eval_bounds(6, beta=0.3, delta=0.2, eps=0.4, a=50, b=60, k=3,
                       n_vertices=110, q=0.01, l=2, p=0.5)
    assert a.as_dict() == b.as_dict()
