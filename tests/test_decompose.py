import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minorlab as ml
from minorlab import connectivity, decompose
from minorlab.decompose import _contracted_piece, peel_layers
from oracles import (
    contract_ref,
    degeneracy_ref,
    induced_subgraph_ref,
    peel_layers_ref,
    small_coboundary_piece_ref,
    triangulated_grid,
)
from test_graphs import small_graphs


def two_cliques_bridged(k_size, bridges):
    """Two disjoint K_{k_size} joined by `bridges` disjoint edges."""
    edges = []
    for base in (0, k_size):
        edges += [
            (base + u, base + v)
            for u in range(k_size)
            for v in range(u + 1, k_size)
        ]
    edges += [(i, k_size + i) for i in range(bridges)]
    return ml.from_edge_list(2 * k_size, edges)


def cliques_in_a_row(k_size, count):
    """`count` disjoint K_{k_size}, each joined to the next by one edge."""
    edges = []
    for c in range(count):
        base = c * k_size
        edges += [
            (base + u, base + v)
            for u in range(k_size)
            for v in range(u + 1, k_size)
        ]
        if c:
            edges.append((base - 1, base))
    return ml.from_edge_list(count * k_size, edges)


#: (graph, k) pairs whose whole-graph piece is not k-connected, so the
#: piece loop has to split at least once
MUST_SPLIT = [
    (two_cliques_bridged(13, 1), 2),
    (two_cliques_bridged(19, 2), 3),
    (cliques_in_a_row(13, 3), 2),
    (two_cliques_bridged(7, 0), 1),
]


def embedded(H, extra, seed):
    """H on random ids of a larger graph whose `extra` other vertices are
    pendants on H-vertices; returns the graph and the ids of H's vertices."""
    rng = random.Random(seed)
    n = H.n + extra
    ids = rng.sample(range(n), H.n)
    edges = [(ids[u], ids[v]) for u, v in H.edges()]
    edges += [(w, rng.choice(ids)) for w in sorted(set(range(n)) - set(ids))]
    return ml.from_edge_list(n, edges), ids


# -- coboundary -------------------------------------------------------------


def test_coboundary_of_everything_is_empty():
    G = ml.petersen_graph()
    assert ml.coboundary(G, range(10)) == frozenset()


def test_coboundary_single_vertex_on_cycle():
    assert ml.coboundary(ml.cycle_graph(6), {0}) == frozenset({1, 5})


def test_coboundary_petersen_outer_cycle():
    assert ml.coboundary(ml.petersen_graph(), range(5)) == frozenset(range(5, 10))


# -- small_coboundary_piece --------------------------------------------------


def test_whole_clique_is_its_own_piece():
    for k in (1, 2):
        G = ml.complete_graph(6 * k + 1)
        D = ml.small_coboundary_piece(G, k)
        assert D.X == frozenset(range(6 * k + 1))
        assert D.Y == frozenset()
        assert D.matching == ()
        assert ml.check_decomposition(G, D) == []


def test_bridged_cliques_fixture_invariants():
    # min degree 12 >= 6k for k=2; the checker re-verifies every invariant
    G = two_cliques_bridged(13, 6)
    D = ml.small_coboundary_piece(G, 2)
    assert ml.check_decomposition(G, D) == []
    assert len(D.Y) <= 6


def test_sparse_bridge_forces_descent():
    # a single bridge keeps min degree 12 but kappa = 1 < 2, so the loop
    # must descend into one clique side
    G = two_cliques_bridged(13, 1)
    D = ml.small_coboundary_piece(G, 2)
    assert ml.check_decomposition(G, D) == []
    assert len(D.X) < G.n


def test_low_degree_vertex_is_rejected():
    G = ml.from_edge_list(8, [(0, 1)])
    with pytest.raises(ml.PreconditionError):
        ml.small_coboundary_piece(G, 1)


def test_k_must_be_positive():
    with pytest.raises(ml.InputError):
        ml.small_coboundary_piece(ml.complete_graph(7), 0)


def test_random_forced_degree_pieces_verify():
    for i in range(12):
        k = 1 + i % 3
        n = 30 + 7 * i
        G = ml.random_graph_min_degree(n, 6 * k, seed=4000 + i)
        D = ml.small_coboundary_piece(G, k)
        assert ml.check_decomposition(G, D) == [], (i, k, n)


@pytest.mark.parametrize(
    "G, k",
    MUST_SPLIT
    + [(two_cliques_bridged(13, 6), 2), (ml.complete_graph(13), 2)]
    + [
        (ml.random_graph_min_degree(30 + 7 * i, 6 * (1 + i % 3), seed=4000 + i), 1 + i % 3)
        for i in range(12)
    ],
)
def test_piece_equals_the_two_pass_reference(G, k):
    D = ml.small_coboundary_piece(G, k)
    R = small_coboundary_piece_ref(G, k)
    assert (D.X, D.Y, D.matching) == (R.X, R.Y, R.matching)


def cliques_with_a_hall_violator():
    """Three K_19 on 0-18, 19-37 and 38-56.  The second meets the others
    only at 19 and 20, both joined to 0 and to 38 (and 19 to 39); the third
    meets the first at 38 and 40, through the edges 38-1 and 40-2."""
    edges = [e for base in (0, 19, 38) for e in combinations(range(base, base + 19), 2)]
    joins = [(19, 0), (20, 0), (19, 38), (19, 39), (20, 38), (38, 1), (40, 2)]
    return ml.from_edge_list(57, edges + joins)


def test_the_piece_loop_repairs_a_hall_violator(monkeypatch):
    # k = 3: the first round splits off the second clique at {19, 20} and
    # matches 19-38 and 20-0; the next split keeps the first clique, where
    # 19 and 20 see only 0, so the repair drops 0 from the piece
    violators = []
    match = decompose.saturating_matching

    def recorded(G, Y, X):
        result = match(G, Y, X)
        if isinstance(result, ml.HallViolator):
            violators.append(result.witness)
        return result

    monkeypatch.setattr(decompose, "saturating_matching", recorded)
    G = cliques_with_a_hall_violator()
    D = ml.small_coboundary_piece(G, 3)
    assert violators == [frozenset({19, 20})]
    assert ml.check_decomposition(G, D) == []
    assert (D.X, D.Y) == (frozenset(range(3, 19)) | {1}, frozenset({0, 2, 38}))
    R = small_coboundary_piece_ref(G, 3)
    assert (D.X, D.Y, D.matching) == (R.X, R.Y, R.matching)


@st.composite
def clustered_graphs(draw):
    """(G, k): 2-4 clusters of minimum degree >= 6k, each joined to an
    earlier one through a separator of fewer than k of that one's vertices,
    which it either shares or joins by edges to its own; ids shuffled."""
    k = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(6 * k + 1, 6 * k + 5), min_size=2, max_size=4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    clusters, edges, n = [], [], 0
    for size in sizes:
        cut, shared = [], []
        if clusters:
            cut = rng.sample(rng.choice(clusters), rng.randrange(k))
            if rng.random() < 0.5:
                shared = cut
        fresh = list(range(n, n + size - len(shared)))
        n += len(fresh)
        if not shared:
            for v in cut:
                edges += [(v, u) for u in rng.sample(fresh, rng.randint(1, len(fresh)))]
        # a clique less the edges whose ends keep degree >= 6k without them
        members = shared + fresh
        degree = dict.fromkeys(members, len(members) - 1)
        for u, v in combinations(members, 2):
            if min(degree[u], degree[v]) > 6 * k and rng.random() < 0.3:
                degree[u] -= 1
                degree[v] -= 1
            else:
                edges.append((u, v))
        clusters.append(members)
    ids = rng.sample(range(n), n)
    return ml.from_edge_list(n, [(ids[u], ids[v]) for u, v in edges]), k


@given(clustered_graphs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_pieces_of_clustered_graphs_verify(case):
    G, k = case
    assert G.min_degree() >= 6 * k
    assert ml.check_decomposition(G, ml.small_coboundary_piece(G, k)) == []


@pytest.mark.parametrize("G, k", MUST_SPLIT)
def test_piece_loop_runs_fewer_flows_than_the_two_pass_reference(G, k, monkeypatch):
    calls = [0]
    flow = connectivity.maximum_flow

    def counted(*args):
        calls[0] += 1
        return flow(*args)

    monkeypatch.setattr(connectivity, "maximum_flow", counted)
    D = ml.small_coboundary_piece(G, k)
    ours, calls[0] = calls[0], 0
    small_coboundary_piece_ref(G, k)
    assert len(D.X) < G.n
    assert ours < calls[0]


# -- peel_piece ---------------------------------------------------------------


def test_peel_tree_gives_low_degree_singleton():
    X = ml.peel_piece(ml.path_graph(9), 6)
    assert len(X) == 1


def test_peel_dense_clique_gives_everything():
    X = ml.peel_piece(ml.complete_graph(20), 6)
    assert X == frozenset(range(20))
    assert ml.coboundary(ml.complete_graph(20), X) == frozenset()


def test_peel_regular_graph_coboundary_bound():
    G = ml.random_graph_min_degree(60, 12, seed=77)
    X = ml.peel_piece(G, 12)
    assert ml.coboundary(G, X) == frozenset() or len(ml.coboundary(G, X)) <= 12


def test_peel_requires_d_at_least_six():
    with pytest.raises(ml.InputError):
        ml.peel_piece(ml.complete_graph(8), 5)


def test_peel_coboundary_bound_random_suite():
    for i in range(25):
        G = ml.random_graph_min_degree(20 + 3 * i, 7, seed=5000 + i)
        X = ml.peel_piece(G, 7)
        assert len(ml.coboundary(G, X)) <= 7


@pytest.mark.parametrize(
    "H, d, piece_size",
    [
        (ml.path_graph(9), 6, 1),
        (ml.complete_graph(20), 6, 20),
        (two_cliques_bridged(14, 1), 12, 13),
        (two_cliques_bridged(14, 6), 12, 28),
    ],
)
def test_peel_within_equals_peel_of_induced_copy(H, d, piece_size):
    for seed in range(3):
        G, ids = embedded(H, 7, seed)
        X = ml.peel_piece(G, d, within=ids)
        copy, old_ids = ml.induced_subgraph_with_map(G, ids)
        assert X == frozenset(old_ids[i] for i in ml.peel_piece(copy, d))
        assert len(X) == piece_size
        # the pendants have degree 1 in G, so only `within` keeps them out
        assert len(ml.peel_piece(G, d)) == 1


def dense_peel_cases():
    """Graphs whose least degree exceeds d somewhere in the peel, at each d."""
    graphs = [ml.gen_bipartite(ml.BipartiteSpec(20, 20, 0.5, s)) for s in range(9, 15)]
    graphs.append(ml.random_graph_min_degree(50, 14, seed=77))
    return [(G, d) for G in graphs for d in (6, 7, 12)]


def check_layers(G, d):
    layers = peel_layers_ref(G, d)
    assert list(peel_layers(G, d, G.full_mask)) == [ml.mask_of(layer) for layer in layers]
    remaining = set(range(G.n))
    for layer in layers:
        # each layer is the piece peel_piece takes from what is left
        assert ml.peel_piece(G, d, within=sorted(remaining)) == frozenset(layer)
        remaining -= set(layer)


@given(small_graphs(), st.sampled_from((6, 7, 12)))
@settings(max_examples=60, deadline=None)
def test_peel_layers_match_the_induced_copy_reference_on_small_graphs(G, d):
    check_layers(G, d)


@pytest.mark.parametrize(
    "G, d", [(triangulated_grid(w), 6) for w in (5, 12, 20)] + dense_peel_cases()
)
def test_peel_layers_match_the_induced_copy_reference(G, d):
    check_layers(G, d)


def test_peel_layers_of_a_large_grid_follow_the_scan_order():
    # no degree of the grid exceeds 6, so every layer is one vertex, in the
    # order of the scanning degeneracy reference (the induced-copy reference
    # takes seconds here)
    G = triangulated_grid(40)
    _, order = degeneracy_ref(G)
    assert list(peel_layers(G, 6, G.full_mask)) == [1 << v for v in order]


def test_peel_within_empty_is_rejected():
    with pytest.raises(ml.PreconditionError):
        ml.peel_piece(ml.complete_graph(8), 6, within=[])


@pytest.mark.parametrize("within", [[40], [-1], [0, 30]])
def test_peel_within_ids_out_of_range_are_rejected(within):
    with pytest.raises(ml.InputError):
        ml.peel_piece(ml.cycle_graph(30), 6, within=within)


def test_contracted_piece_equals_induced_then_contract():
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        p = rng.random()
        G = ml.from_edge_list(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        X = frozenset(v for v in range(n) if rng.random() < 0.6)
        free = set(X)
        matching = []
        outside = [v for v in range(n) if v not in X]
        rng.shuffle(outside)
        for y in outside:  # a random matching; Y is what it saturates
            options = sorted(free & set(G.neighbors(y)))
            if options and rng.random() < 0.8:
                x = rng.choice(options)
                free.discard(x)
                matching.append((y, x))
        Y = frozenset(y for y, _ in matching)
        Q, classes = _contracted_piece(G, ml.mask_of(X), matching)
        H, old_ids = induced_subgraph_ref(G, X | Y)
        pos = {v: i for i, v in enumerate(old_ids)}
        ref, ref_classes = contract_ref(H, [(pos[y], pos[x]) for y, x in matching])
        assert (Q.n, Q.adj, Q.m) == (ref.n, ref.adj, ref.m), seed
        assert [ml.set_of(c) for c in classes] == [
            frozenset(old_ids[i] for i in c) for c in ref_classes
        ]


# -- checker ------------------------------------------------------------------


def test_checker_flags_wrong_coboundary():
    G = ml.complete_graph(13)
    good = ml.small_coboundary_piece(G, 2)
    bad = ml.Decomposition(
        X=good.X - {0}, Y=good.Y, matching=good.matching, k=good.k
    )
    assert "coboundary-mismatch" in ml.check_decomposition(G, bad)


def test_checker_flags_unsaturated_matching():
    G = two_cliques_bridged(13, 1)
    D = ml.small_coboundary_piece(G, 2)
    assert D.matching  # the descent fixture has a non-trivial matching
    bad = ml.Decomposition(X=D.X, Y=D.Y, matching=(), k=D.k)
    assert "matching-does-not-saturate" in ml.check_decomposition(G, bad)


def _broken(G, X, Y, matching, k, verdict):
    D = ml.Decomposition(frozenset(X), frozenset(Y), tuple(matching), k)
    return pytest.param(G, D, verdict, id=verdict.split(":")[0])


_K8 = ml.complete_graph(8)


@pytest.mark.parametrize(
    "G, D, verdict",
    [
        _broken(_K8, (), (), (), 1, "piece-empty"),
        _broken(_K8, range(4), range(4, 8), [(4, 0), (5, 1), (6, 2), (7, 3)], 1, "coboundary-too-big:4>3"),
        _broken(_K8, range(6), (6, 7), [(6, 0), (7, 0)], 1, "matching-reuses-piece-vertex"),
        _broken(
            ml.from_edge_list(8, [e for e in _K8.edges() if e != (0, 6)]),
            range(6), (6, 7), [(6, 0), (7, 1)], 1, "matching-pair-not-an-edge:6-0",
        ),
        _broken(two_cliques_bridged(13, 1), range(26), (), (), 2, "contracted-piece-connectivity:1<2"),
        _broken(ml.complete_graph(2), (0,), (1,), [(1, 0)], 1, "contracted-piece-trivial"),
    ],
)
def test_checker_names_each_broken_invariant(G, D, verdict):
    assert ml.check_decomposition(G, D) == [verdict]


def test_non_integer_k_and_d_are_input_errors():
    with pytest.raises(ml.InputError):
        ml.small_coboundary_piece(ml.complete_graph(8), 1.0)
    with pytest.raises(ml.InputError):
        ml.peel_piece(ml.complete_graph(8), 6.0)
