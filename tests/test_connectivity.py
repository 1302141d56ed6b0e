import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minorlab as ml
from minorlab import connectivity
from minorlab.connectivity import maximum_flow, separation_below
from minorlab.graphs import set_of
from oracles import (
    connectivity_at_least_ref,
    covering_pairs,
    kappa_brute,
    separation_below_ref,
    split_flow,
    two_colourings_brute,
)


def test_kappa_complete():
    assert ml.vertex_connectivity(ml.complete_graph(5)) == 4


def test_kappa_cycle():
    assert ml.vertex_connectivity(ml.cycle_graph(6)) == 2


def test_kappa_petersen():
    assert ml.vertex_connectivity(ml.petersen_graph()) == 3


def test_kappa_petersen_brute_force_cuts():
    # no cut of size <= 2 disconnects, some cut of size 3 does
    assert kappa_brute(ml.petersen_graph()) == 3


def test_kappa_needs_two_vertices():
    with pytest.raises(ml.PreconditionError):
        ml.vertex_connectivity(ml.empty_graph(1))


def test_kappa_disconnected_is_zero():
    G = ml.from_edge_list(4, [(0, 1), (2, 3)])
    assert ml.vertex_connectivity(G) == 0


def test_kappa_complete_bipartite():
    assert ml.vertex_connectivity(ml.complete_bipartite(3, 5)) == 3


def test_kappa_random_cross_check():
    for i in range(120):
        n = 2 + i % 7
        p = (0.2, 0.4, 0.6, 0.8)[i % 4]
        G = ml.gnp_random_graph(n, p, seed=700 + i)
        assert ml.vertex_connectivity(G) == kappa_brute(G), (n, p, i)


def test_minimum_separation_properties():
    for i in range(60):
        n = 4 + i % 5
        G = ml.gnp_random_graph(n, 0.5, seed=900 + i)
        if G.is_complete():
            continue
        A, B = ml.minimum_separation(G)
        kappa = ml.vertex_connectivity(G)
        assert A | B == set(range(G.n))
        assert len(A & B) == kappa
        assert A - B and B - A
        for u in A - B:
            for v in B - A:
                assert not G.has_edge(u, v)


def test_minimum_separation_rejects_complete():
    with pytest.raises(ml.InputError):
        ml.minimum_separation(ml.complete_graph(4))


def test_separation_below_matches_brute_force_and_minimum_separation():
    for i in range(180):
        n = 4 + i % 9
        G = ml.gnp_random_graph(n, (0.2, 0.4, 0.6, 0.8, 0.9)[i % 5], seed=3100 + i)
        kappa = kappa_brute(G)
        for k in range(1, n + 2):
            found = separation_below(G, k)
            if kappa >= k or G.is_complete():  # a complete graph has no pairs
                assert found is None, (i, k)
                continue
            order, A, B = found
            assert order == kappa, (i, k)
            assert (set_of(A), set_of(B)) == ml.minimum_separation(G), (i, k)


def test_connectivity_at_least_matches_exact():
    for i in range(40):
        G = ml.gnp_random_graph(7, 0.5, seed=1500 + i)
        kappa = ml.vertex_connectivity(G)
        for k in range(1, 7):
            assert ml.connectivity_at_least(G, k) == (kappa >= k)


def test_connectivity_certificate_bipartite():
    G = ml.gen_bipartite(ml.BipartiteSpec(40, 40, 0.5, 3))
    parts = (frozenset(range(40)), frozenset(range(40, 80)))
    want = ml.vertex_connectivity(G)
    assert ml.connectivity_at_least(G, want, parts=parts)
    assert not ml.connectivity_at_least(G, want + 1, parts=parts)


def _common(G, x, y):
    return len(set(G.neighbors(x)) & set(G.neighbors(y)))


def _circulant_commons(G, parts, k):
    """The common-neighbour counts of the pairs the certificate checks:
    (x_i, x_{(i+j) mod s}) for 1 <= j <= ceil(k/2), on each side in
    ascending id order."""
    out = []
    for side in parts:
        xs = sorted(side)
        for i, x in enumerate(xs):
            for j in range(1, (k + 1) // 2 + 1):
                out.append(_common(G, x, xs[(i + j) % len(xs)]))
    return out


def test_bipartite_certificate_holds_when_every_same_side_pair_shares_over_half_k():
    # the certificate checks the pairs of a circulant on each side, a subset
    # of the same-side pairs, so the all-pairs rule implies it; a True
    # verdict at k <= delta must still mean kappa >= k
    boundary = 0
    for seed in range(40):
        rng = random.Random(seed)
        a, b = rng.randint(2, 12), rng.randint(2, 12)
        G = ml.gen_bipartite(ml.BipartiteSpec(a, b, rng.choice((0.5, 0.7, 0.9)), seed))
        parts = (frozenset(range(a)), frozenset(range(a, a + b)))
        sides = tuple(map(ml.mask_of, parts))
        common = [_common(G, x, y) for side in parts for x in side for y in side if x < y]
        delta = G.min_degree()
        for k in range(a + b + 1):
            want = all(2 * c > k for c in common)
            checked = _circulant_commons(G, parts, k)
            circulant = all(2 * c > k for c in checked)
            assert connectivity._bipartite_certificate(G, sides, k) == circulant, (seed, k)
            assert connectivity._bipartite_certificate(G, sides[::-1], k) == circulant, (seed, k)
            assert circulant or not want, (seed, k)
            if circulant and k <= delta:
                assert connectivity_at_least_ref(G, k), (seed, k)
            boundary += bool(checked) and 2 * min(checked) == k
    assert boundary >= 10


def test_bipartite_certificate_is_sound_on_relabelled_unequal_sides():
    # sides of unequal size whose ids interleave, so the ascending order of
    # a side is not its order in the generator
    certified = beyond_all_pairs = 0
    for seed in range(240):
        rng = random.Random(seed)
        a, b = rng.randint(2, 14), rng.randint(2, 14)
        p = rng.choice((0.5, 0.7, 0.8, 0.9, 0.95))
        H = ml.gen_bipartite(ml.BipartiteSpec(a, b, p, seed))
        perm = list(range(a + b))
        rng.shuffle(perm)
        G = ml.from_edge_list(a + b, [(perm[u], perm[v]) for u, v in H.edges()])
        parts = (frozenset(perm[:a]), frozenset(perm[a:]))
        sides = tuple(map(ml.mask_of, parts))
        common = [_common(G, x, y) for side in parts for x in side for y in side if x < y]
        for k in range(1, G.min_degree() + 1):
            if connectivity._bipartite_certificate(G, sides, k):
                assert connectivity_at_least_ref(G, k), (seed, k)
                certified += 1
                beyond_all_pairs += not all(2 * c > k for c in common)
        if a + b <= 12:
            kappa = kappa_brute(G)
            for k in range(a + b + 1):
                got = ml.connectivity_at_least(G, k, parts=parts)
                assert got == (kappa >= k), (seed, k)
    assert certified >= 200 and beyond_all_pairs >= 10, (certified, beyond_all_pairs)


def test_certificate_on_split_that_is_not_independent_matches_brute_force():
    # the certificate proves nothing when a side holds an edge, so such a
    # split must leave the verdict to the flows
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randint(4, 9)
        G = ml.gnp_random_graph(n, rng.choice((0.5, 0.7, 0.9)), seed=seed)
        A = frozenset(v for v in range(n) if rng.random() < 0.5)
        B = frozenset(range(n)) - A
        if not any((u in A) == (v in A) for u, v in G.edges()):
            continue  # independent split
        kappa = kappa_brute(G)
        for k in range(n + 1):
            assert ml.connectivity_at_least(G, k, parts=(A, B)) == (kappa >= k), (seed, k)


# -- queries with no parts: the certificate finds the sides itself -----------


def _relabelled(H, rng):
    perm = list(range(H.n))
    rng.shuffle(perm)
    return ml.from_edge_list(H.n, [(perm[u], perm[v]) for u, v in H.edges()])


def _unlabelled_graph(i):
    """The i-th graph of the no-parts sweep: bipartite graphs whose sides
    interleave, disconnected bipartite graphs (two K_{3,3} have delta = 3
    and kappa = 0), even and odd cycles, K_{a,b}, dense bipartite graphs
    with an edge added inside a side, and random graphs that are mostly not
    bipartite."""
    rng = random.Random(4400 + i)
    kind = i % 7
    if kind == 0:
        a, b = rng.randint(1, 7), rng.randint(1, 7)
        H = ml.gen_bipartite(ml.BipartiteSpec(a, b, rng.choice((0.5, 0.7, 0.9)), i))
        return _relabelled(H, rng)
    if kind == 1:
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        H = _disjoint_union(ml.complete_bipartite(a, b), ml.complete_bipartite(b, a))
        return _relabelled(H, rng) if rng.random() < 0.5 else H
    if kind == 2:
        return ml.cycle_graph(rng.randint(3, 13))
    if kind == 3:
        return _relabelled(ml.complete_bipartite(rng.randint(1, 6), rng.randint(1, 6)), rng)
    if kind == 4:
        return _disjoint_union(ml.cycle_graph(rng.randint(3, 6)), ml.cycle_graph(rng.randint(3, 6)))
    if kind == 5:
        a, b = rng.randint(3, 7), rng.randint(3, 7)
        H = ml.gen_bipartite(ml.BipartiteSpec(a, b, rng.choice((0.7, 0.9, 1.0)), i))
        x, y = rng.sample(range(a), 2)
        return _relabelled(ml.from_edge_list(a + b, H.edges() + [(x, y)]), rng)
    return ml.gnp_random_graph(rng.randint(2, 12), rng.choice((0.2, 0.4, 0.6)), seed=i)


def test_colour_classes_match_brute_force_two_colourings():
    odd = 0
    for i in range(350):
        G = _unlabelled_graph(i)
        found = connectivity._colour_classes(G)
        colourings = two_colourings_brute(G)
        # None exactly on an odd cycle, else two independent masks covering V
        assert (found is None) == (not colourings), i
        assert found is None or found in colourings, i
        odd += found is None
    assert 100 <= odd <= 250, odd


def test_connectivity_without_parts_matches_pair_coverage():
    bipartite = 0
    for i in range(350):
        G = _unlabelled_graph(i)
        if G.n < 2:
            continue
        rng = random.Random(i)
        A = frozenset(v for v in range(G.n) if rng.random() < 0.5)
        not_bipartition = (A, frozenset(range(G.n)) - A)
        bipartite += connectivity._colour_classes(G) is not None
        for k in range(G.n + 1):
            want = connectivity_at_least_ref(G, k)
            assert ml.connectivity_at_least(G, k) == want, (i, k)
            assert ml.connectivity_at_least(G, k, parts=not_bipartition) == want, (i, k)
    assert bipartite >= 150, bipartite
    # two disjoint K_{3,3}: every degree is 3 but the graph is disconnected
    G = _disjoint_union(ml.complete_bipartite(3, 3), ml.complete_bipartite(3, 3))
    assert [ml.connectivity_at_least(G, k) for k in range(5)] == [True, False, False, False, False]


@pytest.mark.parametrize("b, seed, k", [(30, 7, 3), (60, 3, 11), (90, 7, 23)])
def test_interleaved_sides_take_the_certificate_without_parts(b, seed, k, monkeypatch):
    G = _relabelled(ml.gen_bipartite(ml.BipartiteSpec(b, b, 0.5, seed)), random.Random(seed))
    growth = []
    monkeypatch.setattr(connectivity, "_at_least", lambda *args: growth.append(args))
    assert ml.connectivity_at_least(G, k) and not growth
    assert connectivity_at_least_ref(G, k)


# -- the growth test against pair coverage ---------------------------------


def _glued_clusters(rng):
    """Two random dense clusters joined through a set of k - 1 glue
    vertices, each adjacent to every cluster vertex: kappa <= k - 1."""
    k = rng.randint(1, 4)
    a, b = rng.randint(2, 6), rng.randint(2, 6)
    glue = range(a + b, a + b + k - 1)
    edges = [
        (u, v) for lo, hi in ((0, a), (a, a + b))
        for u in range(lo, hi) for v in range(u + 1, hi) if rng.random() < 0.8
    ]
    edges += [(u, g) for g in glue for u in range(a + b)]
    edges += [(g, h) for g in glue for h in glue if g < h and rng.random() < 0.5]
    return ml.from_edge_list(a + b + k - 1, edges)


def _ladder(m):
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + u, m + v) for u, v in edges] + [(i, m + i) for i in range(m)]
    return ml.from_edge_list(2 * m, edges)


def _disjoint_union(G, H):
    edges = G.edges() + [(G.n + u, G.n + v) for u, v in H.edges()]
    return ml.from_edge_list(G.n + H.n, edges)


def _differential_graph(i):
    """The i-th seeded graph of the growth-test sweep, and the sides of a
    bipartition when the graph has one, else a random split."""
    rng = random.Random(9100 + i)
    kind = i % 8
    if kind == 0 or kind == 1:
        G = ml.gnp_random_graph(rng.randint(2, 16), rng.choice((0.3, 0.5, 0.7, 0.9)), seed=i)
    elif kind == 2:
        G = _glued_clusters(rng)
    elif kind == 3:
        n = rng.randint(4, 16)
        G = ml.random_graph_min_degree(n, rng.randint(1, min(8, n - 1)), seed=i)
    elif kind == 4:
        b = rng.randint(2, 8)
        G = ml.gen_bipartite(ml.BipartiteSpec(b, b, rng.choice((0.5, 0.7, 0.9)), i))
        return G, (frozenset(range(b)), frozenset(range(b, 2 * b)))
    elif kind == 5:
        G = _ladder(rng.randint(3, 8)) if rng.random() < 0.5 else ml.cycle_graph(rng.randint(3, 16))
    elif kind == 6:
        G = ml.complete_graph(rng.randint(2, 10))
    else:
        G = _disjoint_union(
            ml.gnp_random_graph(rng.randint(1, 8), 0.6, seed=i),
            ml.gnp_random_graph(rng.randint(1, 8), 0.6, seed=i + 1),
        )
    A = frozenset(v for v in range(G.n) if rng.random() < 0.5)
    return G, (A, frozenset(range(G.n)) - A)


def test_growth_test_matches_pair_coverage_on_seeded_graphs():
    brute = 0
    for i in range(1200):
        G, parts = _differential_graph(i)
        delta = G.min_degree()
        for cap in range(delta + 3):
            assert separation_below(G, cap) == separation_below_ref(G, cap), (i, cap)
        for k in range(G.n + 1):
            want = connectivity_at_least_ref(G, k)
            assert ml.connectivity_at_least(G, k) == want, (i, k)
            assert ml.connectivity_at_least(G, k, parts=parts) == want, (i, k)
        if G.is_complete():
            kappa = G.n - 1
            with pytest.raises(ml.InputError):
                ml.minimum_separation(G)
        else:
            found = separation_below_ref(G, delta)
            kappa = delta if found is None else found[0]
            _, A, B = separation_below_ref(G, delta + 1)
            assert ml.minimum_separation(G) == (set_of(A), set_of(B)), i
        assert ml.vertex_connectivity(G) == kappa, i
        if G.n <= 10:
            brute += 1
            assert kappa_brute(G) == kappa, i
            for k in range(G.n + 1):
                assert connectivity_at_least_ref(G, k) == (kappa >= k), (i, k)
    assert brute >= 500


def _flows(monkeypatch, call):
    calls = [0]
    flow = connectivity.maximum_flow

    def counted(*args):
        calls[0] += 1
        return flow(*args)

    monkeypatch.setattr(connectivity, "maximum_flow", counted)
    result = call()
    return result, calls[0]


@pytest.mark.parametrize("b, k, ours, ref", [(90, 21, 0, 773), (30, 8, 0, 79)])
def test_dense_bipartite_verdicts_need_no_flow(b, k, ours, ref, monkeypatch):
    G = ml.gen_bipartite(ml.BipartiteSpec(b, b, 0.5, 7))
    assert _flows(monkeypatch, lambda: ml.connectivity_at_least(G, k)) == (True, ours)
    assert _flows(monkeypatch, lambda: connectivity_at_least_ref(G, k)) == (True, ref)


# -- differential checks against the dict-based reference flow --------------


def _reach_masks(reach):
    rin = rout = 0
    for v, side in reach:
        if side:
            rout |= 1 << v
        else:
            rin |= 1 << v
    return rin, rout


def _check_flow(G, s, t):
    """maximum_flow against split_flow at every cap; returns the reference
    value and reach masks."""
    value, reach = split_flow(G, s, t)
    want = _reach_masks(reach)
    for cap in range(G.n + 1):
        got, got_reach = maximum_flow(G, s, t, cap)
        assert got == min(value, cap), (s, t, cap)
        assert got_reach == (want if value < cap else None), (s, t, cap)
    return value, want


def _check_connectivity(G, flow_pairs=None, seed=0):
    """maximum_flow on `flow_pairs` random non-adjacent pairs (all of them
    when None); kappa, every connectivity_at_least verdict and the
    separation sides against reference flows over the covering pairs."""
    nonadjacent = [
        (s, t) for s in range(G.n) for t in range(G.n)
        if s != t and not G.adj[s] >> t & 1
    ]
    if flow_pairs is not None:
        nonadjacent = random.Random(seed).sample(
            nonadjacent, min(flow_pairs, len(nonadjacent))
        )
    for s, t in nonadjacent:
        _check_flow(G, s, t)
    if G.is_complete():
        assert ml.vertex_connectivity(G) == G.n - 1
        return
    flows = [split_flow(G, s, t) for s, t in covering_pairs(G)]
    kappa = min(value for value, _ in flows)
    assert ml.vertex_connectivity(G) == kappa
    for k in range(G.n + 1):
        assert ml.connectivity_at_least(G, k) == (kappa >= k), k
    A, B = ml.minimum_separation(G)
    assert A | B == set(range(G.n)) and len(A & B) == kappa
    assert not any(G.has_edge(u, v) for u in A - B for v in B - A)
    if kappa == 0:
        return  # disconnected: the sides are components, not a flow's cut
    reach = next(r for value, r in flows if value == kappa)
    rin, rout = _reach_masks(reach)
    side = {v for v in range(G.n) if (rin | rout) >> v & 1}
    cut = {v for v in range(G.n) if (rin & ~rout) >> v & 1}
    assert A == side
    assert B == cut | (set(range(G.n)) - side)


def test_flows_match_reference_on_random_graphs():
    rng = random.Random(2020)
    for i in range(16):
        n = rng.randint(10, 60)
        p = rng.choice((0.1, 0.2, 0.3, 0.5, 0.65, 0.8))
        G = ml.gnp_random_graph(n, p, seed=3100 + i)
        _check_connectivity(G, flow_pairs=3, seed=i)


def test_flow_reroutes_back_through_a_used_vertex():
    # The only shortest 0-4 path, 0-1-2-3-4, blocks both longer paths
    # 0-5-6-7-3-4 and 0-1-8-9-10-4.  Reaching 2 flow units walks back
    # through vertex 2 (out-copy to in-copy) and frees it; the chain
    # 0-11-...-15-2 then reaches the freed vertex in the last search.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 3)]
    edges += [(1, 8), (8, 9), (9, 10), (10, 4)]
    edges += [(0, 11), (11, 12), (12, 13), (13, 14), (14, 15), (15, 2)]
    G = ml.from_edge_list(16, edges)
    assert _check_flow(G, 0, 4)[0] == 2


def _hypercube(d):
    edges = [(v, v | 1 << i) for v in range(1 << d) for i in range(d) if not v >> i & 1]
    return ml.from_edge_list(1 << d, edges)


def _grid(w):
    edges = [(v, v + 1) for v in range(w * w) if (v + 1) % w]
    return ml.from_edge_list(w * w, edges + [(v, v + w) for v in range(w * w - w)])


@pytest.mark.parametrize(
    "G, s, t",
    [
        (_hypercube(6), 0, 63),
        (_grid(8), 9, 54),
        (ml.gen_bipartite(ml.BipartiteSpec(40, 40, 0.5, 40)), 0, 1),
        (_ladder(10), 0, 5),
        (_ladder(10), 0, 15),
    ],
)
def test_flows_match_reference_where_a_walk_is_blocked(G, s, t):
    # Each walk back from t_in steps to the least untaken neighbour, so a
    # later walk of the same phase can find every out-copy it could step to
    # taken, which ends the phase.  On these pairs one or two walks per flow
    # end that way.
    _check_flow(G, s, t)


def test_flows_match_reference_on_sparse_graphs_at_every_pair():
    # sparse graphs route flow around low-degree vertices, where the
    # reverse arcs of the split digraph decide reachability
    rng = random.Random(75)
    for i in range(30):
        n = rng.randint(6, 14)
        G = ml.gnp_random_graph(n, rng.choice((0.2, 0.3, 0.4)), seed=3300 + i)
        _check_connectivity(G)


@pytest.mark.parametrize("b", [20, 30, 40])
def test_flows_match_reference_on_random_bipartite(b):
    G = ml.gen_bipartite(ml.BipartiteSpec(b, b, 0.5, b))
    _check_connectivity(G, flow_pairs=3, seed=b)


@st.composite
def _graphs(draw, max_n=11):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.sets(st.sampled_from(pairs)))
    return ml.from_edge_list(n, sorted(picked))


@settings(max_examples=150, deadline=None)
@given(_graphs())
def test_flows_match_reference_on_generated_graphs(G):
    _check_connectivity(G)
    assert ml.vertex_connectivity(G) == kappa_brute(G)


def test_maximum_flow_rejects_adjacent_endpoints():
    G = ml.cycle_graph(6)
    with pytest.raises(ml.InputError):
        maximum_flow(G, 0, 1, 2)
    with pytest.raises(ml.InputError):
        maximum_flow(G, 3, 3, 2)


def test_non_integer_arguments_are_input_errors():
    G = ml.cycle_graph(6)
    with pytest.raises(ml.InputError):
        ml.connectivity_at_least(G, 2.0)
    for s, t, cap in ((0.0, 3, 2), (0, 3.0, 2), (0, 3, 2.0)):
        with pytest.raises(ml.InputError):
            maximum_flow(G, s, t, cap)

