import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, compress, islice, takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minorlab as ml
from minorlab import HallViolator
from minorlab import connectivity, families
from minorlab.connectivity import maximum_flow
from minorlab.decompose import _contracted_piece
from minorlab.graphs import (
    _clique_cover_bound,
    _mis_search,
    biconnected_blocks,
    bits,
    bipartition_defect,
    mask_components,
    min_degree_peel,
)
from oracles import (
    alpha_brute,
    biconnected_blocks_ref,
    bits_ref,
    bipartite_induced_ref,
    clique_cover_bound_ref,
    complete_multipartite_ref,
    contract_ref,
    degeneracy_ref,
    gnp_random_graph_ref,
    induced_subgraph_ref,
    mis_search_ref,
    peel_layers_ref,
    random_graph_min_degree_ref,
    random_multipartite,
    saturating_matching_ref,
    smallest_budget,
    triangulated_grid,
)
from test_extremal import _tie_draws


def small_graphs(max_n=9):
    """Hypothesis strategy: a random simple graph as (n, edge subset)."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picked = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        return ml.from_edge_list(n, sorted(picked))

    return build()


def cored_graphs(max_core=12, max_hung=8):
    """Hypothesis strategy: a clique on c = 8..max_core vertices less some
    of the pairs (0, 1), (2, 3), ..., so each core degree is c - 1 or c - 2,
    then up to `max_hung` more vertices, each joined to at most 6 earlier
    ones.  At d = 6 such a graph peels into single vertices and, from
    c = 9 on, a coboundary piece."""

    @st.composite
    def build(draw):
        c = draw(st.integers(min_value=8, max_value=max_core))
        pairs = [(u, u + 1) for u in range(0, c - 1, 2)]
        dropped = draw(st.sets(st.sampled_from(pairs)))
        edges = [(u, v) for u, v in combinations(range(c), 2) if (u, v) not in dropped]
        n = c + draw(st.integers(min_value=0, max_value=max_hung))
        for v in range(c, n):
            ends = draw(st.sets(st.integers(min_value=0, max_value=v - 1), max_size=6))
            edges += [(u, v) for u in sorted(ends)]
        return ml.from_edge_list(n, edges)

    return build()


# -- bit masks --------------------------------------------------------------


def _mask_with(rng, length, ones):
    """A mask of bit length `length` with `ones` set bits, the top one set."""
    return 1 << length - 1 | sum(1 << b for b in rng.sample(range(length - 1), ones - 1))


def test_bits_matches_the_lowest_bit_reference():
    # dense masks (>= 8 set bits, >= 1 per 8 bits of length) walk their digits
    # through compress, every other one pops its lowest bit: both must yield
    # what the reference does, on each side of both thresholds
    rng = random.Random(5)
    masks = [0]
    for length in range(1, 301):
        masks.append((1 << length) - 1)  # density 1
        masks.append(rng.getrandbits(length) | 1 << length - 1)  # about 1/2
        sparse = sum(1 << b for b in range(length) if rng.random() < 1 / 64)
        masks.append(sparse | 1 << length - 1)  # about 1/64
        for ones in (7, 8):
            if ones <= length:
                masks.append(_mask_with(rng, length, ones))
        if length % 8 == 0 and length >= 16:  # ones * 8 == length, and one fewer
            masks.append(_mask_with(rng, length, length // 8))
            masks.append(_mask_with(rng, length, length // 8 - 1))
        if length % 8 == 1 and length > 64:  # one bit too long for its ones
            masks.append(_mask_with(rng, length, length // 8))
    dense = 0
    for mask in masks:
        ones = mask.bit_count()
        assert list(bits(mask)) == list(bits_ref(mask)), mask
        fast = ones >= 8 and ones * 8 >= mask.bit_length()
        assert isinstance(bits(mask), compress) == fast, mask
        dense += fast
    assert 600 < dense < len(masks) - 600


def test_bits_serves_partial_and_repeated_reads():
    # a dense and a sparse mask each, so both paths are read in part
    for mask in ((1 << 64) - 1, random.Random(1).getrandbits(200), 0b1011 << 100):
        want = list(bits_ref(mask))
        it = bits(mask)
        assert next(it) == want[0]
        assert list(islice(it, 2)) == want[1:3]
        assert list(it) == want[3:]
        seen = []
        for v in bits(mask):
            if v > want[1]:
                break
            seen.append(v)
        assert seen == want[:2]
        # two calls on one mask are two iterators
        a, b = bits(mask), bits(mask)
        assert [next(a), next(a)] == want[:2]
        assert list(b) == want
        assert list(a) == want[2:]


# -- construction -----------------------------------------------------------


def test_from_edge_list_path():
    G = ml.from_edge_list(3, [(0, 1), (1, 2)])
    assert (G.n, G.m) == (3, 2)
    assert G.has_edge(0, 1) and G.has_edge(1, 2) and not G.has_edge(0, 2)


def test_from_edge_list_complete():
    G = ml.from_edge_list(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    assert G.m == 10


def test_from_edge_list_deduplicates_symmetric_pair():
    G = ml.from_edge_list(3, [(0, 1), (1, 0)])
    assert G.m == 1


def test_from_edge_list_order_independent():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    assert ml.from_edge_list(4, edges) == ml.from_edge_list(4, edges[::-1])


@pytest.mark.parametrize("bad", [[(0, 0)], [(0, 5)], [(-1, 1)]])
def test_from_edge_list_rejects_bad_edges(bad):
    with pytest.raises(ml.InputError):
        ml.from_edge_list(3, bad)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ml.gnm_random_graph(4, -1, 0),
        lambda: ml.random_lists(3, -1, 5, 0),
        lambda: ml.complete_bipartite(-1, 2),
        lambda: ml.random_lists(-2, 2, 5, 0),
        lambda: ml.uniform_lists(-2, 3),
        lambda: ml.uniform_lists(4, -1),
    ],
    ids=[
        "gnm-negative-m",
        "lists-negative-size",
        "bipartite-negative-side",
        "lists-negative-count",
        "uniform-lists-negative-count",
        "uniform-lists-negative-size",
    ],
)
def test_generators_reject_negative_sizes(make):
    with pytest.raises(ml.InputError):
        make()


def test_multipartite_constructors_reject_negative_part_sizes():
    # a negative size once shifted the next block back, so that vertex 2
    # sat in two of turan_parts([3, -1, 2])
    for make in (ml.turan_parts, ml.complete_multipartite, complete_multipartite_ref):
        with pytest.raises(ml.InputError, match="part sizes must be non-negative"):
            make([3, -1, 2])
    assert ml.turan_parts([3, 0, 2]) == [frozenset({0, 1, 2}), frozenset(), frozenset({3, 4})]


def test_complete_multipartite_matches_the_edge_list_reference():
    rng = random.Random(0)
    cases = [[], [0], [0, 0], [1], [6], [3, 0, 2], [0, 4], [1, 1, 1, 1], [4, 4, 4], [60, 8]]
    cases += [[rng.randint(0, 7) for _ in range(rng.randint(1, 6))] for _ in range(80)]
    for sizes in cases:
        G = ml.complete_multipartite(sizes)
        assert G == complete_multipartite_ref(sizes), sizes
        parts = ml.turan_parts(sizes)
        assert [len(part) for part in parts] == list(sizes)
        assert ml.mask_of(v for part in parts for v in part) == G.full_mask


def test_gnp_random_graph_matches_one_random_call_per_pair(monkeypatch):
    # p at the ends of [0, 1], at the smallest and largest steps of random(),
    # just past a power of two, the dense-model suite's 0.995, and seeded
    rng = random.Random(2027)
    ps = [0.0, 1.0, 5e-324, 2.0**-53, 1 - 2.0**-53, 0.5 + 2.0**-40, 0.995]
    ps += [rng.random() for _ in range(40)]
    ties = 0
    for p in ps:
        for n in [*range(10), 60, 61, 100]:
            seed = rng.getrandbits(64)
            assert ml.gnp_random_graph(n, p, seed) == gnp_random_graph_ref(n, p, seed), (n, p)
            # a 1 x C(n, 2) spec reads the same draws
            ties += _tie_draws(ml.BipartiteSpec(1, n * (n - 1) // 2, p, seed))
    assert ties >= 50
    # p equal to a draw: random() < p fails on that pair, not only near it
    for seed in range(20):
        p = random.Random(seed).random()
        G = ml.gnp_random_graph(10, p, seed)
        assert not G.has_edge(0, 1) and G == gnp_random_graph_ref(10, p, seed), seed
    # several chunks: 16 384 // 200 = 81 rows to a chunk, so n = 200 takes three
    for p in ps[:7]:
        seed = rng.getrandbits(64)
        assert ml.gnp_random_graph(200, p, seed) == gnp_random_graph_ref(200, p, seed), p
    # chunks cut small: of 2 and of 1 row, and rows longer than a chunk
    monkeypatch.setattr(families, "_CHUNK_DRAWS", 64)
    for p in ps[:10]:
        for n in (2, 3, 31, 32, 33, 64, 65, 100):
            seed = rng.getrandbits(64)
            assert ml.gnp_random_graph(n, p, seed) == gnp_random_graph_ref(n, p, seed), (n, p)


def test_gnp_random_graph_memory_stays_bounded_at_n_2000():
    tracemalloc.start()
    try:
        G = ml.gnp_random_graph(2000, 0.5, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_500_000, peak
    assert abs(G.m - 999_500) <= 2_500  # Binomial(1 999 000, 1/2): sigma 707


def test_random_graph_min_degree_matches_the_set_top_up_reference():
    cases = [(d + 1, d, seed, p) for d in range(6) for seed in range(3) for p in (None, 0.0)]
    cases += [(n, 4, seed, 1.0) for n in (5, 9) for seed in range(2)]
    cases += [(n, d, seed, p) for n in (60, 61, 100) for d in (1, 18, n // 2, n - 1)
              for seed in range(2) for p in (None, 0.0)]
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(1, 60)
        p = rng.choice([None, None, 0.0, 0.05, 0.3, 1.0])
        cases.append((n, rng.randint(0, n - 1), seed, p))
    for n, d, seed, p in cases:
        G = ml.random_graph_min_degree(n, d, seed, p)
        assert G == random_graph_min_degree_ref(n, d, seed, p), (n, d, seed, p)
        assert G.min_degree() >= d
    for make in (ml.random_graph_min_degree, random_graph_min_degree_ref):
        with pytest.raises(ml.InputError, match="cannot force min degree 5 on 5"):
            make(5, 5, 0)


# -- density ----------------------------------------------------------------


def test_density_values():
    assert ml.density(ml.complete_graph(5)) == 2
    assert ml.density(ml.path_graph(3)) == Fraction(2, 3)
    assert ml.density(ml.petersen_graph()) == Fraction(3, 2)


def test_density_null_graph_undefined():
    with pytest.raises(ml.PreconditionError):
        ml.density(ml.empty_graph(0))


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_nonedge_fraction_complements_edge_fraction(G):
    if G.n >= 2:
        total = G.n * (G.n - 1) // 2
        assert ml.nonedge_fraction(G) + Fraction(G.m, total) == 1


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_density_monotone_under_edge_addition(G):
    missing = [
        (u, v)
        for u in range(G.n)
        for v in range(u + 1, G.n)
        if not G.has_edge(u, v)
    ]
    if missing:
        bigger = ml.from_edge_list(G.n, G.edges() + missing[:1])
        assert ml.density(bigger) > ml.density(G)


# -- degeneracy -------------------------------------------------------------


def test_degeneracy_tree_is_one():
    d, _ = ml.degeneracy(ml.path_graph(7))
    assert d == 1


def test_degeneracy_complete():
    d, _ = ml.degeneracy(ml.complete_graph(6))
    assert d == 5


def test_degeneracy_petersen():
    d, order = ml.degeneracy(ml.petersen_graph())
    assert d == 3
    assert sorted(order) == list(range(10))


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_degeneracy_witness_properties(G):
    d, order = ml.degeneracy(G)
    assert (d, order) == degeneracy_ref(G)
    assert d <= G.max_degree()
    position = {v: i for i, v in enumerate(order)}
    back = max(
        sum(1 for u in G.neighbors(v) if position[u] > position[v]) for v in order
    )
    assert back == d


def test_degeneracy_matches_the_scan_reference_on_grids_and_dense_graphs():
    inputs = [triangulated_grid(w) for w in (5, 12, 40)]
    inputs += [ml.gen_bipartite(ml.BipartiteSpec(20, 20, 0.5, s)) for s in range(9, 15)]
    inputs += [ml.random_graph_min_degree(50, 14, seed=s) for s in range(3)]
    for G in inputs:
        assert ml.degeneracy(G) == degeneracy_ref(G), G.n


def capped_peel_ref(G, live, cap):
    """The (vertex, degree) steps of the scanning degeneracy reference on
    G[live], each degree counted among the vertices still live, up to the
    first degree above `cap`."""
    H, old_ids = ml.induced_subgraph_with_map(G, bits(live))
    steps = []
    later = H.full_mask
    for v in degeneracy_ref(H)[1] if H.n else []:
        later &= ~(1 << v)
        dv = (H.adj[v] & later).bit_count()
        if dv > cap:
            break
        steps.append((old_ids[v], dv))
    return steps


@given(small_graphs(max_n=14), st.integers(0, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_min_degree_peel_matches_the_scan_reference_on_live_masks(G, isolated, data):
    # isolated vertices added at the top ids peel first, at degree 0
    G = ml.from_edge_list(G.n + isolated, G.edges())
    live = data.draw(st.sampled_from([G.full_mask, 0]) | st.integers(0, G.full_mask))
    whole = capped_peel_ref(G, live, G.n)
    d = max((dv for _, dv in whole), default=0)
    assert sorted(v for v, _ in whole) == list(bits(live))
    for cap in (0, d - 1, d, G.n):
        assert list(min_degree_peel(G, live, cap)) == capped_peel_ref(G, live, cap), cap
    if live == G.full_mask:
        assert ml.degeneracy(G) == degeneracy_ref(G)


@given(small_graphs() | cored_graphs(), st.sampled_from((6, 7)))
@settings(max_examples=100, deadline=None)
def test_min_degree_peel_at_d_gives_the_leading_singleton_layers(G, d):
    layers = peel_layers_ref(G, d)
    singles = list(takewhile(lambda layer: len(layer) == 1, layers))
    assert [[v] for v, _ in min_degree_peel(G, G.full_mask, d)] == singles


def test_degeneracy_of_a_long_path_is_fast():
    # a scan of every live vertex per step took 3.7 s on a 2-core VM; one
    # vertex mask per degree for the whole peel takes about 0.004 s
    t0 = time.perf_counter()
    d, order = ml.degeneracy(ml.path_graph(3000))
    assert time.perf_counter() - t0 < 1.0
    assert (d, order) == (1, list(range(3000)))


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_every_subgraph_has_a_low_degree_vertex(G, rnd):
    d, _ = ml.degeneracy(G)
    vertices = list(range(G.n))
    subset = sorted(rnd.sample(vertices, rnd.randint(1, G.n)))
    H = ml.induced_subgraph(G, subset)
    assert H.min_degree() <= d


# -- blocks -----------------------------------------------------------------


def glued_blocks_graph(rng, n):
    """A random graph on n vertices, shuffled ids: a few dense clusters and
    cycles joined by paths and bridges, pendant trees and isolated vertices,
    in one or several components."""
    order = rng.sample(range(n), n)
    edges, placed = [], []
    while len(placed) < n:
        size = min(rng.randint(1, 7), n - len(placed))
        part = order[len(placed) : len(placed) + size]
        shape = rng.random()
        if shape < 0.4:  # a cluster
            edges += [(u, v) for u, v in combinations(part, 2) if rng.random() < 0.6]
        elif shape < 0.7 and size >= 3:  # a cycle
            edges += list(zip(part, part[1:] + part[:1]))
        else:  # a path
            edges += list(zip(part, part[1:]))
        if placed and rng.random() < 0.7:  # joined to what came before
            edges.append((rng.choice(placed), rng.choice(part)))
        placed += part
    return ml.from_edge_list(n, [(u, v) for u, v in edges if u != v])


def test_biconnected_blocks_match_the_edge_stack_reference():
    # the same blocks in the same order: isolated vertices, bridges, cut
    # vertices, several components, and one long cycle
    rng = random.Random(5200)
    graphs = [glued_blocks_graph(rng, rng.randint(1, 40)) for _ in range(300)]
    graphs += [ml.gnp_random_graph(30, p, seed=5300) for p in (0.05, 0.1, 0.2)]
    graphs += [ml.empty_graph(5), ml.path_graph(7), ml.cycle_graph(2000)]
    kinds = {"bridge": 0, "larger": 0, "isolated": 0}
    for G in graphs:
        blocks = biconnected_blocks(G)
        assert blocks == biconnected_blocks_ref(G)
        kinds["bridge"] += sum(b.bit_count() == 2 for b in blocks)
        kinds["larger"] += sum(b.bit_count() > 2 for b in blocks)
        kinds["isolated"] += sum(not G.adj[v] for v in range(G.n))
    assert min(kinds.values()) >= 150, kinds
    assert biconnected_blocks(ml.cycle_graph(2000)) == [ml.cycle_graph(2000).full_mask]


# -- contraction ------------------------------------------------------------


def test_contract_cycle_edge_gives_triangle():
    C4 = ml.cycle_graph(4)
    assert ml.contract(C4, [(0, 1)]) == ml.complete_graph(3)


def test_contract_petersen_spokes_gives_k5():
    P = ml.petersen_graph()
    spokes = [(i, i + 5) for i in range(5)]
    assert ml.contract(P, spokes) == ml.complete_graph(5)


def test_contract_nothing_is_identity():
    P = ml.petersen_graph()
    assert ml.contract(P, []) == P


def test_contract_rejects_non_edges():
    with pytest.raises(ml.InputError):
        ml.contract(ml.path_graph(3), [(0, 2)])


@given(small_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_contract_vertex_count(G, data):
    edges = G.edges()
    if not edges:
        return
    F = data.draw(st.sets(st.sampled_from(edges)))
    H, classes = ml.contract_with_classes(G, sorted(F))
    assert H.n == len(classes)
    assert sorted(v for cls in classes for v in cls) == list(range(G.n))


# -- bipartite restriction --------------------------------------------------


def test_bipartite_induced_k4_gives_c4():
    K4 = ml.complete_graph(4)
    H = ml.bipartite_induced(K4, {0, 1}, {2, 3})
    assert (H.n, H.m) == (4, 4)
    assert not H.has_edge(0, 1) and not H.has_edge(2, 3)


def test_bipartite_induced_empty_side():
    H = ml.bipartite_induced(ml.complete_graph(4), {0, 2}, set())
    assert (H.n, H.m) == (2, 0)


def test_bipartite_induced_petersen_spokes():
    P = ml.petersen_graph()
    H = ml.bipartite_induced(P, set(range(5)), set(range(5, 10)))
    assert H.m == 5
    assert all(H.degree(v) == 1 for v in range(10))


def test_bipartite_induced_rejects_overlap():
    with pytest.raises(ml.InputError):
        ml.bipartite_induced(ml.complete_graph(4), {0, 1}, {1, 2})


# -- quotient and the subgraphs built on it ----------------------------------


def seeded_gnp(seed):
    """G(n, p) with n = 0..40 and p drawn per graph, plus its RNG."""
    rng = random.Random(seed)
    n = rng.randint(0, 40)
    p = rng.random()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return ml.from_edge_list(n, pairs), rng


def as_tuple(G):
    return (G.n, G.adj, G.m)


def test_quotient_joins_classes_an_edge_joins():
    for seed in range(150):
        G, rng = seeded_gnp(seed)
        owner = [rng.randrange(-1, 5) for _ in range(G.n)]  # -1: dropped
        classes = [m for m in (ml.mask_of(v for v in range(G.n) if owner[v] == c)
                               for c in range(5)) if m]
        rng.shuffle(classes)
        Q = ml.quotient(G, classes)
        assert Q.n == len(classes)
        for i, ci in enumerate(classes):
            for j, cj in enumerate(classes):
                joined = i != j and any(G.adj[u] & cj for u in ml.bits(ci))
                assert Q.has_edge(i, j) == joined, (seed, i, j)


@pytest.mark.parametrize("classes", [[0b1, 0], [0b11, 0b10], [0b1, 1 << 3], [-1]])
def test_quotient_rejects_bad_classes(classes):
    with pytest.raises(ml.InputError):
        ml.quotient(ml.path_graph(3), classes)


def test_quotient_of_the_identity_partition_is_the_graph_itself():
    for seed in range(60):
        G, rng = seeded_gnp(seed)
        n = G.n
        singletons = [1 << v for v in range(n)]
        assert ml.quotient(G, singletons) is G
        assert ml.quotient(G, tuple(singletons)) is G
        assert ml.induced_subgraph(G, range(n)) is G
        assert ml.induced_subgraph_with_map(G, reversed(range(n))) == (G, list(range(n)))
        assert as_tuple(ml.induced_subgraph(G, range(n))) == as_tuple(
            induced_subgraph_ref(G, range(n))[0]
        )
        assert _contracted_piece(G, G.full_mask, ())[0] is G
        if n < 2:
            continue
        # reversed singletons, and two of them swapped, relabel G
        i = rng.randrange(n - 1)
        swapped = list(range(n))
        swapped[i : i + 2] = [i + 1, i]
        for order in (list(range(n - 1, -1, -1)), swapped):
            Q = ml.quotient(G, [1 << v for v in order])
            assert Q is not G and Q.m == G.m
            assert all(
                Q.has_edge(j, l) == G.has_edge(u, v)
                for j, u in enumerate(order)
                for l, v in enumerate(order)
            ), (seed, order)
        # all but one vertex: the induced subgraph
        drop = rng.randrange(n)
        S = [v for v in range(n) if v != drop]
        H = ml.quotient(G, [1 << v for v in S])
        assert as_tuple(H) == as_tuple(induced_subgraph_ref(G, S)[0]), seed
    with pytest.raises(ml.InputError):
        ml.quotient(ml.path_graph(3), [0b1, 0b10, 0b1000])


def test_induced_subgraph_matches_edge_walk():
    for seed in range(150):
        G, rng = seeded_gnp(seed)
        S = [v for v in range(G.n) if rng.random() < rng.random()]
        H, ids = ml.induced_subgraph_with_map(G, S)
        ref, ref_ids = induced_subgraph_ref(G, S)
        assert (as_tuple(H), ids) == (as_tuple(ref), ref_ids), seed
        comps = mask_components(G, ml.mask_of(S))
        assert [c & -c for c in comps] == sorted(c & -c for c in comps)
        assert [[ids[i] for i in ml.bits(c)] for c in ml.components(H)] == [
            list(ml.bits(c)) for c in comps
        ]
    with pytest.raises(ml.InputError):
        ml.induced_subgraph_with_map(ml.path_graph(3), [3])


def test_contract_matches_edge_walk():
    for seed in range(150):
        G, rng = seeded_gnp(seed)
        keep = rng.random()
        F = [e for e in G.edges() if rng.random() < keep]
        rng.shuffle(F)
        Q, classes = ml.contract_with_classes(G, F)
        ref, ref_classes = contract_ref(G, F)
        assert (as_tuple(Q), list(classes)) == (as_tuple(ref), ref_classes), seed
        # F read once, as from a generator
        Q, classes = ml.contract_with_classes(G, iter(F))
        assert (as_tuple(Q), list(classes)) == (as_tuple(ref), ref_classes), seed


def test_bipartite_induced_matches_edge_walk():
    for seed in range(150):
        G, rng = seeded_gnp(seed)
        side = [rng.randrange(3) for _ in range(G.n)]  # 2: in neither part
        A = {v for v in range(G.n) if side[v] == 0}
        B = {v for v in range(G.n) if side[v] == 1}
        H = ml.bipartite_induced(G, A, B)
        assert as_tuple(H) == as_tuple(bipartite_induced_ref(G, A, B)), seed


# -- matching ---------------------------------------------------------------


def test_saturating_matching_petersen_spokes():
    P = ml.petersen_graph()
    result = ml.saturating_matching(P, range(5), range(5, 10))
    assert result == [(i, i + 5) for i in range(5)]


def test_saturating_matching_hall_violator():
    star = ml.from_edge_list(3, [(0, 1), (0, 2)])
    result = ml.saturating_matching(star, {1, 2}, {0})
    assert isinstance(result, HallViolator)
    assert result.witness == frozenset({1, 2})


def test_saturating_matching_k33():
    G = ml.complete_bipartite(3, 3)
    result = ml.saturating_matching(G, range(3), range(3, 6))
    assert len(result) == 3
    assert {y for y, _ in result} == {0, 1, 2}
    assert len({x for _, x in result}) == 3


@given(small_graphs(max_n=8), st.data())
@settings(max_examples=80, deadline=None)
def test_saturating_matching_postconditions(G, data):
    vertices = list(range(G.n))
    Y = data.draw(st.sets(st.sampled_from(vertices)))
    X = set(vertices) - Y
    result = ml.saturating_matching(G, Y, X)
    if isinstance(result, HallViolator):
        S = result.witness
        assert S <= Y
        hit = set()
        for y in S:
            hit |= set(G.neighbors(y)) & X
        assert len(hit) < len(S)
    else:
        assert {y for y, _ in result} == set(Y)
        xs = [x for _, x in result]
        assert len(set(xs)) == len(xs)
        assert all(G.has_edge(y, x) for y, x in result)


def test_saturating_matching_matches_recursive_search():
    inputs = []
    for seed in range(200):
        G, rng = seeded_gnp(seed)
        side = [rng.randrange(3) for _ in range(G.n)]
        Y = {v for v in range(G.n) if side[v] == 0}
        X = {v for v in range(G.n) if side[v] == 1}
        inputs.append((G, Y, X))
    # each y of K_{a,a} first takes the least x, so it re-walks the whole
    # matching before it finds a free one
    for a in range(1, 13):
        inputs.append((ml.complete_bipartite(a, a), set(range(a)), set(range(a, 2 * a))))
    for i, (G, Y, X) in enumerate(inputs):
        result = ml.saturating_matching(G, Y, X)
        if isinstance(result, HallViolator):
            result = result.witness
        assert result == saturating_matching_ref(G, Y, X), i


def test_saturating_matching_of_a_dense_bipartite_graph_is_fast():
    # a new neighbour iterator per alternating-path step re-walked the seen
    # X-vertices: K_{400,400} took 3.8-5.2 s (2-core VM); the least unseen
    # neighbour taken from masks takes about 0.08 s
    a = 400
    G = ml.complete_bipartite(a, a)
    t0 = time.perf_counter()
    result = ml.saturating_matching(G, range(a), range(a, 2 * a))
    assert time.perf_counter() - t0 < 1.0
    assert [y for y, _ in result] == list(range(a))
    assert sorted(x for _, x in result) == list(range(a, 2 * a))


def test_saturating_matching_long_augmenting_path():
    # y_i ~ x_i, x_{i+1} for i < 3000 and y_3000 ~ x_0: each y_i first takes
    # x_i, so y_3000 needs an augmenting path through all 3000 earlier pairs
    c = 3000
    xs = [c + 1 + i for i in range(c + 1)]
    edges = [(i, xs[i]) for i in range(c)] + [(i, xs[i + 1]) for i in range(c)]
    G = ml.from_edge_list(2 * c + 2, edges + [(c, xs[0])])
    result = ml.saturating_matching(G, range(c + 1), xs)
    assert result == [(i, xs[i + 1]) for i in range(c)] + [(c, xs[0])]


# -- independent sets -------------------------------------------------------


def test_exact_alpha_examples():
    assert ml.exact_alpha(ml.cycle_graph(5)) == 2
    assert ml.exact_alpha(ml.complete_bipartite(3, 3)) == 3
    assert ml.exact_alpha(ml.petersen_graph()) == 4


def test_exact_alpha_budget_is_resource_error():
    with pytest.raises(ml.BudgetExceeded) as info:
        ml.exact_alpha(ml.petersen_graph(), budget=3)
    assert (info.value.steps, info.value.n) == (3, 10)


def test_max_independent_set_is_independent():
    G = ml.petersen_graph()
    S = ml.max_independent_set(G)
    assert len(S) == 4
    assert all(not G.has_edge(u, v) for u in S for v in S if u < v)


@given(small_graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_exact_alpha_matches_brute_force(G):
    assert ml.exact_alpha(G) == alpha_brute(G)


def test_find_independent_set_respects_size():
    G = ml.cycle_graph(6)
    S = ml.find_independent_set(G, 3)
    assert S is not None and len(S) >= 3
    assert ml.find_independent_set(ml.complete_graph(4), 2) is None


def test_find_independent_set_returns_exactly_its_target():
    # the Hall levels keep each found set whole as a part of size s, with no
    # truncation, so a target search must never overshoot its target
    found = missed = 0
    for i in range(1000):
        rng = random.Random(9100 + i)
        n = rng.randint(1, 40)
        G = ml.gnp_random_graph(n, rng.choice((0.1, 0.2, 0.3, 0.5)), seed=9100 + i)
        within = rng.sample(range(n), rng.randint(1, n))
        s = rng.randint(1, len(within))
        S = ml.find_independent_set(G, s, within=within)
        if S is None:
            missed += 1
            continue
        found += 1
        assert len(S) == s, (i, n, s)
        assert S <= set(within) and not any(G.has_edge(u, v) for u, v in combinations(S, 2))
    assert found >= 300 and missed >= 300


@pytest.mark.parametrize("within", [[40], [-1], [0, 30]])
def test_find_independent_set_rejects_within_ids_out_of_range(within):
    with pytest.raises(ml.InputError):
        ml.find_independent_set(ml.cycle_graph(30), 1, within=within)


@pytest.mark.parametrize("within", [[40], [-1], [0, 30]])
def test_max_independent_set_rejects_within_ids_out_of_range(within):
    with pytest.raises(ml.InputError):
        ml.max_independent_set(ml.cycle_graph(30), within=within)


def test_clique_cover_bound_is_the_first_fit_cover_stopped_at_the_cap():
    checked = 0
    for i in range(48):
        n = 1 + i % 24
        if i % 2:
            G = ml.gnp_random_graph(n, 0.1 + 0.15 * (i % 6), seed=8000 + i)
        else:
            r = 2 + i % 3
            G = random_multipartite([1 + n // r] * r, 0.5, seed=8000 + i)
        rng = random.Random(i)
        subsets = [0, G.full_mask]
        subsets += [ml.mask_of(rng.sample(range(G.n), rng.randint(1, G.n))) for _ in range(2)]
        for P in subsets:
            cover = clique_cover_bound_ref(G.adj, P)
            for cap in range(1, P.bit_count() + 2):
                assert _clique_cover_bound(G.adj, P, cap) == min(cover, cap)
                checked += 1
    assert checked >= 300


def relabelled(G, seed):
    """G with its vertex ids shuffled."""
    ids = list(range(G.n))
    random.Random(seed).shuffle(ids)
    return ml.from_edge_list(G.n, [(ids[u], ids[v]) for u, v in G.edges()])


def random_forest(n, keep, seed):
    """A random labelled tree on n vertices with each edge kept with
    probability `keep`."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return relabelled(ml.from_edge_list(n, [e for e in edges if rng.random() < keep]), seed)


def leaf_stripping_count(G):
    """The independence number of a forest: take a vertex of degree <= 1,
    delete it and its neighbour, repeat."""
    nbrs = {v: set(G.neighbors(v)) for v in range(G.n)}
    count = 0
    while nbrs:
        v = next(v for v in nbrs if len(nbrs[v]) <= 1)
        gone = {v} | nbrs[v]
        for u in gone:
            for w in nbrs.pop(u):
                if w not in gone:
                    nbrs[w].discard(u)
        count += 1
    return count


def mis_search_cases():
    """(G, start, target) inputs: G(n, p) with n <= 30, the Hall-ratio
    shapes scaled down, where the bound is stopped at the gap, and forests
    and relabelled paths, where every node has a vertex of degree <= 1."""
    for i in range(40):
        n = 5 + i % 26
        G = ml.gnp_random_graph(n, 0.1 + 0.1 * (i % 7), seed=7000 + i)
        within = ml.mask_of(random.Random(i).sample(range(n), n // 2 + 1))
        alpha = ml.exact_alpha(G)
        yield G, G.full_mask, None
        yield G, within, None
        for size in (1, alpha // 2 + 1, alpha, alpha + 1):
            yield G, G.full_mask, size
    for seed in range(3):
        for r, part in ((3, 20), (4, 15)):
            G = random_multipartite([part] * r, 0.5, seed=seed)
            for size in (part, math.floor(G.n / (math.e * r)), part + 1):
                yield G, G.full_mask, size
    for i in range(12):
        n = 6 + 2 * i
        for G in (random_forest(n, 0.8, 7100 + i), relabelled(ml.path_graph(n), 7100 + i)):
            alpha = leaf_stripping_count(G)
            for target in (None, alpha, alpha + 1):
                yield G, G.full_mask, target


def test_mis_search_matches_the_recursive_search():
    # same sets and the same steps: budget b suffices at both, b - 1 at neither
    for G, start, target in mis_search_cases():
        b, result = smallest_budget(lambda b: mis_search_ref(G, start, b, target))
        assert _mis_search(G, start, b, target) == result
        with pytest.raises(ml.BudgetExceeded):
            _mis_search(G, start, b - 1, target)


def test_mis_search_settles_a_ruled_out_target_before_the_dive():
    # the root's clique cover is read before the dive, so a target it rules
    # out costs the root's one step where the dive first took up to alpha
    # picks; no target search needs more than the exact search of its start
    steps, found = smallest_budget(
        lambda b: ml.find_independent_set(ml.complete_graph(5), 2, budget=b)
    )
    assert steps <= 1 and found is None
    settled = 0
    for G, start, target in mis_search_cases():
        if target is None:
            continue
        steps, result = smallest_budget(lambda b: _mis_search(G, start, b, target))
        full, _ = smallest_budget(lambda b: _mis_search(G, start, b, None))
        assert steps <= full
        if clique_cover_bound_ref(G.adj, start) < target:
            assert (steps, result) == (1, (0, 0))
            settled += 1
    assert settled >= 20


@pytest.mark.parametrize("seed", range(3))
def test_exact_alpha_settles_a_relabelled_path_within_a_small_budget(seed):
    # the dive and the degree <= 1 moves take a forest without branching;
    # the max-degree pivot alone ran out of these 5 000 steps, and of
    # 20 000 on a relabelled 200-vertex path
    assert ml.exact_alpha(relabelled(ml.path_graph(400), seed), budget=5000) == 200


@pytest.mark.parametrize("seed", range(3))
def test_exact_alpha_settles_a_random_tree_within_a_small_budget(seed):
    tree = random_forest(400, 1.0, seed)
    assert tree.m == 399
    assert ml.exact_alpha(tree, budget=5000) == leaf_stripping_count(tree)


@pytest.mark.parametrize("seed", range(5))
def test_find_independent_set_dives_into_a_part(seed):
    # a least-degree dive reaches a whole part of a random 3-partite graph;
    # the max-degree pivot alone ran out of 80 steps
    G = random_multipartite([80] * 3, 0.5, seed)
    S = ml.find_independent_set(G, 80, budget=80)
    assert S is not None and len(S) == 80
    assert all(not G.has_edge(u, v) for u in S for v in S if u < v)


def stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_independent_set_searches_need_no_stack():
    # a recursive search needs a frame per vertex taken; these need none
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 40)
    try:
        found = ml.find_independent_set(ml.path_graph(240), 100)
        alpha = ml.exact_alpha(ml.path_graph(120))
    finally:
        sys.setrecursionlimit(limit)
    assert found is not None and len(found) >= 100
    assert all(abs(u - v) != 1 for u in found for v in found)
    assert alpha == 60


def test_exact_alpha_on_a_long_path_is_fast():
    # a node budget should bound wall time too: a first-fit cover that scans
    # every clique for each vertex took about 13 s here (2-core VM), the
    # cover built one clique at a time on bitsets under 1 s
    t0 = time.perf_counter()
    assert ml.exact_alpha(ml.path_graph(300)) == 150
    assert time.perf_counter() - t0 < 6.0


# -- one bipartition rule -----------------------------------------------------

_PARTITION = "A and B must partition the vertex set"


@pytest.mark.parametrize(
    "A, B, defect",
    [
        ({0, 1, 2}, {3, 4, 5}, None),
        ({0, 1, 2}, {3, 4}, _PARTITION),
        ({0, 1, 2}, {2, 3, 4, 5}, _PARTITION),
        ({0, 1, 2}, {3, 4, 5, 6}, _PARTITION),
        ({-1, 0, 1, 2}, {3, 4, 5}, _PARTITION),
        ({0, 1, 3}, {2, 4, 5}, "graph is not bipartite on the given parts"),
    ],
)
def test_bipartition_defect_is_the_rule_of_both_callers(A, B, defect):
    G = ml.complete_bipartite(3, 3)
    assert bipartition_defect(G, A, B) == defect
    # the certificate declines the parts that the contraction round rejects
    parts = (frozenset(A), frozenset(B))
    assert connectivity._bipartite_certificate(G, parts, 3) == (defect is None)
    if defect is None:
        assert ml.contraction_round(G, A, B, set()).n == 0
    else:
        with pytest.raises(ml.InputError, match=defect):
            ml.contraction_round(G, A, B, set())


# -- vertex ids out of range at the public entry points ----------------------

_RAISING_SITES = {
    "coboundary": lambda G, v: ml.coboundary(G, [v]),
    "saturating_matching-Y": lambda G, v: ml.saturating_matching(G, [v], [0]),
    "saturating_matching-X": lambda G, v: ml.saturating_matching(G, [1], [v]),
    "maximum_flow": lambda G, v: maximum_flow(G, 0, v, 2),
    "multipartite_list_color": lambda G, v: ml.multipartite_list_color(
        G, [{0, 2, 4}, {1, 3, v}], [{0, 1}] * G.n
    ),
}


@pytest.mark.parametrize("v", [6, -1], ids=["n", "-1"])
@pytest.mark.parametrize(
    "site", [*_RAISING_SITES, "connectivity_at_least", "check_decomposition"]
)
def test_vertex_ids_out_of_range(site, v):
    G = ml.cycle_graph(6)
    if site == "connectivity_at_least":
        # the certificate declines such parts, as it does overlapping ones
        parts = (frozenset({0, 2, 4}), frozenset({1, 3, v}))
        for k in (2, 3):
            assert ml.connectivity_at_least(G, k, parts=parts) == (k <= 2)
    elif site == "check_decomposition":
        D = ml.Decomposition(X=frozenset({v}), Y=frozenset(), matching=(), k=1)
        assert ml.check_decomposition(G, D) == [f"vertex-out-of-range:{v}"]
    else:
        with pytest.raises(ml.InputError):
            _RAISING_SITES[site](G, v)
