"""Every graph builder hands back well-formed rows: symmetric and loop-free,
with n = len(adj) and m half the rows' popcount sum."""

import pytest

import minorlab as ml
from minorlab import connectivity, formats, minor
from minorlab.graphs import from_rows
from minorlab.seeds import derive_seed


def assert_well_formed(G):
    assert isinstance(G.adj, tuple)
    assert G.n == len(G.adj)
    assert G.m == sum(a.bit_count() for a in G.adj) // 2
    for v, row in enumerate(G.adj):
        assert not row >> v & 1, f"loop at {v}"
        assert not row >> G.n, f"row {v} reaches past n"
        for u in range(G.n):
            assert (row >> u & 1) == (G.adj[u] >> v & 1), f"{u}-{v} is one-sided"


def test_from_rows_reads_n_and_m_off_the_rows():
    G = from_rows([0b110, 0b101, 0b011, 0])
    assert (G.n, G.m, G.adj) == (4, 3, (0b110, 0b101, 0b011, 0))
    assert from_rows([]) == ml.empty_graph(0)
    assert from_rows(ml.petersen_graph().adj) == ml.petersen_graph()


def _min_degree_top_up():
    n, d, p, seed = 30, 5, 0.05, 11
    base = ml.gnp_random_graph(n, p, derive_seed(seed, 0))
    assert base.min_degree() < d  # so the top-up adds edges
    G = ml.random_graph_min_degree(n, d, seed, p=p)
    assert G.min_degree() >= d and G.m > base.m
    return G


FAMILIES = {
    "empty-0": lambda: ml.empty_graph(0),
    "empty-5": lambda: ml.empty_graph(5),
    "complete-0": lambda: ml.complete_graph(0),
    "complete-1": lambda: ml.complete_graph(1),
    "complete-7": lambda: ml.complete_graph(7),
    "path-0": lambda: ml.path_graph(0),
    "path-6": lambda: ml.path_graph(6),
    "cycle-5": lambda: ml.cycle_graph(5),
    "petersen": ml.petersen_graph,
    "bipartite-0-4": lambda: ml.complete_bipartite(0, 4),
    "bipartite-3-4": lambda: ml.complete_bipartite(3, 4),
    "multipartite-none": lambda: ml.complete_multipartite([]),
    "multipartite-zeros": lambda: ml.complete_multipartite([0, 0]),
    "multipartite-zero-parts": lambda: ml.complete_multipartite([0, 3, 0, 1, 2, 0]),
    "multipartite-singletons": lambda: ml.complete_multipartite([1] * 6),
    "gnp": lambda: ml.gnp_random_graph(25, 0.3, 4),
    "gnp-full": lambda: ml.gnp_random_graph(9, 1.0, 4),
    "gnm": lambda: ml.gnm_random_graph(20, 40, 2),
    "min-degree": lambda: ml.random_graph_min_degree(40, 6, 3),
    "min-degree-top-up": _min_degree_top_up,
    # extremal constructions
    "gen-bipartite-a0": lambda: ml.gen_bipartite(ml.BipartiteSpec(0, 6, 0.5, 1)),
    "gen-bipartite-b0": lambda: ml.gen_bipartite(ml.BipartiteSpec(6, 0, 0.5, 1)),
    "gen-bipartite-p0": lambda: ml.gen_bipartite(ml.BipartiteSpec(8, 9, 0.0, 1)),
    "gen-bipartite-p1": lambda: ml.gen_bipartite(ml.BipartiteSpec(8, 9, 1.0, 1)),
    "gen-bipartite": lambda: ml.gen_bipartite(ml.BipartiteSpec(40, 30, 0.4, 5)),
    "lower-bound": lambda: ml.lower_bound_bipartite(30, 30, 4, 0.05, seed=3),
    "connectivity-extremal-complete": lambda: ml.connectivity_extremal(5, 3),
    "connectivity-extremal-random": lambda: ml.connectivity_extremal(5, 4, seed=1),
}


@pytest.mark.parametrize("build", FAMILIES.values(), ids=FAMILIES.keys())
def test_constructors_return_well_formed_rows(build):
    assert_well_formed(build())


def test_edge_list_and_subgraph_builders_return_well_formed_rows():
    G = ml.gnp_random_graph(18, 0.35, 8)
    text = formats.edge_list_to_str(G)
    assert_well_formed(formats.parse_edge_list(text))
    # repeated and reversed pairs de-duplicate
    H = ml.from_edge_list(5, [(0, 1), (1, 0), (0, 1), (3, 4), (2, 4)])
    assert_well_formed(H)
    assert H.m == 3
    assert_well_formed(ml.quotient(G, [0b111, 1 << 5, 0b11 << 8, 1 << 17]))
    assert_well_formed(ml.quotient(G, []))
    assert_well_formed(ml.contract(G, G.edges()[:6]))
    assert_well_formed(ml.induced_subgraph(G, range(3, 15, 2)))
    assert_well_formed(ml.induced_subgraph(G, []))
    assert_well_formed(ml.bipartite_induced(G, range(0, 18, 3), range(1, 18, 3)))
    B = ml.gen_bipartite(ml.BipartiteSpec(10, 12, 0.3, 2))
    A, Bs = frozenset(range(10)), frozenset(range(10, 22))
    assert_well_formed(ml.contraction_round(B, A, Bs, frozenset(range(10, 22, 2)), seed=4))


def test_series_parallel_reduction_returns_well_formed_rows():
    # a subdivided K_5 with a pendant path reduces to K_5, the 3-regular
    # Petersen graph keeps every edge and a cycle vanishes
    K5 = ml.complete_graph(5)
    edges, n = [], 5
    for u, v in K5.edges():
        edges += [(u, n), (n, v)]
        n += 1
    edges += [(0, n), (n, n + 1)]
    for G in (ml.from_edge_list(n + 2, edges), ml.petersen_graph(), ml.cycle_graph(8)):
        reduced, _ = minor._series_parallel_reduce(G)
        assert_well_formed(reduced)
        assert reduced.n == G.n
    reduced, suppressed = minor._series_parallel_reduce(ml.from_edge_list(n + 2, edges))
    assert reduced.m == 10 and len(suppressed) == 10
    assert minor._series_parallel_reduce(ml.petersen_graph())[0] == ml.petersen_graph()
    assert minor._series_parallel_reduce(ml.cycle_graph(8))[0] == ml.empty_graph(8)


def test_hub_graphs_of_the_growth_test_are_well_formed(monkeypatch):
    G = ml.gen_bipartite(ml.BipartiteSpec(60, 60, 0.5, 7))
    hubs = []
    flow = connectivity.maximum_flow

    def recording_flow(H, s, t, cap):
        hubs.append((H, s))
        return flow(H, s, t, cap)

    monkeypatch.setattr(connectivity, "maximum_flow", recording_flow)
    assert ml.connectivity_at_least(G, 22)
    assert len(hubs) == 38
    for H, s in hubs:
        assert_well_formed(H)
        assert (H.n, s) == (G.n + 1, G.n)
        # below the hub lies a subgraph of G, and the hub adds one edge per
        # vertex of the grown set
        live = [row & G.full_mask for row in H.adj[:s]]
        assert all(row & ~a == 0 for row, a in zip(live, G.adj))
        assert H.adj[s] and H.m == sum(map(int.bit_count, live)) // 2 + H.degree(s)
