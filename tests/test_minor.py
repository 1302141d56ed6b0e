import gc
import hashlib
import math
import random
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minorlab as ml
from minorlab import DenseModelParams, MinorModel, minor
from minorlab.graphs import (
    biconnected_blocks,
    bits,
    induced_subgraph,
    set_of,
)
from minorlab.minor import (
    _edge_slack,
    _elimination_width,
    _greedy_contraction,
    _lift,
    _series_parallel_reduce,
    _spanning_model_search,
)
from oracles import (
    branch_set_search_ref,
    contraction_round_ref,
    greedy_contraction_ref,
    has_kt_minor_brute,
    spanning_models_brute,
)


def spoke_model():
    return MinorModel(tuple(frozenset({i, i + 5}) for i in range(5)))


# -- validation -------------------------------------------------------------


def test_validate_singletons_on_complete():
    G = ml.complete_graph(4)
    model = MinorModel(tuple(frozenset({v}) for v in range(4)))
    assert ml.validate_model(G, model)


def test_validate_petersen_spoke_pairs():
    assert ml.validate_model(ml.petersen_graph(), spoke_model())


def test_validate_rejects_disconnected_set():
    P = ml.petersen_graph()
    model = MinorModel((frozenset({0, 2}), frozenset({1})))
    assert not ml.validate_model(P, model)
    assert ml.model_defect(P, model) == "branch-set-0-disconnected"


def test_validate_rejects_missing_adjacency():
    P = ml.petersen_graph()
    model = MinorModel((frozenset({0}), frozenset({2})))
    assert ml.model_defect(P, model) == "branch-sets-0-1-nonadjacent"


def test_validate_rejects_overlap_and_range():
    G = ml.complete_graph(3)
    assert ml.model_defect(G, MinorModel((frozenset({0}), frozenset({0})))) \
        == "branch-sets-0-1-overlap"
    assert ml.model_defect(G, MinorModel((frozenset({7}),))) \
        == "branch-set-0-vertex-7-out-of-range"


# -- exact search -----------------------------------------------------------


def test_find_k5_in_petersen():
    P = ml.petersen_graph()
    model = ml.find_kt_minor_exact(P, 5)
    assert model is not None and model.t == 5
    assert ml.validate_model(P, model)


def test_k2_model_is_the_first_edge():
    # the least vertex with a neighbour and its least neighbour, as the
    # first edge of G.edges()
    for i in range(300):
        G = ml.gnp_random_graph(i % 15, 0.1, seed=9800 + i)
        model = ml.find_kt_minor_exact(G, 2)
        edges = G.edges()
        if not edges:
            assert model is None
            continue
        u, v = edges[0]
        assert model == MinorModel((frozenset({u}), frozenset({v})))


def test_petersen_is_k6_minor_free():
    assert ml.find_kt_minor_exact(ml.petersen_graph(), 6) is None


def test_k33_is_k5_minor_free():
    assert ml.find_kt_minor_exact(ml.complete_bipartite(3, 3), 5) is None


def test_budget_exhaustion_is_inconclusive_error():
    # Petersen at t=5: cubic, so nothing reduces, and treewidth 4 = t-1, so
    # no width certificate; only the search can decide it
    with pytest.raises(ml.BudgetExceeded) as info:
        ml.find_kt_minor_exact(ml.petersen_graph(), 5, budget=4)
    assert (info.value.steps, info.value.n) == (4, 10)
    assert "4 steps" in str(info.value) and "10 vertices" in str(info.value)


def circular_ladder(n):
    """C_n x K_2: two n-cycles joined by a perfect matching."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + u, n + v) for u, v in edges] + [(i, n + i) for i in range(n)]
    return ml.from_edge_list(2 * n, edges)


def test_budget_bounds_the_search_time_on_a_large_block():
    # the circular ladder C_300 x K_2 is planar, so K5-minor-free, but has
    # min-degree width 5, so only the search can decide it.  A breadth-first
    # walk per non-adjacent pair and step made 2 000 steps take 0.43-0.65 s
    # (2-core VM); a step that costs only its moves takes about 0.06 s
    G = circular_ladder(300)
    t0 = time.perf_counter()
    with pytest.raises(ml.BudgetExceeded):
        ml.find_kt_minor_exact(G, 5, budget=2000)
    assert time.perf_counter() - t0 < 0.3


def subdivided_k5():
    """K5 with every edge subdivided once: 15 vertices."""
    edges = []
    for mid, (u, v) in enumerate(combinations(range(5), 2), start=5):
        edges += [(u, mid), (v, mid)]
    return ml.from_edge_list(15, edges)


def retained_while_raised(call):
    """Bytes allocated during `call`, which must raise BudgetExceeded, that
    are still alive while the exception is held."""
    gc.disable()  # only reference counting may free what the search built
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        # `info` holds the exception, and with it the traceback, while the
        # memory is read
        with pytest.raises(ml.BudgetExceeded) as info:
            call()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()


def test_exhausted_search_frees_its_tables():
    # the spanning-model stage runs out on the 600-vertex circular ladder at
    # t = 5 in both modes; its traceback keeps the stage's frame alive, and
    # the explicit stack in it held 16 MB until the stage emptied it on the
    # way out
    G = circular_ladder(300)
    for fast_paths in (True, False):
        retained = retained_while_raised(
            lambda: ml.find_kt_minor_exact(G, 5, budget=2000, fast_paths=fast_paths)
        )
        assert retained < 1_000_000, (fast_paths, retained)


@pytest.mark.parametrize("search, args", [
    (ml.find_kt_minor_exact, (circular_ladder(200), 5, 2000)),
    (ml.exact_alpha, (ml.gnp_random_graph(200, 0.1, seed=1), 2000)),
    (ml.exact_list_color, (ml.complete_graph(40), ml.uniform_lists(40, 39), 2000)),
], ids=["find_kt_minor_exact", "exact_alpha", "exact_list_color"])
def test_an_exhausted_search_frees_its_memory(search, args):
    # the memory of a search is freed when the search returns, also when it
    # runs out of its budget and the caller holds the exception
    assert retained_while_raised(lambda: search(*args)) < 1_000_000


def searched_blocks(monkeypatch, search, G, t, fast_paths, budget):
    """The verdict of find_kt_minor_exact with `search` in place of the
    spanning-model stage, and (block, outcome, steps spent so far) for each
    block searched."""
    calls = []

    def recorded(H, block, t, budget, spent):
        try:
            found = search(H, block, t, budget, spent)
        except ml.BudgetExceeded:
            calls.append((block, "budget", spent[0]))
            raise
        calls.append((block, found, spent[0]))
        return found

    monkeypatch.setattr(minor, "_spanning_model_search", recorded)
    try:
        verdict = ml.find_kt_minor_exact(G, t, budget=budget, fast_paths=fast_paths)
    except ml.BudgetExceeded as exc:
        verdict = (exc.steps, exc.n)
    return verdict, calls


def clique_bound_settles(H, block, t):
    """Whether the spanning-model stage proves `block` (of fewer than 2t
    vertices) free by its singleton clique bound, before its first step."""
    try:
        return _spanning_model_search(H, block, t, 0, [0]) is None
    except ml.BudgetExceeded:
        return False


def certified_free(H, block, t):
    """Whether the counting certificate, or for a block of fewer than 2t
    vertices the singleton clique bound, proves `block` free."""
    if _edge_slack(H, block, t) is None:
        return True
    return block.bit_count() < 2 * t and clique_bound_settles(H, block, t)


def plain_count(H, block, t):
    """The edge count m of `block` when it has n >= t vertices and
    m >= C(t, 2) edges, else None: the count without the slack."""
    edges = sum((H.adj[v] & block).bit_count() for v in bits(block)) // 2
    return edges if block.bit_count() >= t and edges >= t * (t - 1) // 2 else None


def last_stage_blocks(G, t):
    """The reduced graph of G and the blocks of it that neither
    certificate nor the greedy contraction settles."""
    H, _ = _series_parallel_reduce(G)
    return H, [
        block for block in biconnected_blocks(H)
        if _elimination_width(H, block, t - 1) == t - 1
        and not certified_free(H, block, t)
        and _greedy_contraction(H, block, t) is None
    ]


def test_branch_set_search_matches_the_recursive_search(monkeypatch):
    # the spanning-model stage against the recursive reference search,
    # block by block, in both modes: the same blocks in the same order, the
    # same verdict wherever the reference decides, and no more steps
    # wherever the reference proves a block free or runs out.  With fast
    # paths no block costs more steps at all; without them the stage may
    # spend more on a block that has a model (K_{4,6} at t = 5: 2 908 steps,
    # where the reference spent 51).  The K3 model of C_15 needs every
    # vertex, so the reference's deepening finds it only at the last cap
    # (after 79 614 steps); the stage spends 6.  The greedy contraction
    # settles nearly every G(n, p) case before the last stage, so with fast
    # paths the stage is also driven directly on the lower-bound blocks that
    # reach it
    graphs = [
        ml.gnp_random_graph(9 + i % 12, 0.25 + 0.05 * (i % 9), seed=9000 + i)
        for i in range(100)
        if i % 5 < 2
    ]
    lower_bound = [
        ml.lower_bound_bipartite(12, 12, 5, 0.05, seed=0),
        ml.lower_bound_bipartite(20, 20, 6, 0.05, seed=0),
        ml.lower_bound_bipartite(20, 20, 6, 0.05, seed=2),
    ]
    graphs += [ml.petersen_graph(), ml.complete_bipartite(4, 6), *lower_bound, subdivided_k5()]
    cases = [
        (G, t, fast_paths, 20_000)
        for G in graphs
        for t in (4, 5, 6)
        for fast_paths in (True, False)
    ]
    cases.append((ml.cycle_graph(15), 3, False, 80_000))
    # lower-bound graphs on which the unpruned search runs out of the
    # budget, as the slowest minor-check requests did: three and one blocks
    # are proved free first, then a model is found (in 6 882 and 17 120
    # steps when this test was written)
    exhausting = [
        (ml.lower_bound_bipartite(60, 60, 6, 0.05, seed=2), 6, True, 20_000),
        (ml.lower_bound_bipartite(80, 80, 6, 0.05, seed=17), 6, True, 20_000),
    ]
    searched = bounded = searched_fast = 0
    for case in cases + exhausting:
        got = searched_blocks(monkeypatch, _spanning_model_search, *case)
        want = searched_blocks(monkeypatch, branch_set_search_ref, *case)
        searched += bool(got[1])
        (verdict, calls), (ref_verdict, ref_calls) = got, want
        if ref_verdict is None or isinstance(ref_verdict, MinorModel):  # decided
            assert (verdict is None) == (ref_verdict is None)
        for (block, found, steps), ref in zip(calls, ref_calls):
            assert block == ref[0]
            if ref[1] != "budget":
                assert (found is None) == (ref[1] is None)
            if case[2] or ref[1] is None or ref[1] == "budget":
                assert steps <= ref[2], (case, block, steps, ref[2])
                bounded += not case[2]
    monkeypatch.undo()
    for G, t, _, budget in exhausting:
        model = ml.find_kt_minor_exact(G, t, budget=budget)
        assert model is not None and model.t == t and ml.validate_model(G, model)
    for G, t in [(G, t) for G in lower_bound for t in (5, 6)] + [c[:2] for c in exhausting]:
        H, blocks = last_stage_blocks(G, t)
        for block in blocks:
            spent, ref_spent = [0], [0]
            found = _spanning_model_search(H, block, t, 20_000, spent)
            try:
                ref = branch_set_search_ref(H, block, t, 20_000, ref_spent)
            except ml.BudgetExceeded:
                ref = "budget"
            assert spent[0] <= ref_spent[0]
            if ref != "budget":
                assert (found is None) == (ref is None)
            searched_fast += 1
    assert searched >= 100 and bounded >= 15, (searched, bounded)
    assert searched_fast >= 5, searched_fast


def test_without_fast_paths_models_and_steps_are_unchanged(monkeypatch):
    # two digests over the blocks that the spanning-model stage searches
    # without fast paths: one of every verdict and of (block, outcome) per
    # block, and one of the steps spent, which moves whenever the stage's
    # own pruning does.  Every model found is valid, and every graph found
    # free is free for the recursive reference search too, run to the end
    # on the same blocks (the partition oracle took 18 s on one G(14, 0.3)
    # at t = 4, 5 and 6)
    graphs = [
        ml.gnp_random_graph(9 + i % 12, 0.25 + 0.05 * (i % 9), seed=9400 + i)
        for i in range(40)
    ]
    graphs += [
        ml.petersen_graph(),
        ml.complete_bipartite(4, 6),
        ml.lower_bound_bipartite(12, 12, 5, 0.05, seed=0),
        subdivided_k5(),
    ]
    outcomes, steps = hashlib.sha256(), hashlib.sha256()
    free = 0
    for G in graphs:
        for t in (4, 5, 6):
            verdict, calls = searched_blocks(
                monkeypatch, _spanning_model_search, G, t, False, 20_000
            )
            if isinstance(verdict, MinorModel):
                assert verdict.t == t and ml.validate_model(G, verdict)
                verdict = [sorted(b) for b in verdict.branch_sets]
            else:
                assert verdict is None
                free += 1
                ref = searched_blocks(monkeypatch, branch_set_search_ref, G, t, False, 10**6)
                assert ref[0] is None, (G, t)
            outcomes.update(repr((verdict, [call[:2] for call in calls])).encode())
            steps.update(repr([call[2] for call in calls]).encode())
    assert free >= 20, free
    assert outcomes.hexdigest() == (
        "bb48d78df43d1f1fe18e16b9cae070953b6e286a2da20ec9d9d124a015a832ee"
    )
    assert steps.hexdigest() == (
        "cc413d56a21c82eb3af6c5eeceaa056d23981403302e276c18414d67164cec02"
    )


def test_fast_paths_agree_with_brute_and_settle_blocks_first(monkeypatch):
    # the counting certificate (with the spanning-model stage's singleton
    # clique bound) and the greedy contraction both decide blocks here, and
    # every verdict is the partition oracle's
    settled = {"counting": 0, "contraction": 0}

    def counting(H, block, t):
        slack = _edge_slack(H, block, t)
        if plain_count(H, block, t) is not None and certified_free(H, block, t):
            settled["counting"] += 1
        return slack

    def contraction(H, block, t):
        masks = _greedy_contraction(H, block, t)
        settled["contraction"] += masks is not None
        return masks

    monkeypatch.setattr(minor, "_edge_slack", counting)
    monkeypatch.setattr(minor, "_greedy_contraction", contraction)
    graphs = []
    for i in range(30):
        graphs.append(ml.gnp_random_graph(8 + i % 3, 0.3 + 0.05 * (i % 8), seed=9600 + i))
        spec = ml.BipartiteSpec(4 + i % 2, 5, 0.4 + 0.05 * (i % 8), 9700 + i)
        graphs.append(ml.gen_bipartite(spec))
    # dense graphs with subdivided edges: the reduction suppresses the
    # subdivision vertices and leaves triangles behind
    rng = random.Random(9650)
    for _ in range(30):
        n = rng.randint(5, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.7]
        for _ in range(min(rng.randint(1, 3), len(edges))):
            u, v = edges.pop(rng.randrange(len(edges)))
            edges += [(u, n), (n, v)]
            n += 1
        graphs.append(ml.from_edge_list(n, edges))
    for G in graphs:
        for t in (4, 5, 6):
            model = ml.find_kt_minor_exact(G, t)
            assert (model is not None) == has_kt_minor_brute(G, t), (G, t)
            assert model is None or (model.t == t and ml.validate_model(G, model))
    assert settled["counting"] >= 2 and settled["contraction"] >= 90, settled


def test_greedy_contraction_models_are_valid():
    # on every block, reduced or not, a returned complete quotient is a
    # valid model in the graph the block came from, and after lifting in
    # the graph before reduction
    graphs = [
        ml.gnp_random_graph(6 + i % 30, 0.1 + 0.05 * (i % 12), seed=9800 + i)
        for i in range(150)
    ]
    graphs += [ml.lower_bound_bipartite(s, s, 5, 0.05, seed=1) for s in (20, 40, 60)]
    graphs += [subdivided_k5(), ml.petersen_graph(), triangulated_strip(4, 6)]
    found = 0
    for G in graphs:
        H, suppressed = _series_parallel_reduce(G)
        for t in (3, 4, 5, 6, 7):
            for F, lift in ((G, []), (H, suppressed)):
                for block in biconnected_blocks(F):
                    masks = _greedy_contraction(F, block, t)
                    if masks is None:
                        continue
                    found += 1
                    assert len(masks) >= t and all(m & ~block == 0 for m in masks)
                    assert ml.model_defect(F, MinorModel(tuple(map(set_of, masks)))) is None
                    lifted = MinorModel(tuple(map(set_of, _lift(masks, lift))))
                    assert ml.model_defect(G, lifted) is None
    assert found >= 300, found


def test_greedy_contraction_matches_the_key_tuple_reference(monkeypatch):
    # the degree table picks the same classes in the same order as the
    # reference, which recounts every degree at each contraction: equal class
    # lists (or None) on every block of the graphs above, of reduced
    # lower-bound graphs and of random G(n, p), reduced or not, at every t;
    # and the Hadwiger numbers, which start from the quotient, are unchanged
    graphs = [
        ml.gnp_random_graph(6 + i % 30, 0.1 + 0.05 * (i % 12), seed=9800 + i)
        for i in range(150)
    ]
    graphs += [ml.gnp_random_graph(8 + i % 25, 0.3, seed=9850 + i) for i in range(50)]
    graphs += [subdivided_k5(), ml.petersen_graph(), triangulated_strip(4, 6)]
    graphs += [ml.complete_graph(7), ml.complete_bipartite(4, 6), ml.cycle_graph(9)]
    graphs += [
        ml.lower_bound_bipartite(s, s, t, 0.05, seed=seed)
        for s, t in ((20, 5), (40, 5), (60, 6), (80, 6))
        for seed in range(3)
    ]
    compared = found = 0
    for G in graphs:
        for F in (G, _series_parallel_reduce(G)[0]):
            for block in biconnected_blocks(F):
                for t in (1, 3, 4, 5, 6, 7):
                    masks = _greedy_contraction(F, block, t)
                    assert masks == greedy_contraction_ref(F, block, t), (F, block, t)
                    compared += 1
                    found += masks is not None
    assert compared >= 5_000 and found >= 2_000, (compared, found)
    small = [G for G in graphs if G.n <= 12]
    want = [ml.hadwiger_number(G) for G in small]
    monkeypatch.setattr(minor, "_greedy_contraction", greedy_contraction_ref)
    assert [ml.hadwiger_number(G) for G in small] == want
    assert len(small) >= 20, len(small)


def test_counting_certificate_never_skips_a_block_with_a_model():
    # blocks of the reduced lower-bound graphs that the edge slack or the
    # clique number proves too small: the recursive search, run to the end,
    # finds no model in any of them
    skipped = 0
    for s in (12, 16, 20, 24):
        for t in (5, 6):
            for seed in range(10):
                G = ml.lower_bound_bipartite(s, s, t, 0.05, seed=seed)
                H, _ = _series_parallel_reduce(G)
                for block in biconnected_blocks(H):
                    if plain_count(H, block, t) is None:
                        continue
                    if certified_free(H, block, t):
                        skipped += 1
                        assert branch_set_search_ref(H, block, t, 10**6, [0]) is None
    assert skipped >= 40, skipped


def test_counting_certificate_with_clique_number_two():
    # K_{3,4} at t = 5: 7 vertices and 12 edges leave a slack of
    # 12 - C(5,2) - 2 = 0, but it has no triangle, so a model needs
    # 2t - 2 = 8 vertices
    G = ml.complete_bipartite(3, 4)
    assert _edge_slack(G, G.full_mask, 5) == 0
    assert clique_bound_settles(G, G.full_mask, 5)
    # K_{3,3,2} at t = 6 has a slack of 21 - C(6,2) - 2 = 4 and triangles,
    # but no K_4, so a model needs 2*6 - 3 = 9 vertices
    G = ml.complete_multipartite([3, 3, 2])
    assert _edge_slack(G, G.full_mask, 6) == 4
    assert clique_bound_settles(G, G.full_mask, 6)
    # K_{3,3} plus an edge: 10 edges fall short of C(5,2) + (6 - 5)
    G = ml.from_edge_list(6, [(u, v) for u in range(3) for v in range(3, 6)] + [(0, 1)])
    assert _edge_slack(G, G.full_mask, 5) is None


def test_edge_slack_certificate():
    # Petersen at t = 6: 15 edges fall short of C(6,2) + (10 - 6) = 19, so
    # it is free without a clique search; at t = 5 its slack is 0 and its
    # K5 model (the five spokes, contracted) spends none of it
    P = ml.petersen_graph()
    assert _edge_slack(P, P.full_mask, 6) is None
    assert _edge_slack(P, P.full_mask, 5) == 0
    # the count settles the block without fast paths too: no step is spent
    assert ml.find_kt_minor_exact(P, 6, budget=0, fast_paths=False) is None
    # K_6 has slack C(6,2) - C(6,2) - 0 = 0 at t = 6 and 15 - 10 - 1 = 4 at t = 5
    K = ml.complete_graph(6)
    assert [_edge_slack(K, K.full_mask, t) for t in (5, 6, 7)] == [4, 0, None]


def counting_certificate_brute(B, t, by_degree):
    """The counting certificate on the whole of B by enumeration: None when
    the edge slack is negative or no 2t - n vertices, of block degree
    >= t - 1 if `by_degree`, are pairwise adjacent; otherwise the slack."""
    slack = B.m - t * (t - 1) // 2 - (B.n - t)
    w_least = max(2 * t - B.n, 0)
    among = [v for v in range(B.n) if not by_degree or B.degree(v) >= t - 1]
    cliques = (
        c for c in combinations(among, w_least)
        if all(B.has_edge(u, v) for u, v in combinations(c, 2))
    )
    if slack < 0 or w_least > t or next(cliques, None) is None:
        return None
    return slack


def test_singleton_degree_bound_settles_only_free_blocks():
    # singleton branch sets need block degree >= t - 1, so only those
    # vertices can hold the 2t - n singletons a model on n vertices needs.
    # On lower-bound blocks at t = 5 and 6, random tight and planted blocks
    # and Petersen, the certificate is the enumerated one, every block it
    # settles is free by the partition oracle, and many of them the clique
    # number of the whole block did not settle
    cases = []
    for t, sides in ((5, (40, 60)), (6, (60, 80))):
        for side in sides:
            for seed in range(4):
                G = ml.lower_bound_bipartite(side, side, t, 0.05, seed=seed)
                H, _ = _series_parallel_reduce(G)
                cases += [(H, block, t) for block in biconnected_blocks(H)]
    rng = random.Random(9930)
    for i in range(12):
        n, t = 8 + i % 3, 5 + i // 3 % 2
        B = tight_block(rng, n, t * (t - 1) // 2 + n - t + i // 6)
        M = planted_tight_model(rng, n, t)
        cases += [(B, B.full_mask, t), (M, M.full_mask, t)]
    P = ml.petersen_graph()
    cases += [(P, P.full_mask, 5), (P, P.full_mask, 6)]
    settled = newly = 0
    for H, block, t in cases:
        B = induced_subgraph(H, bits(block))
        plain = plain_count(H, block, t)
        slack = None if certified_free(H, block, t) else _edge_slack(H, block, t)
        assert slack == counting_certificate_brute(B, t, True), (B, t)
        if slack is None and plain is not None:
            settled += 1
            assert not has_kt_minor_brute(B, t), (B, t)
            newly += counting_certificate_brute(B, t, False) is not None
    assert settled >= 40 and newly >= 20, (settled, newly)


def test_singleton_degree_bound_on_hand_made_blocks():
    # K_{3,5} at t = 5: slack 15 - C(5,2) - 3 = 2, and a model on 8
    # vertices needs 2 singletons, which an edge allows; but only the three
    # vertices of degree 5 can be singletons, and they are pairwise apart
    G = ml.complete_bipartite(3, 5)
    assert counting_certificate_brute(G, 5, False) == 2
    assert _edge_slack(G, G.full_mask, 5) == 2
    assert clique_bound_settles(G, G.full_mask, 5)
    # the 4-regular circulant C_11(1, 2) at t = 6: slack 22 - C(6,2) - 5 = 2,
    # and a model on 11 vertices needs a singleton, of degree 5: none has it
    C = ml.from_edge_list(11, [(i, (i + d) % 11) for i in range(11) for d in (1, 2)])
    assert counting_certificate_brute(C, 6, False) == 2
    assert _edge_slack(C, C.full_mask, 6) == 2
    assert clique_bound_settles(C, C.full_mask, 6)
    assert not has_kt_minor_brute(G, 5) and not has_kt_minor_brute(C, 6)


def test_spanning_model_stage_root_without_moves_returns_none():
    # a slack below 0 leaves the spanning-model stage no move, since no
    # surplus that counts is below 0: no vertex of block degree >= t - 1
    # starts a clique, and the empty clique's first set can neither grow
    # nor close, so the stage proves freeness after two steps.  The
    # subdivided K5 at t = 6 and the 8-cycle at t = 4 have 2t <= n and a
    # slack of -4 and -2
    for G, t in ((subdivided_k5(), 6), (ml.cycle_graph(8), 4)):
        spent = [0]
        assert _spanning_model_search(G, G.full_mask, t, 100, spent) is None
        assert spent == [2]
    # singletons count too: this 9-vertex block at t = 6 has a slack of 0
    # and needs 2t - n = 3 singletons, and its only triangle of vertices of
    # degree >= 5, {0, 2, 3}, holds vertex 0 of degree 6, whose surplus of
    # 1 is past 2 * 0, so the root has no move (without that check: 5 steps)
    G = ml.from_edge_list(9, [
        (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 5),
        (1, 6), (2, 3), (2, 4), (2, 5), (3, 7), (3, 8), (4, 8), (5, 7), (6, 8),
    ])
    assert _edge_slack(G, G.full_mask, 6) == 0 and not has_kt_minor_brute(G, 6)
    spent = [0]
    assert _spanning_model_search(G, G.full_mask, 6, 100, spent) is None
    assert spent == [1]


def tight_block(rng, n, m):
    """A random Hamiltonian (so 2-connected) graph on n vertices with m
    edges and minimum degree at least 3."""
    while True:
        order = rng.sample(range(n), n)
        adj = [set() for _ in range(n)]
        for u, v in zip(order, order[1:] + order[:1]):
            adj[u].add(v)
            adj[v].add(u)
        while low := [v for v in range(n) if len(adj[v]) < 3]:
            u = rng.choice(low)
            free = [v for v in range(n) if v != u and v not in adj[u]]
            v = rng.choice([v for v in free if v in low] or free)
            adj[u].add(v)
            adj[v].add(u)
        edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
        if len(edges) <= m:
            spare = [(u, v) for u, v in combinations(range(n), 2) if v not in adj[u]]
            return ml.from_edge_list(n, edges + rng.sample(spare, m - len(edges)))


def planted_tight_model(rng, n, t):
    """A random 2-connected graph on n vertices of minimum degree at least 3
    made of a K_t model that spends no excess: t trees covering every
    vertex and one edge between each pair of them, so its slack is 0.  Each
    pair's edge ends at a vertex of least degree so far in either tree."""
    while True:
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), t - 1))
        sets = [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        edges = [(s[k], rng.choice(s[:k])) for s in sets for k in range(1, len(s))]
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        pairs = list(combinations(sets, 2))
        rng.shuffle(pairs)
        for pair in pairs:
            u, v = (rng.choice([x for x in s if degree[x] == min(degree[y] for y in s)])
                    for s in pair)
            degree[u] += 1
            degree[v] += 1
            edges.append((u, v))
        G = ml.from_edge_list(n, edges)
        if min(map(G.degree, range(n))) >= 3 and biconnected_blocks(G) == [G.full_mask]:
            return G


def test_slack_pruned_search_agrees_with_brute():
    # every distinct block that reaches the last stage from the lower-bound
    # graphs at t = 5 (sides 40-60) and t = 6 (sides 60-80), and random
    # 2-connected blocks of minimum degree 3 on 8-10 vertices with slack 0
    # or 1; the certificate and the pruned search agree with the partition
    # oracle on each.  Slack-0 blocks with a model, such as Petersen at
    # t = 5 and the planted ones, fail here if the spanning-model stage's
    # surplus bound is one too tight.
    # Since the singleton bound counts only vertices of block degree >= t - 1,
    # fewer blocks reach the search (11 over seeds 0-5, where there were
    # 25), so 14 seeds are taken (21 blocks)
    blocks = {}
    for t, sides in ((5, (40, 50, 60)), (6, (60, 70, 80))):
        for side in sides:
            for seed in range(14):
                G = ml.lower_bound_bipartite(side, side, t, 0.05, seed=seed)
                H, last = last_stage_blocks(G, t)
                for block in last:
                    B = induced_subgraph(H, bits(block))
                    blocks.setdefault((B.adj, t), (H, block))
    searched = len(blocks)
    P = ml.petersen_graph()
    blocks[P.adj, 5] = (P, P.full_mask)
    rng = random.Random(9900)
    for i in range(12):
        n, t, slack = 8 + i % 3, 5 + i // 3 % 2, i // 6 % 2
        B = tight_block(rng, n, t * (t - 1) // 2 + n - t + slack)
        blocks.setdefault((B.adj, t), (B, B.full_mask))
        B = planted_tight_model(rng, n, t)
        blocks.setdefault((B.adj, t), (B, B.full_mask))
    tight_models = 0
    for (_, t), (H, block) in blocks.items():
        want = has_kt_minor_brute(induced_subgraph(H, bits(block)), t)
        if certified_free(H, block, t):
            assert not want
            continue
        slack = _edge_slack(H, block, t)
        found = _spanning_model_search(H, block, t, 10**6, [0])
        assert (found is not None) == want, (H, block, t, slack)
        if found is not None:
            assert ml.validate_model(H, MinorModel(tuple(map(set_of, found))))
            tight_models += slack == 0
    assert searched >= 20 and tight_models >= 12, (searched, tight_models)


def test_spanning_models_have_surpluses_summing_to_twice_the_slack():
    # the identity behind the spanning-model stage's surplus bound, on
    # every model that spans a small 2-connected block: the surplus of each
    # set (the sum over its vertices of their degree in the block less 2,
    # less t - 3) is at least 0, and the surpluses sum to twice the edge
    # slack.  The stage, bounded by twice the slack, finds a model exactly
    # on the blocks that have one, and many of them have a slack of 1 or
    # more
    rng = random.Random(9970)
    blocks = []
    for i in range(12):
        n, t = 8 + i % 2, 4 + i // 6
        m = max(t * (t - 1) // 2 + n - t + i % 3, (3 * n + 1) // 2)
        blocks.append((tight_block(rng, n, m), t))
        if t == 5:
            blocks.append((planted_tight_model(rng, n, t), t))
    for i in range(30):
        G = ml.gnp_random_graph(7 + i % 3, 0.4 + 0.05 * (i % 4), seed=9970 + i)
        for block in biconnected_blocks(G):
            if block.bit_count() >= 5:
                blocks += [(induced_subgraph(G, bits(block)), t) for t in (4, 5)]
    with_models = loose_models = 0
    for B, t in blocks:
        spanning = spanning_models_brute(B, t)
        slack = _edge_slack(B, B.full_mask, t)
        charge = [B.degree(v) - 2 for v in range(B.n)]
        for sets in spanning:
            surplus = [sum(charge[v] for v in bits(s)) - (t - 3) for s in sets]
            assert min(surplus) >= 0 and sum(surplus) == 2 * slack, (B, t, sets)
        found = slack is not None and _spanning_model_search(B, B.full_mask, t, 10**6, [0])
        assert bool(found) == bool(spanning), (B, t, slack)
        with_models += bool(spanning)
        loose_models += bool(spanning) and slack > 0
    assert len(blocks) >= 60 and with_models >= 40 and loose_models >= 30, (
        len(blocks), with_models, loose_models
    )


def subdivided(rng, G, count):
    """G with `count` random edges subdivided, ids shuffled: each new vertex
    has degree 2, and a 2-connected G stays 2-connected with the same
    slack."""
    edges = G.edges()
    split = set(rng.sample(range(len(edges)), count))
    n = G.n + count
    ids = rng.sample(range(n), n)
    out, extra = [], G.n
    for i, (u, v) in enumerate(edges):
        if i in split:
            out += [(ids[u], ids[extra]), (ids[extra], ids[v])]
            extra += 1
        else:
            out.append((ids[u], ids[v]))
    return ml.from_edge_list(n, out)


def test_first_seed_at_the_least_vertex_agrees_with_brute():
    # unreduced 2-connected blocks with degree-2 vertices, decided by the
    # spanning-model stage, whose surplus bound counts a degree-2 vertex at
    # 0 and whose first set of two or more vertices opens at the least
    # vertex that no singleton holds.  Planted slack-0 models with
    # subdivided edges fail here if a degree-2 vertex is charged, or if a
    # model needs that set elsewhere; every verdict is the partition
    # oracle's, and every model found holds that vertex in its first such
    # set.  A model of a connected block grows into a spanning one, so the
    # rule cannot change a verdict; the next test pins its steps
    rng = random.Random(9950)
    blocks = []
    for i in range(8):
        n, t = 8 + i % 2, 5 + i // 4
        blocks.append((subdivided(rng, planted_tight_model(rng, n, t), 1 + i % 2), t))
        m = t * (t - 1) // 2 + n - t + i % 2
        blocks.append((subdivided(rng, tight_block(rng, n, m), 1 + i % 2), t))
    for i in range(30):
        G = ml.gnp_random_graph(7 + i % 3, 0.45 + 0.05 * (i % 3), seed=9950 + i)
        blocks += [(subdivided(rng, G, 1 + i % 2), t) for t in (4, 5)]
    searched = models = tight_models = 0
    for G, t in blocks:
        for block in biconnected_blocks(G):
            if not any((G.adj[v] & block).bit_count() == 2 for v in bits(block)):
                continue
            slack = _edge_slack(G, block, t)
            want = has_kt_minor_brute(induced_subgraph(G, bits(block)), t)
            if slack is None:
                assert not want
                continue
            searched += 1
            found = _spanning_model_search(G, block, t, 10**6, [0])
            assert (found is not None) == want, (G, block, t, slack)
            if found is not None:
                assert ml.validate_model(G, MinorModel(tuple(map(set_of, found))))
                unplaced = block & ~sum(m for m in found if not m & m - 1)
                assert next(m for m in found if m & m - 1) & unplaced & -unplaced
                models += 1
                tight_models += slack == 0
    assert searched >= 50 and models >= 30 and tight_models >= 8, (
        searched, models, tight_models
    )


def test_first_seed_at_the_least_vertex_cuts_the_lower_bound_steps(monkeypatch):
    # the lower-bound graphs that the unpruned search cannot settle within
    # 20 000 steps: the edge slack alone spent 6 882 and 17 120 steps on
    # them, seeding the first set only at the block's least vertex brought
    # that to 4 364 and 10 380, the per-set surplus prune in place of the
    # edge excess to 958 and 2 864, and bounding the singleton sets by the
    # clique number of the vertices of block degree >= t - 1 alone 123 and
    # 1 814.  Every block that reaches the last stage has fewer than 2t
    # vertices; the spanning-model stage decided them in 28 and 152 steps,
    # and with the surplus bound it spends 7 and 108; the models are valid
    # each time
    for (side, seed), find_steps in (((60, 2), 7), ((80, 17), 108)):
        G = ml.lower_bound_bipartite(side, side, 6, 0.05, seed=seed)
        H, blocks = last_stage_blocks(G, 6)
        assert blocks and all(block.bit_count() < 12 for block in blocks)
        model, calls = searched_blocks(monkeypatch, _spanning_model_search, G, 6, True, 20_000)
        assert calls[-1][2] == find_steps, calls
        assert isinstance(model, MinorModel) and ml.validate_model(G, model)


def probe_block():
    """A 2-connected block of minimum degree 3 on 20 vertices and 47 edges:
    at t = 9 its slack is 47 - C(9, 2) - 11 = 0, and it has no K_9 minor."""
    edges = (
        "0-5 0-9 0-12 0-14 0-19 1-9 1-10 1-16 1-19 2-3 2-5 2-7 2-9 2-11 2-13 2-14 "
        "3-12 3-16 3-17 4-8 4-12 4-14 4-15 5-6 5-8 5-13 5-14 6-9 6-10 7-8 7-11 7-17 "
        "8-18 8-19 9-13 9-14 9-15 10-18 10-19 11-15 12-16 12-18 13-15 13-19 14-17 "
        "14-18 16-19"
    )
    return ml.from_edge_list(20, [tuple(map(int, e.split("-"))) for e in edges.split()])


def test_surplus_bound_decides_a_block_of_2t_or_more_vertices(monkeypatch):
    # n = 20 >= 2t, so no singleton is needed and the stage starts from the
    # empty clique; with a slack of 0 every set of a model must have a
    # surplus of exactly 0, and the stage proves the block K9-minor-free in
    # 19 steps.  The surplus-pruned branch-set search spent 13 812 steps on
    # it, and the stage without the surplus bound ran out of 20 000
    G = probe_block()
    assert _edge_slack(G, G.full_mask, 9) == 0
    assert min(map(G.degree, range(G.n))) == 3 and biconnected_blocks(G) == [G.full_mask]
    verdict, calls = searched_blocks(monkeypatch, _spanning_model_search, G, 9, True, 20_000)
    assert verdict is None and calls == [(G.full_mask, None, 19)]


def test_spanning_model_stage_takes_every_block_the_fast_paths_leave(monkeypatch):
    # with fast paths the spanning-model stage takes every block that the
    # certificates and the greedy contraction leave, of any size: the
    # Petersen graph under hadwiger_number (a block of 2t = 10 vertices at
    # t = 5, decided in 10 steps) and the lower-bound graphs at t = 5 and 6
    stage_calls = []

    def recorded(H, block, t, budget, spent):
        try:
            return _spanning_model_search(H, block, t, budget, spent)
        finally:
            stage_calls.append((block.bit_count(), t, spent[0]))

    monkeypatch.setattr(minor, "_spanning_model_search", recorded)
    assert ml.hadwiger_number(ml.petersen_graph()) == 5
    assert stage_calls == [(10, 5, 10)]
    for t, sides in ((5, (40, 60)), (6, (60, 80))):
        for side in sides:
            for seed in range(3):
                G = ml.lower_bound_bipartite(side, side, t, 0.05, seed=seed)
                model = ml.find_kt_minor_exact(G, t, budget=20_000)
                assert model is None or ml.validate_model(G, model)
    assert len(stage_calls) >= 10, len(stage_calls)


def test_hadwiger_starts_at_the_greedy_quotient(monkeypatch):
    # the greedy contraction of the Petersen graph ends in a K_4, and the
    # elimination width bounds it by 5, so only t = 5 is searched
    asked = []
    find = ml.find_kt_minor_exact

    def recorded(G, t, budget):
        asked.append(t)
        return find(G, t, budget)

    monkeypatch.setattr(minor, "find_kt_minor_exact", recorded)
    assert ml.hadwiger_number(ml.petersen_graph()) == 5
    assert asked == [5]


def test_counting_certificate_gives_up_on_a_long_clique_search(monkeypatch):
    # K_{3,...,3} with 13 parts at t = 27: a model needs a clique on
    # 2t - 39 = 15 vertices and the clique number is 13, so no search step
    # is spent
    G = ml.complete_multipartite([3] * 13)
    assert ml.find_kt_minor_exact(G, 27, budget=1) is None
    # a clique search that runs out of its |block|^2 nodes keeps the block,
    # and the budgeted search decides
    caps = []

    def gives_up(H, start, budget, target):
        caps.append(budget)
        raise ml.BudgetExceeded("independent-set search", budget, H.n)

    monkeypatch.setattr(minor, "_mis_search", gives_up)
    with pytest.raises(ml.BudgetExceeded):
        ml.find_kt_minor_exact(G, 27, budget=1)
    assert caps == [39 * 39]


def test_small_block_stage_agrees_with_brute():
    # 2-connected G(n, p) with t <= n < 2t, t = 3..7, and with 2t <= n <= 10,
    # t = 3..5, and random tight and planted 2-connected blocks of minimum
    # degree 3 with n = 2t = 10: the spanning-model stage's verdict is the
    # partition oracle's, every model spans the graph as singletons then
    # parts, each part holds the least vertex that no singleton or earlier
    # part holds, and up to 8 vertices the model is one of the oracle's
    # spanning models.  The stage's surplus bound needs a 2-connected
    # block: on a connected graph with a cut vertex a set's surplus may
    # fall as it grows (7 vertices at t = 3 were one such case)
    cases = []
    for i in range(600):
        rng = random.Random(10_100 + i)
        t = rng.randint(3, 7)
        n = rng.randint(t, min(2 * t - 1, 9))
        cases.append((ml.gnp_random_graph(n, rng.uniform(0.3, 0.95), seed=10_100 + i), t))
    for i in range(400):
        rng = random.Random(10_700 + i)
        t = rng.randint(3, 5)
        n = rng.randint(2 * t, 10)
        cases.append((ml.gnp_random_graph(n, rng.uniform(0.2, 0.6), seed=10_700 + i), t))
    rng = random.Random(10_650)
    for i in range(16):
        cases += [(tight_block(rng, 10, 15 + i % 3), 5), (planted_tight_model(rng, 10, 5), 5)]
    checked = models = large = large_free = 0
    for G, t in cases:
        n = G.n
        if biconnected_blocks(G) != [G.full_mask]:
            continue
        checked += 1
        large += n >= 2 * t
        found = _spanning_model_search(G, G.full_mask, t, 10**6, [0])
        assert (found is not None) == has_kt_minor_brute(G, t), (G, t)
        if found is None:
            large_free += n >= 2 * t
            continue
        models += 1
        assert len(found) == t and sum(found) == G.full_mask
        assert ml.validate_model(G, MinorModel(tuple(map(set_of, found))))
        placed = sum(m for m in found if not m & m - 1)
        for part in [m for m in found if m & m - 1]:
            unplaced = G.full_mask & ~placed
            assert part & -part == unplaced & -unplaced, (G, t, found)
            placed |= part
        if n <= 8:
            assert sorted(found) in map(sorted, spanning_models_brute(G, t)), (G, t)
    assert checked >= 500 and models >= 300, (checked, models)
    assert large >= 150 and large_free >= 10, (large, large_free)


def test_small_block_stage_matches_the_search_on_lower_bound_blocks():
    # every block of fewer than 2t vertices that the counting certificate
    # and the greedy contraction leave in the reduced lower-bound graphs at
    # t = 5 and 6: the stage (its clique bound included) decides each one
    # as the recursive reference search does, within 20 000 steps each
    compared = free = 0
    for t, sides in ((5, (40, 60)), (6, (60, 80))):
        for side in sides:
            for seed in range(3):
                G = ml.lower_bound_bipartite(side, side, t, 0.05, seed=seed)
                H, _ = _series_parallel_reduce(G)
                for block in biconnected_blocks(H):
                    if (block.bit_count() >= 2 * t
                            or _edge_slack(H, block, t) is None
                            or _greedy_contraction(H, block, t) is not None):
                        continue
                    found = _spanning_model_search(H, block, t, 20_000, [0])
                    ref = branch_set_search_ref(H, block, t, 10**6, [0])
                    assert (found is None) == (ref is None), (H, block, t)
                    compared += 1
                    free += ref is None
    assert compared >= 30 and free >= 25, (compared, free)


def test_small_block_budget_bounds_the_clique_enumeration(monkeypatch):
    # K_{3,...,3} with 13 parts at t = 27: with the clique bound giving up,
    # the stage enumerates the cliques of a block with about 4^13 of them;
    # one step per clique or split node keeps 2 000 steps well under 0.5 s
    def gives_up(H, start, budget, target):
        raise ml.BudgetExceeded("independent-set search", budget, H.n)

    monkeypatch.setattr(minor, "_mis_search", gives_up)
    G = ml.complete_multipartite([3] * 13)
    t0 = time.perf_counter()
    with pytest.raises(ml.BudgetExceeded) as info:
        ml.find_kt_minor_exact(G, 27, budget=2000)
    assert time.perf_counter() - t0 < 0.5
    assert (info.value.steps, info.value.n) == (2000, 39)


def test_width_certificate_decides_petersen_at_six():
    # min-degree elimination of the Petersen graph has width 4 < 5: no
    # search step is needed to prove it K6-minor-free
    model = ml.find_kt_minor_exact(ml.petersen_graph(), 6, budget=5)
    assert model is None or ml.validate_model(ml.petersen_graph(), model)


def test_reduction_finds_subdivided_k5_within_budget():
    G = subdivided_k5()
    model = ml.find_kt_minor_exact(G, 5, budget=20_000)
    assert model is not None and model.t == 5
    assert ml.validate_model(G, model)


def test_without_fast_paths_a_model_on_every_vertex_is_found_at_once():
    # the K3 models of C_15, C_16 and C_40 and the K5 model of the
    # subdivided K5 need every vertex of the block.  The branch-set search
    # that once decided blocks without fast paths deepened a cap on the
    # used vertices and searched each smaller cap in full first: 79 614
    # steps on C_15 and 118 603 on C_16, and it ran out of 10^6 on the
    # other two
    for G, t in [(ml.cycle_graph(n), 3) for n in (15, 16, 40)] + [(subdivided_k5(), 5)]:
        model = ml.find_kt_minor_exact(G, t, budget=100, fast_paths=False)
        assert model is not None and model.t == t and ml.validate_model(G, model)


def triangulated_strip(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
            if r + 1 < rows and c + 1 < cols:
                edges.append((v, v + cols + 1))
    return ml.from_edge_list(rows * cols, edges)


def test_long_cycle_is_decided_quickly():
    start = time.perf_counter()
    assert ml.find_kt_minor_exact(ml.cycle_graph(2000), 5, budget=2000) is None
    assert time.perf_counter() - start < 0.5


def test_k3_on_a_long_cycle_and_path_needs_no_recursion():
    for G, found in ((ml.cycle_graph(20000), True), (ml.path_graph(20000), False)):
        start = time.perf_counter()
        model = ml.find_kt_minor_exact(G, 3)
        assert time.perf_counter() - start < 2.0
        assert (model is not None) == found
        if found:
            assert model.t == 3 and ml.validate_model(G, model)


def test_long_triangulated_strip_is_certified_quickly():
    G = triangulated_strip(3, 1000)  # treewidth at most 4
    start = time.perf_counter()
    assert ml.find_kt_minor_exact(G, 6, budget=2000) is None
    assert time.perf_counter() - start < 0.5


def min_degree_width(G, stop):
    """Reference min-degree elimination: scan every vertex at every step."""
    adj = list(G.adj)
    live = set(range(G.n))
    width = 0
    while live:
        v = min(live, key=lambda x: (adj[x].bit_count(), x))
        if adj[v].bit_count() >= stop:
            return stop
        width = max(width, adj[v].bit_count())
        live.remove(v)
        for u in live:
            if adj[u] >> v & 1:
                adj[u] = (adj[u] | adj[v]) & ~(1 << u | 1 << v)
    return width


def test_elimination_width_follows_min_degree_order():
    for i in range(200):
        G = ml.gnp_random_graph(5 + i % 25, 0.05 + 0.05 * (i % 9), seed=6100 + i)
        for stop in (3, 4, 5, G.n):
            assert _elimination_width(G, G.full_mask, stop) == min_degree_width(G, stop)


# -- differential checks against the partition oracle -----------------------


def check_against_brute(G, hadwiger=False):
    """Both search paths agree with the oracle at t = 3..6, every model is
    valid, and (optionally) so does the Hadwiger number."""
    for t in (3, 4, 5, 6):
        expected = has_kt_minor_brute(G, t)
        for fast in (True, False):
            model = ml.find_kt_minor_exact(G, t, fast_paths=fast)
            assert (model is not None) == expected, (G, t, fast)
            if model is not None:
                assert model.t == t and ml.validate_model(G, model)
    if hadwiger:
        h = 0
        while h < G.n and has_kt_minor_brute(G, h + 1):
            h += 1
        assert ml.hadwiger_number(G) == h, G


def test_search_agrees_with_brute_on_every_graph_up_to_five_vertices():
    for n in range(6):
        pairs = list(combinations(range(n), 2))
        for picked in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if picked >> i & 1]
            check_against_brute(ml.from_edge_list(n, edges), hadwiger=True)


def test_search_agrees_with_brute_on_random_graphs():
    for i in range(1500):
        n = 6 + i % 3
        p = 0.2 + 0.1 * (i // 3 % 8)
        check_against_brute(ml.gnp_random_graph(n, p, seed=5000 + i), hadwiger=n <= 7)


def test_search_lifts_models_through_subdivisions():
    # dense graphs on 4-6 vertices with up to 3 edges subdivided and the ids
    # shuffled, so suppressed vertices must be put back into branch sets
    rng = random.Random(7100)
    for _ in range(150):
        n = rng.randint(4, 6)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.8]
        for _ in range(min(rng.randint(1, 3), len(edges))):
            u, v = edges.pop(rng.randrange(len(edges)))
            edges += [(u, n), (n, v)]
            n += 1
        perm = rng.sample(range(n), n)
        G = ml.from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])
        check_against_brute(G)


@st.composite
def _graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    picked = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return ml.from_edge_list(n, sorted(picked))


@settings(max_examples=100, deadline=None)
@given(_graphs())
def test_search_agrees_with_brute_on_generated_graphs(G):
    check_against_brute(G)


def test_find_monotone_in_t():
    for i in range(30):
        G = ml.gnp_random_graph(8, 0.5, seed=2400 + i)
        found = [ml.find_kt_minor_exact(G, t) is not None for t in range(1, 7)]
        assert found == sorted(found, reverse=True)


@pytest.mark.parametrize(
    "builder,t,expected",
    [
        (lambda: ml.complete_graph(6), 6, 6),
        (lambda: ml.petersen_graph(), None, 5),
        (lambda: ml.cycle_graph(5), None, 3),
        (lambda: ml.complete_bipartite(3, 3), None, 4),
    ],
)
def test_hadwiger_fixtures(builder, t, expected):
    assert ml.hadwiger_number(builder()) == expected


def grid_graph(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return ml.from_edge_list(rows * cols, edges)


def test_hadwiger_planar_fixtures():
    # planar graphs never reach K_5; these all contain K_4 minors
    assert ml.hadwiger_number(grid_graph(3, 3)) == 4
    assert ml.hadwiger_number(grid_graph(3, 4)) == 4
    assert ml.hadwiger_number(ml.complete_multipartite([2, 2, 2])) == 4
    cube = ml.from_edge_list(8, [
        (0, 1), (1, 2), (2, 3), (3, 0),
        (4, 5), (5, 6), (6, 7), (7, 4),
        (0, 4), (1, 5), (2, 6), (3, 7),
    ])
    assert ml.hadwiger_number(cube) == 4


def test_k4_minor_free_recognizer():
    assert ml.k4_minor_free(ml.path_graph(6))
    assert ml.k4_minor_free(ml.cycle_graph(9))
    assert not ml.k4_minor_free(ml.complete_graph(4))
    assert not ml.k4_minor_free(ml.complete_bipartite(3, 3))
    assert not ml.k4_minor_free(ml.petersen_graph())


def test_series_parallel_agrees_with_backtracking_small():
    for i in range(80):
        n = 4 + i % 7
        G = ml.gnp_random_graph(n, 0.4, seed=2600 + i)
        assert ml.k4_minor_free(G) == (
            ml.find_kt_minor_exact(G, 4, fast_paths=False) is None
        )


def test_search_agrees_with_partition_oracle_spot():
    for i in range(60):
        G = ml.gnp_random_graph(3 + i % 6, 0.5, seed=2800 + i)
        for t in (3, 4, 5):
            assert (ml.find_kt_minor_exact(G, t) is not None) == has_kt_minor_brute(
                G, t
            )


# -- dense randomized builder -----------------------------------------------


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_dense_model_on_complete_first_trial(t):
    G = ml.complete_graph(9 * t)
    model = ml.dense_random_model(G, DenseModelParams(t=t, trials=1, seed=0))
    assert model is not None
    assert ml.validate_model(G, model)


def test_dense_model_fails_on_empty_graph():
    G = ml.empty_graph(18)
    assert ml.dense_random_model(G, DenseModelParams(t=2, trials=4, seed=0)) is None


def test_dense_model_requires_enough_vertices():
    with pytest.raises(ml.PreconditionError):
        ml.dense_random_model(ml.complete_graph(17), DenseModelParams(t=2))


def test_dense_model_branch_sets_cover_both_blocks():
    G = ml.gnp_random_graph(180, 0.995, seed=12)
    l = 180 // 36
    model = ml.dense_random_model(G, DenseModelParams(t=4, trials=4, seed=5))
    assert model is not None
    assert all(len(s) >= 2 * l for s in model.branch_sets)
    assert ml.validate_model(G, model)


@pytest.mark.parametrize("graph_seed", [9, 16])
def test_dense_model_joins_a_split_branch_set_through_a_connector(monkeypatch, graph_seed):
    # in the complement of a sparse G(36, 0.3) some X_i + Y_i is disconnected,
    # so the builder must add a vertex outside the core that touches two parts
    H = ml.gnp_random_graph(36, 0.3, graph_seed)
    G = ml.from_edge_list(
        36, [(u, v) for u, v in combinations(range(36), 2) if not H.has_edge(u, v)]
    )
    components = minor.mask_components
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return components(*args)

    monkeypatch.setattr(minor, "mask_components", counted)
    model = ml.dense_random_model(G, DenseModelParams(t=2, l=2, trials=1, seed=1))
    assert calls >= 1
    assert model is not None and ml.validate_model(G, model)


def test_dense_model_deterministic_given_seed():
    G = ml.gnp_random_graph(180, 0.995, seed=12)
    params = DenseModelParams(t=4, trials=3, seed=9)
    assert ml.dense_random_model(G, params) == ml.dense_random_model(G, params)


def test_dense_model_reliable_when_condition_holds():
    # graphs satisfying the density condition succeed nearly always when
    # given ten times the single-trial budget
    G = ml.gnp_random_graph(180, 0.995, seed=12)
    assert ml.dense_condition_holds(G, 4, 5)
    hits = sum(
        ml.dense_random_model(G, DenseModelParams(t=4, trials=10, seed=s))
        is not None
        for s in range(100)
    )
    assert hits / 100 >= 0.99


def test_dense_condition_evaluator():
    assert ml.dense_condition_holds(ml.complete_graph(20), 2, 1)
    assert not ml.dense_condition_holds(ml.empty_graph(20), 2, 1)


# -- contraction round ------------------------------------------------------


def _bipartite_parts(a, b):
    return frozenset(range(a)), frozenset(range(a, a + b))


def test_contraction_round_single_neighbor_is_deterministic():
    # every left vertex has exactly one right neighbor: no randomness
    edges = [(0, 3), (1, 4), (2, 3)]
    G = ml.from_edge_list(5, edges)
    A, B = _bipartite_parts(3, 2)
    H1 = ml.contraction_round(G, A, B, B, seed=1)
    H2 = ml.contraction_round(G, A, B, B, seed=99)
    assert H1 == H2
    assert H1.m == 0


def test_contraction_round_no_neighbors_gives_edgeless():
    G = ml.from_edge_list(4, [])
    A, B = _bipartite_parts(2, 2)
    H = ml.contraction_round(G, A, B, B, seed=0)
    assert (H.n, H.m) == (2, 0)


def test_contraction_round_output_is_on_x():
    G = ml.complete_bipartite(6, 4)
    A, B = _bipartite_parts(6, 4)
    X = frozenset(range(6, 9))
    H = ml.contraction_round(G, A, B, X, seed=3)
    assert H.n == len(X)


def test_contraction_round_rejects_x_outside_b():
    G = ml.complete_bipartite(3, 3)
    A, B = _bipartite_parts(3, 3)
    with pytest.raises(ml.InputError):
        ml.contraction_round(G, A, B, frozenset({0}), seed=0)


def test_contraction_round_rejects_non_bipartition():
    G = ml.complete_graph(4)
    with pytest.raises(ml.InputError):
        ml.contraction_round(G, frozenset({0, 1}), frozenset({2, 3}),
                             frozenset({2}), seed=0)


def test_contraction_round_matches_edge_walk():
    for case in range(120):
        rng = random.Random(case)
        n = rng.randint(0, 40)
        in_a = [rng.random() < 0.5 for _ in range(n)]
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if in_a[u] != in_a[v] and rng.random() < p]
        G = ml.from_edge_list(n, edges)
        A = frozenset(v for v in range(n) if in_a[v])
        B = frozenset(range(n)) - A
        X = frozenset(v for v in B if rng.random() < 0.6)
        for seed in range(4):
            H = ml.contraction_round(G, A, B, X, seed=seed)
            ref = contraction_round_ref(G, A, X, seed)
            assert (H.n, H.adj, H.m) == (ref.n, ref.adj, ref.m), (case, seed)


def test_contraction_round_completeness_rate():
    x_size = 8
    a = math.ceil(10 * x_size * math.log(x_size))
    G = ml.complete_bipartite(a, x_size)
    A, B = _bipartite_parts(a, x_size)
    complete = sum(
        ml.contraction_round(G, A, B, B, seed=ml.derive_seed(77, i)).is_complete()
        for i in range(500)
    )
    assert complete >= 450

    # independent ball-throwing oracle: in the complete bipartite case the
    # round is complete exactly when at most one target vertex goes unchosen
    import random as rnd

    oracle_rng = rnd.Random(20_240_601)
    oracle_hits = 0
    for _ in range(2000):
        chosen = {oracle_rng.randrange(x_size) for _ in range(a)}
        if x_size - len(chosen) <= 1:
            oracle_hits += 1
    oracle_rate = oracle_hits / 2000
    assert oracle_rate >= 0.9
    assert abs(complete / 500 - oracle_rate) <= 0.1
