import hashlib
import math
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minorlab as ml
from minorlab import coloring, families, graphs
from minorlab.decompose import peel_layers
from minorlab.formats import coloring_to_str
from oracles import (
    exact_list_color_ref,
    hall_ratio_list_color_ref,
    minor_free_list_color_ref,
    multipartite_list_color_ref,
    peel_layers_ref,
    random_multipartite,
    smallest_budget,
    triangulated_grid,
    verify_list_coloring_ref,
)
from test_graphs import cored_graphs


PETERSEN_3COLORING = {0: 0, 1: 1, 2: 0, 3: 1, 4: 2, 5: 1, 6: 2, 7: 2, 8: 0, 9: 0}


def in_colours(search, lists):
    """`search` run on the rank masks of `lists`, the private routines' form,
    with its colouring turned back into colours."""
    palette, masks = coloring._palette_masks(lists)
    return coloring._colours(search(masks), palette)


def disjoint_triangles(count):
    edges = []
    for b in range(count):
        edges += [(3 * b, 3 * b + 1), (3 * b + 1, 3 * b + 2), (3 * b, 3 * b + 2)]
    return ml.from_edge_list(3 * count, edges)


def canonical_list_assignments(n, size):
    """All size-`size` list assignments on n vertices, up to color renaming.

    Colors are introduced in increasing order: each list mixes already-used
    colors with the next fresh ones.
    """
    out = []

    def extend(assignment, used):
        if len(assignment) == n:
            out.append([frozenset(L) for L in assignment])
            return
        for fresh in range(size + 1):
            old = size - fresh
            new_colors = tuple(range(used, used + fresh))
            for olds in combinations(range(used), old):
                extend(assignment + [olds + new_colors], used + fresh)

    extend([], 0)
    return out


# -- verification -------------------------------------------------------------


def test_verify_empty_graph_any_choice():
    G = ml.empty_graph(3)
    lists = ml.uniform_lists(3, 1)
    assert ml.verify_list_coloring(G, lists, {0: 0, 1: 0, 2: 0})


def test_verify_rejects_monochromatic_edge():
    G = ml.complete_graph(2)
    assert not ml.verify_list_coloring(G, ml.uniform_lists(2, 2), {0: 1, 1: 1})


def test_verify_petersen_three_coloring():
    P = ml.petersen_graph()
    assert ml.verify_list_coloring(P, ml.uniform_lists(10, 3), PETERSEN_3COLORING)


def test_verify_rejects_color_outside_list():
    G = ml.empty_graph(1)
    assert not ml.verify_list_coloring(G, [frozenset({0})], {0: 5})


def test_verify_matches_the_edge_walk():
    # full and partial colourings, out-of-range ids and colours off the
    # vertex's list: the per-colour masks give the edge walk's verdict
    rng = random.Random(7100)
    verdicts = set()
    for i in range(300):
        n = rng.randint(0, 14)
        G = ml.gnp_random_graph(n, rng.choice([0.1, 0.3, 0.6]), seed=7100 + i)
        lists = ml.random_lists(n, rng.randint(1, 3), 4, seed=7100 + i)
        coloring_ = {
            v: rng.choice(sorted(lists[v])) for v in range(n) if rng.random() < 0.8
        }
        kind = i % 4
        if kind == 1 and n:  # a colour that is not on the vertex's list
            v = rng.randrange(n)
            coloring_[v] = rng.choice([c for c in range(5) if c not in lists[v]])
        elif kind == 2:  # a vertex id outside 0..n-1
            coloring_[rng.choice([-1, n, n + 3])] = 0
        want = verify_list_coloring_ref(G, lists, coloring_)
        assert ml.verify_list_coloring(G, lists, coloring_) == want, (G, lists, coloring_)
        verdicts.add((kind, want))
    assert {(0, True), (0, False), (1, False), (2, False), (3, True)} <= verdicts


# -- degeneracy greedy ---------------------------------------------------------


def test_degeneracy_color_tree_with_two_lists():
    G = ml.path_graph(8)
    lists = ml.random_lists(8, 2, universe=6, seed=3)
    c = ml.degeneracy_list_color(G, lists)
    assert ml.verify_list_coloring(G, lists, c) and len(c) == 8


def test_degeneracy_color_complete_graph():
    G = ml.complete_graph(5)
    lists = ml.uniform_lists(5, 5)
    c = ml.degeneracy_list_color(G, lists)
    assert ml.verify_list_coloring(G, lists, c) and len(c) == 5


def test_degeneracy_color_rejects_short_lists():
    with pytest.raises(ml.PreconditionError):
        ml.degeneracy_list_color(ml.complete_graph(5), ml.uniform_lists(5, 4))


def test_degeneracy_color_random_suite():
    for i in range(100):
        G = ml.gnm_random_graph(12, 20, seed=6000 + i)
        d, _ = ml.degeneracy(G)
        lists = ml.random_lists(12, d + 1, universe=3 * d + 3, seed=i)
        c = ml.degeneracy_list_color(G, lists)
        assert ml.verify_list_coloring(G, lists, c) and len(c) == 12


# -- exact search ---------------------------------------------------------------


def test_exact_list_color_finds_tight_coloring():
    G = ml.complete_graph(3)
    lists = [frozenset({0, 1}), frozenset({0, 1}), frozenset({2})]
    c = ml.exact_list_color(G, lists)
    assert c is not None and ml.verify_list_coloring(G, lists, c)


def test_exact_list_color_proves_impossibility():
    G = ml.complete_graph(3)
    lists = [frozenset({0, 1})] * 3
    assert ml.exact_list_color(G, lists) is None


def test_exact_list_color_budget():
    G = ml.complete_graph(12)
    with pytest.raises(ml.BudgetExceeded) as info:
        ml.exact_list_color(G, ml.uniform_lists(12, 11), budget=20)
    assert (info.value.steps, info.value.n) == (20, 12)


def test_exact_list_color_colours_a_long_path():
    # the search path holds every vertex, far beyond the recursion limit,
    # and the next vertex comes from buckets by list length, not from a scan
    # of every vertex, so the time grows as n log n
    G = ml.path_graph(10_000)
    lists = ml.uniform_lists(10_000, 2)
    start = time.perf_counter()
    c = ml.exact_list_color(G, lists)
    elapsed = time.perf_counter() - start
    assert c is not None and ml.verify_list_coloring(G, lists, c)
    assert elapsed < 6.0


def test_exact_list_color_matches_the_recursive_search():
    # same colouring and the same steps: budget b suffices at both, b - 1 at
    # neither
    cases = [(ml.path_graph(50), ml.uniform_lists(50, 2))]
    for i in range(60):
        n = 4 + i % 11
        G = ml.gnp_random_graph(n, 0.2 + 0.1 * (i % 6), seed=8000 + i)
        cases.append((G, ml.random_lists(n, 2 + i % 3, 4 + i % 4, seed=i)))
    for G, lists in cases:
        b, result = smallest_budget(lambda b: exact_list_color_ref(G, lists, b))
        found = ml.exact_list_color(G, lists, budget=b)
        assert found == result
        assert found is None or list(found) == list(result)
        with pytest.raises(ml.BudgetExceeded):
            ml.exact_list_color(G, lists, budget=b - 1)


def test_exact_list_color_keeps_the_choice_through_deep_backtracking():
    # the length buckets must hold every uncoloured vertex after strikes,
    # restores and backtracking; on 15-30 vertices the search backtracks
    # deep enough that a vertex missing from them changes the choice, and
    # with it the colouring or the budget at which the search gives up
    def outcome(search, G, lists, budget):
        try:
            found = search(G, lists, budget)
        except ml.BudgetExceeded:
            return "budget"
        return found if found is None else list(found.items())

    for i in range(400):
        n = 15 + i % 16
        G = ml.gnp_random_graph(n, 0.1 + 0.05 * (i % 10), seed=7000 + i)
        lists = ml.random_lists(n, 2 + i % 3, 4 + i % 5, seed=i)
        for budget in (30, 100, 300, 1000, 3000):
            assert outcome(ml.exact_list_color, G, lists, budget) == outcome(
                exact_list_color_ref, G, lists, budget
            ), (i, budget)


def test_one_vertex_exact_search_matches_the_reference():
    # one live vertex takes its least colour in the search's 2 steps, or
    # gives None in 1 for an empty list; smaller budgets raise
    def outcome(search, budget):
        try:
            found = search(budget)
        except ml.BudgetExceeded:
            return "budget"
        return found if found is None else list(found.values())

    rng = random.Random(3)
    lone = ml.empty_graph(1)
    P = ml.petersen_graph()
    for size in range(4):
        for _ in range(6):
            L = frozenset(rng.sample(range(-3, 9), size))
            ref = lambda b: exact_list_color_ref(lone, [L], b)
            lone_search = lambda b: ml.exact_list_color(lone, [L], budget=b)
            steps = 2 if L else 1
            assert smallest_budget(ref) == (steps, L and {0: min(L)} or None)
            assert smallest_budget(lone_search) == smallest_budget(ref)
            for budget in range(4):
                assert outcome(lone_search, budget) == outcome(ref, budget)
            for v in range(10):
                lists = [frozenset(rng.sample(range(-3, 9), 3)) for _ in range(10)]
                lists[v] = L
                masked = lambda b: in_colours(
                    lambda masks: coloring._exact_list_color(P, masks, 1 << v, b), lists
                )
                assert smallest_budget(masked) == (steps, L and {v: min(L)} or None)
                for budget in range(4):
                    assert outcome(masked, budget) == outcome(ref, budget)


def test_c4_is_two_choosable_by_brute_force():
    C4 = ml.cycle_graph(4)
    assignments = canonical_list_assignments(4, 2)
    assert len(assignments) > 100
    for lists in assignments:
        c = ml.exact_list_color(C4, lists)
        assert c is not None, lists
        assert ml.verify_list_coloring(C4, lists, c)


# -- multipartite -----------------------------------------------------------------


def test_multipartite_single_part_always_succeeds():
    G = ml.empty_graph(4)
    lists = ml.random_lists(4, 2, universe=8, seed=1)
    c = ml.multipartite_list_color(G, [frozenset(range(4))], lists, trials=1, seed=0)
    assert c is not None and ml.verify_list_coloring(G, lists, c)


def test_multipartite_rejects_bad_partition():
    G = ml.complete_graph(3)
    cases = [
        # one case per check, in the order they run
        ([{0}, set(), {5}], "part 1 is empty"),
        ([{0}, {1, 3}], "vertex 3 out of range for n=3"),
        ([{0}, {1}, {1, 2}], "part 2 overlaps an earlier part"),
        ([{0}, {1, 2}], "part 1 is not independent in the graph"),
        ([{0}, {1}], "parts must cover every vertex"),
        # the checks run part by part: a bad id before a later part's
        # overlap, an edge before a later overlap, a bad id before its own
        ([{0}, {1, 5}, {0, 2}], "vertex 5 out of range"),
        ([{0, 1}, {0}], "part 0 is not independent"),
        ([{0}, {0, 7}], "vertex 7 out of range"),
    ]
    for parts, message in cases:
        with pytest.raises(ml.InputError, match=message):
            ml.multipartite_list_color(G, [frozenset(p) for p in parts], ml.uniform_lists(3, 2))


def test_multipartite_c4_with_two_lists():
    C4 = ml.cycle_graph(4)  # = K_{2*2} with parts {0,2}, {1,3}
    parts = [frozenset({0, 2}), frozenset({1, 3})]
    lists = ml.uniform_lists(4, 2)
    successes = 0
    for seed in range(40):
        c = ml.multipartite_list_color(C4, parts, lists, trials=16, seed=seed)
        if c is not None:
            assert ml.verify_list_coloring(C4, lists, c)
            successes += 1
    assert successes >= 30


def test_multipartite_matches_the_owner_dict_reference():
    # each trial deals the colours into one set per part where the reference
    # keeps an owner dict and scans each whole list: the same draws, so the
    # same colouring or None, on unequal, empty and tuple lists and on
    # negative and large colour ids
    universe = list(range(-6, 14)) + [2**40, 2**40 + 3, 10**18]
    found = failed = 0
    for i in range(240):
        rng = random.Random(i)
        r, trials, seed = 1 + i % 5, 1 + i % 8, rng.choice((0, 1, 7, 2**31 + i))
        sizes = [rng.randint(1, 6) for _ in range(r)]
        G = random_multipartite(sizes, 0.7, seed=i)
        parts = ml.turan_parts(sizes)
        lists = []
        for v in range(G.n):
            L = rng.sample(universe, rng.randint(0 if i % 4 == 0 else 1, 2 + r))
            lists.append(tuple(L) if v % 3 == 0 else frozenset(L))
        masks = [ml.mask_of(p) for p in parts]
        want = multipartite_list_color_ref(masks, lists, trials, seed)
        got = in_colours(
            lambda colours: coloring._multipartite_list_color(masks, colours, trials, seed), lists
        )
        public = ml.multipartite_list_color(G, parts, lists, trials=trials, seed=seed)
        if want is None:
            assert got is None and public is None, i
            failed += 1
        else:
            assert list(got.items()) == list(public.items()) == list(want.items()), i
            assert ml.verify_list_coloring(G, lists, got), i
            found += 1
    assert found > 40 and failed > 40


def test_multipartite_turan_rate():
    G = ml.complete_multipartite([4, 4, 4])
    parts = ml.turan_parts([4, 4, 4])
    lists = ml.uniform_lists(12, math.ceil(18 * math.log(4)))
    ok = 0
    for seed in range(300):
        c = ml.multipartite_list_color(G, parts, lists, trials=1, seed=seed)
        if c is not None:
            assert ml.verify_list_coloring(G, lists, c)
            # colors used by distinct parts never overlap
            used = [{c[v] for v in part} for part in parts]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert not used[i] & used[j]
            ok += 1
    assert ok / 300 >= 0.95


# -- independent set extraction -----------------------------------------------------


def test_extract_from_edgeless_graph():
    parts = ml.independent_sets_extract(ml.empty_graph(10), 2, 5)
    assert len(parts) == 5
    assert sorted(v for p in parts for v in p) == list(range(10))


def test_extract_two_pairs_from_c6():
    parts = ml.independent_sets_extract(ml.cycle_graph(6), 2, 2)
    assert all(len(p) == 2 for p in parts)
    assert not set(parts[0]) & set(parts[1])


def test_extract_raises_hall_violation_on_clique():
    with pytest.raises(ml.HallRatioViolation):
        ml.independent_sets_extract(ml.complete_graph(5), 2, 1)


# -- hall ratio pipeline --------------------------------------------------------------


def test_hall_ratio_edgeless():
    G = ml.empty_graph(12)
    lists = ml.uniform_lists(12, 2)
    c = ml.hall_ratio_list_color(G, lists, rho=1, seed=0)
    assert c is not None and ml.verify_list_coloring(G, lists, c) and len(c) == 12


def test_hall_ratio_disjoint_triangles_greedy_path():
    G = disjoint_triangles(10)
    lists = ml.uniform_lists(30, 3)
    c = ml.hall_ratio_list_color(G, lists, rho=3, C=2.0, seed=4)
    assert c is not None and len(c) == 30
    assert ml.verify_list_coloring(G, lists, c)


def test_hall_ratio_rejects_false_promise():
    with pytest.raises(ml.HallRatioViolation):
        ml.hall_ratio_list_color(ml.complete_graph(10), ml.uniform_lists(10, 11),
                                 rho=2, seed=0)


def test_hall_ratio_base_case_out_of_budget_raises():
    # greedy fails on this path with 2-lists, so the base case needs the
    # exact search, whose answer the caller gets
    G = ml.from_edge_list(4, [(0, 2), (2, 3), (3, 1)])
    lists = ml.uniform_lists(4, 2)
    assert ml.greedy_list_color(G, lists) is None
    with pytest.raises(ml.BudgetExceeded):
        ml.hall_ratio_list_color(G, lists, rho=4, budget=0)
    c = ml.hall_ratio_list_color(G, lists, rho=4, budget=1000)
    assert c is not None and len(c) == 4 and ml.verify_list_coloring(G, lists, c)


def test_hall_ratio_recursive_path_produces_valid_coloring():
    # large enough lists to clear the redraw window, forcing the full recursion
    G = disjoint_triangles(12)
    rho = 3
    n = G.n
    need = math.ceil(2 * rho * math.log(n / rho) ** 2)
    lists = ml.uniform_lists(n, need)
    c = ml.hall_ratio_list_color(G, lists, rho=rho, C=2.0, seed=11)
    assert c is not None and len(c) == n
    assert ml.verify_list_coloring(G, lists, c)


def outcome(color, *args, **kwargs):
    """A colouring as its (vertex, colour) items in order, None, or the type
    of the error raised; a broken invariant fails the test outright."""
    try:
        c = color(*args, **kwargs)
    except ml.InvariantViolation:
        raise
    except Exception as exc:
        return type(exc)
    return None if c is None else list(c.items())


def hall_cases():
    """(G, lists, rho, seed): the colour pipeline's Hall shapes (the first
    18), disjoint triangles whose lists clear the redraw window, tripartite
    graphs under a loose promise, edgeless graphs and a clique that breaks
    the promise."""
    for seed in range(6):
        for r, part in ((3, 60), (3, 80), (4, 60)):
            n = r * part
            size = math.ceil(2.0 * r * math.log(n / r) ** 2)
            G = random_multipartite([part] * r, 0.5, seed)
            yield G, ml.random_lists(n, size, 2 * size, seed), r, seed
    for seed in range(6):
        G = disjoint_triangles(12)
        need = math.ceil(2 * 3 * math.log(G.n / 3) ** 2)
        yield G, ml.uniform_lists(G.n, need), 3, seed
        yield G, ml.random_lists(G.n, need, need + 6, seed), 3, seed
    # lists too short for the multipartite stage: at rho = 6 the level
    # splits into 13 parts, and a vertex's 14 to 41 kept colours often miss
    # its own part in all 64 trials
    for seed in range(6):
        G = random_multipartite([20] * 3, 0.5, seed)
        need = math.ceil(2 * 6 * math.log(G.n / 6) ** 2)
        yield G, ml.random_lists(G.n, need, 2 * need, seed), 6, seed
    yield ml.empty_graph(12), ml.uniform_lists(12, 2), 1, 0
    yield ml.empty_graph(60), ml.uniform_lists(60, 34), 1, 5
    yield ml.complete_graph(10), ml.uniform_lists(10, 11), 2, 0


def test_hall_ratio_loop_matches_the_recursive_function():
    results = []
    for G, lists, rho, seed in hall_cases():
        got = outcome(ml.hall_ratio_list_color, G, lists, rho, C=2.0, seed=seed)
        assert got == outcome(hall_ratio_list_color_ref, G, lists, rho, C=2.0, seed=seed)
        if isinstance(got, list):
            assert len(got) == G.n and ml.verify_list_coloring(G, lists, dict(got))
        results.append(got)
    assert results[-1] is ml.HallRatioViolation
    # each level cuts its lists to the length its redraw window is built
    # for, so the colour pipeline's shapes all colour, each checked above
    # against the lists the caller gave
    assert all(isinstance(r, list) for r in results[:18])
    # the cases reach both honest failures and full colourings
    assert sum(r is None for r in results) >= 3
    assert sum(isinstance(r, list) for r in results) >= 10


def test_hall_ratio_reaches_later_levels(monkeypatch):
    sizes = []
    level_start = True

    def counted(G, start, budget, target):
        nonlocal level_start
        if level_start:
            sizes.append(start.bit_count())
            level_start = False
        return graphs._mis_search(G, start, budget, target)

    def extract(*args):
        nonlocal level_start
        sets = extract_sets(*args)
        level_start = True
        return sets

    # every level checks its promise first, on the level's whole mask, and
    # extracts its sets last, so the masks the first search of each level
    # sees are the levels
    extract_sets = coloring._independent_sets_extract
    monkeypatch.setattr(coloring, "_mis_search", counted)
    monkeypatch.setattr(coloring, "_independent_sets_extract", extract)
    size = math.ceil(2.0 * 4 * math.log(60) ** 2)
    for seed in range(3):
        G = random_multipartite([60] * 4, 0.5, seed)
        lists = ml.random_lists(G.n, size, 2 * size, seed)
        sizes.clear()
        level_start = True
        c = ml.hall_ratio_list_color(G, lists, 4, seed=seed)
        assert c is not None and len(c) == G.n
        assert len(set(sizes)) == 3 and sizes[0] == G.n


def test_hall_ratio_colourings_past_a_level_match_their_golden_digests(
    monkeypatch, golden_digests
):
    # each colouring's text (or "None"); every case extracts at least one
    # level's sets
    extract_sets = coloring._independent_sets_extract
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return extract_sets(*args)

    monkeypatch.setattr(coloring, "_independent_sets_extract", counted)
    texts = {}
    for r, part in ((3, 60), (3, 80), (4, 60)):
        n = r * part
        size = math.ceil(2 * r * math.log(n / r) ** 2)
        for s in range(4):
            G = random_multipartite([part] * r, 0.5, s)
            lists = ml.random_lists(n, size, 2 * size, s)
            calls = 0
            phi = ml.hall_ratio_list_color(G, lists, rho=r, C=2.0, seed=s)
            assert calls >= 1, (r, part, s)
            texts[f"r{r}-part{part}-seed{s}"] = "None" if phi is None else coloring_to_str(phi)
    golden_digests("hall_levels.sha256", texts)


@pytest.mark.parametrize("rho", [1, 1.5, 2, 2.7, 3, 4, 5.5, 7])
def test_hall_ratio_promise_witness_agrees_with_exact_alpha(rho):
    # one colour per vertex never clears the redraw window, so only the
    # level-0 promise check can raise
    broken_seen = kept_seen = 0
    for i in range(400):
        rng = random.Random(i)
        n = rng.randint(1, 18)
        G = ml.gnp_random_graph(n, rng.random(), seed=i)
        lists = ml.uniform_lists(n, 1)
        got = outcome(ml.hall_ratio_list_color, G, lists, rho)
        assert got == outcome(hall_ratio_list_color_ref, G, lists, rho)
        broken = math.ceil(n / ml.exact_alpha(G)) > rho
        assert (got is ml.HallRatioViolation) == broken, (i, rho)
        broken_seen += broken
        kept_seen += not broken
    assert broken_seen and kept_seen


def test_hall_ratio_witness_never_needs_more_budget_than_exact_alpha():
    # the target search prunes at least as hard as exact_alpha, so it never
    # runs out of budget where the old promise check finished
    for i in range(120):
        rng = random.Random(i)
        n = rng.randint(1, 18)
        G = ml.gnp_random_graph(n, rng.random(), seed=i)
        full, _ = smallest_budget(lambda b: ml.exact_alpha(G, budget=b))
        for rho in (1, 2, 2.7, 5.5):
            need = math.ceil(n / math.floor(min(rho, n)))
            steps, _ = smallest_budget(lambda b: ml.find_independent_set(G, need, budget=b))
            assert steps <= full, (i, rho)


@pytest.mark.parametrize("rho", [math.nan, 0.5, 0, -math.inf])
def test_hall_ratio_rejects_malformed_rho(rho):
    with pytest.raises(ml.InputError):
        ml.hall_ratio_list_color(ml.cycle_graph(5), ml.uniform_lists(5, 3), rho)


@pytest.mark.parametrize("C", [math.nan, 0, -1.5])
def test_hall_ratio_rejects_a_malformed_constant(C):
    # on a level large enough to split, NaN sent it to the greedy base case
    # and C <= 0 kept the redraw window from accepting; the check at entry
    # rejects them on any input
    with pytest.raises(ml.InputError, match="constant C"):
        ml.hall_ratio_list_color(ml.cycle_graph(5), ml.uniform_lists(5, 3), 3, C=C)


@pytest.mark.parametrize("count", [0, -1])
def test_colourings_reject_trial_and_redraw_counts_below_one(count):
    # a count below 1 leaves no try, so wherever one was needed the result
    # was None; it is rejected at entry, even where this input needs none
    G, lists = ml.complete_multipartite([3, 3]), ml.uniform_lists(6, 12)
    calls = [
        ("trials", lambda: ml.multipartite_list_color(
            G, [range(3), range(3, 6)], lists, trials=count)),
        ("trials", lambda: ml.hall_ratio_list_color(G, lists, 3, trials=count)),
        ("max_redraws", lambda: ml.hall_ratio_list_color(G, lists, 3, max_redraws=count)),
        ("trials", lambda: ml.minor_free_list_color(G, lists, d=6, trials=count)),
    ]
    for name, call in calls:
        with pytest.raises(ml.InputError, match=f"{name} must be at least 1"):
            call()


def test_hall_ratio_infinite_rho_colours_as_before():
    for G in (ml.petersen_graph(), disjoint_triangles(12), ml.empty_graph(20)):
        lists = ml.uniform_lists(G.n, 3)
        got = outcome(ml.hall_ratio_list_color, G, lists, math.inf)
        assert got == outcome(hall_ratio_list_color_ref, G, lists, math.inf)
        assert ml.verify_list_coloring(G, lists, dict(got)) and len(got) == G.n


# -- the rank masks inside against the set references ----------------------------


def spread_lists(n, size, count, rng):
    """n lists of `size` colours out of `count` that run from negative ids
    through small ones to two above 10 000, which no workload uses."""
    universe = list(range(-(count // 2), count - count // 2 - 2)) + [10_007, 2**40 + 1]
    return [frozenset(rng.sample(universe, size)) for _ in range(n)]


def budget_outcome(search, budget):
    """A colouring as its items in order, None, or the budget and the vertex
    count of the BudgetExceeded it raised."""
    try:
        found = search(budget)
    except ml.BudgetExceeded as exc:
        return ("budget", exc.steps, exc.n)
    return found if found is None else list(found.items())


def test_masked_exact_search_matches_the_set_reference_on_spread_colours():
    found = failed = 0
    for i in range(120):
        rng = random.Random(i)
        n = 4 + i % 11
        G = ml.gnp_random_graph(n, 0.3 + 0.1 * (i % 6), seed=9000 + i)
        lists = spread_lists(n, 2 + i % 3, 4 + i % 4, rng)
        b, want = smallest_budget(lambda b: exact_list_color_ref(G, lists, b))
        search = lambda b: in_colours(
            lambda masks: coloring._exact_list_color(G, masks, G.full_mask, b), lists
        )
        for budget in (b - 1, b, b + 5):
            assert budget_outcome(search, budget) == budget_outcome(
                lambda b: exact_list_color_ref(G, lists, b), budget
            ), (i, budget)
        found += want is not None
        failed += want is None
    assert found > 20 and failed > 20


def test_masked_multipartite_matches_the_set_reference_on_spread_colours():
    found = failed = 0
    for i in range(160):
        rng = random.Random(i)
        r = 1 + i % 4
        sizes = [rng.randint(1, 7) for _ in range(r)]
        parts = [ml.mask_of(p) for p in ml.turan_parts(sizes)]
        lists = spread_lists(sum(sizes), 1 + i % (r + 3), 3 * r + 2, rng)
        trials, seed = 1 + i % 5, rng.getrandbits(32)
        want = multipartite_list_color_ref(parts, lists, trials, seed)
        got = in_colours(
            lambda masks: coloring._multipartite_list_color(parts, masks, trials, seed), lists
        )
        assert got == want and (got is None or list(got.items()) == list(want.items())), i
        found += want is not None
        failed += want is None
    assert found > 30 and failed > 30


def test_masked_hall_levels_match_the_set_reference_on_spread_colours():
    # every first level's lists are long enough for the window; few redraws
    # and trials make some cases fail honestly, and small budgets run out in
    # the extraction or the last level's exact search (the promise check
    # takes the promise on faith), at the same step as the reference
    seen = set()
    for i in range(24):
        rng = random.Random(i)
        r, part = (3, 12) if i % 2 else (2, 14)
        n = r * part
        size = math.ceil(2.0 * r * math.log(n / r) ** 2)
        G = random_multipartite([part] * r, 0.3 + 0.1 * (i % 4), seed=i)
        lists = spread_lists(n, size, 2 * size, rng)
        trials, redraws = 1 + i % 3, 1 + i % 4
        for budget in (3, 12, 40, ml.DEFAULT_BUDGET):
            masked = lambda b: in_colours(
                lambda masks: coloring._hall_ratio_list_color(
                    G, masks, G.full_mask, r, 2.0, i, trials, b, redraws
                ),
                lists,
            )
            ref = lambda b: hall_ratio_list_color_ref(
                G, lists, r, C=2.0, seed=i, trials=trials, budget=b, max_redraws=redraws
            )
            got = budget_outcome(masked, budget)
            assert got == budget_outcome(ref, budget), (i, budget)
            seen.add("budget" if isinstance(got, tuple) else type(got))
    assert seen == {"budget", list, type(None)}


def test_bernoulli_marks_are_the_hall_keep_draws():
    # a level keeps colour k of its pool when the k-th random() is below
    # keep_p = 1 / log(n / rho); the bulk reader gives the same digits, and
    # a draw whose top byte ties the threshold's is settled on all its bits
    keeps = [1 / math.log(n / rho) for n, rho in ((36, 2), (42, 3), (180, 3), (240, 3), (240, 4))]
    keeps.append(0.25)  # T = 2^51: a tied top byte is never below it
    tied = set()
    for p in keeps:
        cut = families._cut(p)
        T, _, tie = cut
        for seed in range(3):
            draws = random.Random(seed)
            values = [draws.random() for _ in range(3000)]
            rng = random.Random(seed)
            marks = families._bernoulli_marks(rng.getrandbits, len(values), cut)
            assert [m == ord("1") for m in reversed(marks)] == [x < p for x in values], p
            assert rng.random() == draws.random()  # the stream goes on in step
            for x in values:
                if int(x * 2**53) >> 45 == tie[0]:
                    tied.add((p == 0.25, x < p))
    assert tied == {(False, True), (False, False), (True, False)}


def test_greedy_takes_the_least_free_colour():
    for i in range(200):
        rng = random.Random(i)
        n = rng.randint(1, 12)
        G = ml.gnp_random_graph(n, rng.random(), seed=i)
        lists = spread_lists(n, rng.randint(1, 4), 6, rng)
        want: dict[int, int] | None = {}
        for v in range(n):
            taken = {want[u] for u in graphs.bits(G.adj[v]) if u in want}
            free = sorted(set(lists[v]) - taken)
            if not free:
                want = None
                break
            want[v] = free[0]
        assert ml.greedy_list_color(G, lists) == want, i
        if want is not None:
            assert in_colours(
                lambda masks: coloring._greedy_list_color(G, masks, range(G.n)), lists
            ) == want


@pytest.mark.parametrize("order", [[0, 40], [-1], [1, 30]])
def test_greedy_rejects_order_ids_out_of_range(order):
    with pytest.raises(ml.InputError):
        ml.greedy_list_color(ml.cycle_graph(30), ml.uniform_lists(30, 3), order=order)


def test_split_lists_partition_property():
    lists = [frozenset({0, 1, 2}), frozenset({2, 3})]
    first, second = ml.split_lists_by_colors(lists, {1, 2})
    for L, a, b in zip(lists, first, second):
        assert a | b == L and not a & b


# -- minor-free pipeline ---------------------------------------------------------------


def test_minorfree_tree():
    G = ml.path_graph(9)
    lists = ml.uniform_lists(9, 12)
    c = ml.minor_free_list_color(G, lists, d=6, seed=0)
    assert c is not None and len(c) == 9
    assert ml.verify_list_coloring(G, lists, c)


def test_minorfree_petersen_all_seeds():
    P = ml.petersen_graph()
    lists = ml.uniform_lists(10, 12)
    for seed in range(20):
        c = ml.minor_free_list_color(P, lists, d=6, seed=seed)
        assert c is not None and len(c) == 10
        assert ml.verify_list_coloring(P, lists, c)


def test_minorfree_never_emits_invalid_coloring_on_clique():
    G = ml.complete_graph(20)
    lists = ml.uniform_lists(20, 12)
    # K_20 needs 20 colors; its one piece goes to the exact search, which
    # runs out of budget and says so instead of emitting a coloring
    with pytest.raises(ml.BudgetExceeded):
        ml.minor_free_list_color(G, lists, d=6, seed=0, budget=100_000)


def test_minorfree_rejects_short_lists():
    with pytest.raises(ml.PreconditionError):
        ml.minor_free_list_color(ml.path_graph(4), ml.uniform_lists(4, 5), d=6)


def test_minorfree_large_piece_uses_inner_pipeline():
    # min degree above d forces a 40-vertex piece, beyond the exact threshold
    G = ml.gen_bipartite(ml.BipartiteSpec(20, 20, 0.5, 9))
    assert G.min_degree() > 6
    lists = ml.uniform_lists(40, 12)
    c = ml.minor_free_list_color(G, lists, d=6, seed=2)
    assert c is not None and len(c) == 40
    assert ml.verify_list_coloring(G, lists, c)


def test_minorfree_dense_clique_with_big_piece_fails_honestly():
    # K_40 lies about its peel parameter; the inner promise check fails and
    # the operation reports failure instead of an invalid coloring
    G = ml.complete_graph(40)
    c = ml.minor_free_list_color(G, ml.uniform_lists(40, 12), d=6, seed=0,
                                 budget=50_000)
    assert c is None


def test_minorfree_peels_the_layers_of_induced_copies(monkeypatch):
    pieces = []

    def recorded_layers(G, d, live):
        for piece in peel_layers(G, d, live):
            pieces.append(list(graphs.bits(piece)))
            yield piece

    monkeypatch.setattr(coloring, "peel_layers", recorded_layers)
    # the bipartite graph has min degree above d, so its first peel takes the
    # coboundary-piece branch
    inputs = [triangulated_grid(w) for w in (6, 9, 12)]
    inputs.append(ml.gen_bipartite(ml.BipartiteSpec(20, 20, 0.5, 9)))
    for seed, G in enumerate(inputs):
        pieces.clear()
        lists = ml.random_lists(G.n, 12, 16, seed)
        c = ml.minor_free_list_color(G, lists, d=6, seed=seed)
        assert c is not None and ml.verify_list_coloring(G, lists, c)
        assert pieces == peel_layers_ref(G, 6), G.n


@pytest.mark.parametrize("rho", [math.nan, 0.5, 0, -math.inf])
def test_minorfree_rejects_malformed_rho_up_front(rho):
    # a path peels into single vertices that never reach the Hall stage, so
    # only a check at entry sees the bad bound
    with pytest.raises(ml.InputError, match="Hall ratio bound"):
        ml.minor_free_list_color(ml.path_graph(9), ml.uniform_lists(9, 12), d=6, rho=rho)


def minor_free_cases():
    """(G, lists, seed, budget): grids that peel into single vertices, a
    bipartite graph whose one coboundary piece takes the Hall stage, the
    Petersen graph, and cliques that fail by budget or by a broken promise."""
    for seed, w in enumerate((6, 9, 12)):
        G = triangulated_grid(w)
        yield G, ml.random_lists(G.n, 12, 16, seed), seed, ml.DEFAULT_BUDGET
    G = ml.gen_bipartite(ml.BipartiteSpec(20, 20, 0.5, 9))
    for seed in range(3):
        yield G, ml.uniform_lists(40, 12), seed, ml.DEFAULT_BUDGET
        yield G, ml.random_lists(40, 12, 16, seed), seed, ml.DEFAULT_BUDGET
    for seed in range(20):
        yield ml.petersen_graph(), ml.uniform_lists(10, 12), seed, ml.DEFAULT_BUDGET
    yield ml.complete_graph(20), ml.uniform_lists(20, 12), 0, 100_000
    yield ml.complete_graph(40), ml.uniform_lists(40, 12), 0, 50_000


def test_minorfree_masks_match_the_induced_copies():
    results = []
    for G, lists, seed, budget in minor_free_cases():
        got = outcome(ml.minor_free_list_color, G, lists, d=6, seed=seed, budget=budget)
        want = outcome(minor_free_list_color_ref, G, lists, d=6, seed=seed, budget=budget)
        assert got == want, (G.n, seed)
        if isinstance(got, list):
            assert len(got) == G.n and ml.verify_list_coloring(G, lists, dict(got))
        results.append(got)
    assert results[-2:] == [ml.BudgetExceeded, None]
    assert sum(r is not None for r in results) >= 20


def test_minorfree_colourings_of_triangulated_grids_match_their_pinned_digest():
    # one SHA-256 over w = 10..15 of "w<w>" and the colouring's text, each
    # line ended by a newline; taken when the peel kept a heap and every
    # layer ran the exact search.  The grids peel into single vertices.
    digest = hashlib.sha256()
    for w in range(10, 16):
        G = triangulated_grid(w)
        lists = ml.random_lists(G.n, 12, 16, seed=w)
        phi = ml.minor_free_list_color(G, lists, d=6, seed=w)
        assert phi is not None and len(phi) == G.n
        digest.update(f"w{w}\n{coloring_to_str(phi)}\n".encode("ascii"))
    want = "0d79b944967c284396730fdcc0b0a3d2c6c6cd94bc8ea695427ce1e7ca741038"
    assert digest.hexdigest() == want


@given(
    cored_graphs(),
    st.sampled_from((12, 13, 16)),
    st.integers(min_value=0, max_value=3),
    st.sampled_from((0, 1, 2, ml.DEFAULT_BUDGET)),
)
@settings(max_examples=120, deadline=None)
def test_minorfree_matches_the_reference_on_single_vertices_and_pieces(G, universe, seed, budget):
    # single vertices colour in place from budget 2 on; a piece of several
    # vertices runs the exact search, which needs more than 2 steps
    lists = ml.random_lists(G.n, 12, universe, seed)
    got = outcome(ml.minor_free_list_color, G, lists, d=6, seed=seed, budget=budget)
    assert got == outcome(minor_free_list_color_ref, G, lists, d=6, seed=seed, budget=budget)
    if budget < 2:
        assert got is ml.BudgetExceeded
    elif budget == ml.DEFAULT_BUDGET:
        assert ml.verify_list_coloring(G, lists, dict(got)) and len(got) == G.n


def test_masked_exact_search_matches_the_induced_copy():
    # the same colouring, mapped back, and the same steps to find it
    found = failed = 0
    for i in range(80):
        rng = random.Random(i)
        n = rng.randint(2, 14)
        G = ml.gnp_random_graph(n, rng.random(), seed=i)
        lists = ml.random_lists(n, 3, 5, seed=i)
        live = ml.mask_of(rng.sample(range(n), rng.randint(1, n)))
        H, old_ids = ml.induced_subgraph_with_map(G, graphs.bits(live))
        copy_lists = [lists[v] for v in old_ids]
        want_steps, phi = smallest_budget(
            lambda b: ml.exact_list_color(H, copy_lists, budget=b)
        )
        steps, got = smallest_budget(lambda b: in_colours(
            lambda masks: coloring._exact_list_color(G, masks, live, b), lists
        ))
        assert steps == want_steps, i
        if phi is None:
            assert got is None, i
            failed += 1
        else:
            assert list(got.items()) == [(old_ids[v], c) for v, c in phi.items()], i
            found += 1
    assert found and failed


def test_colouring_makes_no_induced_copy(monkeypatch):
    # levels and layers are masks of the caller's graph; the grids peel into
    # single vertices, so the peel makes no copy for a coboundary piece either
    calls = []
    quotient = graphs.quotient

    def counted(G, classes):
        calls.append(len(classes))
        return quotient(G, classes)

    monkeypatch.setattr(graphs, "quotient", counted)
    for seed, w in enumerate((6, 9, 12)):
        G = triangulated_grid(w)
        lists = ml.random_lists(G.n, 12, 16, seed)
        assert ml.minor_free_list_color(G, lists, d=6, seed=seed) is not None
    for seed in range(3):
        G = random_multipartite([60] * 4, 0.5, seed)
        size = math.ceil(2.0 * 4 * math.log(60) ** 2)
        lists = ml.random_lists(G.n, size, 2 * size, seed)
        assert ml.hall_ratio_list_color(G, lists, 4, seed=seed) is not None
    assert calls == []


def test_hall_levels_recheck_no_part(monkeypatch):
    # the parts a level extracts are independent by the search and disjoint
    # by construction, so only a caller's parts are checked
    calls = 0
    checked_mask = coloring.checked_mask

    def counted(G, vertices):
        nonlocal calls
        calls += 1
        return checked_mask(G, vertices)

    monkeypatch.setattr(coloring, "checked_mask", counted)
    for seed in range(3):
        G = random_multipartite([60] * 4, 0.5, seed)
        size = math.ceil(2.0 * 4 * math.log(60) ** 2)
        lists = ml.random_lists(G.n, size, 2 * size, seed)
        assert ml.hall_ratio_list_color(G, lists, 4, seed=seed) is not None
    assert calls == 0


def test_minorfree_colours_a_large_grid_fast():
    # a min over every live vertex per layer made the peel quadratic: 1.6 s
    # for this call on a 2-core VM, against about 0.01 s with one vertex
    # mask per degree for the whole peel
    G = triangulated_grid(40)
    lists = ml.random_lists(G.n, 12, 16, 0)
    t0 = time.perf_counter()
    c = ml.minor_free_list_color(G, lists, d=6, seed=0)
    assert time.perf_counter() - t0 < 1.0
    assert c is not None and ml.verify_list_coloring(G, lists, c)
