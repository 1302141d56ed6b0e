"""Independent brute-force oracles used only by the test suite.

These deliberately use different algorithmic principles from the library:
minor testing enumerates set partitions of vertex subsets, connectivity
enumerates all vertex cuts, and the independence number and the 2-colourings
enumerate subsets.
They are only feasible on small graphs, which is the point.  The one
polynomial oracle, :func:`split_flow`, is a textbook augmenting-path max-flow
on dict residual capacities, with none of the library's bitset machinery.
The pair-coverage references (:func:`connectivity_at_least_ref`,
:func:`separation_below_ref`) run a flow for every covering pair, where the
library first tries to certify its cap by growing a set; they call the
library's flow through its module, so a patched counter sees their flows.

The subgraph references at the end (induced subgraph, contraction, bipartite
induced subgraph, one random contraction round) walk the edge list and
rebuild through :func:`from_edge_list`, independently of the library's mask
quotient; the matching reference is the plain recursive augmenting-path
search.  The block reference keeps Tarjan's edge stack where the library
keeps a vertex stack, and the colouring check walks every edge where the
library ANDs each neighbourhood with one mask per colour; the first-fit
partition reference asks `has_edge` of every member of a part where the CLI
ANDs a neighbourhood with one mask per part.  The peel references scan every live vertex for the least degree on
each step, where the library keeps one vertex mask per degree for a whole peel, and peel each
layer from a fresh induced copy; the piece reference runs two passes of
flows per round (a pair-coverage k-connectivity verdict, then a minimum
separation from scratch) where the library runs one, and contracts each piece through the
edge-walk references.  The three search references at the very
end are the recursive versions of the library's explicit-stack searches (branch sets, maximum
independent set, exact list colouring); they must visit the same nodes in
the same order, so tests compare results and the steps each one spends
(:func:`smallest_budget`).  The last one, :func:`hall_ratio_list_color_ref`,
is the recursive Hall-ratio colouring with its `exact_alpha` promise check;
the library's loop over levels must return the same colouring, or raise the
same error, on every input.  :func:`minor_free_list_color_ref` colours each
peel layer as an induced copy through the public exact and Hall-ratio
colourings, where the library colours every layer and level as a vertex mask
of one graph; both must give the same colouring.  :func:`parse_edge_list_ref`
is the edge-list parser that checks every line in full, with no token table:
the library's parser must give the same Graph, or the same `InputError`
text, on every input.  The constructor references
(:func:`complete_multipartite_ref`, :func:`random_graph_min_degree_ref`) list
every edge, or top up on neighbour sets, and rebuild through
:func:`from_edge_list`, where the library writes the adjacency rows directly;
both must give the same Graph.  :func:`place_bipartite_ref` and
:func:`gnp_random_graph_ref` draw one ``random()`` per vertex pair, where the
library reads the same Mersenne Twister words in bulk through
``getrandbits``; both must place the same edges.  The min-degree reference
builds its base graph through :func:`gnp_random_graph_ref`, so it calls no
library sampler.  :func:`greedy_contraction_ref` recounts every degree with a key
tuple per class at each contraction, where the library keeps a degree
table; both must return the same classes.  :func:`bits_ref` pops the lowest
set bit in a generator for every mask, where the library walks dense masks'
binary digits through ``compress``; both must yield the same indices.
:func:`multipartite_list_color_ref` keeps an owner dict per trial and scans
each vertex's whole list, where the library deals the colours into one set
per part and intersects; both must return the same colouring.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from minorlab.coloring import (
    ListAssignment,
    _check_lists,
    exact_list_color,
    greedy_list_color,
    hall_ratio_list_color,
    independent_sets_extract,
    multipartite_list_color,
    split_lists_by_colors,
)
from minorlab import connectivity
from minorlab.decompose import (
    Decomposition,
    coboundary,
    small_coboundary_piece,
)
from minorlab.errors import (
    BudgetExceeded,
    HallRatioViolation,
    InputError,
    InvariantViolation,
    PreconditionError,
)
from minorlab.extremal import BipartiteSpec
from minorlab.families import complete_multipartite
from minorlab.formats import _content_lines, _ints
from minorlab.graphs import (
    DEFAULT_BUDGET,
    Graph,
    HallViolator,
    adjacency_mask,
    bits,
    components,
    exact_alpha,
    from_edge_list,
    induced_subgraph_with_map,
    mask_of,
    saturating_matching,
    set_of,
)
from minorlab.seeds import derive_seed


def _splits(G: Graph, t: int, spanning: bool):
    """The split enumeration behind the minor oracles: `split(rem, [])`
    yields every list of t connected, pairwise adjacent blocks inside the
    mask `rem`, each block holding the least vertex left when it is
    formed; with `spanning` only those that cover `rem`."""
    adj = G.adj

    connected = [False] * (1 << G.n)
    for mask in range(1, 1 << G.n):
        low = mask & -mask
        reach = low
        frontier = low
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= adj[b.bit_length() - 1]
                m ^= b
            nxt &= mask & ~reach
            reach |= nxt
            frontier = nxt
        connected[mask] = reach == mask

    def nbhd(mask: int) -> int:
        out = 0
        while mask:
            b = mask & -mask
            out |= adj[b.bit_length() - 1]
            mask ^= b
        return out

    def split(rem: int, blocks: list[int]):
        if len(blocks) == t:
            if not (spanning and rem):
                yield blocks
            return
        need = t - len(blocks)
        if rem.bit_count() < need:
            return
        anchor = rem & -rem
        rest = rem ^ anchor
        # enumerate all subsets of rest, forming the block containing anchor
        sub = rest
        while True:
            block = anchor | sub
            if connected[block]:
                nb = nbhd(block)
                if all(nb & other for other in blocks):
                    yield from split(rem & ~block, blocks + [block])
            if sub == 0:
                break
            sub = (sub - 1) & rest

    return split


def has_kt_minor_brute(G: Graph, t: int) -> bool:
    """Partition enumeration: some subset of V splits into t connected,
    pairwise adjacent blocks."""
    n = G.n
    if t <= 0:
        return True
    if t == 1:
        return n >= 1
    if n < t:
        return False
    split = _splits(G, t, False)
    full = (1 << n) - 1
    for used in range(full, -1, -1):
        if used.bit_count() >= t and any(split(used, [])):
            return True
    return False


def spanning_models_brute(G: Graph, t: int) -> list[list[int]]:
    """Every partition of all of V into t connected, pairwise adjacent
    blocks (masks, in order of their least vertex)."""
    return list(_splits(G, t, True)(G.full_mask, []))


def kappa_brute(G: Graph) -> int:
    """Minimum size of a vertex set whose removal disconnects the rest."""
    n = G.n
    if n < 2:
        raise ValueError("needs at least 2 vertices")
    if G.is_complete():
        return n - 1
    adj = G.adj

    def disconnected_without(cut: frozenset[int]) -> bool:
        rest = [v for v in range(n) if v not in cut]
        if len(rest) < 2:
            return False
        rest_mask = 0
        for v in rest:
            rest_mask |= 1 << v
        start = 1 << rest[0]
        reach = start
        frontier = start
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= adj[b.bit_length() - 1]
                m ^= b
            nxt &= rest_mask & ~reach
            reach |= nxt
            frontier = nxt
        return reach != rest_mask

    for size in range(0, n - 1):
        for cut in combinations(range(n), size):
            if disconnected_without(frozenset(cut)):
                return size
    return n - 1


def two_colourings_brute(G: Graph) -> list[tuple[int, int]]:
    """Every split (A, V - A) of V into two independent sets, as masks, by
    trying all 2^n subsets A and walking the edge list (n <= ~14).  Empty
    exactly when G has an odd cycle."""
    full = (1 << G.n) - 1
    edges = G.edges()
    return [
        (A, full & ~A)
        for A in range(1 << G.n)
        if all((A >> u & 1) != (A >> v & 1) for u, v in edges)
    ]


def split_flow(G: Graph, s: int, t: int) -> tuple[int, set[tuple[int, int]]]:
    """Max flow from s_out to t_in on the split digraph (v_in -> v_out of
    capacity 1, u_out -> v_in of capacity n per edge), by depth-first
    augmenting paths.  Returns the value and the residual-reachable nodes,
    a node being (v, 0) for v_in or (v, 1) for v_out."""
    n = G.n
    res: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for v in range(n):
        res.setdefault((v, 0), {})[(v, 1)] = 1
        res.setdefault((v, 1), {})[(v, 0)] = 0
        for u in range(n):
            if G.adj[v] >> u & 1:
                res[(v, 1)][(u, 0)] = n
                res.setdefault((u, 0), {})[(v, 1)] = 0
    source, sink = (s, 1), (t, 0)
    value = 0
    while True:
        parent = {source: source}
        stack = [source]
        while stack:
            a = stack.pop()
            for b, c in res[a].items():
                if c > 0 and b not in parent:
                    parent[b] = a
                    stack.append(b)
        if sink not in parent:
            return value, set(parent)
        b = sink
        while b != source:
            a = parent[b]
            res[a][b] -= 1
            res[b][a] += 1
            b = a
        value += 1


def covering_pairs(G: Graph) -> list[tuple[int, int]]:
    """The documented pair order: a minimum-degree vertex v0 (lowest id) with
    each non-neighbour, then each non-adjacent pair of its neighbours."""
    v0 = min(range(G.n), key=lambda v: (G.adj[v].bit_count(), v))
    nbrs = [u for u in range(G.n) if G.adj[v0] >> u & 1]
    pairs = [(v0, u) for u in range(G.n) if u != v0 and not G.adj[v0] >> u & 1]
    for i, x in enumerate(nbrs):
        pairs += [(x, y) for y in nbrs[i + 1 :] if not G.adj[x] >> y & 1]
    return pairs


def connectivity_at_least_ref(G: Graph, k: int) -> bool:
    """kappa(G) >= k by pair coverage alone: every covering pair's flow,
    capped at k, must reach k.  The flows go through
    ``connectivity.maximum_flow``, so a patched counter sees them."""
    if k <= 0:
        return True
    if G.n < 2:
        raise PreconditionError("vertex connectivity needs at least 2 vertices")
    if k > G.n - 1:
        return False
    if G.is_complete():
        return True
    if G.min_degree() < k:
        return False
    return all(connectivity.maximum_flow(G, s, t, k)[0] >= k for s, t in covering_pairs(G))


def separation_below_ref(G: Graph, cap: int) -> tuple[int, int, int] | None:
    """:func:`minorlab.connectivity.separation_below` without the growth
    test: every covering pair's flow runs, capped at the least value so far."""
    comps = components(G)
    if len(comps) > 1:
        return 0, comps[0], G.full_mask & ~comps[0]
    reach = None
    for s, t in covering_pairs(G):
        val, r = connectivity.maximum_flow(G, s, t, cap)
        if val < cap:
            cap, reach = val, r
    if reach is None:
        return None
    reach_in, reach_out = reach
    A = reach_in | reach_out
    return cap, A, reach_in & ~reach_out | G.full_mask & ~A


def alpha_brute(G: Graph) -> int:
    """Largest independent set by subset enumeration (n <= ~16)."""
    n = G.n
    best = 0
    adj = G.adj
    for mask in range(1 << n):
        if mask.bit_count() <= best:
            continue
        ok = True
        m = mask
        while m:
            b = m & -m
            v = b.bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            m ^= b
        if ok:
            best = mask.bit_count()
    return best


# ---------------------------------------------------------------------------
# Edge-walk subgraph references
# ---------------------------------------------------------------------------


def induced_subgraph_ref(G: Graph, vertices) -> tuple[Graph, list[int]]:
    """G[vertices] renumbered ascending, and the old id of each new vertex."""
    old_ids = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(old_ids)}
    edges = [(pos[u], pos[v]) for u, v in G.edges() if u in pos and v in pos]
    return from_edge_list(len(old_ids), edges), old_ids


def contract_ref(G: Graph, F) -> tuple[Graph, list[frozenset[int]]]:
    """G / F with classes ordered by smallest member.

    Each class is labelled by its smallest member; merging two classes
    relabels every vertex of both.
    """
    label = list(range(G.n))
    for u, v in F:
        lu, lv = label[u], label[v]
        if lu != lv:
            label = [min(lu, lv) if lab in (lu, lv) else lab for lab in label]
    roots = sorted(set(label))
    new_id = {r: i for i, r in enumerate(roots)}
    edges = {
        (min(new_id[label[u]], new_id[label[v]]), max(new_id[label[u]], new_id[label[v]]))
        for u, v in G.edges()
        if label[u] != label[v]
    }
    classes = [frozenset(v for v in range(G.n) if label[v] == r) for r in roots]
    return from_edge_list(len(roots), sorted(edges)), classes


def bipartite_induced_ref(G: Graph, A, B) -> Graph:
    """The A-B edges of G on A | B, renumbered ascending."""
    old_ids = sorted(set(A) | set(B))
    pos = {v: i for i, v in enumerate(old_ids)}
    edges = [
        (pos[u], pos[v])
        for u, v in G.edges()
        if (u in A and v in B) or (u in B and v in A)
    ]
    return from_edge_list(len(old_ids), edges)


def contraction_round_ref(G: Graph, A, X, seed: int) -> Graph:
    """Each A-vertex with an X-neighbour joins a random one (ascending draw
    order); the result is the graph on X, renumbered ascending, whose edges
    join two X-vertices that share a contracted A-vertex."""
    rng = random.Random(seed)
    xs = sorted(X)
    pos = {x: i for i, x in enumerate(xs)}
    edges = set()
    for v in sorted(A):
        nb = [x for x in xs if G.has_edge(v, x)]
        if not nb:
            continue
        u = nb[rng.randrange(len(nb))]
        edges.update((min(pos[u], pos[x]), max(pos[u], pos[x])) for x in nb if x != u)
    return from_edge_list(len(xs), sorted(edges))


def saturating_matching_ref(G: Graph, Y, X):
    """Recursive augmenting paths, X-neighbours tried in ascending order.

    Returns the matching as sorted (y, x) pairs, or the Y-vertices reached by
    the last failed search as a frozenset.  Recursion depth grows with the
    longest alternating path, so keep inputs small.
    """
    xs = set(X)
    match_of_x: dict[int, int] = {}

    def augment(y: int, seen: set[int]) -> bool:
        for x in sorted(set(G.neighbors(y)) & xs):
            if x not in seen:
                seen.add(x)
                if x not in match_of_x or augment(match_of_x[x], seen):
                    match_of_x[x] = y
                    return True
        return False

    violator = None
    for y in sorted(set(Y)):
        seen: set[int] = set()
        if not augment(y, seen):
            violator = frozenset({y} | {match_of_x[x] for x in seen})
    if violator is not None:
        return violator
    return sorted((y, x) for x, y in match_of_x.items())


def biconnected_blocks_ref(G: Graph) -> list[int]:
    """Blocks by Tarjan's edge stack: a finished child v of p whose subtree
    reaches no vertex above p closes the block of the edges pushed since pv.
    Neighbours are tried lowest id first, as in the library."""
    disc = [-1] * G.n
    low = [0] * G.n
    timer = 0
    blocks: list[int] = []
    edge_stack: list[tuple[int, int]] = []
    for root in range(G.n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        dfs = [(root, -1, iter(G.neighbors(root)))]
        while dfs:
            v, parent, it = dfs[-1]
            advanced = False
            for u in it:
                if u == parent:
                    continue
                if disc[u] == -1:
                    edge_stack.append((v, u))
                    disc[u] = low[u] = timer
                    timer += 1
                    dfs.append((u, v, iter(G.neighbors(u))))
                    advanced = True
                    break
                if disc[u] < disc[v]:
                    edge_stack.append((v, u))
                    low[v] = min(low[v], disc[u])
            if not advanced:
                dfs.pop()
                if dfs:
                    pv = dfs[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] >= disc[pv]:
                        block = 0
                        while True:
                            x, y = edge_stack.pop()
                            block |= (1 << x) | (1 << y)
                            if (x, y) == (pv, v):
                                break
                        blocks.append(block)
    return blocks


def verify_list_coloring_ref(G: Graph, lists: ListAssignment, coloring) -> bool:
    """Every coloured vertex in range with a colour from its list, and no
    edge whose two ends are coloured alike, checked edge by edge."""
    _check_lists(G, lists)
    for v, c in coloring.items():
        if not 0 <= v < G.n or c not in lists[v]:
            return False
    for u, v in G.edges():
        if u in coloring and v in coloring and coloring[u] == coloring[v]:
            return False
    return True


def first_fit_parts_ref(G: Graph) -> list[frozenset[int]]:
    """Independent parts, first fit by vertex id, each vertex tested against
    every member of a part by `has_edge`."""
    parts: list[set[int]] = []
    for v in range(G.n):
        for part in parts:
            if all(not G.has_edge(v, u) for u in part):
                part.add(v)
                break
        else:
            parts.append({v})
    return [frozenset(p) for p in parts]


def triangulated_grid(w):
    """The w x w grid with one diagonal per square: planar, min degree 2."""
    edges = []
    for r in range(w):
        for c in range(w):
            v = r * w + c
            if c + 1 < w:
                edges.append((v, v + 1))
            if r + 1 < w:
                edges.append((v, v + w))
            if c + 1 < w and r + 1 < w:
                edges.append((v, v + w + 1))
    return from_edge_list(w * w, edges)


def degeneracy_ref(G: Graph) -> tuple[int, list[int]]:
    """Minimum-degree elimination by a full scan of the live vertices per
    step (lowest id on ties): O(n^2) bitset operations, no degree masks."""
    live = G.full_mask
    order: list[int] = []
    d = 0
    for _ in range(G.n):
        best_v = -1
        best_deg = G.n + 1
        for v in bits(live):
            dv = (G.adj[v] & live).bit_count()
            if dv < best_deg:
                best_deg = dv
                best_v = v
        d = max(d, best_deg)
        order.append(best_v)
        live &= ~(1 << best_v)
    return d, order


def peel_layers_ref(G: Graph, d: int) -> list[list[int]]:
    """The peel loop on induced copies: each piece is peeled from a fresh
    G[remaining], as its lowest (degree, id) vertex when that degree is at
    most d, else as the small-coboundary piece with k = d // 6."""
    layers, remaining = [], list(range(G.n))
    while remaining:
        H, old_ids = induced_subgraph_with_map(G, remaining)
        deg, v = min((H.degree(v), v) for v in range(H.n))
        piece = {v} if deg <= d else small_coboundary_piece(H, d // 6).X
        layers.append(sorted(old_ids[i] for i in piece))
        remaining = sorted(set(remaining) - set(layers[-1]))
    return layers


def small_coboundary_piece_ref(G: Graph, k: int) -> Decomposition:
    """The piece loop with two passes of flows per round, both by pair
    coverage: :func:`connectivity_at_least_ref` decides whether the
    contracted piece is k-connected, and only when it is not does
    :func:`separation_below_ref` find a minimum separation, from scratch at
    cap delta + 1.
    Each contracted piece comes from the edge-walk references
    (:func:`induced_subgraph_ref`, then :func:`contract_ref`).  The
    preconditions are the caller's to meet."""
    X = frozenset(range(G.n))
    while True:
        Y = coboundary(G, X)
        result = saturating_matching(G, Y, X)
        if isinstance(result, HallViolator):
            X = X - set_of(adjacency_mask(G, mask_of(result.witness)) & mask_of(X))
            continue
        matching = tuple(result)
        H, old_ids = induced_subgraph_ref(G, X | Y)
        pos = {v: i for i, v in enumerate(old_ids)}
        Q, classes = contract_ref(H, [(pos[y], pos[x]) for y, x in matching])
        classes = [frozenset(old_ids[i] for i in c) for c in classes]
        if Q.n < 2:
            raise InvariantViolation("contracted piece collapsed to a single vertex")
        if connectivity_at_least_ref(Q, k):
            return Decomposition(X, Y, matching, k)
        if Q.is_complete():
            raise InputError("complete graphs have no separation")
        _, A_new, B_new = separation_below_ref(Q, Q.min_degree() + 1)
        A_new, B_new = set_of(A_new), set_of(B_new)
        A = frozenset().union(*(classes[i] for i in A_new))
        B = frozenset().union(*(classes[i] for i in B_new))
        for candidate in ((A & X) - B, (B & X) - A):
            if candidate and len(coboundary(G, candidate)) <= 3 * k:
                X = candidate
                break
        else:
            raise InvariantViolation("no separation side yields a small coboundary")


# the most failed states each transposition table of branch_set_search_ref
# records
_TRANSPOSITION_CAP = 1_000_000


def branch_set_search_ref(
    G: Graph, comp: int, t: int, budget: int, spent: list[int]
) -> list[int] | None:
    """Recursive branch-set search, the reference search kept as an
    independent oracle for the spanning-model stage: branch sets grow by
    backtracking with canonical-seed symmetry pruning under a deepening cap
    on the used vertices, with transposition tables of failed states; one
    budget step per node."""

    def above(v: int) -> int:
        return -1 << (v + 1)

    comp_size = comp.bit_count()
    failed_perm: set[tuple[int, ...]] = set()

    def remember_perm(state: tuple[int, ...]) -> None:
        if len(failed_perm) < _TRANSPOSITION_CAP:
            failed_perm.add(state)

    def search(cap: int) -> tuple[list[int] | None, bool]:
        failed_here: set[tuple[int, ...]] = set()

        def remember(state: tuple[int, ...], cap_hit: bool) -> None:
            if cap_hit:
                if len(failed_here) < _TRANSPOSITION_CAP:
                    failed_here.add(state)
            else:
                remember_perm(state)

        def rec(
            sets: list[int], seeds: list[int], avail: int, used: int
        ) -> tuple[list[int] | None, bool]:
            spent[0] += 1
            if spent[0] > budget:
                raise BudgetExceeded("minor search", budget, comp_size)
            state = tuple(sets)
            if state in failed_perm:
                return None, False
            if state in failed_here:
                return None, True
            k = len(sets)
            nbr = [adjacency_mask(G, s) for s in sets]
            deficient = [
                (i, j)
                for i in range(k)
                for j in range(i + 1, k)
                if not nbr[i] & sets[j]
            ]
            floor_size = used + (t - k) + (1 if deficient else 0)
            if floor_size > comp_size:
                remember_perm(state)
                return None, False
            if floor_size > cap:
                remember(state, True)
                return None, True
            if deficient:
                grow = {}
                for i in {x for pair in deficient for x in pair}:
                    grow[i] = avail & nbr[i] & above(seeds[i])
                best = None
                best_count = None
                for i, j in deficient:
                    count = grow[i].bit_count() + grow[j].bit_count()
                    if count == 0:
                        remember_perm(state)
                        return None, False
                    if best_count is None or count < best_count:
                        best_count = count
                        best = (i, j)
                i, j = best
                moves = []
                for side, other in ((i, j), (j, i)):
                    for v in bits(grow[side]):
                        instant = 1 if G.adj[v] & sets[other] else 0
                        moves.append((1 - instant, side, v))
                moves.sort()
                cap_hit = False
                for _, side, v in moves:
                    vb = 1 << v
                    new_sets = sets.copy()
                    new_sets[side] |= vb
                    found, child_hit = rec(new_sets, seeds, avail & ~vb, used + 1)
                    if found is not None:
                        return found, False
                    cap_hit = cap_hit or child_hit
                remember(state, cap_hit)
                return None, cap_hit
            if k == t:
                return sets, False
            base = -1 if not seeds else seeds[-1]
            cands = avail & above(base)
            if cands.bit_count() < t - k:
                remember_perm(state)
                return None, False
            ranked = sorted(
                (sum(0 if G.adj[v] & s else 1 for s in sets), v)
                for v in bits(cands)
            )
            cap_hit = False
            for _, v in ranked:
                vb = 1 << v
                found, child_hit = rec(sets + [vb], seeds + [v], avail & ~vb, used + 1)
                if found is not None:
                    return found, False
                cap_hit = cap_hit or child_hit
            remember(state, cap_hit)
            return None, cap_hit

        return rec([], [], comp, 0)

    if comp_size <= 14:
        found, _ = search(comp_size)
        return found
    for cap in range(t, comp_size + 1):
        found, cap_hit = search(cap)
        if found is not None:
            return found
        if not cap_hit:
            return None
    return None


def random_multipartite(sizes, p: float, seed: int) -> Graph:
    """A random subgraph of the complete multipartite graph: each of its
    edges is kept with probability p."""
    rng = random.Random(seed)
    G = complete_multipartite(sizes)
    return from_edge_list(G.n, [e for e in G.edges() if rng.random() < p])


def clique_cover_bound_ref(adj: tuple[int, ...], P: int) -> int:
    """Greedy clique cover of P; its size bounds the independence number."""
    cliques: list[int] = []
    for v in bits(P):
        av = adj[v]
        for i, c in enumerate(cliques):
            if c & ~av == 0:
                cliques[i] = c | 1 << v
                break
        else:
            cliques.append(1 << v)
    return len(cliques)


def mis_search_ref(
    G: Graph, start: int, budget: int, target: int | None
) -> tuple[int, int]:
    """A greedy dive over vertex sets, then a recursive branch and bound: the
    same picks, nodes, order and step charges as
    :func:`minorlab.graphs._mis_search`."""
    adj = G.adj
    steps = budget

    def charge() -> None:
        nonlocal steps
        steps -= 1
        if steps < 0:
            raise BudgetExceeded("independent-set search", budget, start.bit_count())

    # no dive when the root's clique cover rules the target out
    settled = target is not None and clique_cover_bound_ref(adj, start) < target
    left = set() if settled else set(bits(start))
    dive: list[int] = []
    while left and (target is None or len(dive) < target):
        charge()
        v = min(left, key=lambda u: (len(left & set(bits(adj[u]))), u))
        dive.append(v)
        left -= {v} | set(bits(adj[v]))
    best_size = len(dive)
    best_mask = mask_of(dive)
    if target is not None and best_size >= target:
        return best_size, best_mask

    def rec(P: int, cur_mask: int, cur_size: int) -> bool:
        nonlocal best_size, best_mask
        charge()
        if cur_size > best_size:
            best_size = cur_size
            best_mask = cur_mask
            if target is not None and best_size >= target:
                return True
        if P == 0:
            return False
        limit = target if target is not None else best_size + 1
        if cur_size + clique_cover_bound_ref(adj, P) < limit:
            return False
        degree = {v: (adj[v] & P).bit_count() for v in bits(P)}
        leaves = [v for v in sorted(degree) if degree[v] <= 1]
        if leaves:
            # a vertex of degree <= 1 lies in some maximum set: no drop branch
            v = leaves[0]
            return rec(P & ~(adj[v] | 1 << v), cur_mask | 1 << v, cur_size + 1)
        pivot = min(degree, key=lambda v: (-degree[v], v))
        pbit = 1 << pivot
        if rec(P & ~(adj[pivot] | pbit), cur_mask | pbit, cur_size + 1):
            return True
        return rec(P & ~pbit, cur_mask, cur_size)

    rec(start, 0, 0)
    return best_size, best_mask


def exact_list_color_ref(
    G: Graph, lists, budget: int = DEFAULT_BUDGET
) -> dict[int, int] | None:
    """Recursive forward-checking search: the same nodes, order and step
    charges as :func:`minorlab.coloring.exact_list_color`."""
    n = G.n
    effective = [sorted(lists[v]) for v in range(n)]
    coloring: dict[int, int] = {}
    steps = [budget]

    def choose() -> int:
        best, best_key = -1, None
        for v in range(n):
            if v in coloring:
                continue
            key = (len(effective[v]), v)
            if best_key is None or key < best_key:
                best_key = key
                best = v
        return best

    def rec() -> bool:
        steps[0] -= 1
        if steps[0] < 0:
            raise BudgetExceeded("exact list coloring", budget, n)
        if len(coloring) == n:
            return True
        v = choose()
        if not effective[v]:
            return False
        for c in effective[v]:
            removed = []
            ok = True
            for u in bits(G.adj[v]):
                if u in coloring:
                    if coloring[u] == c:
                        ok = False
                        break
                elif c in effective[u]:
                    effective[u] = [x for x in effective[u] if x != c]
                    removed.append(u)
                    if not effective[u]:
                        ok = False
                        break
            if ok:
                coloring[v] = c
                if rec():
                    return True
                del coloring[v]
            for u in removed:
                effective[u] = sorted(effective[u] + [c])
        return False

    if rec():
        return dict(coloring)
    return None


def smallest_budget(search):
    """The least budget b with which search(b) does not raise BudgetExceeded,
    and its result there; search(b - 1) raises."""
    hi = 1
    while True:
        try:
            result = search(hi)
            break
        except BudgetExceeded:
            hi *= 2
    lo = hi // 2  # raises, or is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            result_mid = search(mid)
        except BudgetExceeded:
            lo = mid
        else:
            hi, result = mid, result_mid
    return hi, result


def hall_ratio_list_color_ref(
    G: Graph,
    lists: ListAssignment,
    rho: float,
    C: float = 2.0,
    seed: int = 0,
    trials: int = 64,
    budget: int = DEFAULT_BUDGET,
    max_redraws: int = 64,
    _depth: int = 0,
    _n_top: int | None = None,
) -> dict[int, int] | None:
    """Recursive list coloring driven by a promised Hall ratio bound.

    The caller promises ceil(v(H) / alpha(H)) <= rho for every subgraph H;
    the promise is spot-checked on each recursion level (budget permitting)
    and violations raise :class:`HallRatioViolation`.

    Large instances split a random global color subset off the lists,
    extract k = ceil((1 - 1/e) n / s) disjoint independent sets of size
    s = floor(n / (e rho)), color their union from the split-off colors via
    :func:`multipartite_list_color`, and recurse on the remainder with the
    remaining colors.  Each list is first cut to its ceil(C rho log^2(n/rho))
    least colors; the color subset is then redrawn (up to `max_redraws`
    times) until every vertex keeps between (C/2) rho log(n/rho) and
    (3C/2) rho log(n/rho) of its list.

    Small instances, and instances whose lists are too short for the
    redraw window to ever accept, fall back to sequential greedy and then
    to exact search, which raises :class:`BudgetExceeded` out of budget.
    """
    _check_lists(G, lists)
    if rho < 1:
        raise InputError(f"the Hall ratio bound must be at least 1, got {rho}")
    n = G.n
    if n == 0:
        return {}
    if _n_top is None:
        _n_top = n
    else:
        limit = math.ceil(math.log(_n_top / rho)) + 1
        if _depth > limit:
            raise InvariantViolation(
                f"recursion depth {_depth} exceeded the bound {limit}"
            )

    try:
        alpha = exact_alpha(G, budget=budget)
    except BudgetExceeded:
        alpha = None  # promise taken on faith when too big to check
    if alpha is not None and math.ceil(n / alpha) > rho:
        raise HallRatioViolation(
            f"graph itself has ceil(n / alpha) = {math.ceil(n / alpha)} > {rho}"
        )

    min_list = min((len(L) for L in lists), default=0)
    base_case = n <= 3 * math.e * rho
    window_ok = (
        not base_case and min_list >= C * rho * math.log(n / rho) ** 2
    )
    if base_case or not window_ok:
        coloring = greedy_list_color(G, lists)
        if coloring is None:
            coloring = exact_list_color(G, lists, budget=budget)
        return coloring

    log_ratio = math.log(n / rho)
    # a colouring from the sublists is one from the lists
    keep = math.ceil(C * rho * log_ratio ** 2)
    lists = [frozenset(sorted(L)[:keep]) for L in lists]
    keep_p = 1.0 / log_ratio
    lo = C / 2 * rho * log_ratio
    hi = 3 * C / 2 * rho * log_ratio
    pool = sorted(set().union(*lists))

    kept = None
    for redraw in range(max_redraws):
        rng = random.Random(derive_seed(seed, 3 + redraw))
        candidate = {c for c in pool if rng.random() < keep_p}
        sizes = [len(set(L) & candidate) for L in lists]
        if all(lo <= sz <= hi for sz in sizes):
            kept = candidate
            break
    if kept is None:
        return None

    first, second = split_lists_by_colors(lists, kept)
    s = int(n / (math.e * rho))
    k = math.ceil((1 - 1 / math.e) * n / s)
    sets = independent_sets_extract(G, s, k, budget=budget)

    X = sorted(set().union(*sets))
    H, old_ids = induced_subgraph_with_map(G, X)
    pos = {v: i for i, v in enumerate(old_ids)}
    local_parts = [frozenset(pos[v] for v in part) for part in sets]
    local_lists = [first[old_ids[i]] for i in range(H.n)]
    phi1 = multipartite_list_color(
        H, local_parts, local_lists, trials=trials, seed=derive_seed(seed, 0)
    )
    if phi1 is None:
        return None

    rest = sorted(set(range(n)) - set(X))
    coloring = {old_ids[i]: c for i, c in phi1.items()}
    if rest:
        R, rest_ids = induced_subgraph_with_map(G, rest)
        rest_lists = [second[rest_ids[i]] for i in range(R.n)]
        phi2 = hall_ratio_list_color_ref(
            R,
            rest_lists,
            rho,
            C=C,
            seed=derive_seed(seed, 2),
            trials=trials,
            budget=budget,
            max_redraws=max_redraws,
            _depth=_depth + 1,
            _n_top=_n_top,
        )
        if phi2 is None:
            return None
        coloring.update({rest_ids[i]: c for i, c in phi2.items()})
    return coloring


def minor_free_list_color_ref(
    G: Graph,
    lists: ListAssignment,
    d: int,
    seed: int = 0,
    rho: float | None = None,
    inner_threshold: int = 24,
    trials: int = 64,
    budget: int = DEFAULT_BUDGET,
) -> dict[int, int] | None:
    """Peel-and-recolor list coloring, each layer on its induced copy.

    The layers of :func:`peel_layers_ref` are coloured last one first, each from
    its lists minus the colours of its coloured outside neighbours: by
    :func:`exact_list_color` on the renumbered copy of a small layer, by
    :func:`hall_ratio_list_color` (rho defaulting to 2d) on that of a large
    one.  A failed inner stage, or a broken Hall promise, is None; an inner
    search out of budget raises :class:`BudgetExceeded`.
    """
    _check_lists(G, lists)
    if d < 6:
        raise InputError(f"peel parameter must be at least 6, got {d}")
    short = [v for v in range(G.n) if len(lists[v]) < 2 * d]
    if short:
        raise PreconditionError(f"vertex {short[0]} has fewer than 2d colours")
    if rho is None:
        rho = 2 * d

    layers = peel_layers_ref(G, d)
    coloring: dict[int, int] = {}
    for level, piece in enumerate(reversed(layers)):
        piece_set = set(piece)
        reduced: list[frozenset[int]] = []
        for v in piece:
            outside = {
                coloring[u]
                for u in bits(G.adj[v])
                if u not in piece_set and u in coloring
            }
            reduced.append(frozenset(lists[v]) - outside)
        H, old_ids = induced_subgraph_with_map(G, piece)
        try:
            if H.n <= inner_threshold:
                phi = exact_list_color(H, reduced, budget=budget)
            else:
                phi = hall_ratio_list_color(
                    H,
                    reduced,
                    rho,
                    seed=derive_seed(seed, level),
                    trials=trials,
                    budget=budget,
                )
        except HallRatioViolation:
            phi = None
        if phi is None:
            return None
        coloring.update({old_ids[i]: c for i, c in phi.items()})
    return coloring


def parse_edge_list_ref(text: str) -> Graph:
    lines = _content_lines(text)
    if not lines:
        raise InputError("line 1: missing 'p <n> <m>' header")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 3 or fields[0] != "p":
        raise InputError(f"line {lineno}: expected 'p <n> <m>', got {header!r}")
    n, m = _ints(lineno, header, fields[1:])
    # with a negative n every edge line fails its range check first, so
    # only an edgeless body reports the count itself
    adj = [0] * n
    for lineno, body in lines[1:]:
        fields = body.split()
        if len(fields) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {body!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer vertex id in {body!r}") from None
        if u == v:
            raise InputError(f"line {lineno}: loop edge {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {lineno}: vertex id out of range in {body!r}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    edges = sum(a.bit_count() for a in adj) // 2
    if edges != m:
        raise InputError(
            f"header claims {m} edges but the body de-duplicates to {edges}"
        )
    return Graph(n, tuple(adj), edges)


# ---------------------------------------------------------------------------
# Edge-list constructor references
# ---------------------------------------------------------------------------


def complete_multipartite_ref(sizes) -> Graph:
    """Complete multipartite graph; part i occupies a consecutive id block."""
    offsets = [0]
    for i, s in enumerate(sizes):
        if s < 0:
            raise InputError(f"sizes[{i}] must be non-negative, got {s}")
        offsets.append(offsets[-1] + s)
    n = offsets[-1]
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for u in range(offsets[i], offsets[i + 1]):
                for v in range(offsets[j], offsets[j + 1]):
                    edges.append((u, v))
    return from_edge_list(n, edges)


def gnp_random_graph_ref(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with one ``random() < p`` per pair, in lexicographic order."""
    if not 0.0 <= p <= 1.0:
        raise InputError(f"edge probability must be in [0, 1], got {p}")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return from_edge_list(n, edges)


def random_graph_min_degree_ref(n: int, d: int, seed: int, p: float | None = None) -> Graph:
    """G(n, p) topped up to minimum degree d on neighbour sets, vertex by
    vertex in id order, each new neighbour drawn from the ascending list of
    non-neighbours."""
    if not 0 <= d < n:
        raise InputError(f"d must lie in [0, {n}), got {d}")
    if p is None:
        p = min(1.0, (d + 2) / max(1, n - 1))
    base = gnp_random_graph_ref(n, p, derive_seed(seed, 0))
    rng = random.Random(derive_seed(seed, 1))
    adj = [set(base.neighbors(v)) for v in range(n)]
    for v in range(n):
        while len(adj[v]) < d:
            candidates = [u for u in range(n) if u != v and u not in adj[v]]
            u = rng.choice(candidates)
            adj[v].add(u)
            adj[u].add(v)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return from_edge_list(n, edges)


def place_bipartite_ref(
    adj: list[int], left: int, right: int, spec: BipartiteSpec
) -> int:
    """Add the edges of `spec` to `adj`, its left part at ids left.., its
    right part at ids right..; return how many were added.

    Bernoulli draws come from ``random.Random(spec.seed)`` in row-major order
    (left index, then right index).
    """
    draw = random.Random(spec.seed).random
    m = 0
    for i in range(left, left + spec.a):
        row = [j for j in range(right, right + spec.b) if draw() < spec.p]
        m += len(row)
        for j in row:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return m


def greedy_contraction_ref(G: Graph, block: int, t: int) -> list[int] | None:
    """The classes, by id, of a complete quotient of the connected `block`
    on at least t classes found by contraction alone, or None.

    Repeatedly contract the class of least degree (lowest id on ties) into
    the neighbour sharing the fewest neighbours with it (lowest id on ties),
    recounting every class's degree and every candidate's shared neighbours
    with a key tuple at each step, where the library keeps a degree table
    and walks the candidates in id order; both must return the same classes.
    """
    adj = {v: G.adj[v] & block for v in bits(block)}
    members = {v: 1 << v for v in adj}
    while len(adj) >= t:
        v = min(adj, key=lambda c: (adj[c].bit_count(), c))
        nbrs = adj.pop(v)
        if nbrs.bit_count() == len(adj):  # least degree k - 1: complete
            return [members[c] for c in sorted(members)]
        u = min(bits(nbrs), key=lambda c: ((adj[c] & nbrs).bit_count(), c))
        members[u] |= members.pop(v)
        ub, vb = 1 << u, 1 << v
        for w in bits(nbrs):
            adj[w] = adj[w] & ~vb | ub
        adj[u] = (adj[u] | nbrs) & ~ub
    return None


def bits_ref(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def multipartite_list_color_ref(parts, lists, trials: int, seed: int):
    """The randomized colouring of disjoint independent masks `parts`, with
    one owner dict per trial and a scan of each vertex's whole list."""
    part_of = {v: i for i, part in enumerate(parts) for v in bits_ref(part)}
    live = sum(parts)  # the parts are disjoint, so their sum is their union
    pool = sorted(set().union(*(lists[v] for v in bits_ref(live))))
    r = len(parts)
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, trial))
        owner = {c: rng.randrange(r) for c in pool}
        coloring: dict[int, int] = {}
        for v in bits_ref(live):
            mine = min((c for c in lists[v] if owner[c] == part_of[v]), default=None)
            if mine is None:
                break
            coloring[v] = mine
        else:
            return coloring
    return None
