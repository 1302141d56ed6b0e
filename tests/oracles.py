"""Independent brute-force oracles used only by the test suite.

These deliberately use different algorithmic principles from the library:
minor testing enumerates set partitions of vertex subsets, connectivity
enumerates all vertex cuts, and the independence number enumerates subsets.
They are only feasible on small graphs, which is the point.  The one
polynomial oracle, :func:`split_flow`, is a textbook augmenting-path max-flow
on dict residual capacities, with none of the library's bitset machinery.

The subgraph references at the end (induced subgraph, contraction, bipartite
induced subgraph, one random contraction round) walk the edge list and
rebuild through :func:`from_edge_list`, independently of the library's mask
quotient; the matching reference is the plain recursive augmenting-path
search.
"""

from __future__ import annotations

import random
from itertools import combinations

from minorlab.graphs import Graph, from_edge_list


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
    adj = G.adj

    connected = [False] * (1 << n)
    for mask in range(1, 1 << n):
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

    def split(rem: int, blocks: list[int], nbhds: list[int]) -> bool:
        if len(blocks) == t:
            return True
        need = t - len(blocks)
        if rem.bit_count() < need:
            return False
        anchor = rem & -rem
        rest = rem ^ anchor
        # enumerate all subsets of rest, forming the block containing anchor
        sub = rest
        while True:
            block = anchor | sub
            if connected[block]:
                nb = nbhd(block)
                if all(nb & other for other in blocks):
                    if split(rem & ~block, blocks + [block], nbhds + [nb]):
                        return True
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return False

    full = (1 << n) - 1
    for used in range(full, -1, -1):
        if used.bit_count() >= t and split(used, [], []):
            return True
    return False


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
