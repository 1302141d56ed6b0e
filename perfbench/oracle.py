"""Input builders and result checkers that share no code with minorlab.

Everything here works on plain edge lists and adjacency sets, so the inputs a
workload sends and the verdicts it expects do not depend on the program under
test.  Expected verdicts come from how each graph is built (a planted model, a
complete bipartite graph, a planar grid, a known theorem), never from minorlab.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

Edges = list[tuple[int, int]]


# ---------------------------------------------------------------------------
# Graph builders
# ---------------------------------------------------------------------------


def relabel(n: int, edges: Edges, rng: random.Random) -> Edges:
    """The same graph under a random vertex permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def complete_bipartite(a: int, b: int) -> Edges:
    return [(i, a + j) for i in range(a) for j in range(b)]


def petersen() -> Edges:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return edges


def triangulated_grid(w: int) -> Edges:
    """w x w grid with one diagonal per square: planar, so free of K5 minors."""
    edges = []
    for i in range(w):
        for j in range(w):
            v = i * w + j
            if j + 1 < w:
                edges.append((v, v + 1))
            if i + 1 < w:
                edges.append((v, v + w))
            if i + 1 < w and j + 1 < w:
                edges.append((v, v + w + 1))
    return edges


def planted_clique_minor(
    n: int, t: int, p: float, rng: random.Random
) -> tuple[Edges, list[list[int]]]:
    """G(n, p) plus edges that make t random disjoint vertex sets a K_t model."""
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    pool = rng.sample(range(n), n)
    model = []
    at = 0
    for _ in range(t):
        size = rng.randint(1, 3)
        model.append(pool[at : at + size])
        at += size
    for bs in model:
        for x, y in zip(bs, bs[1:]):
            edges.add((min(x, y), max(x, y)))
    for A, B in combinations(model, 2):
        x, y = rng.choice(A), rng.choice(B)
        edges.add((min(x, y), max(x, y)))
    return sorted(edges), model


def subdivided_k5(chords: int, rng: random.Random) -> tuple[Edges, list[list[int]]]:
    """K5 with every edge subdivided once (15 vertices) plus random chords.

    The planted model: branch set i holds vertex i and the subdivision
    vertices of its edges to larger-numbered vertices.
    """
    edges = set()
    model: list[list[int]] = [[i] for i in range(5)]
    mid = 5
    for u, v in combinations(range(5), 2):
        edges.add((u, mid))
        edges.add((v, mid))
        model[u].append(mid)
        mid += 1
    middles = list(range(5, 15))
    while chords:
        x, y = sorted(rng.sample(middles, 2))
        if (x, y) not in edges:
            edges.add((x, y))
            chords -= 1
    return sorted(edges), model


def random_min_degree(n: int, d: int, rng: random.Random) -> Edges:
    """Random graph on n vertices with every degree at least d."""
    p = min(1.0, (d + 2) / (n - 1))
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    for v in range(n):
        while len(adj[v]) < d:
            u = rng.choice([x for x in range(n) if x != v and x not in adj[v]])
            adj[v].add(u)
            adj[u].add(v)
    return [(u, v) for u in range(n) for v in adj[u] if u < v]


def glued_clusters(
    sizes: list[int], k: int, rng: random.Random
) -> tuple[int, Edges]:
    """Random clusters of minimum degree 6k + 2, consecutive ones joined
    through a separator of k - 1 vertices (none at all when k = 1)."""
    edges: Edges = []
    starts = []
    at = 0
    for size in sizes:
        starts.append(at)
        edges += [(at + u, at + v) for u, v in random_min_degree(size, 6 * k + 2, rng)]
        at += size
    for i in range(len(sizes) - 1):
        left = range(starts[i], starts[i] + sizes[i])
        right = range(starts[i + 1], starts[i + 1] + sizes[i + 1])
        for x in rng.sample(left, k - 1):
            for y in rng.sample(right, 3):
                edges.append((x, y))
    return at, edges


def random_multipartite(parts: list[int], p: float, rng: random.Random) -> Edges:
    """Random subgraph of the complete multipartite graph; part i is a
    consecutive id block."""
    owner = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(owner)
    return [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if owner[u] != owner[v] and rng.random() < p
    ]


def bipartite_sample(b: int, p: float, seed: int) -> Edges:
    """Row-major Bernoulli draws from random.Random(seed), the sampling rule
    that minorlab documents for its seeded bipartite generator."""
    rng = random.Random(seed)
    return [(i, b + j) for i in range(b) for j in range(b) if rng.random() < p]


def edge_list_text(n: int, edges: Edges) -> str:
    """The 'p <n> <m>' text format with de-duplicated, sorted edges."""
    unique = {(min(u, v), max(u, v)) for u, v in edges}
    lines = [f"p {n} {len(unique)}"]
    lines += [f"{u} {v}" for u, v in sorted(unique)]
    return "\n".join(lines) + "\n"


def random_lists(n: int, size: int, universe: int, rng: random.Random) -> list[frozenset[int]]:
    return [frozenset(rng.sample(range(universe), size)) for _ in range(n)]


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def masks(n: int, edges) -> list[int]:
    """Adjacency as one neighbor bitmask per vertex."""
    out = [0] * n
    for u, v in edges:
        out[u] |= 1 << v
        out[v] |= 1 << u
    return out


def edges_of(G) -> Edges:
    """Edges of a minorlab graph, read from its adjacency bitmasks."""
    out = []
    for u, mask in enumerate(G.adj):
        mask >>= u + 1
        while mask:
            low = mask & -mask
            out.append((u, u + low.bit_length()))
            mask ^= low
    return out


def _connected(adj: list[set[int]], vs: set[int]) -> bool:
    start = next(iter(vs))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x] & vs:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == vs


def model_problem(adj: list[set[int]], branch_sets, t: int) -> str | None:
    """Why `branch_sets` is not a K_t model of the graph, or None if it is."""
    sets = [set(s) for s in branch_sets]
    if len(sets) != t:
        return f"{len(sets)} branch sets for t={t}"
    seen: set[int] = set()
    for s in sets:
        if not s or not s <= set(range(len(adj))):
            return "empty or out-of-range branch set"
        if s & seen:
            return "branch sets overlap"
        seen |= s
        if not _connected(adj, s):
            return "branch set not connected"
    for A, B in combinations(sets, 2):
        if not any(adj[x] & B for x in A):
            return "branch sets not adjacent"
    return None


def component_edge_bound(adj: list[set[int]], t: int) -> bool:
    """True when no connected component has t vertices and C(t, 2) edges,
    which rules out a K_t minor without any search."""
    need = t * (t - 1) // 2
    seen: set[int] = set()
    for v in range(len(adj)):
        if v in seen or not adj[v]:
            continue
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        m = sum(len(adj[x]) for x in comp) // 2
        if len(comp) >= t and m >= need:
            return False
    return True


def coloring_problem(adj: list[set[int]], lists, coloring) -> str | None:
    """Why `coloring` is not a complete proper list coloring, or None."""
    if set(coloring) != set(range(len(adj))):
        return "coloring does not cover every vertex"
    for v, c in coloring.items():
        if c not in lists[v]:
            return f"vertex {v} colored outside its list"
        if any(coloring[u] == c for u in adj[v]):
            return f"vertex {v} shares a color with a neighbor"
    return None


def decomposition_problem(adj: list[set[int]], k: int, X, Y, matching) -> str | None:
    """Checks every decomposition invariant except the connectivity of the
    contracted piece, which needs flows (minorlab's own re-verifier runs it)."""
    X, Y = set(X), set(Y)
    if not X:
        return "empty piece"
    cob = set().union(*(adj[v] for v in X)) - X
    if cob != Y:
        return "Y is not the coboundary of X"
    if len(Y) > 3 * k:
        return "coboundary larger than 3k"
    ys = [y for y, _ in matching]
    xs = [x for _, x in matching]
    if sorted(ys) != sorted(Y) or len(set(xs)) != len(xs):
        return "matching does not saturate Y injectively"
    if any(x not in X or x not in adj[y] for y, x in matching):
        return "matching pair is not an X-Y edge"
    return None


def bipartite_certificate(adj: list[int], b: int) -> int:
    """Largest k that the common-neighbor certificate proves kappa >= k for:
    every degree >= k and every same-side pair sharing more than k/2 neighbors.
    `adj` holds neighbor bitmasks of a bipartite graph with sides of b."""
    common = min(
        (adj[x] & adj[y]).bit_count()
        for side in (range(b), range(b, 2 * b))
        for x, y in combinations(side, 2)
    )
    return min(min(a.bit_count() for a in adj), 2 * common - 1)


def density_forcing_threshold(t: int) -> float:
    """The closed-form density that forces a K_t minor, 3.2 t sqrt(log t)."""
    return 3.2 * t * math.sqrt(math.log(t))
