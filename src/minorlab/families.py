"""Named graph constructors and seeded random graph generators.

Where a constructor knows its adjacency rows outright (complete multipartite
graphs, the top-up of a random graph to a minimum degree) it writes the rows
as bitmasks directly; the rest list their edges for :func:`from_edge_list`.
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import InputError
from .graphs import Graph, from_edge_list, from_rows
from .seeds import derive_seed


def empty_graph(n: int) -> Graph:
    return from_edge_list(n, [])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError(f"a cycle needs at least 3 vertices, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return complete_multipartite([a, b])


def _check_part_sizes(sizes: Sequence[int]) -> None:
    if any(s < 0 for s in sizes):
        raise InputError("part sizes must be non-negative")


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; part i occupies a consecutive id block.

    Each row is written directly, as the full mask minus the row's own part,
    so a call costs O(n) mask operations.
    """
    _check_part_sizes(sizes)
    n = sum(sizes)
    full = (1 << n) - 1
    adj = []
    at = 0
    for s in sizes:
        adj += [full & ~(((1 << s) - 1) << at)] * s
        at += s
    return from_rows(adj)


def turan_parts(sizes: Sequence[int]) -> list[frozenset[int]]:
    """The id blocks matching :func:`complete_multipartite`."""
    _check_part_sizes(sizes)
    parts = []
    at = 0
    for s in sizes:
        parts.append(frozenset(range(at, at + s)))
        at += s
    return parts


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i - (i + 5)."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edge_list(10, edges)


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    """Each of the C(n, 2) pairs is an edge independently with probability p.

    Pairs are drawn in lexicographic order from ``random.Random(seed)``, so
    the output is a pure function of (n, p, seed).
    """
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


def gnm_random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform graph with exactly m edges (sampled without replacement)."""
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not 0 <= m <= len(all_pairs):
        raise InputError(f"m must lie in [0, {len(all_pairs)}], got {m}")
    rng = random.Random(seed)
    return from_edge_list(n, rng.sample(all_pairs, m))


def random_graph_min_degree(n: int, d: int, seed: int, p: float | None = None) -> Graph:
    """Seeded random graph with every degree forced to at least d.

    Starts from G(n, p) and tops up each deficient vertex, in id order, with
    edges to uniformly drawn non-neighbours.  The top-up edits the base
    graph's rows in place, so no edge list is rebuilt.
    """
    if d >= n:
        raise InputError(f"cannot force min degree {d} on {n} vertices")
    if p is None:
        p = min(1.0, (d + 2) / max(1, n - 1))
    base = gnp_random_graph(n, p, derive_seed(seed, 0))
    rng = random.Random(derive_seed(seed, 1))
    adj = list(base.adj)
    for v in range(n):
        while adj[v].bit_count() < d:
            closed = adj[v] | 1 << v
            u = rng.choice([u for u in range(n) if not closed >> u & 1])
            adj[v] |= 1 << u
            adj[u] |= 1 << v
    return from_rows(adj)
