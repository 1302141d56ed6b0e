"""Independent brute-force oracles used only by the test suite.

These deliberately use different algorithmic principles from the library:
minor testing enumerates set partitions of vertex subsets, connectivity
enumerates all vertex cuts, and the independence number enumerates subsets.
They are only feasible on small graphs, which is the point.  The one
polynomial oracle, :func:`split_flow`, is a textbook augmenting-path max-flow
on dict residual capacities, with none of the library's bitset machinery.
"""

from __future__ import annotations

from itertools import combinations

from minorlab.graphs import Graph


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
