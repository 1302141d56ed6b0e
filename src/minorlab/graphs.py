"""Core graph type and the classical subroutines every other module consumes.

Vertices are dense integers ``0..n-1``.  Adjacency is stored as one Python int
bitmask per vertex: edge queries are O(1), and neighborhood intersections run
word-parallel, which keeps common-neighbor counting cheap at a few thousand
vertices.

Graphs are immutable after construction and every function here is a pure
function of its inputs, so values are safe to share across concurrent callers.
Tie-breaking in all searches (min-degree peeling, branch-and-bound pivots,
augmenting paths) is lowest-index-first for reproducibility.
"""

from __future__ import annotations

from itertools import compress, count
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .errors import NON_NEGATIVE, BudgetExceeded, InputError, PreconditionError, check_inputs

if TYPE_CHECKING:
    from fractions import Fraction

#: Default node budget for exact searches (number of branch-extension steps).
DEFAULT_BUDGET = 10_000_000


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with one bit per vertex id."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


#: binary digits to compress() selectors: b"0" -> 0, b"1" -> 1
_SELECT = bytes.maketrans(b"01", b"\x00\x01")


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending.

    A dense mask, with at least 8 set bits and at least one per 8 bits of
    its length, is walked in C: its binary digits, lowest first, select
    from count() through compress().  Any other mask pops its lowest bit in
    a generator, whose cost follows the set bits and not the length.  The
    rule was measured: compress for every mask read minor-check 2.3% slower,
    whose masks are short and sparse; with the 8-bit floor it read no slower,
    and color-pipeline's dense part masks gained 6%.
    """
    ones = mask.bit_count()
    if ones >= 8 and ones * 8 >= mask.bit_length():
        return compress(count(), bin(mask)[:1:-1].encode().translate(_SELECT))
    return _low_bits(mask)


def _low_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


class Graph(NamedTuple):
    """Simple undirected graph: no loops, no parallel edges, symmetric adjacency.

    `adj[v]` is the neighborhood of `v` as a bitmask; `m` caches the number of
    unordered adjacent pairs.  Every graph is built by :func:`from_rows`,
    which reads n and m off the rows.
    """

    n: int
    adj: tuple[int, ...]
    m: int

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

    def neighbors_mask(self, v: int) -> int:
        return self.adj[v]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def min_degree(self) -> int:
        if self.n == 0:
            raise PreconditionError("min_degree of a null graph is undefined")
        return min(a.bit_count() for a in self.adj)

    def max_degree(self) -> int:
        if self.n == 0:
            raise PreconditionError("max_degree of a null graph is undefined")
        return max(a.bit_count() for a in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            above = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(above):
                out.append((u, v))
        return out

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2


def from_rows(rows: Sequence[int]) -> Graph:
    """The graph whose vertex v has the neighbourhood mask `rows[v]`: n is
    len(rows) and m half the rows' popcount sum.  The rows must already be
    symmetric and loop-free."""
    return Graph(len(rows), tuple(rows), sum(map(int.bit_count, rows)) // 2)


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, de-duplicating repeated pairs.

    The result is deterministic regardless of input order.  Loops and
    out-of-range ids are rejected.
    """
    check_inputs(int, NON_NEGATIVE, n=n)
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise InputError(f"loop edge ({u}, {v}) is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return from_rows(adj)


def adjacency_mask(G: Graph, mask: int) -> int:
    """Union of the neighborhoods of all vertices in `mask`."""
    adj = G.adj
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def closure_mask(G: Graph, start: int, allowed: int) -> int:
    """Vertices reachable from `start` by paths whose interior stays in `allowed`."""
    reach = start
    frontier = start
    while frontier:
        nxt = adjacency_mask(G, frontier) & allowed & ~reach
        reach |= nxt
        frontier = nxt
    return reach


def is_connected_mask(G: Graph, mask: int) -> bool:
    """True iff the induced subgraph on a non-empty `mask` is connected."""
    if mask == 0:
        return False
    low = mask & -mask
    return closure_mask(G, low, mask) == mask


def mask_components(G: Graph, mask: int) -> list[int]:
    """Connected components of the subgraph induced on `mask`, by smallest member."""
    out = []
    while mask:
        comp = closure_mask(G, mask & -mask, mask)
        out.append(comp)
        mask &= ~comp
    return out


def components(G: Graph) -> list[int]:
    """Connected components as masks, ordered by smallest member."""
    return mask_components(G, G.full_mask)


def biconnected_blocks(G: Graph) -> list[int]:
    """Vertex masks of the biconnected components (blocks), by discovery.

    Bridges appear as 2-vertex blocks; isolated vertices belong to no block.
    Any 2-connected minor of the graph is a minor of one of its blocks.

    One depth-first pass that tries neighbours lowest id first.  Each frame
    keeps the mask of the neighbours it has not tried yet, and a finished
    child v of p whose subtree reaches no vertex above p closes a block: p
    and the vertices pushed on the vertex stack since v.  The edge back to
    the parent may lower low[v] to disc[p], which leaves that test as it is.
    """
    adj = G.adj
    disc = [-1] * G.n
    low = [0] * G.n
    timer = 0
    blocks: list[int] = []
    stack: list[int] = []  # discovered vertices not yet in a closed block
    for root in range(G.n):
        if disc[root] != -1 or not adj[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # one frame per vertex on the DFS path: [v, its untried neighbours,
        # the height of the vertex stack below v]
        dfs = [[root, adj[root], 0]]
        while dfs:
            frame = dfs[-1]
            v, untried = frame[0], frame[1]
            low_v = low[v]
            u = -1
            while untried:
                ub = untried & -untried
                untried ^= ub
                d = disc[ub.bit_length() - 1]
                if d == -1:
                    u = ub.bit_length() - 1
                    break
                if d < low_v:
                    low_v = d
            low[v] = low_v
            if u != -1:
                frame[1] = untried
                disc[u] = low[u] = timer
                timer += 1
                dfs.append([u, adj[u], len(stack)])
                stack.append(u)
                continue
            dfs.pop()
            if dfs:
                p = dfs[-1][0]
                if low_v < low[p]:
                    low[p] = low_v
                if low_v >= disc[p]:
                    at = frame[2]
                    blocks.append(mask_of(stack[at:]) | 1 << p)
                    del stack[at:]
    return blocks


def density(G: Graph) -> Fraction:
    """Edge count over vertex count, as an exact rational."""
    from fractions import Fraction  # imported here: fractions loads decimal

    if G.n == 0:
        raise PreconditionError("density of the null graph is undefined")
    return Fraction(G.m, G.n)


def nonedge_fraction(G: Graph) -> Fraction:
    """1 - e(G) / C(n, 2), exactly; the missing-edge fraction of the graph."""
    from fractions import Fraction

    if G.n < 2:
        return Fraction(1)
    return 1 - Fraction(G.m, G.n * (G.n - 1) // 2)


def min_degree_peel(G: Graph, live: int, cap: int) -> Iterator[tuple[int, int]]:
    """Remove least-degree vertices of G[live] while that degree is at most `cap`.

    Yields (vertex, its degree among the vertices still live), lowest id on
    ties.  The live vertices sit in one mask per degree; each step pops the
    lowest bit of the least non-empty mask, moves the live neighbours of that
    vertex one mask down and resumes the scan one below the degree peeled, so
    a whole peel costs O(n + m) operations on n-bit masks (the smallest-last
    order of Matula and Beck).
    """
    adj = G.adj
    degree = [0] * G.n
    bucket = [0] * (live.bit_count() + 1)
    for v in bits(live):
        dv = degree[v] = (adj[v] & live).bit_count()
        bucket[dv] |= 1 << v
    d = 0
    while live:
        while not bucket[d]:
            d += 1
        if d > cap:
            return
        low = bucket[d] & -bucket[d]
        bucket[d] ^= low
        live ^= low
        v = low.bit_length() - 1
        yield v, d
        nbrs = adj[v] & live
        while nbrs:
            b = nbrs & -nbrs
            nbrs ^= b
            u = b.bit_length() - 1
            du = degree[u]
            degree[u] = du - 1
            bucket[du] ^= b
            bucket[du - 1] |= b
        d = max(d - 1, 0)


def degeneracy(G: Graph) -> tuple[int, list[int]]:
    """Minimum-degree elimination: returns (d, order).

    `order` removes a lowest-degree vertex at each step (lowest index on
    ties); `d` is the largest degree seen at removal time, so every vertex
    has at most `d` neighbors later in the returned order.
    """
    if G.n == 0:
        raise PreconditionError("degeneracy of the null graph is undefined")
    peel = list(min_degree_peel(G, G.full_mask, G.n))
    return max(dv for _, dv in peel), [v for v, _ in peel]


def quotient(G: Graph, classes: Sequence[int]) -> Graph:
    """The graph whose vertex i is the vertex mask `classes[i]` of G.

    The classes must be disjoint and non-empty; i ~ j exactly when an edge of
    G joins classes[i] to classes[j].  Vertices in no class are dropped, so
    singleton classes give an induced subgraph and a partition a contraction.
    The identity partition, ``[1 << 0, ..., 1 << (n - 1)]``, returns G
    itself (graphs are immutable, so it is safe to share).

    Each kept vertex of G records the bit of its class.  A row costs one OR
    per member of its class, to gather the class's neighbourhood, and one
    list lookup per kept neighbour: O(n + sum of |N(classes[i])|) operations
    on n-bit masks in all.
    """
    if len(classes) == G.n and all(c == 1 << i for i, c in enumerate(classes)):
        return G
    adj = G.adj
    class_bit = [0] * G.n
    keep = 0
    for i, c in enumerate(classes):
        if c <= 0 or c & keep or c >> G.n:
            raise InputError(f"class {i} is empty, out of range or overlaps another")
        keep |= c
        b = 1 << i
        while c:
            low = c & -c
            class_bit[low.bit_length() - 1] = b
            c ^= low
    rows = []
    for c in classes:
        out = 0
        rest = c
        while rest:
            low = rest & -rest
            out |= adj[low.bit_length() - 1]
            rest ^= low
        out &= keep & ~c
        row = 0
        while out:
            low = out & -out
            row |= class_bit[low.bit_length() - 1]
            out ^= low
        rows.append(row)
    return from_rows(rows)


def contract(G: Graph, F: Iterable[tuple[int, int]]) -> Graph:
    """Quotient of G by the connected components of (V, F), as a simple graph.

    Parallel edges merge and loops are dropped.  New vertex ids are assigned
    by the smallest original id in each class, ascending.
    """
    return contract_with_classes(G, F)[0]


def contract_with_classes(
    G: Graph, F: Iterable[tuple[int, int]]
) -> tuple[Graph, tuple[frozenset[int], ...]]:
    """Like :func:`contract`, also returning the vertex class of each new id."""
    F = list(F)
    for u, v in F:
        if not (0 <= u < G.n and 0 <= v < G.n) or not G.has_edge(u, v):
            raise InputError(f"({u}, {v}) is not an edge of the graph")
    # components come by smallest member, the order of the new ids
    masks = components(from_edge_list(G.n, F))
    return quotient(G, masks), tuple(set_of(c) for c in masks)


def checked_vertices(G: Graph, vertices: Iterable[int]) -> list[int]:
    """`vertices` as a list, in their order; raises InputError on an id that
    is not a vertex of G, or on a `vertices` that is not iterable."""
    out = list(_vertex_iter(vertices))
    checked_mask(G, out)
    return out


def _vertex_iter(vertices: Iterable[int]) -> Iterator[int]:
    """iter(vertices), with the TypeError of a non-iterable as InputError."""
    try:
        return iter(vertices)
    except TypeError:
        raise InputError(
            f"vertices must be an iterable of vertex ids, got {vertices!r}"
        ) from None


def checked_mask(G: Graph, vertices: Iterable[int]) -> int:
    """mask_of(vertices); raises InputError on an id that is not a vertex of
    G, catching the TypeError of a non-integer id rather than testing types,
    and on a `vertices` that is not iterable."""
    mask = 0
    for v in _vertex_iter(vertices):
        try:
            if not 0 <= v < G.n:
                raise InputError(f"vertex {v} out of range for n={G.n}")
            mask |= 1 << v
        except TypeError:
            raise InputError(f"vertex must be an integer, got {v!r}") from None
    return mask


def within_mask(G: Graph, within: Iterable[int] | None) -> int:
    """The mask of the vertices in `within`, or of all of G when it is None."""
    return G.full_mask if within is None else checked_mask(G, within)


def induced_subgraph_with_map(
    G: Graph, vertices: Iterable[int]
) -> tuple[Graph, list[int]]:
    """Induced subgraph on `vertices`, renumbered ascending.

    Returns (H, old_ids) where `old_ids[i]` is the original id of vertex i.
    """
    old_ids = sorted(set(checked_vertices(G, vertices)))
    return quotient(G, [1 << v for v in old_ids]), old_ids


def induced_subgraph(G: Graph, vertices: Iterable[int]) -> Graph:
    return induced_subgraph_with_map(G, vertices)[0]


def bipartite_induced(G: Graph, A: Iterable[int], B: Iterable[int]) -> Graph:
    """Graph on A | B keeping only edges with one end in each part.

    Vertex i of the result is the i-th smallest element of A | B.
    """
    sa, sb = frozenset(A), frozenset(B)
    if sa & sb:
        raise InputError(f"parts overlap: {sorted(sa & sb)}")
    H, old_ids = induced_subgraph_with_map(G, sa | sb)
    side = mask_of(i for i, v in enumerate(old_ids) if v in sa)
    return from_rows([row & (~side if side >> i & 1 else side) for i, row in enumerate(H.adj)])


# ---------------------------------------------------------------------------
# Bipartite matching with Hall violators
# ---------------------------------------------------------------------------


class HallViolator(NamedTuple):
    """A set S on the side to saturate with |N(S) & X| < |S|."""

    witness: frozenset[int]


def saturating_matching(
    G: Graph, Y: Iterable[int], X: Iterable[int]
) -> list[tuple[int, int]] | HallViolator:
    """Match every vertex of Y to a distinct X-neighbor, or exhibit a Hall violator.

    Only edges between Y and X are considered.  On success returns the
    matching as (y, x) pairs sorted by y.  On failure returns the violator
    harvested from the final failed augmenting-path search: the Y-vertices
    reachable by alternating paths from the unmatched vertex.
    """
    adj = G.adj
    ymask, xmask = checked_mask(G, Y), checked_mask(G, X)
    if ymask & xmask:
        raise InputError("Y and X must be disjoint")
    match_of_x: dict[int, int] = {}
    match_of_y: dict[int, int] = {}

    violator_seen: set[int] | None = None
    for y0 in bits(ymask):
        # depth-first search for an augmenting path, as a loop; each entry
        # keeps the X-vertex it was reached through and tries next its least
        # X-neighbour not yet seen; `seen` only grows, so an entry tries its
        # neighbours in ascending order, and each X-vertex once per search
        seen = 0
        stack = [(-1, y0)]
        while stack:
            untried = adj[stack[-1][1]] & xmask & ~seen
            if not untried:
                stack.pop()
                continue
            low = untried & -untried
            seen |= low
            x = low.bit_length() - 1
            owner = match_of_x.get(x)
            if owner is None:
                for via, y in reversed(stack):
                    match_of_x[x] = y
                    match_of_y[y] = x
                    x = via
                break
            stack.append((x, owner))
        else:
            violator_seen = {y0} | {match_of_x[x] for x in bits(seen)}
    if violator_seen is not None:
        return HallViolator(frozenset(violator_seen))
    return sorted(match_of_y.items())


# ---------------------------------------------------------------------------
# Exact maximum independent set (branch and bound)
# ---------------------------------------------------------------------------


def _clique_cover_bound(adj: tuple[int, ...], P: int, cap: int) -> int:
    """min(cap, size of the first-fit greedy clique cover of P in id order).

    The cover is built one clique at a time on bitsets: each clique takes the
    lowest vertex left, then every later vertex adjacent to all its members,
    so every vertex lands in the first clique it fits.  The size bounds the
    independence number of P.  A caller that only asks whether the bound is
    below `cap` can stop there; a call costs O(|P|) bitset operations.
    """
    count = 0
    while P and count < cap:
        U = P
        while U:
            low = U & -U
            P ^= low
            U &= adj[low.bit_length() - 1]
        count += 1
    return count


def _mis_search(
    G: Graph, start: int, budget: int, target: int | None
) -> tuple[int, int]:
    """A greedy dive, then branch and reduce, for a maximum independent set
    inside `start`.

    Returns (size, mask) of the best set found.  If `target` is given the
    search stops as soon as a set of that size exists, and skips the dive
    when the clique cover of `start` rules the target out, so that the
    root's one step settles it.  Raises :class:`BudgetExceeded` when the
    node budget runs out (never returns a wrong answer).

    The dive takes a least-degree vertex of what is left (lowest id on
    ties) until nothing is left or the target is reached; its set is the
    best the branch and bound starts from.  A node with candidates P is
    pruned when the first-fit clique cover of P, built one clique at a time
    and stopped at the gap the node must beat, stays below that gap.  The
    first vertex of degree at most 1 inside P lies in some maximum
    independent set of P, so it is taken with no branch that drops it;
    otherwise the node takes, then drops, a highest-degree vertex (lowest
    id on ties).  Each pick of the dive and each node costs one step and
    O(|P|) bitset operations.
    """
    adj = G.adj
    steps = budget
    best_size = 0
    best_mask = 0
    P = start if target is None or _clique_cover_bound(adj, start, target) >= target else 0
    while P and (target is None or best_size < target):
        steps -= 1
        if steps < 0:
            raise BudgetExceeded("independent-set search", budget, start.bit_count())
        # least degree inside P, lowest index on ties
        pick = -1
        pick_deg = P.bit_count()
        for v in bits(P):
            dv = (adj[v] & P).bit_count()
            if dv < pick_deg:
                pick_deg = dv
                pick = v
                if dv == 0:
                    break
        P &= ~(adj[pick] | 1 << pick)
        best_mask |= 1 << pick
        best_size += 1
    if target is not None and best_size >= target:
        return best_size, best_mask
    # pending (candidates, chosen mask, chosen size); the top is searched next
    stack = [(start, 0, 0)]
    while stack:
        P, cur_mask, cur_size = stack.pop()
        steps -= 1
        if steps < 0:
            raise BudgetExceeded("independent-set search", budget, start.bit_count())
        if cur_size > best_size:
            best_size = cur_size
            best_mask = cur_mask
            if target is not None and best_size >= target:
                break
        if P == 0:
            continue
        gap = (target if target is not None else best_size + 1) - cur_size
        if _clique_cover_bound(adj, P, gap) < gap:
            continue
        # pivot: the first vertex of degree <= 1 inside P, taken with no drop
        # branch; else the highest degree, lowest index on ties
        pivot = -1
        pivot_deg = 1
        for v in bits(P):
            dv = (adj[v] & P).bit_count()
            if dv <= 1:
                pivot = v
                break
            if dv > pivot_deg:
                pivot_deg = dv
                pivot = v
        else:
            # drop the pivot after every set that takes it has been searched
            stack.append((P & ~(1 << pivot), cur_mask, cur_size))
        pbit = 1 << pivot
        stack.append((P & ~(adj[pivot] | pbit), cur_mask | pbit, cur_size + 1))
    return best_size, best_mask


def max_independent_set(
    G: Graph, budget: int = DEFAULT_BUDGET, within: Iterable[int] | None = None
) -> frozenset[int]:
    """An exact maximum independent set (of the induced subgraph on `within`);
    raises :class:`BudgetExceeded` when the node budget runs out."""
    check_inputs(int, budget=budget)
    _, best = _mis_search(G, within_mask(G, within), budget, None)
    return set_of(best)


def exact_alpha(G: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """The exact independence number; raises :class:`BudgetExceeded` out of budget."""
    check_inputs(int, budget=budget)
    size, _ = _mis_search(G, G.full_mask, budget, None)
    return size


def find_independent_set(
    G: Graph,
    size: int,
    budget: int = DEFAULT_BUDGET,
    within: Iterable[int] | None = None,
) -> frozenset[int] | None:
    """Some independent set of exactly max(size, 0) vertices, or None if none
    exists; raises :class:`BudgetExceeded` when the node budget runs out."""
    check_inputs(int, size=size, budget=budget)
    start = within_mask(G, within)
    if size <= 0:
        return frozenset()
    got, best = _mis_search(G, start, budget, size)
    return set_of(best) if got >= size else None
