"""Vertex connectivity, minimum vertex cuts, and separations.

Local connectivity between non-adjacent vertices s and t is the number of
internally vertex-disjoint s-t paths, found by :func:`maximum_flow`: a
unit-capacity flow on the split digraph, where every vertex v is an arc
v_in -> v_out of capacity one and every edge {u, v} gives the arcs
u_out -> v_in and v_out -> u_in.  The flow works on the adjacency bitmasks
directly.  It starts from the common neighbours of s and t, then runs phases
in the manner of Even and Tarjan ("Network flow and testing graph
connectivity", 1975): a breadth-first search keeps one mask of out-copies
per level, and shortest augmenting paths are walked straight back from t,
one after another, with no backtracking.  An in-copy steps to its own
out-copy or its least neighbour in the level below, and an out-copy has only
one possible predecessor, so a walk can stop only at a node that an earlier
path of the phase took; the phase then ends and a new search runs.  A flow
stops as soon as it reaches a caller's cap, so "is kappa >= k?" costs at
most k paths per flow.

"Is kappa(G) >= k?" is decided by growing a set from a pivot's closed
neighbourhood, after S. Even ("An algorithm for determining whether the
connectivity of a graph is at least k", 1975): a vertex with k neighbours in
the set cannot lie beyond a cut of fewer than k vertices that leaves the set
on one side, so it joins without a flow.  Only when no vertex qualifies does
one flow, from a hub joined to the whole set, decide the next vertex.  Then
the pivot is deleted and the test repeats at k - 1; see :func:`_at_least`.
On dense graphs the set usually covers every vertex with no flow at all.

A minimum separation uses the classical pair coverage: fix a minimum-degree
vertex v, take flows from v to every non-neighbor, and between every
non-adjacent pair of neighbors of v.  Any minimum cut either avoids v (first
family) or contains it (second family), so the minimum over these flows is
kappa(G).  :func:`separation_below` is the one loop over these pairs, with a
falling cap that stops as soon as the growth test certifies it as kappa;
:func:`vertex_connectivity`, :func:`minimum_separation` and the piece loop of
:mod:`minorlab.decompose` all run it.
"""

from __future__ import annotations

from .errors import InputError, PreconditionError, check_inputs
from .graphs import Graph, adjacency_mask, bits, components, from_rows, set_of


def maximum_flow(
    G: Graph, s: int, t: int, cap: int
) -> tuple[int, tuple[int, int] | None]:
    """min(cap, number of internally vertex-disjoint s-t paths), s and t
    distinct and non-adjacent.

    When the value is below `cap` the flow is maximum, and the second item is
    ``(reach_in, reach_out)``: the masks of the vertices whose in-copy or
    out-copy is reachable from s_out in the residual split digraph.  Every
    maximum flow has the same residual-reachable set, so these masks do not
    depend on which paths were found.  At the cap the second item is None.
    """
    adj = G.adj
    if not (isinstance(s, int) and isinstance(t, int) and isinstance(cap, int)):
        raise InputError(f"flow endpoints and cap must be integers, got {s!r}, {t!r}, {cap!r}")
    if not (0 <= s < G.n and 0 <= t < G.n) or s == t or adj[s] >> t & 1:
        raise InputError(f"flow endpoints {s} and {t} must be distinct non-adjacent vertices")
    sbit, tbit = 1 << s, 1 << t
    # A vertex v other than s and t carries flow iff its bit is in `used`;
    # then into[v] -> v -> out[v] are the flow arcs through it (out[v] is
    # stale while v is free, and into[v] is -1).
    into = [-1] * G.n
    out = [-1] * G.n
    used = 0
    value = 0
    for c in bits(adj[s] & adj[t]):
        if value >= cap:
            break
        into[c], out[c] = s, t
        used |= 1 << c
        value += 1

    while value < cap:
        # Breadth-first levels of the residual split digraph from s_out.
        # Arcs: x_out -> w_in (edges), v_in -> v_out (free v), and for used v
        # the reverses v_out -> v_in and v_in -> into[v]_out.  The levels
        # alternate: the in-copies reached from the last out-copies, then the
        # out-copies reached from those; `levels` keeps the out-copies after
        # s_out's level.
        levels = []
        seen_in, seen_out = 0, sbit
        fout = sbit
        while True:
            nin = (fout & used | adjacency_mask(G, fout)) & ~seen_in
            if nin & tbit:
                break
            seen_in |= nin
            nout = nin & ~used
            for v in bits(nin & used):
                nout |= 1 << into[v]
            nout &= ~seen_out
            if not nout:
                return value, (seen_in, seen_out)
            seen_out |= nout
            levels.append(nout)
            fout = nout

        # Walk each path straight back from t_in.  A node is 2v (in-copy) or
        # 2v+1 (out-copy).  An in-copy steps to its own out-copy if v carries
        # flow and that copy is untaken in the level below, else to its least
        # untaken neighbour there.  An out-copy steps to its one predecessor,
        # the in-copy of out[v] if v carries flow, else its own; that in-copy
        # is untaken, as its one successor is this out-copy.  So a walk stops
        # only where this phase's paths took every out-copy it could step to,
        # and then a new search runs.
        taken = 0  # out-copies on the walks of this phase
        while value < cap:
            path = [2 * t]
            v = t
            for level in reversed(levels):
                live = level & ~taken
                if not (used >> v & 1 and live >> v & 1):
                    live &= adj[v]
                    if not live:
                        break
                    v = (live & -live).bit_length() - 1
                taken |= 1 << v
                path.append(2 * v + 1)
                if used >> v & 1:
                    v = out[v]
                path.append(2 * v)
            if not live:
                break  # blocked: a new search runs
            path.append(2 * s + 1)  # the first in-level is N(s)
            for b, a in zip(path, path[1:]):  # the arc a -> b, from t_in back
                x, y = a >> 1, b >> 1
                if x == y:
                    continue  # along or against the arc inside one vertex
                if a & 1:  # x_out -> y_in along an edge
                    out[x], into[y] = y, x
                else:
                    # x_in -> y_out cancels the flow y -> x; an edge arc
                    # into x_in, met next, gives x new flow
                    into[x] = -1
            for node in path[1:-1]:
                v = node >> 1
                if into[v] < 0:
                    used &= ~(1 << v)
                else:
                    used |= 1 << v
            value += 1
    return value, None


def _pair_coverage(G: Graph) -> list[tuple[int, int]]:
    """Pairs whose local connectivities cover some minimum cut."""
    adj, n = G.adj, G.n
    v0 = min(range(n), key=lambda v: adj[v].bit_count())  # the first, so lowest id
    pairs = [(v0, u) for u in range(n) if u != v0 and not adj[v0] >> u & 1]
    nbrs = list(bits(adj[v0]))
    for i, x in enumerate(nbrs):
        for y in nbrs[i + 1 :]:
            if not adj[x] >> y & 1:
                pairs.append((x, y))
    return pairs


def _at_least(G: Graph, k: int) -> bool:
    """kappa(G) >= k, for a G of minimum degree at least k.

    For need = k, k - 1, ..., 1 on the live graph (G less the earlier
    pivots): take the live vertex v0 of largest live degree (lowest id on
    ties), and grow a set W from N[v0].  A live vertex joins W when it has at
    least `need` neighbours in W; after each addition only the neighbours of
    what just joined are recounted.  When none qualifies, one flow capped at
    `need` runs from a hub joined to all of W to the vertex outside W with
    most neighbours in W (lowest id on ties), which joins if the flow
    reaches `need`.  Once W
    holds every live vertex, v0 is deleted.

    Why this is exact (Even's argument).  Take a cut S of G with |S| < k, and
    the first level whose pivot v0 is not in S.  That level exists, since S
    cannot hold k pivots, and S holds every earlier one, so the rest S' of S
    is a cut of the live graph with |S'| < need.  Let C be the component of
    v0 once S' is removed.  N[v0] lies in C | S', and W stays there: a
    vertex beyond S' has all its W-neighbours in S', fewer than `need`, and
    every path from the hub to it passes through S', so its flow stays below
    `need` and the test returns False.  W cannot end the level without such
    a vertex, so a graph with a cut of fewer than k vertices fails.
    Conversely a hub flow below `need` is a real cut: it separates t from
    the part of W outside the cut, which is not empty since |W| > deg(v0) >=
    need.  With the earlier pivots it is a cut of G of fewer than k
    vertices.
    """
    adj, n = G.adj, G.n
    hub = 1 << n
    live = G.full_mask
    degree = [a.bit_count() for a in adj]  # live degrees; -1 once deleted
    for need in range(k, 0, -1):
        v0 = max(range(n), key=degree.__getitem__)  # the first, so lowest id
        grown = fresh = adj[v0] & live | 1 << v0
        count = [0] * n  # neighbours in W, for the vertices outside W
        H = None  # the live graph and the hub, built at the level's first flow
        while grown != live:
            rest = live & ~grown
            near = adjacency_mask(G, fresh) & rest
            fresh = 0
            while near:
                low = near & -near
                u = low.bit_length() - 1
                count[u] = (adj[u] & grown).bit_count()
                if count[u] >= need:
                    fresh |= low
                near ^= low
            if fresh:
                grown |= fresh
                continue
            t = max(bits(rest), key=count.__getitem__)
            if H is None:
                H = [adj[v] & live if live >> v & 1 else 0 for v in range(n)] + [0]
            for v in bits(grown & ~H[n]):
                H[v] |= hub
            H[n] = grown
            if maximum_flow(from_rows(H), n, t, need)[0] < need:
                return False
            fresh = 1 << t
            grown |= fresh
        live &= ~(1 << v0)
        degree[v0] = -1
        for u in bits(adj[v0] & live):
            degree[u] -= 1
    return True


def separation_below(G: Graph, cap: int) -> tuple[int, int, int] | None:
    """(order, A, B) of a minimum separation of G, as masks, if kappa(G) < cap.

    A disconnected G gives order 0 and A the component of vertex 0.  Else
    each covering pair's flow is capped at the least value so far; the first
    pair to reach kappa (the same pair for any cap above kappa) decides.  A
    is the vertices with a copy reachable in its residual digraph, the cut
    A & B those reachable only at their in-copy.  None when no pair falls
    below `cap`, as for a complete G, which has no pairs.

    The growth test of :func:`_at_least` runs once before the flows, when
    cap <= delta, and again at each fall of the cap: when it holds, the cap
    is kappa and no later pair can fall further.
    """
    check_inputs(int, cap=cap)
    comps = components(G)
    if len(comps) > 1:
        return 0, comps[0], G.full_mask & ~comps[0]
    delta = G.min_degree()
    if cap <= delta and _at_least(G, cap):
        return None
    reach = None
    for s, t in _pair_coverage(G):
        val, r = maximum_flow(G, s, t, cap)
        if val < cap:
            cap, reach = val, r
            if cap <= delta and _at_least(G, cap):
                break  # kappa(G) = cap
    if reach is None:
        return None
    reach_in, reach_out = reach
    A = reach_in | reach_out
    cut = reach_in & ~reach_out
    return cap, A, cut | (G.full_mask & ~A)


def vertex_connectivity(G: Graph) -> int:
    """kappa(G): minimum over non-adjacent pairs of max vertex-disjoint paths.

    kappa(K_n) = n - 1 by convention; requires n >= 2.
    """
    if G.n < 2:
        raise PreconditionError("vertex connectivity needs at least 2 vertices")
    if G.is_complete():
        return G.n - 1
    delta = G.min_degree()  # kappa <= delta, so no flow needs to exceed it
    found = separation_below(G, delta)
    return delta if found is None else found[0]


def connectivity_at_least(
    G: Graph,
    k: int,
    parts: tuple[frozenset[int], frozenset[int]] | None = None,
) -> bool:
    """Exact verdict for kappa(G) >= k, with cheap certificates tried first.

    For a bipartite G, whose sides :func:`_colour_classes` finds, the
    sufficient certificate is: every degree >= k and, with each side listed
    in ascending id order as x_0, ..., x_{s-1}, every pair
    (x_i, x_{(i+j) mod s}) with 1 <= j <= ceil(k/2) shares more than k/2
    neighbors (those pairs form a circulant that no cut smaller than k
    disconnects, so such a cut leaves one side mutually connected and the
    other side attached to it; see :func:`_bipartite_certificate`).
    Otherwise the growth test of :func:`_at_least` decides, with a flow only
    where the set stops growing.

    `parts` is accepted for compatibility and not read: a connected
    bipartite graph has exactly one bipartition, and on a disconnected one
    the certificate fails whatever the bipartition.  `parts` that are not a
    pair of vertex collections still raise :class:`InputError`.
    """
    check_inputs(int, k=k)
    if parts is not None:
        try:
            A, B = map(frozenset, parts)  # its shape is checked, not its contents
        except (TypeError, ValueError):
            raise InputError(
                f"parts must be a pair of vertex collections, got {parts!r}"
            ) from None
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
    sides = _colour_classes(G)
    if sides is not None and _bipartite_certificate(G, sides, k):
        return True
    return _at_least(G, k)


def _colour_classes(G: Graph) -> tuple[int, int] | None:
    """The two colour classes of a bipartite G as vertex masks, or None when
    G has an odd cycle.  Breadth-first layers from the least vertex of each
    component alternate between the classes; an edge joins two layers at
    most one apart, so an edge inside a class lies inside one layer, and the
    search stops at the first layer that reaches its own class."""
    classes = [0, 0]
    rest = G.full_mask
    while rest:
        layer, side = rest & -rest, 0
        while layer:
            classes[side] |= layer
            rest &= ~layer
            reach = adjacency_mask(G, layer)
            if reach & classes[side]:
                return None
            layer, side = reach & rest, side ^ 1
    return classes[0], classes[1]


def _bipartite_certificate(G: Graph, sides: tuple[int, int], k: int) -> bool:
    """True only if kappa(G) >= k, for G of minimum degree at least k that
    the vertex masks `sides` split into two independent sets, as
    :func:`_colour_classes` gives them: list each side in ascending id
    order as x_0, ..., x_{s-1}, let r = ceil(k/2), and require every pair
    (x_i, x_{(i+j) mod s}) with 1 <= j <= r to share more than k/2
    neighbors.  That is r*s pairs per side instead of all s(s-1)/2.

    Proof.  The checked pairs of a side form the r-th power of the cycle C_s,
    the graph H_{2r,s} of Harary ("The maximum connectivity of a graph",
    PNAS 1962), which is min(2r, s - 1)-connected and is K_s once
    2r >= s - 1.  Every vertex has at least k neighbors on the other side, so
    s >= k on each side.  Take any S with |S| < k, a = |S & L| and
    c = |S & R| for the sides L and R.  Then a + c <= k - 1, so
    min(a, c) < k/2; say c < k/2, else swap the sides.  L - S is non-empty
    (a < k <= |L|) and stays connected in H_{2r,|L|} (a < k <= 2r, or the
    circulant is complete); each of its pairs shares more than k/2 > c
    neighbors, one of them outside S, so L - S lies in one component of
    G - S.  Each vertex of R - S has at least k > a neighbors in L, one in
    L - S.  So G - S is connected, and n >= 2k > k, hence kappa(G) >= k.

    The checked pairs are among all same-side pairs, so wherever every
    same-side pair shares more than k/2 neighbors this certificate holds too.
    """
    half, reach = k // 2, (k + 1) // 2  # 2c <= k exactly when c <= k // 2
    for side in sides:
        rows = [G.adj[v] for v in bits(side)]
        wrap = rows + rows[:reach]
        for i, ax in enumerate(rows):
            for ay in wrap[i + 1 : i + 1 + reach]:
                if (ax & ay).bit_count() <= half:
                    return False
    return True


def minimum_separation(G: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """A separation (A, B) of minimum order: A | B = V, no edges A-B except
    through the cut A & B, and |A & B| = kappa(G).

    :func:`separation_below` capped at delta + 1, so some pair falls below
    it.  Undefined (input error) for complete graphs.
    """
    if G.n < 2:
        raise PreconditionError("a separation needs at least 2 vertices")
    if G.is_complete():
        raise InputError("complete graphs have no separation")
    _, A, B = separation_below(G, G.min_degree() + 1)
    return set_of(A), set_of(B)
