"""Clique-minor models: validation, exact search, and randomized builders.

A model of K_t in G is a family of t pairwise disjoint vertex sets, each
inducing a connected subgraph, with an edge of G between every pair of sets.
The exact search reduces the graph series-parallel, then settles each block
in turn: an elimination width or a vertex and edge count proves it free, a
greedy contraction finds a model, and what is left is decided by the one
exact search, the spanning-model stage, which searches the models that span
the block, singleton sets first, with each set's degree surplus bounded by
the edge count.  Without fast paths the K_3 shortcut, the reduction, the
width certificate and the greedy contraction are skipped, and every block
that the count leaves goes to the same stage.
The two randomized procedures build models in dense graphs and in one
random-contraction round of a bipartite graph.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .errors import (
    AT_LEAST_1,
    FINITE_AT_LEAST_1,
    BudgetExceeded,
    InputError,
    InvariantViolation,
    PreconditionError,
    check_inputs,
    checked_record,
)
from .graphs import (
    DEFAULT_BUDGET,
    Graph,
    _mis_search,
    adjacency_mask,
    biconnected_blocks,
    bits,
    closure_mask,
    from_rows,
    is_connected_mask,
    mask_components,
    mask_of,
    nonedge_fraction,
    quotient,
    set_of,
)
from .seeds import derive_seed


class MinorModel(NamedTuple):
    """Branch sets witnessing a K_t minor; t is the number of sets."""

    branch_sets: tuple[frozenset[int], ...]

    @property
    def t(self) -> int:
        return len(self.branch_sets)


def model_defect(G: Graph, model: MinorModel) -> str | None:
    """Machine-readable reason the model is invalid, or None if it is valid."""
    masks = []
    for i, s in enumerate(model.branch_sets):
        if not s:
            return f"branch-set-{i}-empty"
        for v in s:
            if not 0 <= v < G.n:
                return f"branch-set-{i}-vertex-{v}-out-of-range"
        masks.append(mask_of(s))
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if masks[i] & masks[j]:
                return f"branch-sets-{i}-{j}-overlap"
    for i, m in enumerate(masks):
        if not is_connected_mask(G, m):
            return f"branch-set-{i}-disconnected"
    for i in range(len(masks)):
        nbr = adjacency_mask(G, masks[i])
        for j in range(i + 1, len(masks)):
            if not nbr & masks[j]:
                return f"branch-sets-{i}-{j}-nonadjacent"
    return None


def validate_model(G: Graph, model: MinorModel) -> bool:
    """True iff disjointness, connectivity and pairwise adjacency all hold."""
    return model_defect(G, model) is None


# ---------------------------------------------------------------------------
# Exact search
# ---------------------------------------------------------------------------


def _verified_model(G: Graph, masks: list[int], source: str) -> MinorModel:
    """The model with these branch-set masks; an invalid one is a bug in `source`."""
    model = MinorModel(tuple(set_of(m) for m in masks))
    defect = model_defect(G, model)
    if defect is not None:
        raise InvariantViolation(f"{source} produced an invalid model: {defect}")
    return model


def _series_parallel_reduce(G: Graph) -> tuple[Graph, list[tuple[int, int, int]]]:
    """Delete vertices of degree <= 1 and suppress vertices of degree 2 until
    none is left; the reduced graph keeps the vertex ids of G.

    Suppressing v with neighbours u < w deletes v and adds the edge uw, a
    contraction, so every minor of the result is a minor of G.  When u and w
    were already adjacent this is a plain deletion; otherwise (v, u, w) is
    recorded, in order.  For t >= 4 the result has a K_t minor iff G has one:
    no branch set is a lone vertex of degree <= 2, and any other branch set
    loses nothing by giving such a vertex up.
    """
    adj = list(G.adj)
    suppressed = []
    stack = [v for v in range(G.n) if adj[v].bit_count() in (1, 2)]
    while stack:
        v = stack.pop()
        nbrs = adj[v]
        if nbrs.bit_count() not in (1, 2):
            continue
        vb = 1 << v
        adj[v] = 0
        ends = list(bits(nbrs))
        for u in ends:
            adj[u] ^= vb
        if len(ends) == 2:
            u, w = ends
            if not adj[u] >> w & 1:
                adj[u] |= 1 << w
                adj[w] |= 1 << u
                suppressed.append((v, u, w))
                continue
        stack.extend(u for u in ends if adj[u].bit_count() <= 2)
    return from_rows(adj), suppressed


def _lift(masks: list[int], suppressed: list[tuple[int, int, int]]) -> list[int]:
    """Map branch sets of the reduced graph back to the graph before the
    suppressions, undoing them last first: v joins the branch set of u
    whenever both u and w lie in branch sets, so the edge uw is again
    realised, through v."""
    masks = list(masks)
    for v, u, w in reversed(suppressed):
        owner = next((i for i, m in enumerate(masks) if m >> u & 1), None)
        if owner is not None and any(m >> w & 1 for m in masks):
            masks[owner] |= 1 << v
    return masks


def k4_minor_free(G: Graph) -> bool:
    """Decide K_4-minor-freeness by series-parallel reduction.

    The reduction leaves no edge iff G has no K_4 minor; a remainder with
    edges has minimum degree 3 on its non-isolated vertices and therefore a
    K_4 minor.
    """
    return _series_parallel_reduce(G)[0].m == 0


def _elimination_width(G: Graph, live: int, stop: int) -> int:
    """Width of a min-degree elimination order of the subgraph induced on
    `live` (lowest id on ties), or `stop` as soon as every remaining vertex
    has degree at least `stop`.

    Eliminating a vertex joins its neighbours into a clique; the largest
    degree eliminated bounds the treewidth from above.  Only vertices of
    degree below `stop` are tracked, in one bucket per degree, and after a
    vertex of degree d goes no degree is below d - 1, so the search for the
    lowest non-empty bucket resumes there.
    """
    adj = {v: G.adj[v] & live for v in bits(live)}
    buckets = [0] * stop
    for v, a in adj.items():
        d = a.bit_count()
        if d < stop:
            buckets[d] |= 1 << v
    width = d = 0
    for _ in range(len(adj)):
        while d < stop and not buckets[d]:
            d += 1
        if d == stop:
            return stop
        vb = buckets[d] & -buckets[d]
        buckets[d] ^= vb
        width = max(width, d)
        nbrs = adj.pop(vb.bit_length() - 1)
        for u in bits(nbrs):
            ub = 1 << u
            old = adj[u].bit_count()
            adj[u] = (adj[u] | nbrs) & ~(ub | vb)
            new = adj[u].bit_count()
            if old < stop:
                buckets[old] ^= ub
            if new < stop:
                buckets[new] |= ub
        d = max(d - 1, 0)
    return width


def _edge_slack(G: Graph, block: int, t: int) -> int | None:
    """Counting certificate: None when `block` has too few vertices or edges
    to hold a K_t model, otherwise the most excess such a model can have.

    The excess of a model counts the edges inside its branch sets beyond a
    spanning tree of each, and the edges between two sets beyond the first
    one for that pair.  In a 2-connected block every vertex outside the
    model has degree at least 2 there, so those vertices touch at least as
    many edges as there are of them.  A block with n vertices and m edges
    that holds a model therefore has m >= C(t, 2) + (n - t) + excess, and
    a negative slack m - C(t, 2) - (n - t) proves it free.  Without
    `fast_paths` the other certificates are skipped but not this one: the
    spanning-model stage, the one exact search, bounds the surpluses of its
    sets by twice the slack, so a negative slack leaves it no move anyway.
    """
    size = block.bit_count()
    edges = sum((G.adj[v] & block).bit_count() for v in bits(block)) // 2
    slack = edges - t * (t - 1) // 2 - (size - t)
    return slack if size >= t and edges >= t * (t - 1) // 2 and slack >= 0 else None


def _greedy_contraction(G: Graph, block: int, t: int) -> list[int] | None:
    """The classes, by id, of a complete quotient of the connected `block`
    on at least t classes found by contraction alone, or None.

    Repeatedly contract the class of least degree (lowest id on ties) into
    the neighbour sharing the fewest neighbours with it (lowest id on ties),
    the order of the minor-min-width treewidth bound, until the quotient is
    complete; any t of its classes are then a K_t model.  A class keeps the
    id of the neighbour it was contracted into.  The degrees are kept in a
    table next to the rows, in ascending id order like them, so the first
    least degree is at the lowest id.  O(|block|^2) bitset operations.
    """
    adj = {v: G.adj[v] & block for v in bits(block)}
    deg = {v: a.bit_count() for v, a in adj.items()}
    members = {v: 1 << v for v in adj}
    while len(adj) >= t:
        v = min(deg, key=deg.__getitem__)
        nbrs = adj.pop(v)
        if deg.pop(v) == len(adj):  # least degree k - 1: complete
            return list(members.values())
        u, shared = -1, len(adj)
        rest = nbrs
        while rest:
            low = rest & -rest
            rest ^= low
            c = low.bit_length() - 1
            common = (adj[c] & nbrs).bit_count()
            if common < shared:
                u, shared = c, common
        members[u] |= members.pop(v)
        ub, vb = 1 << u, 1 << v
        rest = nbrs ^ ub
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            row = adj[w]
            if row & ub:  # v and u merge into one neighbour of w
                deg[w] -= 1
            adj[w] = row & ~vb | ub
        row = (adj[u] | nbrs) & ~(ub | vb)
        adj[u] = row
        deg[u] = row.bit_count()
    return None


def _spanning_model_search(
    G: Graph, block: int, t: int, budget: int, spent: list[int]
) -> list[int] | None:
    """Exact search of a 2-connected `block` of n >= t vertices: the sets
    of a model spanning it, singletons first, or None as a proof of
    freeness.

    A model of a connected block grows into one that spans it (add each
    unused vertex to a set it touches), whose sets but its w singletons
    have two vertices or more, so w >= w_least = 2t - n.  The singletons
    are pairwise adjacent, of block degree >= t - 1 (`high`): when
    w_least > 0 an empty `high` proves the block free, and so, when
    w_least >= 2, does finding no clique of w_least vertices of `high`,
    looked for as an independent set of the complement (the block stays
    if that search gives up after |block|^2 nodes).  Then the cliques of
    `high` are enumerated by extension from the empty one (the candidates
    are the common neighbours above the last member), and for each of
    w_least vertices or more the rest is split into the t - w other sets:
    each takes the least unplaced vertex, grows one neighbour at a time
    (none it passed over, so no set is grown twice) while two vertices
    are left for each later set, and closes once it touches every
    singleton and every earlier set; the last takes all that is left.

    The surplus of a set is the sum over its vertices of their block
    degree less 2, less t - 3, so a singleton's is deg - t + 1.  A set of
    a model spans a tree and has an edge to each of the t - 1 others, so
    its surplus is at least 0, and the surpluses of a model that spans the
    block sum to exactly 2m - 2n - t(t - 3), twice the edge slack (see
    `_edge_slack`).  No vertex of a 2-connected block has degree below 2,
    so a surplus never falls as its set grows.  So a set may not close
    with a negative surplus, and no move may push the surplus of the
    singletons, plus the closed sets, plus the open set (taken at 0 while
    negative) past twice the slack; the last set's surplus is what is
    left of it.  Both searches share one stack, a clique's split above its
    extensions, and each node costs one budget step and O(|block|) bitset
    operations.
    """
    adj = G.adj
    size = block.bit_count()
    w_least = 2 * t - size
    charge = {v: (adj[v] & block).bit_count() - 2 for v in bits(block)}
    room = sum(charge.values()) - t * (t - 3)
    high = mask_of(v for v, c in charge.items() if c >= t - 3)
    if w_least > 0 and not high:
        return None
    if w_least > 1:
        comp = [high & ~adj[v] & ~(1 << v) if high >> v & 1 else 0 for v in range(G.n)]
        try:
            if _mis_search(from_rows(comp), high, size * size, w_least)[0] < w_least:
                return None
        except BudgetExceeded:
            pass
    # a clique frame is (singletons, their surplus, candidates); a split
    # frame is (singletons, closed sets, unplaced vertices, surplus of the
    # singletons and closed sets, open set or 0 for a new one, its surplus,
    # vertices it passed over, its neighbourhood)
    stack: list[tuple] = [(0, 0, high)]
    # a raised BudgetExceeded keeps this frame, and with it the stack, alive
    # in its traceback for as long as the exception is held; empty it on the
    # way out
    try:
        while stack:
            spent[0] += 1
            if spent[0] > budget:
                raise BudgetExceeded("minor search", budget, size)
            frame = stack.pop()
            if len(frame) == 3:
                clique, fixed, cand = frame
                w = clique.bit_count()
                if w < t:
                    for v in sorted(bits(cand), reverse=True):
                        above = cand & adj[v] & -(2 << v)
                        gain = charge[v] + 3 - t
                        if w + 1 + above.bit_count() >= w_least and fixed + gain <= room:
                            stack.append((clique | 1 << v, fixed + gain, above))
                rest = block & ~clique
                if not rest:  # K_t itself
                    return [1 << v for v in bits(clique)]
                if w_least <= w < t:
                    stack.append((clique, (), rest, fixed, 0, 0, 0, 0))
                continue
            clique, closed, rest, fixed, part, sur, passed, reach = frame
            left = t - clique.bit_count() - len(closed)
            if not part:  # a new set at the least unplaced vertex; the last takes all
                if left == 1:
                    part, sur = rest, room - fixed
                else:
                    part = rest & -rest
                    sur = charge[part.bit_length() - 1] + 3 - t
                if not is_connected_mask(G, part):
                    continue
                reach = adjacency_mask(G, part)
            if part.bit_count() < rest.bit_count() - 2 * (left - 1):
                grow = reach & rest & ~part & ~passed
                for v in sorted(bits(grow), reverse=True):
                    below = grow & (1 << v) - 1
                    more = sur + charge[v]
                    if fixed + max(0, more) <= room:
                        stack.append(
                            (clique, closed, rest, fixed, part | 1 << v, more,
                             passed | below, reach | adj[v])
                        )
            if (sur >= 0 and part & part - 1 and not clique & ~reach
                    and all(reach & s for s in closed)):
                if part == rest:
                    return [1 << v for v in bits(clique)] + [*closed, part]
                stack.append((clique, closed + (part,), rest & ~part, fixed + sur, 0, 0, 0, 0))
        return None
    finally:
        stack.clear()


def find_kt_minor_exact(
    G: Graph,
    t: int,
    budget: int = DEFAULT_BUDGET,
    fast_paths: bool = True,
) -> MinorModel | None:
    """Exact K_t-minor search: a verified model, or None as a proof of freeness.

    Raises :class:`BudgetExceeded` when the node budget runs out, which is
    inconclusive.  With `fast_paths` enabled, a K_3 model comes from the
    first block of G with three or more vertices, and for t >= 4 each block
    of the series-parallel reduction of G (degree <= 1 vertices deleted,
    degree-2 vertices suppressed) goes through, in order:

    1. the width certificate: a min-degree elimination width below t-1
       proves the block free (treewidth never grows under minors and
       tw(K_t) = t-1);
    2. the counting certificate: a negative edge slack
       m - C(t, 2) - (n - t) proves it free;
    3. greedy contraction: a complete quotient on at least t classes is a
       model, found without spending the budget;
    4. the spanning-model stage: it tries as singleton sets each clique of
       max(0, 2t - n) or more vertices of block degree >= t - 1, and
       splits the rest into the other sets, never letting the surpluses of
       the sets (each set's degree in the block beyond 2 per vertex, less
       t - 3) sum past twice the slack.

    A model found is lifted back onto G and validated.  Without
    `fast_paths` the K_3 shortcut, the reduction, the width certificate and
    the greedy contraction are skipped: every block of G that the counting
    certificate leaves goes straight to the spanning-model stage, so the
    verdicts are the same and the models and steps spent are the stage's
    own.
    """
    check_inputs(int, AT_LEAST_1, t=t)
    check_inputs(int, budget=budget)
    if t == 1:
        return MinorModel((frozenset({0}),)) if G.n >= 1 else None
    if t == 2:
        # the first edge: the least vertex with a neighbour, and its least
        # neighbour, which lies above it
        for u, nbrs in enumerate(G.adj):
            if nbrs:
                v = (nbrs & -nbrs).bit_length() - 1
                return MinorModel((frozenset({u}), frozenset({v})))
        return None
    if fast_paths and t == 3:
        # K_3 lives in a block of at least three vertices, which is
        # 2-connected: its least vertex v, v's least neighbour u in it, and
        # the part of block - {v, u} holding another neighbour of v, which
        # reaches u because block - v is connected
        for block in biconnected_blocks(G):
            if block.bit_count() >= 3:
                v = block & -block
                nbrs = G.adj[v.bit_length() - 1] & block
                u = nbrs & -nbrs
                w = nbrs ^ u
                third = closure_mask(G, w & -w, block & ~v & ~u)
                return _verified_model(G, [v, u, third], "search")
        return None
    H, suppressed = _series_parallel_reduce(G) if fast_paths else (G, [])

    # K_t is 2-connected for t >= 3, so any model lives inside one block.
    spent = [0]
    for block in biconnected_blocks(H):
        if fast_paths and _elimination_width(H, block, t - 1) < t - 1:
            continue
        if _edge_slack(H, block, t) is None:
            continue
        masks = _greedy_contraction(H, block, t) if fast_paths else None
        source = "greedy contraction"
        if masks is None:
            masks = _spanning_model_search(H, block, t, budget, spent)
            source = "spanning-model stage"
        if masks is not None:
            return _verified_model(G, _lift(masks[:t], suppressed), source)
    return None


def hadwiger_number(G: Graph, budget: int = DEFAULT_BUDGET) -> int:
    """Largest t such that G has a K_t minor (0 for the null graph).

    Binary search between the class count of the greedy contraction's
    complete quotient of a block (at least 1) and the least of n, the
    largest t with C(t, 2) <= m, and the min-degree elimination width plus
    one.
    """
    check_inputs(int, budget=budget)
    if G.n == 0:
        return 0
    lo = max(
        (len(_greedy_contraction(G, block, 1)) for block in biconnected_blocks(G)),
        default=1,
    )
    hi = min(
        G.n,
        (1 + math.isqrt(1 + 8 * G.m)) // 2,
        _elimination_width(G, G.full_mask, G.n) + 1,
    )
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if find_kt_minor_exact(G, mid, budget) is not None:
            lo = mid
        else:
            hi = mid - 1
    return lo


# ---------------------------------------------------------------------------
# Randomized dense-graph model builder
# ---------------------------------------------------------------------------


@checked_record
class DenseModelParams(NamedTuple):
    """Parameters for :func:`dense_random_model`.

    `l` is the block size; when None it defaults to floor(n / 9t).  `trials`
    bounds the number of independent sampling rounds.
    """

    t: int
    l: int | None = None
    trials: int = 32
    seed: int = 0

    def _check(self) -> None:
        check_inputs(int, AT_LEAST_1, t=self.t, l=1 if self.l is None else self.l,
                     trials=self.trials)
        check_inputs(int, seed=self.seed)


def dense_random_model(G: Graph, params: DenseModelParams) -> MinorModel | None:
    """Randomized K_t model search for graphs with very few non-edges.

    Per trial: (1) take Z = the floor(n/3) vertices with fewest non-neighbors,
    requiring each to have at most 2qn of them, where q is the missing-edge
    fraction; (2) sample disjoint blocks X_1..X_2t, Y_1..Y_t inside Z, each of
    size l; (3) keep t blocks X_i that see every Y_j; (4) greedily connect
    each X_i to its Y_i through unused common neighbors outside Z.  Returns a
    validated model, or None once the trial budget is spent.
    """
    t = params.t
    n = G.n
    if n < 9 * t:
        raise PreconditionError(f"need n >= 9t = {9 * t}, got {n}")
    l = params.l if params.l is not None else n // (9 * t)
    z_size = n // 3
    if 3 * t * l > z_size:
        raise InputError(
            f"3*t*l = {3 * t * l} blocks do not fit in the core of {z_size} vertices"
        )

    q = nonedge_fraction(G)
    cap = 2 * q * n
    by_nondegree = sorted(range(n), key=lambda v: (n - 1 - G.degree(v), v))
    zlist = by_nondegree[:z_size]
    if any(n - 1 - G.degree(v) > cap for v in zlist):
        return None  # deterministic in the graph: every trial would fail here
    zmask = mask_of(zlist)
    outside = G.full_mask & ~zmask

    for trial in range(params.trials):
        rng = random.Random(derive_seed(params.seed, trial))
        pool = sorted(zlist)
        rng.shuffle(pool)
        xs = [mask_of(pool[i * l : (i + 1) * l]) for i in range(2 * t)]
        ys = [
            mask_of(pool[(2 * t + j) * l : (2 * t + j + 1) * l]) for j in range(t)
        ]
        x_nbr = [adjacency_mask(G, x) for x in xs]
        perfect = [
            i for i in range(2 * t) if all(x_nbr[i] & ys[j] for j in range(t))
        ]
        if len(perfect) < t:
            continue
        chosen = perfect[:t]

        used = 0
        branch_masks: list[int] = []
        ok = True
        for i in range(t):
            s = xs[chosen[i]] | ys[i]
            while not is_connected_mask(G, s):
                comps = mask_components(G, s)
                connector = -1
                for w in bits(outside & ~used & ~s):
                    touched = sum(1 for c in comps if G.adj[w] & c)
                    if touched >= 2:
                        connector = w
                        break
                if connector < 0:
                    ok = False
                    break
                s |= 1 << connector
            if not ok:
                break
            used |= s
            branch_masks.append(s)
        if not ok:
            continue
        return _verified_model(G, branch_masks, "dense builder")
    return None


def dense_condition_holds(G: Graph, t: int, l: int) -> bool:
    """Whether 6t(70q)^(l^2) <= 1 for the graph's missing-edge fraction q."""
    check_inputs(int, FINITE_AT_LEAST_1, t=t, l=l)
    q = float(nonedge_fraction(G))
    return 6 * t * (70 * q) ** (l * l) <= 1


# ---------------------------------------------------------------------------
# Random contraction round
# ---------------------------------------------------------------------------


def contraction_round(
    G: Graph,
    A: frozenset[int] | set[int],
    B: frozenset[int] | set[int],
    X: frozenset[int] | set[int],
    seed: int = 0,
) -> Graph:
    """One random contraction round of a bipartite graph onto X.

    For each vertex of A with a neighbor in X, contract it onto a uniformly
    random such neighbor; return the graph induced on X afterwards.  Vertex i
    of the result is the i-th smallest element of X.
    """
    check_inputs(int, seed=seed)
    A, B, X = frozenset(A), frozenset(B), frozenset(X)
    if A & B or A | B != frozenset(range(G.n)):
        raise InputError("A and B must partition the vertex set")
    for side in (A, B):
        smask = mask_of(side)
        if adjacency_mask(G, smask) & smask:
            raise InputError("graph is not bipartite on the given parts")
    if not X <= B:
        raise InputError("X must be a subset of B")

    rng = random.Random(seed)
    xmask = mask_of(X)
    classes = {x: 1 << x for x in sorted(X)}
    for v in sorted(A):
        nb = list(bits(G.adj[v] & xmask))
        if nb:
            classes[nb[rng.randrange(len(nb))]] |= 1 << v
    return quotient(G, list(classes.values()))
