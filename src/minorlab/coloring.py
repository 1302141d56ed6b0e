"""List coloring: greedy, exact, and the randomized pipelines.

A list assignment is a sequence of color sets, one per vertex; a coloring is
a dict from vertex to chosen color (possibly partial between levels).  Every
public operation that returns a coloring returns one that passes
:func:`verify_list_coloring`; randomized procedures return None on failure
rather than ever emitting an improper coloring, and a search out of budget
raises :class:`BudgetExceeded`, in the pipelines too (the Hall promise check
alone takes the promise on faith).  The Hall-ratio levels and the minor-free
peel layers, like the parts a level extracts, are vertex masks of G colored
with the lists at their original ids; no induced copy is built.

Colour lists are sets at the API and masks inside: a public function numbers
the colours of the lists it receives by their rank in the sorted palette,
turns each list into an ``int`` with bit i for palette[i], works on those
masks (a least colour is a lowest bit, a split is ``&`` and ``& ~``), and
turns ranks back into colours only in what it returns.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from operator import or_
from typing import AbstractSet, Mapping, Sequence

from .decompose import check_peel_parameter, peel_layers
from .errors import (
    BudgetExceeded,
    HallRatioViolation,
    InputError,
    InvariantViolation,
    PreconditionError,
    check_integers,
)
from .families import _bernoulli_marks, _cut
from .graphs import (
    DEFAULT_BUDGET,
    Graph,
    _mis_search,
    adjacency_mask,
    bits,
    checked_mask,
    checked_vertices,
    degeneracy,
    set_of,
)
from .seeds import derive_seed

ListAssignment = Sequence[AbstractSet[int]]
Coloring = Mapping[int, int]


def _check_lists(G: Graph, lists: ListAssignment) -> None:
    if len(lists) != G.n:
        raise InputError(
            f"expected one color list per vertex ({G.n}), got {len(lists)}"
        )


def _palette_masks(lists: ListAssignment) -> tuple[list, list[int]]:
    """The palette, the sorted union of `lists`, and each list as a mask
    with bit i set for palette[i]; a list that repeats a colour counts it
    once (``frozenset`` of a frozenset is the set itself, at no cost)."""
    palette = sorted(set().union(*lists))
    bit = {c: 1 << i for i, c in enumerate(palette)}
    return palette, [sum(map(bit.__getitem__, frozenset(L))) for L in lists]


def _colours(phi: dict[int, int] | None, palette: list) -> dict[int, int] | None:
    """A colouring by palette rank as one by colour; None stays None."""
    return None if phi is None else {v: palette[i] for v, i in phi.items()}


def _check_counts(**counts: int) -> None:
    """Reject a non-integer count, or one below 1, which would fail untried."""
    check_integers(**counts)
    for name, count in counts.items():
        if count < 1:
            raise InputError(f"{name} must be at least 1, got {count}")


def uniform_lists(n: int, k: int) -> list[frozenset[int]]:
    """The same list {0, .., k-1} for every vertex."""
    check_integers(n=n, k=k)
    if n < 0 or k < 0:
        raise InputError(f"vertex count and list size must be non-negative, got {n}, {k}")
    base = frozenset(range(k))
    return [base] * n


def random_lists(n: int, size: int, universe: int, seed: int) -> list[frozenset[int]]:
    """Seeded per-vertex lists: `size` distinct colors drawn from range(universe)."""
    check_integers(n=n, size=size, universe=universe, seed=seed)
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    if not 0 <= size <= universe:
        raise InputError(f"cannot draw {size} distinct colors from {universe}")
    rng = random.Random(seed)
    return [frozenset(rng.sample(range(universe), size)) for _ in range(n)]


def verify_list_coloring(G: Graph, lists: ListAssignment, coloring: Coloring) -> bool:
    """True iff the coloring is proper on its domain and respects the lists."""
    _check_lists(G, lists)
    classes: dict[int, int] = {}  # colour -> mask of the vertices given it
    for v, c in coloring.items():
        if not 0 <= v < G.n or c not in lists[v]:
            return False
        classes[c] = classes.get(c, 0) | 1 << v
    adj = G.adj
    return not any(adj[v] & classes[c] for v, c in coloring.items())


def greedy_list_color(G: Graph, lists: ListAssignment, order=None) -> dict[int, int] | None:
    """Sequential greedy over `order` (vertex id order by default).

    Each vertex takes the smallest list color unused by its colored
    neighbors, the lowest bit of its rank mask left free; returns None as
    soon as some vertex has no candidate.
    """
    _check_lists(G, lists)
    order = range(G.n) if order is None else checked_vertices(G, order)
    palette, masks = _palette_masks(lists)
    return _colours(_greedy_list_color(G, masks, order), palette)


def _greedy_list_color(G: Graph, masks: list[int], order) -> dict[int, int] | None:
    """:func:`greedy_list_color` over the vertices of `order`, on rank
    `masks`; the colouring is by rank."""
    adj = G.adj
    coloring: dict[int, int] = {}
    done = 0  # the coloured vertices
    for v in order:
        free = masks[v]
        for u in bits(adj[v] & done):
            free &= ~(1 << coloring[u])
        if not free:
            return None
        coloring[v] = (free & -free).bit_length() - 1
        done |= 1 << v
    return coloring


def degeneracy_list_color(G: Graph, lists: ListAssignment) -> dict[int, int]:
    """Greedy along the reverse elimination order; needs |L(v)| >= degeneracy + 1.

    Under that precondition every vertex sees at most `degeneracy` colored
    neighbors when its turn comes, so the greedy step never fails.
    """
    _check_lists(G, lists)
    d, order = degeneracy(G)
    short = [v for v in range(G.n) if len(lists[v]) < d + 1]
    if short:
        raise PreconditionError(
            f"lists must have at least degeneracy+1 = {d + 1} colors; "
            f"vertex {short[0]} has {len(lists[short[0]])}"
        )
    coloring = greedy_list_color(G, lists, order=reversed(order))
    if coloring is None:
        raise InvariantViolation("degeneracy-greedy ran out of colors")
    return coloring


def exact_list_color(
    G: Graph, lists: ListAssignment, budget: int = DEFAULT_BUDGET
) -> dict[int, int] | None:
    """Exhaustive list-coloring search with forward checking.

    Returns a proper list coloring or None if none exists.  Raises
    :class:`BudgetExceeded` when the node budget runs out.
    """
    check_integers(budget=budget)
    _check_lists(G, lists)
    palette, masks = _palette_masks(lists)
    return _colours(_exact_list_color(G, masks, G.full_mask, budget), palette)


def _exact_list_color(G: Graph, masks, live: int, budget: int) -> dict[int, int] | None:
    """:func:`exact_list_color` of G[live], on rank `masks` read at the live
    ids; the colouring is by rank.  The uncoloured vertices sit in one mask
    per list length (a strike moves a vertex one mask down, a restore one
    up), and the next vertex is the lowest bit of the least non-empty mask."""
    adj, n = G.adj, live.bit_count()
    effective = {v: masks[v] for v in bits(live)}
    coloring: dict[int, int] = {}  # vertex -> the bit of its colour
    by_length = [0] * (max(map(int.bit_count, effective.values()), default=0) + 1)
    for v, L in effective.items():
        by_length[L.bit_count()] |= 1 << v
    steps = budget
    # one frame per coloured vertex on the search path:
    # [v, colours left to try, colour tried, neighbours it was struck from]
    path: list[list] = []
    while True:
        steps -= 1
        if steps < 0:
            raise BudgetExceeded("exact list coloring", budget, n)
        if len(coloring) == n:
            return {v: c.bit_length() - 1 for v, c in coloring.items()}
        k = 0
        while not by_length[k]:
            k += 1
        low = by_length[k] & -by_length[k]
        by_length[k] ^= low
        v = low.bit_length() - 1
        path.append([v, effective[v], None, []])
        while path:
            frame = path[-1]
            v, left, c, struck = frame
            if c is not None:
                del coloring[v]
                for u in struck:
                    k = effective[u].bit_count()
                    by_length[k] ^= 1 << u
                    by_length[k + 1] |= 1 << u
                    effective[u] |= c
            if not left:
                path.pop()
                by_length[effective[v].bit_count()] |= 1 << v
                continue
            c = frame[2] = left & -left  # the least colour left
            frame[1] = left ^ c
            # coloured before the check, so a failed try is undone like any other
            coloring[v] = c
            struck = frame[3] = []
            for u in bits(adj[v] & live):
                if u in coloring:
                    if coloring[u] == c:
                        break
                elif effective[u] & c:
                    effective[u] ^= c
                    k = effective[u].bit_count()
                    by_length[k + 1] ^= 1 << u
                    by_length[k] |= 1 << u
                    struck.append(u)
                    if not k:
                        break
            else:
                break  # every neighbour keeps a colour: go one vertex deeper
        else:
            return None


# ---------------------------------------------------------------------------
# Randomized coloring of (subgraphs of) complete multipartite graphs
# ---------------------------------------------------------------------------


def multipartite_list_color(
    G: Graph,
    parts: Sequence[AbstractSet[int]],
    lists: ListAssignment,
    trials: int = 64,
    seed: int = 0,
) -> dict[int, int] | None:
    """Color-to-part random assignment for subgraphs of complete multipartite graphs.

    Per trial every color in the union of the lists is assigned independently
    and uniformly to one of the parts; each vertex takes the smallest color
    of its list that landed on its own part.  Cross-part conflicts are
    impossible by construction; a vertex left without a color fails the
    trial.
    """
    _check_lists(G, lists)
    _check_counts(trials=trials)
    masks: list[int] = []
    seen = 0
    for i, part in enumerate(parts):
        if not part:
            raise InputError(f"part {i} is empty")
        pmask = checked_mask(G, part)
        if seen & pmask:
            raise InputError(f"part {i} overlaps an earlier part")
        if adjacency_mask(G, pmask) & pmask:
            raise InputError(f"part {i} is not independent in the graph")
        masks.append(pmask)
        seen |= pmask
    if seen != G.full_mask:
        raise InputError("parts must cover every vertex")
    palette, colours = _palette_masks(lists)
    return _colours(_multipartite_list_color(masks, colours, trials, seed), palette)


def _multipartite_list_color(parts: Sequence[int], masks, trials: int, seed: int):
    """:func:`multipartite_list_color` of the union of `parts`, disjoint
    independent vertex masks, with rank `masks` read at their ids; the
    colouring is by rank.

    Each trial deals the colours of the lists to the parts once, one draw
    per colour in ascending order, into one owned mask per part; a vertex
    takes the lowest bit of its list that its part owns."""
    part_of = {v: i for i, part in enumerate(parts) for v in bits(part)}
    live = sum(parts)  # the parts are disjoint, so their sum is their union
    pool = reduce(or_, (masks[v] for v in bits(live)), 0)
    deal = [1 << c for c in bits(pool)]
    r = len(parts)
    for trial in range(trials):
        randrange = random.Random(derive_seed(seed, trial)).randrange
        owned = [0] * r
        for c in deal:
            owned[randrange(r)] |= c
        coloring: dict[int, int] = {}
        for v in bits(live):
            mine = owned[part_of[v]] & masks[v]
            if not mine:
                break
            coloring[v] = (mine & -mine).bit_length() - 1
        else:
            return coloring
    return None


# ---------------------------------------------------------------------------
# Hall-ratio driven colouring, level by level
# ---------------------------------------------------------------------------


def independent_sets_extract(
    G: Graph, s: int, k: int, budget: int = DEFAULT_BUDGET
) -> list[frozenset[int]]:
    """k disjoint independent sets of size exactly s, greedily from the remainder.

    Each extraction runs the exact independent-set search on what is left;
    if some remainder has no independent set of size s the promised Hall
    ratio was wrong, reported as :class:`HallRatioViolation`.
    """
    check_integers(s=s, k=k, budget=budget)
    if s < 1 or k < 1:
        raise InputError("both the set size and the count must be at least 1")
    return [set_of(p) for p in _independent_sets_extract(G, s, k, G.full_mask, budget)]


def _independent_sets_extract(G: Graph, s: int, k: int, live: int, budget: int):
    """:func:`independent_sets_extract` from G[live], each set as a mask."""
    out: list[int] = []
    for i in range(k):
        size, found = _mis_search(G, live, budget, s)
        if size < s:
            raise HallRatioViolation(
                f"remainder of {live.bit_count()} vertices has no independent "
                f"set of size {s} (needed {k - i} more)"
            )
        out.append(found)  # a target search finds exactly s vertices
        live &= ~found
    return out


def split_lists_by_colors(
    lists: ListAssignment, kept: AbstractSet[int]
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Partition every list by a global color subset: (L & kept, L - kept)."""
    kept = frozenset(kept)
    first = [frozenset(L) & kept for L in lists]
    second = [frozenset(L) - kept for L in lists]
    return first, second


def hall_ratio_list_color(
    G: Graph,
    lists: ListAssignment,
    rho: float,
    C: float = 2.0,
    seed: int = 0,
    trials: int = 64,
    budget: int = DEFAULT_BUDGET,
    max_redraws: int = 64,
) -> dict[int, int] | None:
    """List coloring driven by a promised Hall ratio bound, one level at a time.

    The caller promises ceil(v(H) / alpha(H)) <= rho for every subgraph H.
    Every level is a vertex mask of G, the first one all of G; on each, the
    promise is checked with a witness: it holds exactly when alpha >=
    ceil(n / floor(rho)), so a target-stopping independent-set search that
    proves no such set exists raises :class:`HallRatioViolation` (a search
    out of budget takes the promise on faith).

    A large level splits a random global color subset off its lists, extracts
    k = ceil((1 - 1/e) n / s) disjoint independent sets of size
    s = floor(n / (e rho)), colors their union from the split-off colors via
    :func:`multipartite_list_color`, and leaves the uncolored rest, with the
    remaining colors, as the next level's mask.  The color subset is redrawn
    (up to `max_redraws` times) until every vertex keeps between
    (C/2) rho log(n/rho) and (3C/2) rho log(n/rho) of its list.  There are at
    most ceil(log(n / rho)) + 2 levels; more is an :class:`InvariantViolation`.

    A small level, or one whose lists are too short for the redraw window to
    ever accept, is the last: it falls back to sequential greedy and then to
    exact search, which, like the extraction, raises :class:`BudgetExceeded`
    out of budget.
    """
    check_integers(seed=seed, budget=budget)
    _check_lists(G, lists)
    if not rho >= 1:
        raise InputError(f"the Hall ratio bound must be at least 1, got {rho}")
    if not C > 0:
        raise InputError(f"the list-size constant C must be positive, got {C}")
    _check_counts(trials=trials, max_redraws=max_redraws)
    palette, masks = _palette_masks(lists)  # the levels overwrite the masks
    phi = _hall_ratio_list_color(
        G, masks, G.full_mask, rho, C, seed, trials, budget, max_redraws
    )
    return _colours(phi, palette)


def _check_hall_promise(G: Graph, live: int, rho: float, budget: int) -> None:
    """Raise :class:`HallRatioViolation` unless G[live] has an independent
    set of ceil(n / floor(rho)) vertices, or the search for one runs out of
    budget."""
    n = live.bit_count()
    need = -(-n // math.floor(min(rho, n)))
    try:
        broken = _mis_search(G, live, budget, need)[0] < need
    except BudgetExceeded:
        broken = False  # promise taken on faith when too big to check
    if broken:
        raise HallRatioViolation(
            f"graph of {n} vertices has no independent set of {need}, "
            f"so ceil(n / alpha) > {rho}"
        )


def _hall_ratio_list_color(
    G: Graph, masks: list[int], live: int, rho: float, C: float, seed: int, trials: int,
    budget: int, max_redraws: int,
) -> dict[int, int] | None:
    """:func:`hall_ratio_list_color` of G[live], on rank `masks` indexed by
    vertex id; the colouring is by rank.  Each level overwrites the masks of
    its vertices in place: the kept colours for the vertices it colours, the
    rest for the others."""
    if not live:
        return {}
    n = live.bit_count()
    limit = math.ceil(math.log(n / min(rho, n))) + 1
    coloring: dict[int, int] = {}
    for _ in range(limit + 1):
        n = live.bit_count()
        _check_hall_promise(G, live, rho, budget)
        shortest = min(masks[v].bit_count() for v in bits(live))
        # the last level: small, or with lists too short for the window
        if n <= 3 * math.e * rho or not shortest >= C * rho * math.log(n / rho) ** 2:
            phi = _greedy_list_color(G, masks, bits(live))
            if phi is None:
                phi = _exact_list_color(G, masks, live, budget)
            return None if phi is None else coloring | phi

        log_ratio = math.log(n / rho)
        lo = C / 2 * rho * log_ratio
        hi = 3 * C / 2 * rho * log_ratio
        pool = reduce(or_, (masks[v] for v in bits(live)), 0)
        # a redraw makes one draw random() < 1 / log_ratio per colour of the
        # pool, in ascending order, in bulk; each 1 of the pool's binary
        # digits is a slot for its draw's digit, and the digits read back
        # as the kept colours
        slots = format(pool, "b").replace("1", "%c")
        size, cut = pool.bit_count(), _cut(1.0 / log_ratio)
        for redraw in range(max_redraws):
            rng = random.Random(derive_seed(seed, 3 + redraw))
            kept = int(slots % tuple(_bernoulli_marks(rng.getrandbits, size, cut)), 2)
            if all(lo <= (kept & masks[v]).bit_count() <= hi for v in bits(live)):
                break
        else:
            return None

        s = int(n / (math.e * rho))
        k = math.ceil((1 - 1 / math.e) * n / s)
        sets = _independent_sets_extract(G, s, k, live, budget)

        X = sum(sets)  # disjoint masks: their sum is their union
        for v in bits(X):
            masks[v] &= kept
        live &= ~X
        for v in bits(live):
            masks[v] &= ~kept
        phi = _multipartite_list_color(sets, masks, trials, derive_seed(seed, 0))
        if phi is None:
            return None
        coloring.update(phi)

        if not live:
            return coloring
        seed = derive_seed(seed, 2)
    raise InvariantViolation(f"depth {limit + 1} exceeded the bound {limit}")


# ---------------------------------------------------------------------------
# Recursive peeling for minor-free graphs
# ---------------------------------------------------------------------------


def minor_free_list_color(
    G: Graph,
    lists: ListAssignment,
    d: int,
    seed: int = 0,
    rho: float | None = None,
    inner_threshold: int = 24,
    trials: int = 64,
    budget: int = DEFAULT_BUDGET,
) -> dict[int, int] | None:
    """Peel-and-recolor list coloring for sparse (minor-free) graphs.

    Repeatedly peel a piece X whose coboundary has at most d vertices, color
    the rest first, then color G[X] from the lists minus the colors of X's
    outside neighbors; the boundary costs at most d colors per list, so
    |L(v)| >= 2d leaves at least d usable colors for the inner stage, which
    colors the piece as a vertex mask of G: a single vertex takes its least
    color left, other small pieces go to exact search, and pieces beyond
    `inner_threshold` to :func:`hall_ratio_list_color` (with rho
    defaulting to 2d: a graph peelable at d is minor-free for a clique order
    at most d, whose independence ratio bounds the Hall ratio by 2d).

    Returns None when an inner stage fails or a piece breaks the Hall promise,
    never an improper coloring; an inner search out of budget raises
    :class:`BudgetExceeded`.
    """
    check_integers(seed=seed, budget=budget)
    _check_lists(G, lists)
    check_peel_parameter(d)
    if rho is None:
        rho = 2 * d
    if not rho >= 1:
        raise InputError(f"the Hall ratio bound must be at least 1, got {rho}")
    _check_counts(trials=trials)
    short = [v for v in range(G.n) if len(lists[v]) < 2 * d]
    if short:
        raise PreconditionError(
            f"lists must have at least 2d = {2 * d} colors; vertex "
            f"{short[0]} has {len(lists[short[0]])}"
        )

    layers = list(peel_layers(G, d, G.full_mask))
    # each piece's masks lose its outside neighbours' colours
    palette, masks = _palette_masks(lists)
    coloring: dict[int, int] = {}  # by rank
    done = 0  # the coloured vertices
    for level, piece in enumerate(reversed(layers)):
        for v in bits(piece):
            L = masks[v]
            for u in bits(G.adj[v] & done):
                L &= ~(1 << coloring[u])
            if L.bit_count() < masks[v].bit_count() - d:
                raise InvariantViolation(
                    f"boundary consumed more than d = {d} colors at vertex {v}"
                )
            masks[v] = L
        done |= piece
        if piece & (piece - 1) == 0 and budget >= 2:
            # one vertex, v: its least colour left, as the exact search finds
            # in 2 steps; the check above leaves L at least d colours
            coloring[v] = (L & -L).bit_length() - 1
            continue
        try:
            if piece.bit_count() <= inner_threshold:
                phi = _exact_list_color(G, masks, piece, budget)
            else:
                phi = _hall_ratio_list_color(
                    G, masks, piece, rho, C=2.0, seed=derive_seed(seed, level),
                    trials=trials, budget=budget, max_redraws=64,
                )
        except HallRatioViolation:
            return None  # the piece is denser than the peel parameter promised
        if phi is None:
            return None
        coloring.update(phi)
    return _colours(coloring, palette)
