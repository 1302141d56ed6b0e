"""Extraction of highly connected pieces with small coboundary.

Given minimum degree at least 6k, there is always a non-empty piece X whose
coboundary Y has at most 3k vertices, together with a matching from Y into X
saturating Y, such that contracting the matching inside G[X | Y] leaves a
k-connected graph.  :func:`small_coboundary_piece` turns the minimal-piece
argument into a terminating loop on vertex masks of G and forms each
contracted piece as one :func:`~minorlab.graphs.quotient` of G.
:func:`peel_layers` is the peel the coloring pipeline consumes, as vertex
masks: singletons from :func:`~minorlab.graphs.min_degree_peel`, which keeps
one vertex mask per live degree, while some live degree is at most d, then
the same loop on the live mask once every live degree exceeds d; no induced
copy is built.  :func:`peel_piece` is its first.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .connectivity import connectivity_at_least, separation_below, vertex_connectivity
from .errors import AT_LEAST_1, AT_LEAST_6, InvariantViolation, PreconditionError, check_inputs
from .graphs import (
    Graph,
    HallViolator,
    adjacency_mask,
    bits,
    checked_mask,
    mask_of,
    min_degree_peel,
    quotient,
    saturating_matching,
    set_of,
    within_mask,
)


class Decomposition(NamedTuple):
    """A piece X, its coboundary Y, a matching from Y into X, and the target k."""

    X: frozenset[int]
    Y: frozenset[int]
    matching: tuple[tuple[int, int], ...]
    k: int


def coboundary(G: Graph, X) -> frozenset[int]:
    """External neighborhood: the union of N(v) over v in X, minus X."""
    xmask = checked_mask(G, X)
    return set_of(adjacency_mask(G, xmask) & ~xmask)


def _contracted_piece(G: Graph, X: int, matching):
    """contract(G[X | Y], M) for M saturating Y, plus the class mask of each new vertex."""
    if not matching:
        masks = [1 << x for x in bits(X)]
    else:
        classes = {x: 1 << x for x in bits(X)}
        for y, x in matching:
            classes[x] |= 1 << y
        masks = sorted(classes.values(), key=lambda c: c & -c)
    return quotient(G, masks), masks


def small_coboundary_piece(G: Graph, k: int) -> Decomposition:
    """Shrink a candidate piece until its matching-contraction is k-connected.

    Starting from X = V(G) (empty coboundary), each round either repairs a
    Hall violator by discarding the violator's neighborhood from X, or splits
    X along a separation of order below k.  |X| strictly decreases, so the
    loop terminates; under the minimum-degree precondition a failing round is
    an implementation bug, reported as :class:`InvariantViolation`.  One
    :func:`~minorlab.connectivity.separation_below` at cap k decides a round.
    """
    check_inputs(int, AT_LEAST_1, k=k)
    if G.n == 0:
        raise PreconditionError("the graph must be non-empty")
    if G.min_degree() < 6 * k:
        raise PreconditionError(
            f"minimum degree {G.min_degree()} is below 6k = {6 * k}"
        )
    X, Y, matching = _piece(G, k, G.full_mask)
    return Decomposition(set_of(X), set_of(Y), matching, k)


def _piece(G: Graph, k: int, live: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """The loop of :func:`small_coboundary_piece` on G[live], which must meet
    its preconditions: the piece X, its coboundary Y in G[live] (both masks)
    and the matching."""
    X = live
    prev_size = live.bit_count() + 1
    while True:
        if not X:
            raise InvariantViolation("piece became empty")
        if X.bit_count() >= prev_size:
            raise InvariantViolation("piece size failed to decrease")
        prev_size = X.bit_count()

        Y = adjacency_mask(G, X) & live & ~X
        if Y.bit_count() > 3 * k:
            raise InvariantViolation(f"coboundary grew past 3k: {Y.bit_count()} > {3 * k}")
        result = saturating_matching(G, bits(Y), bits(X))
        if isinstance(result, HallViolator):
            hit = adjacency_mask(G, mask_of(result.witness)) & X
            if hit == X:
                raise InvariantViolation(
                    "violator neighborhood covers the whole piece despite the degree bound"
                )
            X &= ~hit
            continue

        Q, classes = _contracted_piece(G, X, result)
        if Q.n <= k and Q.is_complete():
            raise InvariantViolation(f"contracted piece is complete on {Q.n} <= k vertices")
        split = separation_below(Q, k)  # one pass of flows; None: kappa(Q) >= k
        if split is None:
            return X, Y, tuple(result)
        # the classes are disjoint masks, so a sum of them is their union
        A, B = (sum(classes[i] for i in bits(side)) for side in split[1:])
        for candidate in (A & X & ~B, B & X & ~A):
            outside = adjacency_mask(G, candidate) & live & ~candidate
            if candidate and outside.bit_count() <= 3 * k:
                X = candidate
                break
        else:
            raise InvariantViolation("no separation side yields a small coboundary")


def peel_layers(G: Graph, d: int, live: int) -> Iterator[int]:
    """The pieces that peel G[live] apart, in order, each as a vertex mask.

    A vertex of least degree (lowest id on ties) is a piece on its own while
    that degree is at most d.  Once every live vertex has degree above d >= 6,
    the next piece is the :func:`small_coboundary_piece` of G[live] with
    k = floor(d / 6) (coboundary at most 3k <= d/2), taken on the mask, and
    peeling resumes on the rest.
    """
    while live:
        for v, _ in min_degree_peel(G, live, d):
            live &= ~(1 << v)
            yield 1 << v
        if live:
            piece = _piece(G, d // 6, live)[0]
            live &= ~piece
            yield piece


def peel_piece(G: Graph, d: int, within: Iterable[int] | None = None) -> frozenset[int]:
    """A non-empty piece of G[within] whose coboundary there has at most d vertices.

    The first piece of :func:`peel_layers`: a vertex of lowest degree when
    that degree is at most d, otherwise a small-coboundary piece of
    G[within], taken on its mask.
    """
    live = within_mask(G, within)
    if live == 0:
        raise PreconditionError("the graph must be non-empty")
    check_inputs(int, AT_LEAST_6, d=d)
    return set_of(next(peel_layers(G, d, live)))


def check_decomposition(G: Graph, D: Decomposition) -> list[str]:
    """Independent re-verification of every Decomposition invariant.

    Recomputes the coboundary, checks matching saturation over genuine
    edges, and re-tests from scratch that the contracted piece is
    k-connected (its exact connectivity is computed only to word a failure).
    Returns a list of violations (empty when valid).
    """
    problems: list[str] = []
    if not D.X:
        problems.append("piece-empty")
        return problems
    outside = [v for v in D.X | D.Y if not 0 <= v < G.n]
    if outside:
        return [f"vertex-out-of-range:{min(outside)}"]
    if coboundary(G, D.X) != D.Y:
        problems.append("coboundary-mismatch")
    if len(D.Y) > 3 * D.k:
        problems.append(f"coboundary-too-big:{len(D.Y)}>{3 * D.k}")
    matched_y = [y for y, _ in D.matching]
    matched_x = [x for _, x in D.matching]
    if set(matched_y) != set(D.Y) or len(matched_y) != len(D.Y):
        problems.append("matching-does-not-saturate")
    if len(set(matched_x)) != len(matched_x):
        problems.append("matching-reuses-piece-vertex")
    for y, x in D.matching:
        if y not in D.Y or x not in D.X or not G.has_edge(y, x):
            problems.append(f"matching-pair-not-an-edge:{y}-{x}")
    if problems:
        return problems
    Q, _ = _contracted_piece(G, mask_of(D.X), D.matching)
    if Q.n >= 2:
        if not connectivity_at_least(Q, D.k):
            kappa = vertex_connectivity(Q)
            problems.append(f"contracted-piece-connectivity:{kappa}<{D.k}")
    elif D.k >= 1:
        problems.append("contracted-piece-trivial")
    return problems
