"""Named graph constructors and seeded random graph generators.

Where a constructor knows its adjacency rows outright (complete multipartite
graphs, G(n, p), the top-up of a random graph to a minimum degree) it writes
the rows as bitmasks directly; the rest list their edges for
:func:`from_edge_list`.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

from .errors import FINITE_AT_LEAST_3, NON_NEGATIVE, UNIT_INTERVAL, check_inputs
from .graphs import Graph, bits, from_edge_list, from_rows
from .seeds import derive_seed


def empty_graph(n: int) -> Graph:
    return from_edge_list(n, [])


def complete_graph(n: int) -> Graph:
    check_inputs(int, n=n)
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    check_inputs(int, n=n)
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    check_inputs(int, FINITE_AT_LEAST_3, n=n)
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    check_inputs(int, NON_NEGATIVE, a=a, b=b)
    return complete_multipartite([a, b])


def _check_part_sizes(sizes: Sequence[int]) -> None:
    check_inputs(int, NON_NEGATIVE, **{f"sizes[{i}]": s for i, s in enumerate(sizes)})


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


#: Draws read per ``getrandbits`` call (but at least one row): a chunk holds
#: about 18 bytes per draw at once, so a large graph's extra memory stays
#: near 0.3 MB.  Twice as many raised decompose-connect's peak RSS by 4%.
_CHUNK_DRAWS = 1 << 14


def _cut(p: float) -> tuple[int, bytes, bytes]:
    """What `_bernoulli_marks` needs of p: the threshold T = ceil(p 2^53), a
    ``translate`` table sending a top byte below T >> 45 to ``b"1"`` and any
    other to ``b"0"``, and the one byte value whose draws need all their bits
    (at p = 1 there is none: byte 255 is settled again, the same way)."""
    T = math.ceil(p * 9007199254740992.0)
    top = T >> 45
    return T, b"1" * top + b"0" * (256 - top), bytes([min(top, 255)])


def _bernoulli_marks(
    getrandbits: Callable[[int], int], n: int, cut: tuple[int, bytes, bytes]
) -> bytearray:
    """The next n Bernoulli draws ``random() < p`` of a ``random.Random``,
    read in bulk through its `getrandbits` and `cut` = ``_cut(p)``: one
    digit per draw, ``b"1"`` where the draw holds, reversed so that
    ``int(marks, 2)`` has draw k at bit k.

    The draws are read exactly: ``random()`` is N / 2^53 with N = (x >> 5)
    2^26 + (y >> 6), where x and y are the next two 32-bit Mersenne Twister
    words, and ``getrandbits(64 n)`` lays out the same 2n words from the low
    end up, so byte 8k + 3 of its little-endian bytes is the top byte of draw
    k's x, which is N >> 45.  Since N and T = ceil(p 2^53) are integers
    (p 2^53 is exact for a float p), ``random() < p`` holds exactly when
    N < T.  A top byte below T >> 45 makes N < T, one above makes N >= T, and
    only a top byte equal to it (one draw in 256) needs N in full.  Python
    guarantees the stream of ``random()`` values for a given seed; the
    ``getrandbits`` layout is pinned by the tests against the one-draw-per-pair
    loops (``tests/oracles.py``).  All n draws are marked in one
    ``translate`` of their top bytes.
    """
    T, table, tie = cut
    data = getrandbits(64 * n).to_bytes(8 * n, "little")
    tops = data[3::8]
    marks = bytearray(tops.translate(table))
    k = tops.find(tie)
    while k >= 0:
        w = int.from_bytes(data[8 * k : 8 * k + 8], "little")  # x + y 2^32
        if ((w & 0xFFFFFFFF) >> 5 << 26 | w >> 38) < T:
            marks[k] = 49  # b"1"
        k = tops.find(tie, k + 1)
    marks.reverse()  # draw k now sits at n - 1 - k
    return marks


def _place_block(adj: list[int], block: bytearray, width: int, top: int, left: int) -> None:
    """OR into `adj` a block of digits, `width` to a row and reversed like
    the marks of :func:`_bernoulli_marks`: digit c of row r joins vertex
    top + r to vertex left + c.  Each row mask and each column mask is one
    ``int`` over a slice."""
    i = top + len(block) // width
    for s in range(0, len(block), width):
        i -= 1
        adj[i] |= int(block[s : s + width], 2) << left
    j = left + width
    for s in range(width):
        j -= 1
        adj[j] |= int(block[s::width], 2) << top


def gnp_random_graph(n: int, p: float, seed: int) -> Graph:
    """Each of the C(n, 2) pairs is an edge independently with probability p.

    Pairs are drawn in lexicographic order from ``random.Random(seed)``, so
    the output is a pure function of (n, p, seed).  The draws are read in
    bulk, exactly (see :func:`_bernoulli_marks`), in chunks of rows, each
    laid out as n digits per row, zero on and below the diagonal.
    """
    check_inputs(int, NON_NEGATIVE, n=n)
    check_inputs(float, UNIT_INTERVAL, p=p)
    check_inputs(int, seed=seed)
    getrandbits = random.Random(seed).getrandbits
    cut = _cut(p)
    adj = [0] * n
    zeros = b"0" * n
    rows = _CHUNK_DRAWS // max(n, 1) or 1
    for u0 in range(0, n, rows):
        u1 = min(u0 + rows, n)  # rows u0..u1-1 hold n - 1 - u draws each
        marks = _bernoulli_marks(getrandbits, (u1 - u0) * (2 * n - 1 - u0 - u1) // 2, cut)
        block = bytearray()
        at = 0
        for u in range(u1 - 1, u0 - 1, -1):
            block += marks[at : at + n - 1 - u] + zeros[: u + 1]
            at += n - 1 - u
        _place_block(adj, block, n, u0, 0)
    return from_rows(adj)


def gnm_random_graph(n: int, m: int, seed: int) -> Graph:
    """Uniform graph with exactly m edges (sampled without replacement)."""
    check_inputs(int, n=n, seed=seed)
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    top = len(all_pairs)
    check_inputs(int, (lambda v: 0 <= v <= top, f"must lie in [0, {top}]", False), m=m)
    rng = random.Random(seed)
    return from_edge_list(n, rng.sample(all_pairs, m))


def random_graph_min_degree(n: int, d: int, seed: int, p: float | None = None) -> Graph:
    """Seeded random graph with every degree forced to at least d.

    Starts from G(n, p) and tops up each deficient vertex, in id order, with
    edges to uniformly drawn non-neighbours.  The top-up edits the base
    graph's rows in place, so no edge list is rebuilt.
    """
    check_inputs(int, NON_NEGATIVE, n=n)
    check_inputs(int, (lambda v: 0 <= v < n, f"must lie in [0, {n})", False), d=d)
    if p is None:
        p = min(1.0, (d + 2) / max(1, n - 1))
    base = gnp_random_graph(n, p, derive_seed(seed, 0))
    rng = random.Random(derive_seed(seed, 1))
    adj = list(base.adj)
    full = (1 << n) - 1
    for v in range(n):
        while adj[v].bit_count() < d:
            closed = adj[v] | 1 << v
            u = rng.choice(list(bits(full & ~closed)))
            adj[v] |= 1 << u
            adj[u] |= 1 << v
    return from_rows(adj)
