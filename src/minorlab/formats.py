"""Text formats: edge lists, minor models, list assignments, decompositions.

Edge-list format: a header line ``p <n> <m>``, then one ``u v`` pair per
line, 0-indexed and whitespace separated.  Anything from ``#`` to the end of
a line is a comment.  The writer emits edges sorted with u < v, so a
write/read/write round trip is bit-exact.
"""

from __future__ import annotations

import math

from .coloring import Coloring, ListAssignment
from .decompose import Decomposition
from .errors import InputError
from .graphs import Graph, from_rows
from .minor import MinorModel, validate_model


def edge_list_to_str(G: Graph) -> str:
    lines = [f"p {G.n} {G.m}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body))
    return out


def _ints(lineno: int, body: str, tokens) -> list[int]:
    """`tokens` of line `lineno` (`body`) as integers, or an error naming it."""
    try:
        return [int(x) for x in tokens]
    except ValueError:
        raise InputError(f"line {lineno}: non-integer entry in {body!r}") from None


def parse_edge_list(text: str) -> Graph:
    """The graph of an edge-list text, or an :class:`InputError` naming the
    first line at fault.

    Memory: the header's n sizes the row list before any edge is read, so a
    header alone costs O(n), about 16 bytes per vertex with the row tuple.
    The lookup tables below hold k = min(n, isqrt(16 len(text))) ids, so
    they grow with the text, not with n: k entries, and bits of about
    k^2 / 16 bytes in all, no more than the text.
    """
    # `ids` maps the decimal token of each id below k to the id, and bit[i]
    # is 1 << i.  A line of two such tokens with distinct ids, split by one
    # space, would pass every check, so it goes straight into the rows; any
    # other line runs the checks in full, in order.
    ids: dict[str, int] = {}
    bit: list[int] = []
    adj: list[int] = []
    n = m = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        a, _, b = raw.partition(" ")
        u = ids.get(a)
        v = ids.get(b)
        if u is not None and v is not None and u != v:
            adj[u] |= bit[v]
            adj[v] |= bit[u]
            continue
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if n is None:
            if len(fields) != 3 or fields[0] != "p":
                raise InputError(f"line {lineno}: expected 'p <n> <m>', got {body!r}")
            n, m = _ints(lineno, body, fields[1:])
            # with a negative n every edge line fails its range check
            # first, so only an edgeless body reports the count itself
            adj = [0] * n
            k = min(n, math.isqrt(16 * len(text)))
            ids = {str(i): i for i in range(k)}
            bit = [1 << i for i in range(k)]
            continue
        if len(fields) != 2:
            raise InputError(f"line {lineno}: expected 'u v', got {body!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise InputError(f"line {lineno}: non-integer vertex id in {body!r}") from None
        if u == v:
            raise InputError(f"line {lineno}: loop edge {u} {v}")
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {lineno}: vertex id out of range in {body!r}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    if n is None:
        raise InputError("line 1: missing 'p <n> <m>' header")
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    G = from_rows(adj)
    if G.m != m:
        raise InputError(f"header claims {m} edges but the body de-duplicates to {G.m}")
    return G


def write_edge_list(G: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(edge_list_to_str(G))


def read_text(path) -> str:
    """The ASCII text of the file at `path`; any other byte, even in a
    comment, is an input error naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"line {lineno}: non-ASCII byte {data[exc.start]:#04x}") from None


def read_edge_list(path) -> Graph:
    return parse_edge_list(read_text(path))


# -- minor models ----------------------------------------------------------


def model_to_str(G: Graph, model: MinorModel) -> str:
    valid = "true" if validate_model(G, model) else "false"
    lines = [f"# t={model.t} valid={valid}"]
    for s in model.branch_sets:
        lines.append(" ".join(str(v) for v in sorted(s)))
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> MinorModel:
    sets = []
    for lineno, body in _content_lines(text):
        sets.append(frozenset(_ints(lineno, body, body.split())))
    return MinorModel(tuple(sets))


# -- list assignments and colorings ----------------------------------------


def lists_to_str(lists: ListAssignment) -> str:
    lines = []
    for v, L in enumerate(lists):
        lines.append(f"{v}: " + " ".join(str(c) for c in sorted(L)))
    return "\n".join(lines) + "\n" if lines else ""


def parse_lists(text: str, n: int | None = None) -> list[frozenset[int]]:
    entries: dict[int, frozenset[int]] = {}
    for lineno, body in _content_lines(text):
        if ":" not in body:
            raise InputError(f"line {lineno}: expected 'v: c1 c2 ...', got {body!r}")
        head, tail = body.split(":", 1)
        v, *colors = _ints(lineno, body, [head, *tail.split()])
        if v < 0 or (n is not None and v >= n):
            raise InputError(f"line {lineno}: list for vertex {v} is out of range")
        if v in entries:
            raise InputError(f"line {lineno}: duplicate list for vertex {v}")
        entries[v] = frozenset(colors)
    count = n if n is not None else (max(entries) + 1 if entries else 0)
    missing = [v for v in range(count) if v not in entries]
    if missing:
        raise InputError(f"missing color list for vertex {missing[0]}")
    return [entries[v] for v in range(count)]


def coloring_to_str(coloring: Coloring) -> str:
    lines = [f"{v} {coloring[v]}" for v in sorted(coloring)]
    return "\n".join(lines) + "\n" if lines else ""


def parse_coloring(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for lineno, body in _content_lines(text):
        fields = body.split()
        if len(fields) != 2:
            raise InputError(f"line {lineno}: expected 'v c', got {body!r}")
        v, c = _ints(lineno, body, fields)
        if v < 0:
            raise InputError(f"line {lineno}: color for vertex {v} is out of range")
        if v in out:
            raise InputError(f"line {lineno}: duplicate color for vertex {v}")
        out[v] = c
    return out


# -- decompositions ---------------------------------------------------------


def decomposition_to_str(D: Decomposition) -> str:
    lines = [f"# decomposition k={D.k}"]
    lines.append("X " + " ".join(str(v) for v in sorted(D.X)))
    lines.append("Y " + " ".join(str(v) for v in sorted(D.Y)))
    for y, x in sorted(D.matching):
        lines.append(f"M {y} {x}")
    return "\n".join(lines) + "\n"


def parse_decomposition(text: str) -> Decomposition:
    k = None
    sections: dict[str, frozenset[int]] = {}
    matching: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        body = stripped.split("#", 1)[0].strip()
        if stripped.startswith("# decomposition"):
            for token in stripped.split():
                if token.startswith("k="):
                    if k is not None:
                        raise InputError(f"line {lineno}: second k= header")
                    k = _ints(lineno, stripped, [token[2:]])[0]
        elif body:
            tag, *fields = body.split()
            ids = _ints(lineno, body, fields)
            if tag == "M":
                if len(ids) != 2:
                    raise InputError(f"line {lineno}: expected 'M y x'")
                matching.append((ids[0], ids[1]))
            elif tag not in ("X", "Y"):
                raise InputError(f"line {lineno}: unknown section {tag!r}")
            elif tag in sections:
                raise InputError(f"line {lineno}: second {tag} section")
            else:
                sections[tag] = frozenset(ids)
    if k is None or len(sections) != 2:
        raise InputError("decomposition needs a k= header plus X and Y sections")
    return Decomposition(sections["X"], sections["Y"], tuple(sorted(matching)), k)
