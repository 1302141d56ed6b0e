import math
import random
import tracemalloc

import pytest
from oracles import parse_edge_list_ref

import minorlab as ml
from minorlab import formats


def test_edge_list_round_trip_is_bit_exact():
    G = ml.petersen_graph()
    text = formats.edge_list_to_str(G)
    assert formats.parse_edge_list(text) == G
    assert formats.edge_list_to_str(formats.parse_edge_list(text)) == text


def test_edge_list_header_shape():
    text = formats.edge_list_to_str(ml.path_graph(3))
    assert text.splitlines()[0] == "p 3 2"


def test_edge_list_comments_and_blank_lines():
    G = formats.parse_edge_list("# hello\np 3 1\n\n0 1   # trailing\n")
    assert (G.n, G.m) == (3, 1)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1\n", "line 1"),
        ("p 3\n0 1\n", "line 1"),
        ("p 3 2\n0\n", "line 2"),
        ("p 3 2\n0 x\n", "line 2"),
        ("p 3 2\n0 0\n", "loop"),
        ("p 3 2\n0 7\n", "out of range"),
        # a negative count: an edge line fails on its range first, and
        # only an edgeless body reports the count itself
        ("p -1 1\n0 1\n", "line 2: vertex id out of range"),
        ("p -1 0\n", "vertex count must be non-negative, got -1"),
        ("p 3 2\n0 1\n0 x\n", "line 3: non-integer"),
        ("p 3 2\n0 1\n1 0\n", "header claims 2 edges but the body de-duplicates to 1"),
        # errors on lines whose tokens are all known from earlier lines
        ("p 3 2\n0 1\n1 2\n1 1\n", "line 4: loop edge 1 1"),
        ("p 3 2\n0 1\n1 2\n0 1 2\n", "line 4: expected 'u v'"),
        ("p 3 2\n0 1\n1 2\n1 3\n", "line 4: vertex id out of range"),
    ],
)
def test_edge_list_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ml.InputError, match=fragment):
        formats.parse_edge_list(text)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ml.InputError as exc:
        return str(exc)


def _fuzz_edge_text(rng: random.Random) -> str:
    """An edge-list text mixing canonical pairs with the spellings, spacing,
    comments, line ends and faults the parser must treat as the reference
    does; the header's edge count is usually the body's true one."""
    n = rng.randint(2, 7) if rng.random() < 0.95 else rng.randint(0, 1)
    odd = ["01", "+1", "-1", "1_0", "00", str(n), str(n + 1), "x"]
    seps = [" "] * 6 + ["\t", "  ", " \t", " \x0c "]
    body = []
    for _ in range(rng.randint(0, 14)):
        r = rng.random()
        if r < 0.75 and n >= 2:
            u, v = rng.sample(range(n), 2)
            line = f"{u} {v}"
        elif r < 0.86:
            tokens = [str(i) for i in range(n)] + odd
            line = rng.choice(tokens) + rng.choice(seps) + rng.choice(tokens)
        elif r < 0.89 and n:
            u = rng.randrange(n)
            line = f"{u} {u}"
        elif r < 0.92:
            line = " ".join(str(rng.randrange(max(n, 1))) for _ in range(3))
        elif r < 0.96:
            line = ""
        else:
            line = "# note"
        if rng.random() < 0.1:
            line += rng.choice([" ", "  ", "\t", " # c", "#c"])
        if rng.random() < 0.05:
            line = rng.choice([" ", "\t"]) + line
        body.append(line)
    try:
        parse_edge_list_ref("\n".join([f"p {n} -1"] + body))
        m = 0
    except ml.InputError as exc:
        words = str(exc).split()
        m = int(words[-1]) if "de-duplicates" in words else rng.randint(0, 4)
    if rng.random() < 0.2:
        m += rng.choice([-1, 1])
    header = rng.choices(
        [f"p {n} {m}", None, f"p {n}", f"q {n} {m}", f"p {n} x", f"p -1 {m}"],
        weights=[85, 3, 3, 3, 3, 3],
    )[0]
    lines = ([header] if header is not None else []) + body
    if rng.random() < 0.1:
        lines.insert(0, rng.choice(["# graph", "", "  "]))
    ends = rng.choice(["\n", "\r\n", "\x0c", None])
    text = ""
    for line in lines:
        text += line + (ends or rng.choice(["\n", "\r\n", "\x0c"]))
    return text if rng.random() < 0.9 else text.rstrip("\r\n\x0c")


def test_edge_list_parser_agrees_with_reference_on_fuzzed_texts():
    rng = random.Random(20201)
    parsed = 0
    for _ in range(6000):
        text = _fuzz_edge_text(rng)
        want = _parse_outcome(parse_edge_list_ref, text)
        assert _parse_outcome(formats.parse_edge_list, text) == want, repr(text)
        parsed += isinstance(want, ml.Graph)
    # both outcomes are common, so the comparison covers both
    assert 1000 < parsed < 5000


#: texts on the border of the parser's fast path, where a line of two
#: decimal tokens of ids below k = min(n, isqrt(16 len(text))) skips the
#: line checks; each must give what the reference gives
BORDER_TEXTS = {
    "no newline at the end": "p 3 2\n0 1\n1 2",
    "a blank line": "p 3 2\n0 1\n\n1 2\n",
    "a third token": "p 3 2\n0 1\n1 2 0\n",
    "a tab separator": "p 3 2\n0\t1\n1 2\n",
    "CRLF line ends": "p 3 2\r\n0 1\r\n1 2\r\n",
    "a comment after an edge": "p 3 2\n0 1 # c\n1 2#c\n",
    "the tokens 007, +3 and -0": "p 8 3\n007 1\n+3 -0\n7 0\n",
    "the token n": "p 3 1\nn 1\n",
    "a loop after known tokens": "p 3 2\n0 1\n1 2\n2 2\n",
    "an edge line before the header": "0 1\np 3 1\n0 1\n",
}


@pytest.mark.parametrize("text", BORDER_TEXTS.values(), ids=BORDER_TEXTS.keys())
def test_edge_list_border_texts_parse_as_the_reference(text):
    want = _parse_outcome(parse_edge_list_ref, text)
    assert _parse_outcome(formats.parse_edge_list, text) == want


def test_edge_list_ids_at_and_above_the_prebuilt_table_parse_as_the_reference():
    # ids 27..32 around k = 30, and 999 with n = 1000 far above k, each
    # first seen on an edge line
    body = [f"{u} 3" for u in range(27, 33)] + ["999 32", "4 999", "999 4"]
    text = "\n".join(["p 1000 8"] + body) + "\n"
    assert min(1000, math.isqrt(16 * len(text))) == 30
    G = formats.parse_edge_list(text)
    assert G == parse_edge_list_ref(text)
    assert G.m == 8 and G.adj[999] == 1 << 4 | 1 << 32
    for bad in ("p 1000 1\n999 1000\n", "p 1000 1\n999 999\n", "p 1000 1\n0999 1 2\n"):
        assert _parse_outcome(formats.parse_edge_list, bad) == _parse_outcome(
            parse_edge_list_ref, bad
        )


def test_a_header_alone_costs_only_the_rows():
    # the header's n sizes the row list before any edge is read: that list
    # and the graph's row tuple take 8 bytes a vertex each, and nothing else
    # may grow with n (a prebuilt table of n ids or bits would add 8 or more)
    n = 1_000_000
    tracemalloc.start()
    try:
        G = formats.parse_edge_list(f"p {n} 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (G.n, G.m) == (n, 0)
    assert peak <= 16 * n + 2**16


def test_edge_list_file_round_trip(tmp_path):
    G = ml.gnp_random_graph(12, 0.4, seed=3)
    path = tmp_path / "g.el"
    formats.write_edge_list(G, path)
    assert formats.read_edge_list(path) == G


def test_model_serialization_round_trip():
    P = ml.petersen_graph()
    model = ml.find_kt_minor_exact(P, 5)
    text = formats.model_to_str(P, model)
    assert text.startswith("# t=5 valid=true")
    back = formats.parse_model(text)
    assert back == model


def test_lists_round_trip():
    lists = [frozenset({0, 2}), frozenset({1}), frozenset({3, 4, 5})]
    text = formats.lists_to_str(lists)
    assert formats.parse_lists(text) == lists


def test_lists_missing_vertex_is_an_error():
    with pytest.raises(ml.InputError, match="missing"):
        formats.parse_lists("0: 1 2\n2: 3\n")


@pytest.mark.parametrize(
    "text,n,fragment",
    [
        ("0: 1\n1: 2\n7: 3\n", 2, "line 3: list for vertex 7 is out of range"),
        ("0: 1\n-1: 4\n1: 2\n", 2, "line 2: list for vertex -1 is out of range"),
        ("-3: 1\n", None, "line 1: list for vertex -3 is out of range"),
        ("0: 1\n0: 2\n", None, "line 2: duplicate list for vertex 0"),
    ],
    ids=["above-n", "negative", "negative-without-n", "duplicate"],
)
def test_lists_reject_out_of_range_and_duplicate_vertices(text, n, fragment):
    with pytest.raises(ml.InputError, match=fragment):
        formats.parse_lists(text, n=n)


def test_coloring_round_trip():
    coloring = {0: 3, 2: 1, 5: 0}
    text = formats.coloring_to_str(coloring)
    assert formats.parse_coloring(text) == coloring


def test_coloring_rejects_a_negative_vertex():
    with pytest.raises(ml.InputError, match="line 1: color for vertex -1 is out of range"):
        formats.parse_coloring("-1 3\n0 2\n")


def test_decomposition_round_trip():
    G = ml.complete_graph(13)
    D = ml.small_coboundary_piece(G, 2)
    text = formats.decomposition_to_str(D)
    assert formats.parse_decomposition(text) == D


def test_decomposition_with_matching_round_trip():
    edges = []
    for base in (0, 13):
        edges += [(base + u, base + v) for u in range(13) for v in range(u + 1, 13)]
    edges.append((0, 13))
    G = ml.from_edge_list(26, edges)
    D = ml.small_coboundary_piece(G, 2)
    assert D.matching
    assert formats.parse_decomposition(formats.decomposition_to_str(D)) == D


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("# decomposition k=abc\nX 1\nY 2\n", "line 1: non-integer entry in '# decomp"),
        ("# decomposition k=2\nX 1\nY x\n", "line 3: non-integer"),
        ("# decomposition k=2\nX 1\nX 2 3\nY 4\n", "line 3: second X section"),
        ("# decomposition k=2\nX 1\nY 4\nY 5\n", "line 4: second Y section"),
        ("# decomposition k=2\nX 1\n# decomposition k=5\nY 4\n", "line 3: second k= header"),
    ],
    ids=["header", "body", "second-X", "second-Y", "second-k"],
)
def test_decomposition_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ml.InputError, match=fragment):
        formats.parse_decomposition(text)
