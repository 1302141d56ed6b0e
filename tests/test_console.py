"""The console checks: `minorlab` commands run in process, as the installed
script runs them, on inputs the library builds or `minorlab generate` writes."""

import random
from itertools import combinations

import pytest

import minorlab as ml
from minorlab import formats
from minorlab.cli import main

#: the files `minorlab generate` writes, by the rest of its argv
GENERATED = {
    "k44.el": "bipartite --a 4 --b 4 --p 1.0",
    "p3.el": "connectivity --t 3 --k 1",
    "k33.el": "connectivity --t 5 --k 3",
    "lb.el": "lower-bound --a 60 --b 60 --t 6 --eps 0.05 --seed 2",
    "lb17.el": "lower-bound --a 60 --b 60 --t 6 --eps 0.05 --seed 17",
    "b150.el": "bipartite --a 150 --b 150 --p 0.5 --seed 7",
    "b60.el": "bipartite --a 60 --b 60 --p 0.5 --seed 7",
    "k2020.el": "bipartite --a 20 --b 20 --p 1.0",
    "b20.el": "bipartite --a 20 --b 20 --p 0.15 --seed 1",
}


def messy_edge_list(G):
    """G's edge list with CRLF ends, a trailing comment, a tab between ids
    and every edge repeated reversed."""
    rows = [f"p {G.n} {G.m}"]
    for u, v in G.edges():
        rows += [f"{u} {v}", f"{v} {u}"]
    rows[1] += " # first edge"
    rows[3] = rows[3].replace(" ", "\t")
    return "".join(row + "\r\n" for row in rows)


def circular_ladder(n):
    """C_n x K_2: planar and 3-connected."""
    rim = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    return ml.from_edge_list(2 * n, rim + [(n + u, n + v) for u, v in rim] + spokes)


def sunlet(n):
    """C_n with a pendant vertex on each of its vertices."""
    cycle = [(i, (i + 1) % n) for i in range(n)]
    return ml.from_edge_list(2 * n, cycle + [(i, n + i) for i in range(n)])


def bridged_cliques():
    """Two K_13 joined by the edge 12-13."""
    edges = [e for base in (0, 13) for e in combinations(range(base, base + 13), 2)]
    return ml.from_edge_list(26, edges + [(12, 13)])


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding every input of the console checks."""
    path = tmp_path_factory.mktemp("console")
    for name, args in GENERATED.items():
        argv = ["generate", "--construction", *args.split(), "--out", str(path / name)]
        assert main(argv) == 0
    (path / "k44messy.el").write_text(messy_edge_list(ml.complete_bipartite(4, 4)))
    graphs = {
        "ladder.el": circular_ladder(300),
        "path.el": ml.path_graph(400),
        "sunlet.el": sunlet(100),
        "bridged.el": bridged_cliques(),
        "k3x60.el": ml.complete_multipartite([60, 60, 60]),
        "gnp.el": ml.gnp_random_graph(200, 0.3, 7),
        "mindeg.el": ml.random_graph_min_degree(60, 18, 7),
    }
    for name, G in graphs.items():
        formats.write_edge_list(G, path / name)
    (path / "lists.txt").write_text(formats.lists_to_str(ml.uniform_lists(8, 2)))
    rng = random.Random(1)
    mp_lists = [frozenset(rng.sample(range(20), 4)) for _ in range(40)]
    (path / "mp.lists").write_text(formats.lists_to_str(mp_lists))
    return path


#: (id, argv, exit code, lines expected on stdout, lines expected on stderr)
CASES = [
    ("k44-t5", "check k44.el --t 5", 0, (), ()),
    ("k44-t6", "check k44.el --t 6", 1, (), ()),
    # K_3 models come from the blocks: K_{4,4} has one, a 3-vertex path none
    ("k44-t3", "check k44.el --t 3", 0, ("k3_minor=Found", "kappa=4"), ()),
    ("p3-t3", "check p3.el --t 3", 1, ("k3_minor=NotFound",), ()),
    # the same edges with CRLF ends, a trailing comment, a tab between ids
    # and every edge repeated reversed give the same verdict
    ("k44-messy", "check k44messy.el --t 3", 0, ("k3_minor=Found",), ()),
    # every graph reads n and m off its rows: K_{3,3} from
    # complete_multipartite is written as 'p 6 9' (a wrong header count is
    # an input error) and read back with m=9
    ("k33-t4", "check k33.el --t 4", 0, ("m=9", "kappa=3"), ()),
    # a lower-bound graph whose blocks the unpruned search could not settle
    # within 20 000 steps: the edge slack lets it find the model
    ("lb-20000", "check lb.el --t 6 --budget 20000", 0, ("k6_minor=Found",), ()),
    # the same model, found within 5 000 steps
    ("lb-5000", "check lb.el --t 6 --budget 5000", 0, ("k6_minor=Found",), ()),
    # pruning by each branch set's degree surplus finds it in 958 steps,
    # where the edge-excess prune alone ran out of 1 000
    ("lb-1000", "check lb.el --t 6 --budget 1000", 0, ("k6_minor=Found",), ()),
    # only vertices of block degree >= t - 1 can be singleton sets, and the
    # clique number among them proves the 9-vertex blocks free before any
    # step; the spanning-model stage proves the 10-vertex one free in 7 steps
    # (the branch-set search spent 123 there, and ran out of 150 on a
    # 9-vertex one when the clique number of the whole block bounded the
    # singletons), and the greedy contraction then finds the model
    ("lb-150", "check lb.el --t 6 --budget 150", 0, ("k6_minor=Found",), ()),
    # every block that reaches the last stage has fewer than 2t vertices,
    # and the spanning-model stage proves all of them K6-minor-free within 300
    # steps, where the branch-set search ran out on a 10-vertex block
    ("lb17-300", "check lb17.el --t 6 --budget 300", 1,
     ("k6_minor=NotFound", "hadwiger=5"), ()),
    # a kappa the flows decide: delta = 22 here, and the growth test runs 38
    # hub flows that walk 43 paths beyond the common neighbours
    ("b60-kappa", "check b60.el --t 3 --budget 20000", 0, ("kappa=22",), ()),
    # the circular ladder C_300 x K_2 is planar but only the search can
    # decide it: its 2 000 steps run out, an inconclusive exit 3
    ("ladder", "check ladder.el --t 5 --budget 2000", 3,
     ("k5_minor=BudgetExceeded", "alpha=300", "kappa=3"), ()),
    # the independent-set search dives greedily, so a 400-vertex path
    # settles within 1 000 steps (the max-degree pivot alone printed
    # alpha=unknown)
    ("path", "check path.el --t 3 --budget 1000", 1, ("alpha=200", "kappa=1"), ()),
    # the dive reaches alpha = 100 on the sunlet of C_100 at once, but only
    # taking a vertex of degree <= 1 without branching proves it within
    # 1 000 steps: a highest-degree pivot there spends over 200 000
    ("sunlet", "check sunlet.el --t 3 --budget 1000", 0, ("alpha=100",), ()),
    # two K_13 joined by one edge: the piece is one clique less the end of
    # the bridge, matched back into it
    ("bridged", "decompose bridged.el --k 2", 0,
     ("X 0 1 2 3 4 5 6 7 8 9 10 11", "Y 12", "M 12 0"), ()),
    # K_{20,20} has minimum degree 20 < 6k = 24, a precondition error
    ("k2020-k4", "decompose k2020.el --k 4", 2, (),
     ("error: minimum degree 20 is below 6k = 24",)),
    # the other caller of the shared least-degree peel: the degeneracy order
    ("b20-degeneracy", "color b20.el --strategy degeneracy --list-size 5", 0, (), ()),
    # a list file covering vertices 0-7 colours K_{4,4}
    ("k44-lists", "color k44.el --strategy exact --lists lists.txt", 0, (), ()),
    # random lists of 4 colours from 20 on b20.el: the multipartite
    # colouring's first 19 trials fail and the 20th succeeds
    ("b20-mp-19", "color b20.el --strategy multipartite --lists mp.lists --trials 19", 1,
     (), ("Failure",)),
]


@pytest.mark.parametrize("argv,code,out,err", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_console_check(inputs, monkeypatch, capsys, argv, code, out, err):
    monkeypatch.chdir(inputs)
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    for want, text in ((out, captured.out), (err, captured.err)):
        assert set(want) <= set(text.splitlines())


def test_lower_bound_model_is_the_same_at_budgets_150_and_1000(inputs, capsys):
    outputs = []
    for budget in ("150", "1000"):
        assert main(["check", str(inputs / "lb.el"), "--t", "6", "--budget", budget]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_console_outputs_match_their_golden_digests(inputs, monkeypatch, capsys, golden_digests):
    # the random graphs read their draws in bulk from getrandbits, the
    # decompose suite's whole-graph pieces come back from quotient as they
    # are, a one-vertex peel piece skips the exact search and each
    # multipartite trial deals its colours once: these digests were taken
    # before each of those changes, so the outputs must match them byte for byte
    monkeypatch.chdir(inputs)
    files = ["b150.el", "lb.el", "gnp.el", "mindeg.el", "lb17.el"]
    for suite, out_dir in (("decompose", "dec"), ("dense-model", "dm60")):
        argv = f"experiment --suite {suite} --trials 4 --seed 3 --max-n 60 --out-dir {out_dir}"
        assert main(argv.split()) == 0
        files += [f"{out_dir}/{suite}.json", f"{out_dir}/{suite}.csv"]
    texts = {name: (inputs / name).read_text() for name in files}
    capsys.readouterr()  # the suite summaries
    colourings = {
        # K_{60,60,60} with 101 colours per vertex clears the base-case list
        # bound, so two Hall levels extract their parts and colour them
        "k3x60.out": "k3x60.el --strategy hallratio --list-size 101 --rho 3",
        "b20mf.out": "b20.el --strategy minorfree --list-size 12 --d 6",
        "b20mp.out": "b20.el --strategy multipartite --lists mp.lists",
    }
    for name, args in colourings.items():
        assert main(["color", *args.split()]) == 0
        texts[name] = capsys.readouterr().out
    assert len(texts["k3x60.out"].splitlines()) == 180
    golden_digests("console.sha256", texts)
