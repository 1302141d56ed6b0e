import json

import minorlab as ml
from minorlab import formats
from minorlab.cli import _first_fit_parts, main
from minorlab.extremal import BOUND_INPUTS
from oracles import first_fit_parts_ref


def write_graph(tmp_path, G, name="g.el"):
    path = tmp_path / name
    formats.write_edge_list(G, path)
    return str(path)


def test_generate_then_check_round_trip(tmp_path, capsys):
    out = str(tmp_path / "k.el")
    assert main(["generate", "--construction", "bipartite", "--a", "4", "--b", "4",
                 "--p", "1.0", "--out", out]) == 0
    G = formats.read_edge_list(out)
    assert G == ml.complete_bipartite(4, 4)


def test_generate_lower_bound_and_connectivity(tmp_path):
    out = str(tmp_path / "g.el")
    assert main(["generate", "--construction", "lower-bound", "--a", "30", "--b", "30",
                 "--t", "4", "--eps", "0.05", "--seed", "3", "--out", out]) == 0
    assert formats.read_edge_list(out).n == 60
    assert main(["generate", "--construction", "connectivity", "--t", "5", "--k", "3",
                 "--out", out]) == 0
    assert formats.read_edge_list(out).n == 6


def test_check_petersen_negative_verdict(tmp_path, capsys):
    path = write_graph(tmp_path, ml.petersen_graph())
    code = main(["check", path, "--t", "6"])
    out = capsys.readouterr().out
    assert code == 1
    assert "k6_minor=NotFound" in out
    assert "hadwiger=5" in out
    assert "alpha=4" in out
    assert "kappa=3" in out
    assert "degeneracy=3" in out
    assert "independence_bound_ok=true" in out


def test_check_finds_and_prints_model(tmp_path, capsys):
    path = write_graph(tmp_path, ml.complete_graph(5))
    code = main(["check", path, "--t", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "k5_minor=Found" in out
    assert "# t=5 valid=true" in out


def test_check_malformed_file_names_line(tmp_path, capsys):
    path = tmp_path / "bad.el"
    path.write_text("p 3 1\n0 zebra\n")
    code = main(["check", str(path), "--t", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_non_ascii_input_is_an_input_error_naming_its_line(tmp_path, capsys):
    # even inside a comment; the read used to raise UnicodeDecodeError
    path = tmp_path / "accent.el"
    path.write_bytes(b"p 2 1\n0 1 # caf\xc3\xa9\n")
    assert main(["check", str(path), "--t", "3"]) == 2
    assert "line 2: non-ASCII byte 0xc3" in capsys.readouterr().err
    lists_path = tmp_path / "lists.txt"
    lists_path.write_bytes(b"0: 0 1\n1: 1 2 # \xe9\n")
    path = write_graph(tmp_path, ml.complete_graph(2))
    code = main(["color", path, "--strategy", "exact", "--lists", str(lists_path)])
    assert code == 2
    assert "line 2: non-ASCII byte 0xe9" in capsys.readouterr().err


def test_check_budget_exit_code(tmp_path, capsys):
    # Petersen at t=5: nothing reduces and no width certificate applies
    path = write_graph(tmp_path, ml.petersen_graph())
    code = main(["check", path, "--t", "5", "--budget", "4"])
    assert code == 3
    err = capsys.readouterr().err
    assert "budget exhausted: minor search spent its budget of 4 steps on 10 vertices" in err


def test_color_degeneracy_writes_coloring(tmp_path, capsys):
    path = write_graph(tmp_path, ml.petersen_graph())
    out = str(tmp_path / "c.txt")
    code = main(["color", path, "--strategy", "degeneracy", "--list-size", "4",
                 "--out", out])
    assert code == 0
    coloring = formats.parse_coloring((tmp_path / "c.txt").read_text())
    assert ml.verify_list_coloring(ml.petersen_graph(), ml.uniform_lists(10, 4),
                                   coloring)


def test_color_with_list_file(tmp_path):
    G = ml.cycle_graph(4)
    path = write_graph(tmp_path, G)
    lists = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}), frozenset({0, 1})]
    lists_path = tmp_path / "lists.txt"
    lists_path.write_text(formats.lists_to_str(lists))
    out = str(tmp_path / "c.txt")
    code = main(["color", path, "--strategy", "exact", "--lists", str(lists_path),
                 "--out", out])
    assert code == 0
    coloring = formats.parse_coloring((tmp_path / "c.txt").read_text())
    assert ml.verify_list_coloring(G, lists, coloring)


def test_color_rejects_a_list_file_with_an_out_of_range_vertex(tmp_path, capsys):
    path = write_graph(tmp_path, ml.cycle_graph(4))
    lists_path = tmp_path / "lists.txt"
    lists_path.write_text(formats.lists_to_str(ml.uniform_lists(4, 2)) + "9: 0\n")
    code = main(["color", path, "--strategy", "exact", "--lists", str(lists_path)])
    assert code == 2
    assert "line 5: list for vertex 9 is out of range" in capsys.readouterr().err


def test_color_failure_exit_code(tmp_path, capsys):
    path = write_graph(tmp_path, ml.complete_graph(4))
    code = main(["color", path, "--strategy", "exact", "--list-size", "3"])
    assert code == 1


def test_color_minorfree_strategy(tmp_path):
    path = write_graph(tmp_path, ml.petersen_graph())
    out = str(tmp_path / "c.txt")
    code = main(["color", path, "--strategy", "minorfree", "--list-size", "12",
                 "--d", "6", "--seed", "4", "--out", out])
    assert code == 0


def test_color_pipelines_exit_3_when_an_inner_search_runs_out(tmp_path, capsys):
    k44 = write_graph(tmp_path, ml.complete_bipartite(4, 4), "k44.el")
    for budget in ("0", "1"):
        code = main(["color", k44, "--strategy", "minorfree", "--list-size", "12",
                     "--d", "6", "--budget", budget])
        assert code == 3
        assert "budget exhausted:" in capsys.readouterr().err
    # greedy fails on this path with 2-lists, so the exact search decides
    path = write_graph(tmp_path, ml.from_edge_list(4, [(0, 2), (2, 3), (3, 1)]))
    args = ["color", path, "--strategy", "hallratio", "--list-size", "2"]
    assert main(args + ["--budget", "0"]) == 3
    assert "budget exhausted:" in capsys.readouterr().err
    assert main(args + ["--budget", "1000"]) == 0


def test_color_hallratio_broken_promise_is_an_input_error(tmp_path, capsys):
    path = write_graph(tmp_path, ml.complete_bipartite(4, 4))
    code = main(["color", path, "--strategy", "hallratio", "--list-size", "2",
                 "--rho", "1"])
    assert code == 2
    assert "error: graph of 8 vertices has no independent set of 8" in (
        capsys.readouterr().err
    )


def test_color_hallratio_takes_an_infinite_rho_and_rejects_nan(tmp_path):
    path = write_graph(tmp_path, ml.petersen_graph())
    args = ["color", path, "--strategy", "hallratio", "--list-size", "3"]
    assert main(args + ["--rho", "inf"]) == 0
    assert main(args + ["--rho", "nan"]) == 2


def test_color_multipartite_strategy(tmp_path):
    path = write_graph(tmp_path, ml.complete_multipartite([3, 3]))
    out = str(tmp_path / "c.txt")
    code = main(["color", path, "--strategy", "multipartite", "--list-size", "8",
                 "--trials", "32", "--out", out])
    assert code == 0


def test_color_multipartite_rejects_zero_trials(tmp_path, capsys):
    path = write_graph(tmp_path, ml.complete_multipartite([3, 3]))
    code = main(["color", path, "--strategy", "multipartite", "--list-size", "8",
                 "--trials", "0"])
    assert code == 2
    assert "trials must be at least 1" in capsys.readouterr().err


def test_first_fit_parts_match_first_fit_by_id():
    for i in range(40):
        G = ml.gnp_random_graph(1 + i, 0.05 * (i % 10), seed=i)
        assert _first_fit_parts(G) == first_fit_parts_ref(G), i


def test_decompose_command_round_trips(tmp_path):
    G = ml.complete_graph(13)
    path = write_graph(tmp_path, G)
    out = str(tmp_path / "d.txt")
    assert main(["decompose", path, "--k", "2", "--out", out]) == 0
    D = formats.parse_decomposition((tmp_path / "d.txt").read_text())
    assert ml.check_decomposition(G, D) == []


def test_decompose_precondition_exit_code(tmp_path, capsys):
    path = write_graph(tmp_path, ml.path_graph(5))
    assert main(["decompose", path, "--k", "1"]) == 2


def test_bounds_json_output(tmp_path, capsys):
    code = main(["bounds", "--t", "4", "--eps", "0.5", "--a", "40", "--b", "40",
                 "--n-vertices", "80"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert abs(doc["values"]["density_forcing_threshold"] - 15.0714) < 1e-3

    # every optional input reaches eval_bounds under its own keyword: each row
    # gets its own value, so a misrouted option changes the report; 3..14 and
    # 0.30..0.41 lie in every int and every float row's range
    inputs = {name: 3 + i if kind is int else round(0.3 + 0.01 * i, 2)
              for i, (name, kind, *_) in enumerate(BOUND_INPUTS)}
    assert len(set(inputs.values())) == len(inputs)
    argv = ["bounds", "--t", "5"]
    for name, value in inputs.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    report = ml.eval_bounds(5, **inputs)
    assert doc == {"schema": 1, **report.as_dict()}
    assert set(doc["inputs"]) == {"t", *inputs}


def test_bounds_input_error(tmp_path, capsys):
    assert main(["bounds", "--t", "2"]) == 2
    assert main(["bounds", "--t", "5", "--graph-density", "nan"]) == 2
    assert "graph_density must be finite, got nan" in capsys.readouterr().err


def test_experiment_command_writes_reports(tmp_path, capsys):
    out_dir = str(tmp_path / "exp")
    code = main(["experiment", "--suite", "bounds", "--trials", "8", "--seed", "2",
                 "--out-dir", out_dir])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["suite"] == "bounds"
    assert (tmp_path / "exp" / "bounds.csv").exists()
    assert (tmp_path / "exp" / "bounds.json").exists()


def test_experiment_unknown_suite(tmp_path, capsys):
    assert main(["experiment", "--suite", "mystery"]) == 2


def test_experiment_budget_reaches_the_colouring_suites(capsys):
    code = main(["experiment", "--suite", "minorfree", "--trials", "2", "--seed", "5",
                 "--budget", "1"])
    assert code == 3
    assert "budget exhausted:" in capsys.readouterr().err


def test_check_json_format(tmp_path, capsys):
    path = write_graph(tmp_path, ml.petersen_graph())
    code = main(["check", path, "--t", "6", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["hadwiger"] == 5 and doc["k6_minor"] == "NotFound"


def test_check_json_format_lists_a_found_model(tmp_path, capsys):
    G = ml.complete_bipartite(4, 4)
    path = write_graph(tmp_path, G)
    code = main(["check", path, "--t", "3", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["k3_minor"] == "Found"
    model = ml.MinorModel(tuple(frozenset(s) for s in doc["model"]))
    assert len(model.branch_sets) == 3 and ml.validate_model(G, model)


def test_bounds_text_format(capsys):
    code = main(["bounds", "--t", "4", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("density_forcing_threshold=")
