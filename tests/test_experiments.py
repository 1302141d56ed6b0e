import json

import pytest

import minorlab as ml
from minorlab import ExperimentConfig, run_suite
from minorlab.experiments import _dense_host


def test_unknown_suite_rejected():
    with pytest.raises(ml.InputError, match="unknown suite"):
        ExperimentConfig(suite="nope")


def test_config_validation():
    with pytest.raises(ml.InputError):
        ExperimentConfig(suite="bounds", trials=0)
    with pytest.raises(ml.InputError):
        ExperimentConfig(suite="bounds", workers=0)


def test_rerun_is_byte_identical():
    for suite, trials, max_n in [
        ("bounds", 8, None),
        ("alon", 4, None),
        ("minorfree", 3, None),
        ("dense-model", 3, 60),
        ("hallratio", 2, 12),
        ("contraction-round", 2, 40),
    ]:
        config = ExperimentConfig(suite=suite, trials=trials, seed=21, max_n=max_n)
        a = run_suite(config)
        b = run_suite(config)
        assert a.json_text() == b.json_text(), suite
        assert a.csv_text() == b.csv_text(), suite


def test_serial_matches_parallel():
    base = dict(suite="alon", trials=6, seed=13)
    serial = run_suite(ExperimentConfig(**base, workers=1))
    parallel = run_suite(ExperimentConfig(**base, workers=3))
    assert serial.json_text() == parallel.json_text()
    assert serial.csv_text() == parallel.csv_text()


def test_report_files_and_schema(tmp_path):
    config = ExperimentConfig(suite="bounds", trials=8, seed=0)
    report = run_suite(config, out_dir=tmp_path)
    doc = json.loads((tmp_path / "bounds.json").read_text())
    assert doc["schema"] == 1
    assert doc["suite"] == "bounds"
    assert doc["trials"] == 8
    csv_lines = (tmp_path / "bounds.csv").read_text().splitlines()
    assert csv_lines[0].startswith("trial,seed,t,")
    assert len(csv_lines) == 9
    assert report.summary["records"] == 8


def test_per_trial_seeds_recorded():
    for suite in ml.SUITES:
        report = run_suite(ExperimentConfig(suite=suite, trials=3, seed=5, max_n=40))
        assert report.columns[:2] == ("trial", "seed"), suite
        assert [rec["trial"] for rec in report.records] == [0, 1, 2], suite
        seeds = [rec["seed"] for rec in report.records]
        assert seeds == [ml.derive_seed(5, i) for i in range(3)], suite


def test_every_suite_runs_small():
    for suite in ml.SUITES:
        config = ExperimentConfig(suite=suite, trials=2, seed=7, max_n=40)
        report = run_suite(config)
        assert len(report.records) == 2
        assert report.columns[0] == "trial"


def _report_texts(suites, sizes, seeds):
    """The JSON and CSV text of each suite's 4-trial report, named
    `<suite><tag>-seed<seed>.<ext>` for each (max_n, tag) of `sizes`."""
    texts = {}
    for suite in suites:
        for max_n, tag in sizes:
            for seed in seeds:
                report = run_suite(ExperimentConfig(suite=suite, trials=4, seed=seed, max_n=max_n))
                name = f"{suite}{tag}-seed{seed}"
                texts[f"{name}.json"] = report.json_text()
                texts[f"{name}.csv"] = report.csv_text()
    return texts


SIZES = ((60, "-n60"), (None, "-default"))


def test_colouring_suite_reports_match_their_golden_digests(golden_digests):
    # the colourings behind them must not change by a byte
    texts = _report_texts(("hallratio", "minorfree"), ((60, ""),), range(4))
    golden_digests("colour_suites.sha256", texts)


def test_connectivity_suite_reports_match_their_golden_digests(golden_digests):
    # pinned before the growth test replaced pair coverage: the verdicts and
    # pieces behind them must not change by a byte
    texts = _report_texts(("decompose", "extremal-connectivity"), SIZES, range(3))
    golden_digests("connectivity_suites.sha256", texts)


def test_graph_suite_reports_match_their_golden_digests(golden_digests):
    # pinned while the constructors behind them still listed every edge:
    # writing their rows directly must not change a byte
    texts = _report_texts(("dense-model", "contraction-round", "alon"), SIZES, range(3))
    golden_digests("graph_suites.sha256", texts)


def test_extremal_bipartite_suite_reports_match_their_golden_digests(golden_digests):
    # pinned while every block drew one random() per vertex pair: reading
    # the same draws in bulk must not change a byte
    texts = _report_texts(("extremal-bipartite",), SIZES, range(3))
    golden_digests("extremal_suites.sha256", texts)


def test_dense_model_builds_its_host_graph_once_per_call():
    _dense_host.cache_clear()
    base = dict(suite="dense-model", trials=4, seed=3, max_n=60)
    serial = run_suite(ExperimentConfig(**base))
    info = _dense_host.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    # each worker builds its own copy; the report must not tell them apart
    _dense_host.cache_clear()
    pooled = run_suite(ExperimentConfig(**base, workers=2))
    assert pooled.json_text() == serial.json_text()
    assert pooled.csv_text() == serial.csv_text()


def test_summary_gives_the_rate_of_every_true_false_column():
    rates = {
        "dense-model": ["success", "validated"],
        "contraction-round": ["complete"],
        "decompose": ["valid"],
        "alon": ["success", "valid"],
        "hallratio": ["success", "valid"],
        "minorfree": ["success", "valid"],
        "extremal-bipartite": ["minor_free"],
        "extremal-connectivity": ["kappa_ok", "small_kappa_ok", "small_minor_free"],
        "bounds": [],
    }
    assert set(rates) == set(ml.SUITES)
    for suite, keys in rates.items():
        report = run_suite(ExperimentConfig(suite=suite, trials=3, seed=2, max_n=40))
        assert list(report.summary) == ["records"] + [f"{k}_rate" for k in keys], suite
        for k in keys:
            hits = sum(1 for rec in report.records if rec[k] is True)
            assert report.summary[f"{k}_rate"] == hits / 3, (suite, k)


def test_budget_reaches_every_colouring_search(monkeypatch):
    # the suite hands its budget to the minor-free colouring; the Petersen
    # graph peels into single vertices, which take their least colour with
    # no search once the budget covers the search's 2 steps
    colour = ml.experiments.minor_free_list_color
    budgets = []

    def recorded(*args, **kwargs):
        budgets.append(kwargs["budget"])
        return colour(*args, **kwargs)

    monkeypatch.setattr(ml.experiments, "minor_free_list_color", recorded)
    run_suite(ExperimentConfig(suite="minorfree", trials=4, seed=5, budget=50))
    assert budgets == [50] * 4
    # below 2 steps a one-vertex layer still runs the exact search, which runs out
    with pytest.raises(ml.BudgetExceeded):
        run_suite(ExperimentConfig(suite="minorfree", trials=2, seed=5, budget=1))
    # the colouring hands the budget on to the exact search of a layer of
    # several vertices: K8 has every degree above d = 6, so it is one piece
    exact = ml.coloring._exact_list_color
    searched = []

    def recorded_exact(G, lists, live, budget):
        searched.append((live.bit_count(), budget))
        return exact(G, lists, live, budget)

    monkeypatch.setattr(ml.coloring, "_exact_list_color", recorded_exact)
    G, lists = ml.complete_graph(8), ml.uniform_lists(8, 12)
    assert ml.minor_free_list_color(G, lists, d=6, budget=50) is not None
    assert searched == [(8, 50)]
    with pytest.raises(ml.BudgetExceeded):
        ml.minor_free_list_color(G, lists, d=6, budget=5)
