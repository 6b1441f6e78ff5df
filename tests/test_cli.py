"""Command-line behavior: routing, determinism, exit codes, file formats."""

import argparse
import json

import pytest

from confmix import cli
from confmix.errors import TrainingDivergedError
from confmix.graphs import load_graph
from confmix.theory import SUITES, SuiteReport


def run_cli(argv):
    return cli.main(argv)


def test_gen_specialization_validates(tmp_path):
    out = str(tmp_path)
    assert run_cli(["gen", "--kind", "specialization", "--seed", "7",
                    "--n-per-group", "30", "--out", out]) == 0
    graph = load_graph(tmp_path / "specialization.json")
    assert graph.num_nodes == 60


def test_gen_blindspot_roundtrip(tmp_path):
    out = str(tmp_path)
    assert run_cli(["gen", "--kind", "blindspot", "--k", "2", "--seed", "3",
                    "--out", out]) == 0
    instance = cli.load_blindspot(tmp_path / "blindspot.json")
    assert instance.k == 2


def test_missing_seed_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gen", "--kind", "specialization", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_gen_byte_identical_under_same_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run_cli(["gen", "--kind", "specialization", "--seed", "4",
                 "--n-per-group", "22", "--out", str(out)])
    assert (a / "specialization.json").read_bytes() == \
        (b / "specialization.json").read_bytes()


def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"seed": 5, "kind": "specialization",
                                  "n-per-group": 25, "out": str(tmp_path)}))
    assert run_cli(["gen", "--config", str(config)]) == 0
    assert load_graph(tmp_path / "specialization.json").num_nodes == 50
    # flag overrides the config's group size
    assert run_cli(["gen", "--config", str(config), "--n-per-group", "40"]) == 0
    assert load_graph(tmp_path / "specialization.json").num_nodes == 80


@pytest.fixture(scope="module")
def small_graph_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    run_cli(["gen", "--kind", "specialization", "--seed", "11",
             "--n-per-group", "25", "--features", "4", "--out", str(tmp)])
    return tmp / "specialization.json"


def train_args(data, out, extra=()):
    return ["train", "--data", str(data), "--seed", "3", "--rounds", "2",
            "--max-epochs", "40", "--patience", "8", "--out", str(out),
            *extra]


def test_train_writes_reports_and_checkpoints(tmp_path, small_graph_path):
    assert run_cli(train_args(small_graph_path, tmp_path)) == 0
    metrics = (tmp_path / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "split,mode,accuracy"
    assert any(line.startswith("test,") for line in metrics)
    for name in ("weak.json", "strong.json", "confidence.json", "loss.csv",
                 "confidence_hist.csv"):
        assert (tmp_path / name).exists()


def test_train_byte_identical_runs(tmp_path, small_graph_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(train_args(small_graph_path, a))
    run_cli(train_args(small_graph_path, b))
    for name in ("loss.csv", "metrics.csv", "confidence_hist.csv",
                 "weak.json", "strong.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_blend_mode_single_phase(tmp_path, small_graph_path):
    assert run_cli(train_args(small_graph_path, tmp_path,
                              ["--mode", "blend"])) == 0
    rows = (tmp_path / "loss.csv").read_text().splitlines()[1:]
    turns = {line.split(",")[1] for line in rows}
    assert turns == {"blend"}


def test_infer_writes_predictions(tmp_path, small_graph_path):
    run_cli(train_args(small_graph_path, tmp_path))
    assert run_cli(["infer", "--data", str(small_graph_path),
                    "--weak", str(tmp_path / "weak.json"),
                    "--strong", str(tmp_path / "strong.json"),
                    "--spec", str(tmp_path / "confidence.json"),
                    "--seed", "9", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "predictions.csv").read_text().splitlines()
    assert lines[0] == "node_id,expert,confidence,pred_class,true_class"
    experts = {line.split(",")[1] for line in lines[1:]}
    assert experts <= {"weak", "strong", "expected"}
    assert "expected" in experts


def test_verify_small_suite_green(tmp_path):
    code = run_cli(["verify", "--suite", "theorem", "--seed", "1",
                    "--binary-count", "12", "--ternary-count", "3",
                    "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "theorem_report.csv").read_text().splitlines()
    assert report[0] == "case,n,alpha,mu,spec,clause,measured,tolerance,pass"
    assert all(line.endswith(",1") for line in report[1:])


def test_verify_planted_fault_exits_1(tmp_path):
    code = run_cli(["verify", "--suite", "planted_fault", "--seed", "1",
                    "--out", str(tmp_path)])
    assert code == 1
    report = (tmp_path / "theorem_report.csv").read_text().splitlines()
    assert any(line.endswith(",0") for line in report[1:])


def test_suite_choices_follow_registry():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert set(suite.choices) == set(SUITES) | {"all"}


def test_verify_all_runs_every_suite_but_planted_fault(tmp_path, monkeypatch):
    ran = []

    def fake(name):
        def build(seed):
            ran.append(name)
            return SuiteReport()
        return build

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, fake(name))
    monkeypatch.setattr(cli, "run_theorem_suite",
                        lambda binary, ternary, seed: fake("theorem")(seed))
    assert run_cli(["verify", "--suite", "all", "--seed", "0",
                    "--out", str(tmp_path)]) == 0
    assert sorted(ran) == sorted(set(SUITES) - {"planted_fault"})


@pytest.mark.parametrize("seed", [13, 15])
def test_verify_binary_seeds_near_unit_branch_inverse(tmp_path, seed):
    # these seeds draw level sets with p within 1e-8 of 1
    assert run_cli(["verify", "--suite", "binary", "--seed", str(seed),
                    "--out", str(tmp_path)]) == 0


def test_verify_blindspot_routing(tmp_path):
    code = run_cli(["verify", "--suite", "blindspot", "--seed", "2",
                    "--out", str(tmp_path)])
    assert code == 0
    body = (tmp_path / "theorem_report.csv").read_text()
    assert "conv_output_gap" in body
    assert "minimizer_in_strict_sublevel" not in body


def test_cost_table(tmp_path, small_graph_path, capsys):
    assert run_cli(["cost", "--data", str(small_graph_path),
                    "--features", "16", "--layers", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "architecture,macs,b_0,b_1"
    table = {line.split(",")[0]: line.split(",")[1:] for line in out[1:]}
    assert float(table["gcn_skip"][0]) == 2 * float(table["gcn"][0])
    assert float(table["weak"][0]) == 16 * 16 * 2


def test_cost_edgeless_equality(tmp_path, capsys):
    doc = {"num_nodes": 3, "num_classes": 2,
           "features": [[0.0], [1.0], [2.0]], "labels": [0, 1, 0],
           "edges": [], "splits": {"train": [0], "val": [1], "test": [2]}}
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(doc))
    run_cli(["cost", "--data", str(path), "--features", "8", "--layers", "3"])
    out = capsys.readouterr().out.splitlines()
    table = {line.split(",")[0]: line.split(",")[1] for line in out[1:]}
    assert table["gcn"] == table["weak"]


def test_bad_graph_document_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli(["train", "--data", str(path), "--seed", "1",
                    "--out", str(tmp_path)]) == 2


def test_training_failure_exits_3(tmp_path, small_graph_path, monkeypatch):
    def explode(config, graph):
        raise TrainingDivergedError("loss diverged at epoch 4")
    monkeypatch.setattr(cli, "train", explode)
    assert run_cli(train_args(small_graph_path, tmp_path)) == 3


def test_unknown_suite_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "everything", "--seed", "1",
                 "--out", str(tmp_path)])
    assert exc.value.code == 2
