"""Command-line behavior: routing, determinism, exit codes, file formats."""

import argparse
import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from confmix import cli, theory
from confmix.confidence import (CappedLinearGate, ConfidenceSpec, LearnableGate,
                                StepGate, TwoLevelGate, spec_to_document)
from confmix.errors import TrainingDivergedError, as_type
from confmix.experts import ExpertArch, expert_to_document, init_expert
from confmix.graphs import BlindspotInstance, graph_from_document, load_graph
from confmix.theory import SUITES, ClauseResult, SuiteReport, validate_blindspot
from confmix.training import TrainConfig


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
    doc = json.loads((tmp_path / "blindspot.json").read_text())
    instance = BlindspotInstance(
        graph_from_document(doc["graph"]), doc["u"], doc["v"], doc["k"],
        {int(a): b for a, b in doc["node_map"].items()})
    validate_blindspot(instance)
    assert instance.k == 2


@pytest.mark.parametrize("kind, flag", [("blindspot", "--n-per-group"), ("blindspot", "--noise"),
                                        ("specialization", "--k")])
def test_gen_casts_every_option_whatever_the_kind(kind, flag, tmp_path, capsys):
    """An option the kind does not build from is still cast, and refused
    before anything is written."""
    assert run_cli(["gen", "--kind", kind, "--seed", "0", flag, "zz",
                    "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag[2:]} must be ")
    assert not any(tmp_path.iterdir())


def test_gen_features_default_follows_the_kind(tmp_path):
    for kind, features in (("specialization", 8), ("blindspot", 6)):
        assert run_cli(["gen", "--kind", kind, "--seed", "0", "--n-per-group", "20",
                        "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / f"{kind}.json").read_text())
        assert len(doc.get("graph", doc)["features"][0]) == features


def test_missing_seed_exits_2(tmp_path, capsys):
    assert run_cli(["gen", "--kind", "specialization", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: --seed is required (flag or config)\n"


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


TRAIN_OUTPUTS = ("loss.csv", "metrics.csv", "confidence_hist.csv",
                 "weak.json", "strong.json", "confidence.json")


def test_train_byte_identical_runs(tmp_path, small_graph_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(train_args(small_graph_path, a))
    run_cli(train_args(small_graph_path, b))
    for name in TRAIN_OUTPUTS:
        assert (a / name).read_bytes() == (b / name).read_bytes()


# sha256 of each train output in the two cases of
# test_train_bytes_do_not_depend_on_blas_threads, and of predictions.csv
# from `infer --seed 1` on each case's experts. As in the verify
# reports, the last digits follow the platform's log kernel and the float
# order of its BLAS.
TRAIN_SHA256 = {
    "dense": {
        "loss.csv": "ad16ba91982dc1d826f1a3dc145c7755bc6832f061d3f6b19320bb4f369069d1",
        "metrics.csv": "a2b3d014917a9873f7d000f2667f1c2d80f597f20ec293bb0f2c64fba1bce6cc",
        "confidence_hist.csv": "f3c6bb2b1446b30a146f78d1b71b80da798785f5d5012d902822c96df9888893",
        "weak.json": "d0bdbea164e80fcf80f533ffc46a9d7290125cc08f808658619593f55cd8ed8f",
        "strong.json": "d52d79d25b33528e992b823eac56c4c4454686cf2f22d66658f3b0e4b38fb614",
        "confidence.json": "6dde2931538f058f425e20dde23ac1c7e09a5bceca203fac5aa594bc263c2022",
    },
    "sparse": {
        "loss.csv": "266fa6e53b2f3c1bd0bbd30273f0de5bbe4c0ecbcbcdfc87a96064aeced02551",
        "metrics.csv": "fd4434f3cb156b9b4c81cd91716ed76d0d1d9f44543aa072a7de7eebc85bc16e",
        "confidence_hist.csv": "5984e20093030649dfc74733e68f4d3adc759222444699347ae534fc21763b6e",
        "weak.json": "904c83a9bb5a3acfe1c5fb6d2ad7311edc5f843d875a9a363376257bfbbc9c37",
        "strong.json": "9cce9626ab889af8f55d73feed0658b52e62121a17384ab11a9b46b2089c3287",
        "confidence.json": "6dde2931538f058f425e20dde23ac1c7e09a5bceca203fac5aa594bc263c2022",
    },
}
PREDICTIONS_SHA256 = {
    "dense": "946cfd63fa61794ed0cc9224271bd29323347c797bde8081cfd712416c693443",
    "sparse": "9c8794cb7983b39b79c2b23d817a7912150ca6de7c0558d5959ae39e1a91b2aa",
}


def test_train_bytes_do_not_depend_on_blas_threads(tmp_path):
    """A default seed-7 train, on a graph whose operator is dense, and a short
    train on an n=2,000 graph, whose operator is sparse, each write the same
    bytes under 1 and 2 OpenBLAS threads, and the pinned ones. The thread
    count is set in each child process's environment."""
    src = str(Path(cli.__file__).parents[1])
    main = "import sys; from confmix.cli import main; sys.exit(main(sys.argv[1:]))"
    short = ["--rounds", "1", "--max-epochs", "4", "--patience", "5",
             "--pretrain-epochs", "4"]
    for case, gen_flags, train_flags in (("dense", [], []),
                                         ("sparse", ["--n-per-group", "1000"], short)):
        data = tmp_path / case
        assert run_cli(["gen", "--kind", "specialization", "--seed", "7", *gen_flags,
                        "--out", str(data)]) == 0
        outputs = []
        for threads in ("1", "2"):
            out = data / f"threads_{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            subprocess.run([sys.executable, "-c", main, "train", "--seed", "7", "--data",
                            str(data / "specialization.json"), "--out", str(out),
                            *train_flags],
                           env=env, check=True, capture_output=True)
            outputs.append({name: (out / name).read_bytes() for name in TRAIN_OUTPUTS})
        assert outputs[0] == outputs[1], case
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in outputs[0].items()} == TRAIN_SHA256[case], case
        experts = data / "threads_1"
        assert run_cli(["infer", "--data", str(data / "specialization.json"),
                        "--weak", str(experts / "weak.json"),
                        "--strong", str(experts / "strong.json"),
                        "--spec", str(experts / "confidence.json"), "--seed", "1",
                        "--out", str(data / "infer")]) == 0
        predictions = (data / "infer" / "predictions.csv").read_bytes()
        assert hashlib.sha256(predictions).hexdigest() == PREDICTIONS_SHA256[case], case


def test_infer_byte_identical_runs(tmp_path, small_graph_path):
    run_cli(train_args(small_graph_path, tmp_path))
    outputs = []
    for out in ("a", "b"):
        assert run_cli(["infer", "--data", str(small_graph_path),
                        "--weak", str(tmp_path / "weak.json"),
                        "--strong", str(tmp_path / "strong.json"),
                        "--spec", str(tmp_path / "confidence.json"),
                        "--seed", "9", "--out", str(tmp_path / out)]) == 0
        outputs.append((tmp_path / out / "predictions.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, name", [
    (["gen", "--kind", "blindspot", "--k", "2", "--seed", "3"], "blindspot.json"),
    (["verify", "--suite", "theorem", "--seed", "1", "--binary-count", "4",
      "--ternary-count", "1"], "theorem_report.csv"),
], ids=["gen_blindspot", "verify"])
def test_two_runs_byte_identical(argv, name, tmp_path):
    outputs = []
    for out in ("a", "b"):
        run_cli(argv + ["--out", str(tmp_path / out)])
        outputs.append((tmp_path / out / name).read_bytes())
    assert outputs[0] == outputs[1]


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


# sha256 over the numpy-only suites at seed 0 of each report row's case, n,
# alpha, spec, clause and pass columns, tab-joined. The float columns (mu,
# measured, tolerance) are left out: their last digits follow the
# platform's log kernel. Blindspot is left out: its gap follows the float
# order of the aggregation.
REPORT_STRUCTURE_SHA256 = "c913f1b034ccf880877b88f9410515510e193780c2c1c2526e1dd60a170c2f5a"


def test_verify_report_structure_is_pinned(tmp_path):
    digest = hashlib.sha256()
    for suite, extra, code in (
            ("theorem", ["--binary-count", "30", "--ternary-count", "6"], 0),
            ("tightness", [], 0), ("binary", [], 0), ("quasiconvexity", [], 0),
            ("planted_fault", [], 1)):
        out = tmp_path / suite
        assert run_cli(["verify", "--suite", suite, "--seed", "0",
                        "--out", str(out), *extra]) == code
        with open(out / "theorem_report.csv", newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                digest.update(("\t".join(row[i] for i in (0, 1, 2, 4, 5, 8)) + "\n").encode())
    assert digest.hexdigest() == REPORT_STRUCTURE_SHA256


# sha256 of theorem_report.csv for verify runs at seed 0. Both hold the
# scalar suites' rows, whose case, n, alpha and mu cells read 0, 0, "" and
# 0. The float cells' last digits follow the platform's log kernel, and
# the blindspot gap the float order of the aggregation.
REPORT_SHA256 = {
    ("all", "--binary-count", "60", "--ternary-count", "6"):
        "b81027041c1ff11535a1acd6f8d44101c99921ae570a1468685d0d7da77d9b45",
    ("planted_fault",):
        "e8151c0f5627b5efcf35bcd21c9acdc0a0cb9141efa7ea236f065f608f6d9f18",
}


@pytest.mark.parametrize("suite", sorted(REPORT_SHA256))
def test_verify_report_bytes_are_pinned(tmp_path, suite):
    run_cli(["verify", "--suite", *suite, "--seed", "0", "--out", str(tmp_path)])
    digest = hashlib.sha256((tmp_path / "theorem_report.csv").read_bytes()).hexdigest()
    assert digest == REPORT_SHA256[suite]


def test_verify_does_not_import_numpy_ma(tmp_path):
    """The blindspot check's edge lookup is a sorted search: the command
    never loads numpy.ma, which np.isin's np.unique imports."""
    src = str(Path(cli.__file__).parents[1])
    script = ("import sys; from confmix.cli import main; code = main(sys.argv[1:]); "
              "print('numpy.ma' in sys.modules); sys.exit(code)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, "verify", "--suite", "blindspot",
                           "--seed", "0", "--out", str(tmp_path)],
                          env=env, check=True, capture_output=True, text=True)
    assert done.stdout.splitlines()[-1] == "False"


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
            return SuiteReport().add([(name, [ClauseResult.at_most("ran", 0.0, 0.0)])])
        return build

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, fake(name))
    monkeypatch.setattr(theory, "run_theorem_suite",
                        lambda binary, ternary, seed: fake("theorem")(seed))
    assert run_cli(["verify", "--suite", "all", "--seed", "0",
                    "--out", str(tmp_path)]) == 0
    assert sorted(ran) == sorted(set(SUITES) - {"planted_fault"})


def test_verify_casts_both_counts_whatever_the_suite(tmp_path, capsys):
    """The counts size only the theorem suite, yet a malformed one, from a
    flag or a config, is refused before any suite runs; their ranges are
    the theorem suite's to check."""
    assert run_cli(["verify", "--suite", "blindspot", "--seed", "0", "--binary-count", "abc",
                    "--ternary-count", "-5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: binary-count must be an integer, got 'abc'\n"
    config = _write(tmp_path, "run.json", {"ternary-count": 1.5})
    assert run_cli(["verify", "--suite", "quasiconvexity", "--seed", "0", "--config", config,
                    "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: ternary-count must be an integer, got 1.5\n"
    assert not (tmp_path / "theorem_report.csv").exists()


def test_verify_with_no_clause_exits_1(tmp_path, capsys):
    # a report that checks nothing verifies nothing
    code = run_cli(["verify", "--suite", "theorem", "--seed", "0", "--binary-count", "0",
                    "--ternary-count", "0", "--out", str(tmp_path)])
    assert code == 1
    assert (tmp_path / "theorem_report.csv").read_text().splitlines() == [
        "case,n,alpha,mu,spec,clause,measured,tolerance,pass"]
    assert capsys.readouterr().out.endswith(": 0 clauses, 0 failed\n")


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


@pytest.mark.parametrize("flag", ["--seed", "--out"])
def test_cost_takes_no_seed_or_out(flag, tmp_path, small_graph_path, capsys):
    """cost draws nothing and writes no file: its flags are --config,
    --data, --features and --layers. A config's seed and out keys stay
    legal, since other commands read them."""
    with pytest.raises(SystemExit) as exit_:
        run_cli(["cost", "--data", str(small_graph_path), flag, "1"])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    config = _write(tmp_path, "run.json", {"seed": "x", "out": str(tmp_path / "none")})
    assert run_cli(["cost", "--data", str(small_graph_path), "--config", config]) == 0
    assert capsys.readouterr().out.startswith("architecture,macs,")
    assert not (tmp_path / "none").exists()


@pytest.fixture(scope="module")
def checkpoints(small_graph_path):
    """Untrained weak, gcn and gcn_skip checkpoint documents for the small
    graph, their parameters as nested lists, as a checkpoint file reads."""
    graph = load_graph(small_graph_path)

    def document(arch, classes):
        doc = expert_to_document(init_expert(arch, graph.num_features, classes, 0))
        return json.loads(json.dumps(doc, default=np.ndarray.tolist))
    return {kind: document(ExpertArch(kind, layers, 4), graph.num_classes)
            for kind, layers in (("weak", 1), ("gcn", 2), ("gcn_skip", 2))} | {
        "weak_3_classes": document(ExpertArch("weak", 1), 3)}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _skip_from(doc, source):
    """`doc` with each layer's skip_weight copied from `source`, or removed."""
    doc = copy.deepcopy(doc)
    for layer in doc["layers"]:
        layer.pop("skip_weight", None)
        if source:
            layer["skip_weight"] = layer[source]
    return doc


TRAIN = ("train", "--data", "DATA", "--seed", "1")


def _cli(*argv, config=None):
    """argv with DATA standing for the graph path, plus a --config file."""
    return lambda tmp, data, ckpt: [data if a == "DATA" else a for a in argv] + (
        [] if config is None else ["--config", _write(tmp, "run.json", config)])


def _spec(gate, dispersion="variance"):
    doc = {"gate": gate} if dispersion is None else {"dispersion": dispersion, "gate": gate}
    return _cli(*TRAIN, config={"confidence": doc})


def _infer(weak, strong):
    return lambda tmp, data, ckpt: [
        "infer", "--data", data, "--seed", "1",
        "--weak", _write(tmp, "weak.json", weak(ckpt)),
        "--strong", _write(tmp, "strong.json", strong(ckpt))]


def _weak_layer(**entry):
    """The weak checkpoint with its layer's keys replaced by `entry`."""
    def edit(ckpt):
        doc = copy.deepcopy(ckpt["weak"])
        doc["layers"][0].update(entry)
        return doc
    return _infer(edit, lambda c: c["gcn"])


def _scaled(doc, value):
    """`doc` with every weight and bias entry set to `value`."""
    doc = copy.deepcopy(doc)
    for layer in doc["layers"]:
        layer["weight"] = [[value] * len(row) for row in layer["weight"]]
        layer["bias"] = [value] * len(layer["bias"])
    return doc


def _unchained(doc):
    """A two-layer `doc` whose second layer takes one input too many."""
    doc = copy.deepcopy(doc)
    doc["layers"][1]["weight"].append(doc["layers"][1]["weight"][0])
    return doc


GRAPH_COMMANDS = {
    "cost": _cli("cost", "--data", "DATA"),
    "train": _cli(*TRAIN),
    "infer": _infer(lambda c: c["weak"], lambda c: c["gcn"]),
}


def _on_graph(command, edit):
    """`command` run on the small graph's document after `edit` changed it."""
    def argv(tmp, data, ckpt):
        with open(data, encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        return GRAPH_COMMANDS[command](tmp, _write(tmp, "graph.json", doc), ckpt)
    return argv


def _set(*path, value):
    """An edit that sets the entry at `path` of a document to `value`."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


BAD_INPUTS = {
    "bad_graph_document": lambda tmp, data, ckpt: [
        "train", "--data", _write(tmp, "bad.json", "{not json"), "--seed", "1"],
    "spec_missing_dispersion": _spec({"kind": "step", "tau": 0.1}, dispersion=None),
    "spec_missing_gate": _cli(*TRAIN, config={"confidence": {"dispersion": "variance"}}),
    "spec_unknown_gate_kind": _spec({"kind": "sigmoid"}),
    "spec_missing_gate_field": _spec({"kind": "capped_linear"}),
    "spec_non_numeric_field": _spec({"kind": "capped_linear", "slope": "abc"}),
    "spec_non_finite_field": _spec({"kind": "step", "tau": float("inf")}),
    "spec_unknown_gate_field": _spec({"kind": "step", "tau": 0.1, "beta": 0.5}),
    "spec_learnable_bad_weights": _spec({"kind": "learnable", "weights": [[[1.0], [0.0]]]}),
    "config_rounds_not_int": _cli(*TRAIN, config={"rounds": "x"}),
    "config_lr_not_float": _cli(*TRAIN, config={"lr": [0.5]}),
    "config_arch_not_object": _cli(*TRAIN, config={"strong_arch": "gcn"}),
    "config_arch_layers_not_int": _cli(*TRAIN, config={"weak_arch": {"layers": "one"}}),
    "config_seed_not_int": _cli("gen", config={"seed": "seven"}),
    "gen_size_not_int": _cli("gen", "--seed", "1", config={"n-per-group": "x"}),
    "verify_count_not_int": _cli("verify", "--suite", "theorem", "--seed", "1",
                                 config={"binary-count": "x"}),
    "cost_layers_not_int": _cli("cost", "--data", "DATA", config={"layers": "two"}),
    # more layers than nodes: once a MemoryError or a numpy ValueError traceback
    "cost_layers_beyond_nodes": _cli("cost", "--data", "DATA",
                                     "--layers", "99999999999999999999"),
    # refused by the cost model, once only after the table's header was printed
    "cost_features_0": _cli("cost", "--data", "DATA", "--features", "0"),
    # once an OverflowError traceback from the cost model's float
    "cost_features_201_digits": _cli("cost", "--data", "DATA", "--features", "1" + "0" * 200),
    "cost_features_above_ceiling": _cli("cost", "--data", "DATA", "--features", str(2**21 + 1)),
    "infer_roles_swapped": _infer(lambda c: c["gcn"], lambda c: c["weak"]),
    "infer_gcn_skip_without_skip": _infer(lambda c: c["weak"],
                                          lambda c: _skip_from(c["gcn_skip"], None)),
    "infer_gcn_with_skip": _infer(lambda c: c["weak"],
                                  lambda c: _skip_from(c["gcn"], "weight")),
    "infer_overflowing_weights": _infer(lambda c: _scaled(c["weak"], 1e300),
                                        lambda c: _scaled(c["gcn"], 1e300)),
    # two layers of 1e308 overflow the gate's softmax to NaN on every node
    "infer_overflowing_gate": lambda tmp, data, ckpt: _infer(
        lambda c: c["weak"], lambda c: c["gcn"])(tmp, data, ckpt) + [
        "--spec", _write(tmp, "spec.json", {"dispersion": "variance", "gate": {
            "kind": "learnable", "weights": [[[[1e308] * 2] * 2, [1e308] * 2]] * 2}})],
    "infer_output_width": _infer(lambda c: c["weak_3_classes"], lambda c: c["gcn"]),
    "train_data_is_directory": lambda tmp, data, ckpt: [
        "train", "--data", str(tmp), "--seed", "1"],
    "graph_not_utf8": lambda tmp, data, ckpt: [
        "train", "--data", _write(tmp, "bad.json", b"\xff\xfe{}"), "--seed", "1"],
    "checkpoint_not_utf8": _infer(lambda c: b"\xff\xfe{}", lambda c: c["gcn"]),
    "checkpoint_list": _infer(lambda c: [c["weak"]], lambda c: c["gcn"]),
    "checkpoint_without_layers": _infer(lambda c: {"kind": "weak"}, lambda c: c["gcn"]),
    "checkpoint_empty_layers": _infer(lambda c: {"kind": "weak", "layers": []},
                                      lambda c: c["gcn"]),
    "checkpoint_layer_not_object": _infer(lambda c: {"kind": "weak", "layers": [[1.0]]},
                                          lambda c: c["gcn"]),
    "checkpoint_ragged_weight": _weak_layer(weight=[[1.0, 2.0], [3.0]]),
    "checkpoint_string_weight": _weak_layer(weight=[["1.0", 2.0]] * 4),
    "checkpoint_bias_length": _weak_layer(bias=[0.0, 0.0, 0.0]),
    "checkpoint_dims_do_not_chain": _infer(lambda c: c["weak"],
                                           lambda c: _unchained(c["gcn"])),
    "checkpoint_dims_mismatch": _infer(lambda c: {**c["weak"], "dims": [99]},
                                       lambda c: c["gcn"]),
    "config_rounds_fractional": _cli(*TRAIN, config={"rounds": 1.9}),
    "config_rounds_bool": _cli(*TRAIN, config={"rounds": True}),
    # flags and config values share one cast
    "flag_seed_not_int": _cli("gen", "--seed", "x"),
    "flag_lr_not_float": _cli(*TRAIN, "--lr", "abc"),
    "config_lr_bool": _cli(*TRAIN, config={"lr": True}),
    "config_data_not_str": _cli("train", "--seed", "1", config={"data": ["a"]}),
    "config_name_not_str": _cli("gen", "--seed", "1", config={"name": 5}),
    "config_kind_not_str": _cli("gen", "--seed", "1", config={"kind": ["a"]}),
    "config_suite_unknown": _cli("verify", "--seed", "1", config={"suite": "everything"}),
    "config_confidence_empty_list": _cli(*TRAIN, config={"confidence": []}),
    "config_arch_unknown_key": _cli(*TRAIN, config={"weak_arch": {"hiden": 4}}),
    # only a flag is text to parse: in a config a string is not a number
    "config_rounds_string": _cli(*TRAIN, config={"rounds": "1"}),
    "config_arch_hidden_string": _cli(*TRAIN, config={"weak_arch": {"hidden": "4"}}),
    "spec_slope_string": _spec({"kind": "capped_linear", "slope": "2"}),
    "infer_weak_missing": lambda tmp, data, ckpt: ["infer", "--seed", "1", "--data", data],
    # a file that is not JSON is named by its kind
    "checkpoint_not_json": _infer(lambda c: '{"kind": "weak", ', lambda c: c["gcn"]),
    "config_not_json": _cli("gen", "--seed", "1", config='{"seed": 1,, }'),
    # numbers follow one rule everywhere: a string or a bool is not one
    "graph_feature_string": _on_graph("train", _set("features", 0, 0, value="3")),
    "graph_feature_bool": _on_graph("train", _set("features", 0, 0, value=True)),
    # every row empty: a (n, 0) matrix no expert can be sized for
    "graph_features_zero_width": _on_graph(
        "train", lambda doc: doc.update(features=[[] for _ in doc["features"]])),
    "spec_learnable_weight_string": _spec({"kind": "learnable", "weights": [
        [[["3", 0.0], [0.0, 1.0]], [0.0, 0.0]]]}),
    "spec_learnable_weight_bool": _spec({"kind": "learnable", "weights": [
        [[[True, 0.0], [0.0, 1.0]], [0.0, 0.0]]]}),
    "spec_learnable_three_units": _spec({"kind": "learnable", "weights": [
        [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0, 0.0]]]}),
    # seeds and counts are >= 0, hidden widths >= 1
    "seed_negative_gen": _cli("gen", "--seed", "-1"),
    "seed_negative_train": _cli("train", "--data", "DATA", "--seed", "-1"),
    "seed_negative_infer": lambda tmp, data, ckpt: _infer(
        lambda c: c["weak"], lambda c: c["gcn"])(tmp, data, ckpt) + ["--seed", "-1"],
    "seed_negative_verify": _cli("verify", "--suite", "theorem", "--seed", "-1"),
    "gate_seed_negative": _cli(*TRAIN, "--gate-seed", "-3"),
    "config_arch_hidden_zero": _cli(*TRAIN, config={"strong_arch": {"hidden": 0}}),
    "config_arch_hidden_negative": _cli(*TRAIN, config={"strong_arch": {"hidden": -2}}),
    # an expert's depth or width above its ceiling: refused before any weight is drawn
    "config_arch_layers_2_62": _cli(*TRAIN, config={"strong_arch": {"layers": 2**62}}),
    "config_arch_hidden_2_62": _cli(*TRAIN, config={"strong_arch": {"hidden": 2**62}}),
    "config_weak_arch_layers_above_ceiling": _cli(*TRAIN, config={"weak_arch": {"layers": 41}}),
    "config_weak_arch_hidden_above_ceiling": _cli(
        *TRAIN, config={"weak_arch": {"layers": 2, "hidden": 641}}),
    "config_strong_arch_layers_above_ceiling": _cli(
        *TRAIN, config={"strong_arch": {"layers": 41}}),
    "config_strong_arch_hidden_above_ceiling": _cli(
        *TRAIN, config={"strong_arch": {"hidden": 641}}),
    "verify_count_negative": _cli("verify", "--suite", "theorem", "--seed", "1",
                                  "--binary-count", "-5"),
    # counts, sizes and depths above their ceilings: refused as they are read
    "gen_n_per_group_2_62": _cli("gen", "--seed", "1", "--n-per-group", str(2**62)),
    "gen_n_per_group_above_ceiling": _cli("gen", "--seed", "1", "--n-per-group", "100001"),
    "gen_features_2_62": _cli("gen", "--seed", "1", "--features", str(2**62)),
    "gen_features_above_ceiling": _cli("gen", "--seed", "1", "--n-per-group", "1000",
                                       "--features", "1049"),
    "gen_blindspot_k_2_62": _cli("gen", "--kind", "blindspot", "--seed", "1",
                                 "--k", str(2**62)),
    "gen_blindspot_features_2_62": _cli("gen", "--kind", "blindspot", "--seed", "1",
                                        "--features", str(2**62)),
    "gen_blindspot_features_above_ceiling": _cli("gen", "--kind", "blindspot", "--seed", "1",
                                                 "--k", "100", "--features", "1745"),
    "verify_binary_count_2_62": _cli("verify", "--suite", "theorem", "--seed", "1",
                                     "--binary-count", str(2**62)),
    "verify_binary_count_above_ceiling": _cli("verify", "--seed", "1",
                                              "--binary-count", str(10**6 + 1)),
    "verify_ternary_count_above_ceiling": _cli("verify", "--seed", "1",
                                               "--ternary-count", str(10**5 + 1)),
    "gen_blindspot_k_above_ceiling": _cli("gen", "--kind", "blindspot", "--seed", "1",
                                          "--k", "101"),
    "train_rounds_2_62": _cli(*TRAIN, "--rounds", str(2**62)),
    "train_rounds_above_ceiling": _cli(*TRAIN, "--rounds", "101"),
    "train_max_epochs_2_62": _cli(*TRAIN, "--max-epochs", str(2**62)),
    "train_max_epochs_above_ceiling": _cli(*TRAIN, "--max-epochs", "10001"),
    "train_pretrain_epochs_2_62": _cli(*TRAIN, "--pretrain-epochs", str(2**62)),
    "train_pretrain_epochs_above_ceiling": _cli(*TRAIN, "--pretrain-epochs", "2001"),
    "graph_edge_endpoint_overflow": _on_graph("cost", _set("edges", 0, 1, value=1e30)),
    # each of these reads as a valid integer under numpy's int64 cast:
    # edge 0 is (0, 1) and node 1 comes first in the train split
    "graph_label_fractional": _on_graph("train", _set("labels", 0, value=1.5)),
    "graph_edge_endpoint_bool": _on_graph("train", _set("edges", 0, 1, value=True)),
    "graph_split_id_string": _on_graph("train", _set("splits", "train", 0, value="1")),
    "graph_num_classes_fractional": _on_graph("train", _set("num_classes", value=2.5)),
    # more classes than nodes: numpy would refuse the experts' allocations
    "graph_num_classes_1e12": _on_graph("train", _set("num_classes", value=10**12)),
    "graph_num_classes_2_62": _on_graph("train", _set("num_classes", value=2**62)),
    # a node listed twice in one split would count twice in its means
    "graph_split_id_repeated": _on_graph(
        "train", lambda doc: doc["splits"]["train"].append(doc["splits"]["train"][0])),
    # the flag is --max-epochs; no command reads the underscore spelling
    "config_unknown_key": _cli(*TRAIN, config={"max_epochs": 3}),
} | {
    f"graph_{name}_overflow_{command}": _on_graph(command, edit)
    for name, edit in (("label", _set("labels", 0, value=1e30)),
                       ("split_id", _set("splits", "train", value=[1e308])))
    for command in GRAPH_COMMANDS
}


# text the error line must hold, for cases whose line names a file kind or key
NAMED_IN_ERROR = {"checkpoint_not_json": "malformed checkpoint document at byte 17",
                  "config_not_json": "malformed config document at byte 11",
                  "graph_not_utf8": "malformed graph document at byte 0",
                  "config_arch_unknown_key": "'hiden'",
                  "config_rounds_string": "rounds must be an integer, got '1'",
                  "config_arch_hidden_string": "weak_arch.hidden must be an integer, got '4'",
                  "spec_slope_string": "gate slope must be a finite float, got '2'",
                  "graph_split_id_repeated": "appears more than once across the splits",
                  "graph_features_zero_width": "features must have at least one column",
                  "graph_num_classes_1e12": f"num_classes must be in [1, 50], got {10**12}",
                  "config_arch_layers_2_62": f"layers must be in [1, 40], got {2**62}",
                  "config_arch_hidden_2_62": f"hidden must be in [1, 640], got {2**62}",
                  "config_weak_arch_layers_above_ceiling": "layers must be in [1, 40], got 41",
                  "config_weak_arch_hidden_above_ceiling":
                      "hidden must be in [1, 640], got 641",
                  "config_strong_arch_layers_above_ceiling":
                      "layers must be in [1, 40], got 41",
                  "config_strong_arch_hidden_above_ceiling":
                      "hidden must be in [1, 640], got 641",
                  "gen_n_per_group_2_62": f"n_per_group must be in [20, 100000], got {2**62}",
                  "gen_n_per_group_above_ceiling": "must be in [20, 100000], got 100001",
                  "gen_features_2_62": f"f must be in [2, 10485], got {2**62}",
                  "gen_features_above_ceiling": "f must be in [2, 1048], got 1049",
                  "gen_blindspot_k_2_62": f"k must be in [1, 100], got {2**62}",
                  "gen_blindspot_k_above_ceiling": "k must be in [1, 100], got 101",
                  "train_rounds_2_62": f"rounds must be in [1, 100], got {2**62}",
                  "train_rounds_above_ceiling": "rounds must be in [1, 100], got 101",
                  "train_max_epochs_2_62": f"max_epochs must be in [1, 10000], got {2**62}",
                  "train_max_epochs_above_ceiling":
                      "max_epochs must be in [1, 10000], got 10001",
                  "train_pretrain_epochs_2_62":
                      f"pretrain_epochs must be in [0, 2000], got {2**62}",
                  "train_pretrain_epochs_above_ceiling":
                      "pretrain_epochs must be in [0, 2000], got 2001",
                  "verify_binary_count_2_62":
                      f"binary_count must be in [0, {10**6}], got {2**62}",
                  "verify_binary_count_above_ceiling":
                      f"binary_count must be in [0, {10**6}], got {10**6 + 1}",
                  "verify_ternary_count_above_ceiling":
                      f"ternary_count must be in [0, {10**5}], got {10**5 + 1}",
                  "gen_blindspot_features_2_62": f"f must be in [2, 149796], got {2**62}",
                  "gen_blindspot_features_above_ceiling": "f must be in [2, 1744], got 1745",
                  "infer_overflowing_gate": "learnable gate",
                  "cost_layers_beyond_nodes": "num_layers must be in [1, 50]",
                  "cost_features_201_digits": f"f must be in [1, {2**21}], got 1{'0' * 200}",
                  "cost_features_above_ceiling": f"f must be in [1, {2**21}], got {2**21 + 1}",
                  "config_unknown_key": "config key 'max_epochs' is read by no command"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(case, tmp_path, small_graph_path, checkpoints, capsys):
    argv = BAD_INPUTS[case](tmp_path, str(small_graph_path), checkpoints)
    # cost prints its table and writes no file, so it takes no --out
    assert run_cli(argv + ([] if argv[0] == "cost" else ["--out", str(tmp_path)])) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert NAMED_IN_ERROR.get(case, "") in err


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 8.00 GiB")],
                         ids=["bare", "with_message"])
def test_memory_error_exits_2(error, tmp_path, monkeypatch, capsys):
    def load_graph(path):
        raise error
    monkeypatch.setattr(cli, "load_graph", load_graph)
    assert run_cli(["train", "--data", "graph.json", "--seed", "1", "--out", str(tmp_path)]) == 2
    detail = f": {error}" if str(error) else ""
    assert capsys.readouterr() == ("", f"error: the request does not fit in memory{detail}\n")


@pytest.mark.parametrize("key, value", [("out", 5), ("data", 0)])
def test_path_config_value_not_str_exits_2(key, value, tmp_path, monkeypatch, capsys):
    # no --out flag, which would shadow the config's out; and a data of 0
    # must not open file descriptor 0
    monkeypatch.chdir(tmp_path)
    config = _write(tmp_path, "run.json", {"data": "graph.json", key: value})
    assert run_cli(["train", "--seed", "1", "--config", config]) == 2
    assert capsys.readouterr().err == f"error: {key} must be a string, got {value!r}\n"


def test_train_flags_follow_train_config():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices["train"]._actions} - {"help"}
    scalars = {f.name for f in fields(TrainConfig) if f.type in ("int", "float", "str")}
    assert dests == scalars | {"config", "seed", "out", "data"}


def test_flag_and_config_value_give_one_error_line(tmp_path, capsys):
    config = _write(tmp_path, "run.json", {"seed": "x"})
    errors = []
    for argv in (["--seed", "x"], ["--config", config]):
        assert run_cli(["gen", *argv, "--out", str(tmp_path)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: seed must be an integer, got 'x'\n"


def test_integral_float_casts_to_int():
    value = as_type(2.0, int, "rounds")
    assert value == 2 and type(value) is int


def test_training_failure_exits_3(tmp_path, small_graph_path, monkeypatch):
    def explode(config, graph):
        raise TrainingDivergedError("loss diverged at epoch 4")
    monkeypatch.setattr(cli, "train", explode)
    assert run_cli(train_args(small_graph_path, tmp_path)) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("pretrain, extra, epoch", [
    pytest.param("none", [], 1, id="none"),
    pytest.param("strong", [], 1, id="strong"),
    pytest.param("both", [], 1, id="both"),
    # one pretraining step overflows the weights, so a turn's frozen side
    # is non-finite from the start
    pytest.param("strong", ["--pretrain-epochs", "1"], 0, id="strong_one_epoch"),
    pytest.param("both", ["--pretrain-epochs", "1"], 0, id="both_one_epoch"),
    pytest.param("both", ["--pretrain-epochs", "1", "--config", "LEARNABLE"], 0,
                 id="learnable_gate_one_epoch")])
def test_overflowing_training_exits_3(tmp_path, small_graph_path, capsys, pretrain, extra,
                                      epoch):
    # primitive outputs are not scanned; the epoch's finiteness check finds
    # the NaN terms, in pretraining and frozen sides too, and numpy's
    # overflow warnings stay quiet
    learnable = {"confidence": spec_to_document(
        ConfidenceSpec("variance", LearnableGate.create(3, hidden=4)))}
    extra = [_write(tmp_path, "run.json", learnable) if a == "LEARNABLE" else a for a in extra]
    argv = train_args(small_graph_path, tmp_path, ["--lr", "1e300", "--pretrain", pretrain,
                                                   *extra])
    assert run_cli(argv) == 3
    assert capsys.readouterr().err == f"training failed: non-finite values at epoch {epoch}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_the_softmax_absorbs_trains_quietly(tmp_path, small_graph_path, capsys):
    """Steps of 1e308 overflow logits the softmax still maps to finite rows,
    in the strong turn's frozen weak forward too: exit 0, no warning."""
    assert run_cli(train_args(small_graph_path, tmp_path, ["--lr", "1e308"])) == 0
    assert capsys.readouterr().err == ""


def test_uniform_weak_row_under_neg_entropy_trains(tmp_path):
    """An all-zero feature row gives an untrained weak expert an exactly
    uniform row, whose neg_entropy confidence is 0, not -2.2e-16."""
    features = [[float((3 * v + j) % 7) - 3.0 for j in range(3)] for v in range(10)]
    features[3] = [0.0, 0.0, 0.0]
    graph = {"num_nodes": 10, "num_classes": 5, "features": features,
             "labels": [v % 5 for v in range(10)], "edges": [[v, (v + 1) % 10] for v in range(10)],
             "splits": {"train": [0, 1, 2, 3, 4, 5], "val": [6, 7], "test": [8, 9]}}
    config = {"confidence": {"dispersion": "neg_entropy",
                             "gate": {"kind": "capped_linear", "slope": 1}}}
    assert run_cli(["train", "--data", _write(tmp_path, "graph.json", graph), "--seed", "1",
                    "--pretrain", "none", "--rounds", "1", "--max-epochs", "3",
                    "--config", _write(tmp_path, "run.json", config),
                    "--out", str(tmp_path)]) == 0


def test_unknown_suite_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "everything", "--seed", "1",
                 "--out", str(tmp_path)])
    assert exc.value.code == 2


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))

VALID_SPECS = [
    spec_to_document(ConfidenceSpec("variance", StepGate(0.05))),
    spec_to_document(ConfidenceSpec("neg_entropy", TwoLevelGate(0.1, 0.4))),
    spec_to_document(ConfidenceSpec("variance", CappedLinearGate(2.0))),
    spec_to_document(ConfidenceSpec("variance", LearnableGate.create(3, hidden=4))),
]


def _mutate(draw, target, values=JSON_VALUES, keys=st.text(max_size=6)):
    """Drop, retype or add one key of the dict `target`, in place."""
    op = draw(st.sampled_from(["drop", "retype", "add"]))
    if op == "add":
        target[draw(keys)] = draw(values)
    else:
        key = draw(st.sampled_from(sorted(target)))
        if op == "drop":
            del target[key]
        else:
            target[key] = draw(values)


def _assert_exits_0_or_2(argv):
    """The exit code, 0 or 2, and stderr, an `error:` line on 2."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == err.getvalue().startswith("error: ")
    return code, err.getvalue()


@st.composite
def mutated_specs(draw):
    """A valid spec document with one key dropped, retyped or added, at
    the top level or inside the gate."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_SPECS)))
    _mutate(draw, draw(st.sampled_from([doc, doc["gate"]])))
    return doc


@given(doc=mutated_specs())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_spec_exits_0_or_2(doc, tmp_path, small_graph_path, checkpoints):
    argv = _infer(lambda c: c["weak"], lambda c: c["gcn"])(
        tmp_path, str(small_graph_path), checkpoints)
    _assert_exits_0_or_2(argv + ["--spec", _write(tmp_path, "spec.json", doc),
                                 "--out", str(tmp_path)])


@st.composite
def mutated_checkpoints(draw, checkpoints):
    """(role, document): one of `checkpoints` for its role, with one key
    dropped, retyped or added, at the top level or inside one layer."""
    role, kind = draw(st.sampled_from(
        [("weak", "weak"), ("strong", "gcn"), ("strong", "gcn_skip")]))
    doc = copy.deepcopy(checkpoints[kind])
    _mutate(draw, draw(st.sampled_from([doc] + doc["layers"])))
    return role, doc


@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_checkpoint_exits_0_or_2(data, tmp_path, small_graph_path, checkpoints):
    role, doc = data.draw(mutated_checkpoints(checkpoints))
    weak = doc if role == "weak" else checkpoints["weak"]
    strong = doc if role == "strong" else checkpoints["gcn"]
    argv = _infer(lambda c: weak, lambda c: strong)(
        tmp_path, str(small_graph_path), checkpoints)
    _assert_exits_0_or_2(argv + ["--out", str(tmp_path)])


@pytest.fixture(scope="module")
def small_graph_doc(small_graph_path):
    with open(small_graph_path, encoding="utf-8") as fh:
        return json.load(fh)


ENTRY_VALUES = st.one_of(
    JSON_VALUES, st.sampled_from([[0, 1, 2], [[0, 1]], True, 1.5, "3", None, 1e30]))


# small counts around the graph's 50 nodes and 2 classes, and counts no
# allocation could hold
COUNT_VALUES = st.one_of(st.integers(-2, 60), st.sampled_from([10**12, 2**62]))


@st.composite
def mutated_graphs(draw, doc):
    """A valid graph document with one top-level key dropped, retyped or
    added; its node or class count replaced; every feature row cut or
    extended to one new width; or one edge, endpoint, label, split id or
    feature entry replaced."""
    doc = copy.deepcopy(doc)
    target = draw(st.sampled_from(
        ["top", "count", "width", "edges", "edge", "labels", "split", "features"]))
    if target == "top":
        _mutate(draw, doc)
        return doc
    if target == "count":
        doc[draw(st.sampled_from(["num_nodes", "num_classes"]))] = draw(COUNT_VALUES)
        return doc
    if target == "width":
        width = draw(st.integers(0, 9))
        doc["features"] = [(row * 3)[:width] for row in doc["features"]]
        return doc
    entries = {
        "edges": lambda: doc["edges"],
        "edge": lambda: draw(st.sampled_from(doc["edges"])),
        "labels": lambda: doc["labels"],
        "split": lambda: doc["splits"][draw(st.sampled_from(sorted(doc["splits"])))],
        "features": lambda: draw(st.sampled_from(doc["features"])),
    }[target]()
    entries[draw(st.integers(0, len(entries) - 1))] = draw(ENTRY_VALUES)
    return doc


@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_graph_exits_0_or_2(data, tmp_path, small_graph_doc, checkpoints):
    """Every command that reads a graph, train on a budget of one epoch per
    turn and no pretraining steps."""
    graph = _write(tmp_path, "graph.json", data.draw(mutated_graphs(small_graph_doc)))
    budget = {"train": ["--rounds", "1", "--max-epochs", "1", "--pretrain-epochs", "0"]}
    for command, argv in GRAPH_COMMANDS.items():
        # cost writes no file, so it takes no --out
        out = [] if command == "cost" else ["--out", str(tmp_path)]
        _assert_exits_0_or_2(argv(tmp_path, graph, checkpoints) + budget.get(command, []) + out)


# a fixed set, so that no retyped count or width makes a run grow: 2**62 is
# above every ceiling gen, verify and train check on their sizes and counts
CONFIG_VALUES = [None, True, "x", [1], {}, -1, 0, 1.5, 2.0, 2**62]


def _valid_train_config(data):
    """A small train config that holds every key train reads."""
    return {"seed": 3, "data": data, "out": "run", "mode": "in_turn", "rounds": 1,
            "max-epochs": 2, "lr": 0.5, "patience": 2, "pretrain": "weak",
            "pretrain-epochs": 2, "gate-seed": 1,
            "weak_arch": {"kind": "weak", "layers": 1, "hidden": 4},
            "strong_arch": {"kind": "gcn", "layers": 2, "hidden": 4},
            "confidence": VALID_SPECS[0]}


# the config keys some command reads, spelled as its flags: the train
# flags follow TrainConfig, the rest are the other commands' options
READ_KEYS = ({f.name.replace("_", "-") for f in fields(TrainConfig)
              if f.type in ("int", "float", "str")}
             | {"out", "data", "kind", "name", "n-per-group", "features", "noise", "k",
                "weak", "strong", "spec", "suite", "binary-count", "ternary-count", "layers",
                "weak_arch", "strong_arch", "confidence"})
# keys train does not read: other commands' keys, misspellings of train's
# own, and any text
TOP_LEVEL_KEYS = st.one_of(
    st.sampled_from(["suite", "n-per-group", "spec", "k", "binary-count"]),
    st.sampled_from(["max_epochs", "gate_seed", "Rounds", "confidance", "config", ""]),
    st.text(max_size=6))


def test_config_keys_are_what_the_commands_read():
    assert cli._config_keys(cli.build_parser()) == READ_KEYS


@st.composite
def mutated_configs(draw, data):
    """A valid train config with one key dropped, retyped or added, at the
    top level or inside an architecture or the confidence spec."""
    doc = copy.deepcopy(_valid_train_config(data))
    targets = [doc, doc["weak_arch"], doc["strong_arch"], doc["confidence"]]
    target = draw(st.sampled_from(targets))
    keys = TOP_LEVEL_KEYS if target is doc else st.text(max_size=6)
    _mutate(draw, target, st.sampled_from(CONFIG_VALUES), keys)
    return doc


def _check_mutated_config(doc, valid, required, code, err):
    """What a config mutated from `valid` must give beyond exit 0 or 2: an
    unknown key names itself, a key only other commands read changes
    nothing, and a missing `required` value is one error line."""
    unknown = sorted(set(doc) - READ_KEYS)
    if unknown:
        assert err == f"error: config key {unknown[0]!r} is read by no command\n"
    elif set(doc) - set(valid):
        assert code == 0
    if any(doc.get(key) is None for key in required):
        assert code == 2 and len(err.splitlines()) == 1


@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_config_exits_0_or_2(data, tmp_path, small_graph_path, monkeypatch):
    doc = data.draw(mutated_configs(str(small_graph_path)))
    monkeypatch.chdir(tmp_path)  # relative and default --out land here
    code, err = _assert_exits_0_or_2(["train", "--config", _write(tmp_path, "run.json", doc)])
    _check_mutated_config(doc, _valid_train_config(None), ("seed", "data"), code, err)


# small valid configs holding every key their command reads (gen reads
# every gen key, whichever kind it builds): each runs in tens of milliseconds
VALID_OTHER_CONFIGS = [
    ("gen", {"seed": 3, "out": "run", "kind": "specialization", "name": "g.json",
             "n-per-group": 20, "features": 2, "noise": 0.1, "k": 1}),
    ("gen", {"seed": 3, "out": "run", "kind": "blindspot", "name": "g.json", "k": 1,
             "features": 2, "n-per-group": 20, "noise": 0.1}),
    ("verify", {"seed": 3, "out": "run", "suite": "theorem", "binary-count": 20,
                "ternary-count": 20}),
]


@given(data=st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_mutated_gen_and_verify_configs_exit_0_or_2(data, tmp_path, monkeypatch):
    """A valid gen or verify config with one key dropped, retyped (2**62
    among the values) or added."""
    command, valid = data.draw(st.sampled_from(VALID_OTHER_CONFIGS))
    doc = copy.deepcopy(valid)
    _mutate(data.draw, doc, st.sampled_from(CONFIG_VALUES),
            st.one_of(st.sampled_from(sorted(READ_KEYS)), st.text(max_size=6)))
    monkeypatch.chdir(tmp_path)
    code, err = _assert_exits_0_or_2([command, "--config",
                                      _write(tmp_path, "run.json", doc)])
    _check_mutated_config(doc, valid, ("seed",), code, err)
