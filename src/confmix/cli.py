"""Command-line entry point for reproducible runs.

Commands: gen, train, infer, verify, cost. Every command takes
--config PATH (a JSON object of defaults), with explicit flags winning
over config values. Exit codes: 0 success, 1 verification failure,
2 usage or config error, 3 training failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .confidence import default_spec, spec_from_document, spec_to_document
from .errors import (ConfigError, DomainError, GraphFormatError,
                     GraphValidationError, ShapeError, TrainingDivergedError,
                     as_type)
from .experts import ExpertArch, check_role, load_expert, save_expert
from .graphs import (ARCHITECTURES, BlindspotInstance, build_blindspot_graph,
                     cost_estimate, generate_specialization_graph,
                     graph_from_document, graph_to_document, khop_sizes,
                     load_graph, save_graph, validate_blindspot)
from .mixture import infer_expected, infer_stochastic, write_predictions_csv
from .theory import SUITES, SuiteReport, run_theorem_suite
from .training import MODES, PRETRAIN_CHOICES, TrainConfig, predict, train

SUITE_CHOICES = ("all",) + tuple(SUITES)


def _merge(args: argparse.Namespace, config: dict, key: str, default=None,
           cast=None):
    """The flag, else the config value, else `default`, cast by `cast`."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        value = config.get(key, default)
    if value is None or cast is None:
        return value
    return as_type(value, cast, key)


def _load_config(path):
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    return doc


def _require_seed(parser, args, config) -> int:
    seed = _merge(args, config, "seed", cast=int)
    if seed is None:
        parser.error("--seed is required (flag or config)")
    return seed


def _outdir(args, config) -> str:
    out = _merge(args, config, "out", ".")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_gen(parser, args):
    config = _load_config(args.config)
    seed = _require_seed(parser, args, config)
    out = _outdir(args, config)
    kind = _merge(args, config, "kind", "specialization")
    path = os.path.join(out, _merge(args, config, "name", f"{kind}.json"))
    if kind == "specialization":
        graph = generate_specialization_graph(
            _merge(args, config, "n-per-group", 100, int),
            _merge(args, config, "features", 8, int),
            _merge(args, config, "noise", 0.1, float),
            seed)
        save_graph(graph, path)
    elif kind == "blindspot":
        instance = build_blindspot_graph(
            _merge(args, config, "k", 1, int),
            _merge(args, config, "features", 6, int),
            seed)
        doc = {"u": instance.u, "v": instance.v, "k": instance.k,
               "node_map": {str(a): b for a, b in instance.node_map.items()},
               "graph": graph_to_document(instance.graph)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
    else:
        parser.error(f"unknown generator kind {kind!r}")
    print(path)
    return 0


def load_blindspot(path) -> BlindspotInstance:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    instance = BlindspotInstance(
        graph_from_document(doc["graph"]), int(doc["u"]), int(doc["v"]),
        int(doc["k"]), {int(a): int(b) for a, b in doc["node_map"].items()})
    validate_blindspot(instance)
    return instance


def _train_config_from(args, config) -> TrainConfig:
    """TrainConfig from flags and config keys (`max-epochs` for
    max_epochs); unset values keep TrainConfig's defaults."""
    defaults, values = TrainConfig(), {}
    for f in fields(TrainConfig):
        default = getattr(defaults, f.name)
        if isinstance(default, ExpertArch):
            doc = config.get(f.name, {})
            if not isinstance(doc, dict):
                raise ConfigError(f"{f.name} must be a JSON object")
            values[f.name] = replace(default, **{
                a.name: as_type(doc[a.name], type(getattr(default, a.name)),
                                f"{f.name}.{a.name}")
                for a in fields(ExpertArch) if a.name in doc})
        elif isinstance(default, (int, float, str)):
            values[f.name] = _merge(args, config, f.name.replace("_", "-"),
                                    default, type(default))
    spec_doc = _merge(args, config, "confidence")
    if spec_doc:
        values["spec"] = spec_from_document(spec_doc)
    return TrainConfig(**values)


def cmd_train(parser, args):
    config = _load_config(args.config)
    _require_seed(parser, args, config)
    out = _outdir(args, config)
    data = _merge(args, config, "data")
    if data is None:
        parser.error("--data is required (flag or config)")
    graph = load_graph(data)
    train_config = _train_config_from(args, config)
    result = train(train_config, graph)
    save_expert(result.weak, os.path.join(out, "weak.json"))
    save_expert(result.strong, os.path.join(out, "strong.json"))
    with open(os.path.join(out, "confidence.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(spec_to_document(result.spec), separators=(",", ":")) + "\n")
    result.report.write_csvs(out)
    return 0


def cmd_infer(parser, args):
    config = _load_config(args.config)
    seed = _require_seed(parser, args, config)
    out = _outdir(args, config)
    data = _merge(args, config, "data")
    weak_path = _merge(args, config, "weak")
    strong_path = _merge(args, config, "strong")
    if data is None or weak_path is None or strong_path is None:
        parser.error("--data, --weak and --strong are required")
    graph = load_graph(data)
    weak = load_expert(weak_path)
    strong = load_expert(strong_path)
    for model, role in ((weak, "weak"), (strong, "strong")):
        check_role(model.kind, role)
        if model.dims[-1] != graph.num_classes:
            raise ConfigError(f"the {role} expert gives {model.dims[-1]} classes, "
                              f"the graph has {graph.num_classes}")
    spec_path = _merge(args, config, "spec")
    if spec_path:
        with open(spec_path, encoding="utf-8") as fh:
            spec = spec_from_document(json.load(fh))
    else:
        spec = default_spec()
    pw, ps, conf = predict(weak, strong, spec, graph)
    pred_sto, weak_fired = infer_stochastic(pw, ps, conf, seed)
    _, pred_exp = infer_expected(pw, ps, conf)
    nodes = np.arange(graph.num_nodes)
    experts = ["weak" if w else "strong" for w in weak_fired]
    path = os.path.join(out, "predictions.csv")
    write_predictions_csv(
        path,
        np.concatenate([nodes, nodes]),
        experts + ["expected"] * graph.num_nodes,
        np.concatenate([conf, conf]),
        np.concatenate([pred_sto, pred_exp]),
        np.concatenate([graph.labels, graph.labels]),
    )
    print(path)
    return 0


def cmd_verify(parser, args):
    config = _load_config(args.config)
    seed = _require_seed(parser, args, config)
    out = _outdir(args, config)
    suite_name = _merge(args, config, "suite", "all")
    if suite_name not in SUITE_CHOICES:
        parser.error(f"--suite must be one of {SUITE_CHOICES}")
    builders = dict(SUITES, theorem=lambda suite_seed: run_theorem_suite(
        _merge(args, config, "binary-count", 200, int),
        _merge(args, config, "ternary-count", 20, int),
        suite_seed))
    suite = SuiteReport()
    for name, build in builders.items():
        if suite_name == name or (suite_name == "all" and name != "planted_fault"):
            suite.rows += build(seed).rows
    path = os.path.join(out, "theorem_report.csv")
    suite.write_csv(path)
    failed = [row for row in suite.rows if not row[-1]]
    print(f"{path}: {len(suite.rows)} clauses, {len(failed)} failed")
    return 1 if failed else 0


def cmd_cost(parser, args):
    config = _load_config(args.config)
    data = _merge(args, config, "data")
    if data is None:
        parser.error("--data is required (flag or config)")
    graph = load_graph(data)
    f = _merge(args, config, "features", graph.num_features, int)
    layers = _merge(args, config, "layers", 2, int)
    sizes = khop_sizes(graph, layers)
    header = ["architecture", "macs"] + [f"b_{i}" for i in range(layers)]
    print(",".join(header))
    for arch in ARCHITECTURES:
        macs = cost_estimate(graph, f, layers, arch)
        row = [arch, f"{macs:.12g}"] + [f"{b:.12g}" for b in sizes]
        print(",".join(row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confmix",
        description="confidence-gated weak/strong expert mixtures on graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config with per-command defaults")
        p.add_argument("--seed", type=int, help="run seed (required)")
        p.add_argument("--out", help="output directory (default .)")

    p = sub.add_parser("gen", help="generate a synthetic graph document")
    common(p)
    p.add_argument("--kind", choices=("specialization", "blindspot"))
    p.add_argument("--name", help="output file name")
    p.add_argument("--n-per-group", type=int)
    p.add_argument("--features", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--k", type=int, help="blindspot hop radius")

    p = sub.add_parser("train", help="train a mixture on a graph document")
    common(p)
    p.add_argument("--data", help="graph document path")
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--rounds", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--pretrain", choices=PRETRAIN_CHOICES)
    p.add_argument("--pretrain-epochs", type=int)
    p.add_argument("--gate-seed", type=int)

    p = sub.add_parser("infer", help="run both inference modes from checkpoints")
    common(p)
    p.add_argument("--data")
    p.add_argument("--weak", help="weak expert checkpoint")
    p.add_argument("--strong", help="strong expert checkpoint")
    p.add_argument("--spec", help="confidence spec JSON")

    p = sub.add_parser("verify", help="run the theory verification suites")
    common(p)
    p.add_argument("--suite", choices=SUITE_CHOICES)
    p.add_argument("--binary-count", type=int)
    p.add_argument("--ternary-count", type=int)

    p = sub.add_parser("cost", help="inference cost table for a graph")
    common(p)
    p.add_argument("--data")
    p.add_argument("--features", type=int)
    p.add_argument("--layers", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "train": cmd_train, "infer": cmd_infer,
                "verify": cmd_verify, "cost": cmd_cost}
    try:
        return handlers[args.command](parser, args)
    except TrainingDivergedError as e:
        print(f"training failed: {e}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError, ShapeError, GraphFormatError,
            GraphValidationError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
