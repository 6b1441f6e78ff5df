"""Command-line entry point for reproducible runs.

Commands: gen, train, infer, verify, cost. Every command takes
--config PATH (a JSON object of defaults), with explicit flags winning
over config values. Exit codes: 0 success, 1 verification failure,
2 usage, config or data error (a request that does not fit in memory
among them), 3 training failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .confidence import default_spec, spec_from_document, spec_to_document
from .documents import read_json, write_json
from .errors import (ConfigError, DomainError, GraphFormatError,
                     GraphValidationError, ShapeError, TrainingDivergedError,
                     as_type, check_range)
from .experts import ExpertArch, check_role, load_expert, save_expert
from .graphs import (ARCHITECTURES, build_blindspot_graph, cost_estimate,
                     generate_specialization_graph, graph_to_document, khop_sizes,
                     load_graph, save_graph)
from .mixture import infer_expected, infer_stochastic, write_predictions_csv
from .theory import SUITE_CHOICES, run_suites
from .training import MODES, PRETRAIN_CHOICES, TrainConfig, predict, train


def _merge(args: argparse.Namespace, config: dict, key: str, default=None,
           cast=None):
    """The flag, else the config value (null is unset), else `default`,
    cast by `as_type` to `cast`, else to the type of `default`, else to
    `str`. Only the flag is text to parse."""
    if cast is None:
        cast = str if default is None else type(default)
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return as_type(flag, cast, key, text=True)
    for value in (config.get(key), default):
        if value is not None:
            return as_type(value, cast, key)
    return None


def _config_keys(parser: argparse.ArgumentParser) -> set:
    """Every command's option names and train's config-only objects: one
    config may serve every command, so a key another command reads belongs."""
    keys = {dest.replace("_", "-") for command in _HANDLERS
            for dest in vars(parser.parse_args([command]))}
    return keys - {"command", "config"} | {"weak_arch", "strong_arch", "confidence"}


def _load_config(path, known: set):
    doc = {} if path is None else read_json(path, "config", ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"config key {unknown[0]!r} is read by no command")
    return doc


def _required(args, config, key: str, cast=str):
    value = _merge(args, config, key, cast=cast)
    if value is None:
        raise ConfigError(f"--{key} is required (flag or config)")
    return value


def _require_seed(args, config) -> int:
    seed = _required(args, config, "seed", int)
    check_range("seed", seed, 0)
    return seed


def _outdir(args, config) -> str:
    out = _merge(args, config, "out", ".")
    os.makedirs(out, exist_ok=True)
    return out


def cmd_gen(args, config):
    seed = _require_seed(args, config)
    out = _outdir(args, config)
    kind = _merge(args, config, "kind", "specialization")
    path = os.path.join(out, _merge(args, config, "name", f"{kind}.json"))
    # every option is cast before the kind picks the ones it builds from
    n_per_group = _merge(args, config, "n-per-group", 100)
    noise, k = _merge(args, config, "noise", 0.1), _merge(args, config, "k", 1)
    features = _merge(args, config, "features", 6 if kind == "blindspot" else 8)
    if kind == "specialization":
        save_graph(generate_specialization_graph(n_per_group, features, noise, seed), path)
    elif kind == "blindspot":
        instance = build_blindspot_graph(k, features, seed)
        doc = {"u": instance.u, "v": instance.v, "k": instance.k,
               "node_map": {str(a): b for a, b in instance.node_map.items()},
               "graph": graph_to_document(instance.graph)}
        write_json(path, doc, sort_keys=True)
    else:
        raise ConfigError(f"kind must be specialization or blindspot, got {kind!r}")
    print(path)
    return 0


def _scalar_fields() -> dict:
    """TrainConfig's int, float and str fields and their defaults: the
    train flags, and the config keys besides the architectures and spec."""
    return {name: default for name, default in vars(TrainConfig()).items()
            if isinstance(default, (int, float, str))}


def _train_config_from(args, config) -> TrainConfig:
    """TrainConfig from flags and config keys (`max-epochs` for
    max_epochs); unset values keep TrainConfig's defaults."""
    values = {name: _merge(args, config, name.replace("_", "-"), default)
              for name, default in _scalar_fields().items()}
    for name, default in vars(TrainConfig()).items():
        if isinstance(default, ExpertArch):
            doc = config.get(name, {})
            if not isinstance(doc, dict) or not set(doc) <= set(vars(default)):
                raise ConfigError(f"{name} must be a JSON object with keys in "
                                  f"{list(vars(default))}, got {doc!r}")
            values[name] = replace(default, **{
                key: as_type(value, type(getattr(default, key)), f"{name}.{key}")
                for key, value in doc.items()})
    if config.get("confidence") is not None:
        values["spec"] = spec_from_document(config["confidence"])
    return TrainConfig(**values)


def cmd_train(args, config):
    _require_seed(args, config)
    out = _outdir(args, config)
    graph = load_graph(_required(args, config, "data"))
    train_config = _train_config_from(args, config)
    result = train(train_config, graph)
    save_expert(result.weak, os.path.join(out, "weak.json"))
    save_expert(result.strong, os.path.join(out, "strong.json"))
    write_json(os.path.join(out, "confidence.json"), spec_to_document(result.spec),
               sort_keys=False)
    result.report.write_csvs(out)
    return 0


def cmd_infer(args, config):
    seed = _require_seed(args, config)
    out = _outdir(args, config)
    graph = load_graph(_required(args, config, "data"))
    weak = load_expert(_required(args, config, "weak"))
    strong = load_expert(_required(args, config, "strong"))
    for model, role in ((weak, "weak"), (strong, "strong")):
        check_role(model.kind, role)
        if model.dims[-1] != graph.num_classes:
            raise ConfigError(f"the {role} expert gives {model.dims[-1]} classes, "
                              f"the graph has {graph.num_classes}")
    spec_path = _merge(args, config, "spec")
    spec = (spec_from_document(read_json(spec_path, "confidence spec", ConfigError))
            if spec_path else default_spec())
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


def cmd_verify(args, config):
    seed = _require_seed(args, config)
    out = _outdir(args, config)
    # every count is cast before a suite runs, whichever suites run
    suite = run_suites(_merge(args, config, "suite", "all"), seed,
                       _merge(args, config, "binary-count", 200),
                       _merge(args, config, "ternary-count", 20))
    path = os.path.join(out, "theorem_report.csv")
    suite.write_csv(path)
    clauses, failed = suite.tally()
    print(f"{path}: {clauses} clauses, {failed} failed")
    # a report that checks no clause verifies nothing
    return 1 if failed or not clauses else 0


def cmd_cost(args, config):
    graph = load_graph(_required(args, config, "data"))
    f = _merge(args, config, "features", graph.num_features)
    layers = _merge(args, config, "layers", 2)
    sizes = khop_sizes(graph, layers)
    # built whole before it is printed, so a refused request prints nothing
    rows = [["architecture", "macs"] + [f"b_{i}" for i in range(layers)]]
    for arch in ARCHITECTURES:
        macs = cost_estimate(graph, f, layers, arch)
        rows.append([arch, f"{macs:.12g}"] + [f"{b:.12g}" for b in sizes])
    print("\n".join(",".join(row) for row in rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confmix",
        description="confidence-gated weak/strong expert mixtures on graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--config", help="JSON config with per-command defaults")
        if seeded:
            p.add_argument("--seed", help="run seed (required)")
            p.add_argument("--out", help="output directory (default .)")

    p = sub.add_parser("gen", help="generate a synthetic graph document")
    common(p)
    p.add_argument("--kind", choices=("specialization", "blindspot"))
    p.add_argument("--name", help="output file name")
    for name in ("--n-per-group", "--features", "--noise"):
        p.add_argument(name)
    p.add_argument("--k", help="blindspot hop radius")

    p = sub.add_parser("train", help="train a mixture on a graph document")
    common(p)
    p.add_argument("--data", help="graph document path")
    choices = {"mode": MODES, "pretrain": PRETRAIN_CHOICES}
    for name in _scalar_fields():
        if name != "seed":
            p.add_argument("--" + name.replace("_", "-"), choices=choices.get(name))

    p = sub.add_parser("infer", help="run both inference modes from checkpoints")
    common(p)
    p.add_argument("--data")
    p.add_argument("--weak", help="weak expert checkpoint")
    p.add_argument("--strong", help="strong expert checkpoint")
    p.add_argument("--spec", help="confidence spec JSON")

    p = sub.add_parser("verify", help="run the theory verification suites")
    common(p)
    p.add_argument("--suite", choices=SUITE_CHOICES)
    p.add_argument("--binary-count")
    p.add_argument("--ternary-count")

    p = sub.add_parser("cost", help="inference cost table for a graph")
    common(p, seeded=False)
    p.add_argument("--data")
    p.add_argument("--features")
    p.add_argument("--layers")

    return parser


_HANDLERS = {"gen": cmd_gen, "train": cmd_train, "infer": cmd_infer,
            "verify": cmd_verify, "cost": cmd_cost}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, _load_config(args.config, _config_keys(parser)))
    except TrainingDivergedError as e:
        print(f"training failed: {e}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError, ShapeError, GraphFormatError,
            GraphValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        # numpy's names the array it could not allocate; a bare one, as
        # Python raises when a document outgrows memory, has no message
        detail = f": {e}" if str(e) else ""
        print(f"error: the request does not fit in memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
