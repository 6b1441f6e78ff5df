"""Weak (feature-only) and strong (graph convolution) expert models.

Both emit per-node class probability rows: relu between layers, rowwise
softmax after the last. The convolution uses the symmetric-normalized
closed neighborhood (self term from degrees, no materialized self
edges); the skip variant adds an extra per-layer self transform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .graphs import ARCHITECTURES, Graph, conv_coefficients

ROLES = {"weak": ("weak",), "strong": ("gcn", "gcn_skip")}


@dataclass
class Layer:
    weight: T.Tensor                 # (f_in, f_out)
    bias: T.Tensor                   # (f_out,)
    skip_weight: T.Tensor | None = None


@dataclass
class ExpertModel:
    kind: str
    layers: list

    @property
    def dims(self):
        out = [self.layers[0].weight.shape[0]]
        out += [layer.weight.shape[1] for layer in self.layers]
        return out

    def parameters(self):
        for layer in self.layers:
            yield layer.weight
            yield layer.bias
            if layer.skip_weight is not None:
                yield layer.skip_weight


@dataclass(frozen=True)
class ExpertArch:
    """Architecture descriptor: `layers` counts weight layers."""
    kind: str = "weak"
    layers: int = 2
    hidden: int = 32

    def dims(self, num_features: int, num_classes: int):
        if self.layers < 1:
            raise ConfigError(f"layers must be >= 1, got {self.layers}")
        return [num_features] + [self.hidden] * (self.layers - 1) + [num_classes]


def init_expert(arch: ExpertArch, num_features: int, num_classes: int,
                seed: int) -> ExpertModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero bias."""
    if arch.kind not in ARCHITECTURES:
        raise ConfigError(f"kind must be one of {ARCHITECTURES}, got {arch.kind!r}")
    rng = np.random.default_rng(seed)
    dims = arch.dims(num_features, num_classes)
    layers = []
    for f_in, f_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(f_in)
        weight = T.Tensor(rng.uniform(-bound, bound, (f_in, f_out)), requires_grad=True)
        bias = T.Tensor(np.zeros(f_out), requires_grad=True)
        skip = None
        if arch.kind == "gcn_skip":
            skip = T.Tensor(rng.uniform(-bound, bound, (f_in, f_out)), requires_grad=True)
        layers.append(Layer(weight, bias, skip))
    return ExpertModel(arch.kind, layers)


def _input(model: ExpertModel, features) -> T.Tensor:
    x = features if isinstance(features, T.Tensor) else T.Tensor(features)
    width, expected = x.shape[1], model.layers[0].weight.shape[0]
    if width != expected:
        raise ShapeError(f"feature width {width} does not match first layer {expected}")
    return x


def _layers(model: ExpertModel, h: T.Tensor, coeff: T.Tensor | None = None) -> T.Tensor:
    """relu(agg(h) @ W + b [+ h @ W_skip]) per layer, softmax after the
    last; agg(h) is coeff @ h, or h itself without coefficients."""
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        z = T.matmul(h if coeff is None else T.matmul(coeff, h), layer.weight) + layer.bias
        if layer.skip_weight is not None:
            z = z + T.matmul(h, layer.skip_weight)
        h = T.softmax_rows(z) if i == last else T.relu(z)
    return h


def weak_forward(model: ExpertModel, features) -> T.Tensor:
    """Probability rows from self-features only; row v sees only x_v."""
    return _layers(model, _input(model, features))


def gcn_forward(model: ExpertModel, graph: Graph, features,
                coefficients: np.ndarray | None = None) -> T.Tensor:
    """Probability rows from the L-hop neighborhood of each node.

    Layer op: softmax/relu(coeff @ h @ W + b), with coeff the
    symmetric-normalized closed-neighborhood matrix. On an edgeless
    graph coeff is the identity and this equals weak_forward.
    gcn_skip adds h @ W_skip on the pre-aggregation activations.
    """
    x = _input(model, features)
    if x.shape[0] != graph.num_nodes:
        raise ShapeError(f"features have {x.shape[0]} rows for {graph.num_nodes} nodes")
    coeff = T.Tensor(conv_coefficients(graph) if coefficients is None else coefficients)
    return _layers(model, x, coeff)


def forward(model: ExpertModel, graph: Graph, features=None,
            coefficients=None) -> T.Tensor:
    """Dispatch on model.kind; features default to the graph's."""
    feats = graph.features if features is None else features
    if model.kind == "weak":
        return weak_forward(model, feats)
    return gcn_forward(model, graph, feats, coefficients)


# ---- checkpointing ----

def expert_to_document(model: ExpertModel) -> dict:
    doc = {"kind": model.kind, "dims": model.dims, "layers": []}
    for layer in model.layers:
        entry = {
            "weight": [[float(x) for x in row] for row in layer.weight.values],
            "bias": [float(x) for x in layer.bias.values],
        }
        if layer.skip_weight is not None:
            entry["skip_weight"] = [[float(x) for x in row]
                                    for row in layer.skip_weight.values]
        doc["layers"].append(entry)
    return doc


def check_role(kind: str, role: str):
    """ConfigError unless a `kind` expert may serve in `role` ('weak' or 'strong')."""
    if kind not in ROLES[role]:
        raise ConfigError(f"the {role} expert must have kind in {ROLES[role]}, got {kind!r}")


def expert_from_document(doc: dict) -> ExpertModel:
    kind = doc.get("kind")
    if kind not in ARCHITECTURES:
        raise ConfigError(
            f"checkpoint kind must be one of {ARCHITECTURES}, got {kind!r}")
    layers = []
    for i, entry in enumerate(doc["layers"]):
        skip = entry.get("skip_weight")
        if (skip is None) == (kind == "gcn_skip"):
            raise ConfigError(f"{kind} checkpoint layer {i} "
                              f"{'lacks' if skip is None else 'has'} a skip_weight")
        layers.append(Layer(
            T.Tensor(entry["weight"], requires_grad=True),
            T.Tensor(entry["bias"], requires_grad=True),
            None if skip is None else T.Tensor(skip, requires_grad=True),
        ))
    return ExpertModel(kind, layers)


def save_expert(model: ExpertModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expert_to_document(model), fh, separators=(",", ":"))
        fh.write("\n")


def load_expert(path) -> ExpertModel:
    with open(path, encoding="utf-8") as fh:
        return expert_from_document(json.load(fh))
