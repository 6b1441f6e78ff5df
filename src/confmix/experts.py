"""Weak (feature-only) and strong (graph convolution) expert models.

Both emit per-node class probability rows: relu between layers, rowwise
softmax after the last. The convolution uses the symmetric-normalized
closed neighborhood (self term from degrees, no materialized self
edges); the skip variant adds an extra per-layer self transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .documents import read_json, write_json
from .errors import ConfigError, ShapeError, as_array, check_range
from .graphs import ARCHITECTURES, Graph

ROLES = {"weak": ("weak",), "strong": ("gcn", "gcn_skip")}
# ceilings on an expert's shape, 20 times the default strong expert's 2
# layers of 32 hidden units, as train's counts are: on one core of a 2-vCPU
# host a one-round, one-epoch, no-pretrain train with a 40 x 640 strong
# expert on the n = 200 default graph takes 11.4-12.2 s at 0.64 GB peak RSS
MAX_LAYERS = 40
MAX_HIDDEN = 640


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
        return [self.layers[0].weight.shape[0]] + [layer.weight.shape[1] for layer in self.layers]

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
        check_range("layers", self.layers, 1, MAX_LAYERS)
        if self.layers > 1:
            check_range("hidden", self.hidden, 1, MAX_HIDDEN)
        return [num_features] + [self.hidden] * (self.layers - 1) + [num_classes]


def init_expert(arch: ExpertArch, num_features: int, num_classes: int,
                seed: int) -> ExpertModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)], zero bias."""
    if arch.kind not in ARCHITECTURES:
        raise ConfigError(f"kind must be one of {ARCHITECTURES}, got {arch.kind!r}")
    dims = arch.dims(num_features, num_classes)
    rng = np.random.default_rng(seed)
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


def _layers(model: ExpertModel, h: T.Tensor, coeff: T.Tensor | None = None,
            agg: T.Tensor | None = None) -> T.Tensor:
    """relu(agg(h) @ W + b [+ h @ W_skip]) per layer, softmax after the
    last; agg(h) is coeff @ h, or h itself without coefficients. A given
    `agg` is the first layer's agg(h), already computed."""
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        if i or agg is None:
            agg = h if coeff is None else T.matmul(coeff, h)
        z = T.matmul(agg, layer.weight, layer.bias)
        if layer.skip_weight is not None:
            z = z + T.matmul(h, layer.skip_weight)
        h = T.softmax_rows(z) if i == last else T.relu(z)
    return h


def weak_forward(model: ExpertModel, features) -> T.Tensor:
    """Probability rows from self-features only; row v sees only x_v."""
    return _layers(model, _input(model, features))


def gcn_forward(model: ExpertModel, graph: Graph) -> T.Tensor:
    """Probability rows from the L-hop neighborhood of each node.

    Layer op: softmax/relu(A @ h @ W + b) with A = graph.coefficients; on
    an edgeless graph A is the identity and this equals weak_forward.
    gcn_skip adds h @ W_skip on the pre-aggregation activations. The
    graph's cached A @ X is the first layer's aggregation.
    """
    x = _input(model, graph.feature_tensor)
    return _layers(model, x, graph.coefficients, graph.first_aggregation)


def forward(model: ExpertModel, graph: Graph) -> T.Tensor:
    """Probability rows of every node of `graph`, dispatched on model.kind."""
    if model.kind == "weak":
        return weak_forward(model, graph.feature_tensor)
    return gcn_forward(model, graph)


# ---- checkpointing ----

def expert_to_document(model: ExpertModel) -> dict:
    """The checkpoint document, its parameters as the arrays themselves,
    which `write_json` writes as their lists."""
    doc = {"kind": model.kind, "dims": model.dims, "layers": []}
    for layer in model.layers:
        entry = {"weight": layer.weight.values, "bias": layer.bias.values}
        if layer.skip_weight is not None:
            entry["skip_weight"] = layer.skip_weight.values
        doc["layers"].append(entry)
    return doc


def check_role(kind: str, role: str):
    """ConfigError unless a `kind` expert may serve in `role` ('weak' or 'strong')."""
    if kind not in ROLES[role]:
        raise ConfigError(f"the {role} expert must have kind in {ROLES[role]}, got {kind!r}")


def expert_from_document(doc: dict, what: str = "checkpoint") -> ExpertModel:
    """The expert a `what` document describes; ConfigError naming `what`
    for any document that is not one, including layers whose dims do not
    chain and a `dims` entry, when present, that is not that chain."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    kind = doc.get("kind")
    if kind not in ARCHITECTURES:
        raise ConfigError(f"{what} kind must be one of {ARCHITECTURES}, got {kind!r}")
    entries = doc.get("layers")
    if not (isinstance(entries, list) and entries
            and all(isinstance(e, dict) for e in entries)):
        raise ConfigError(f"{what} layers must be a non-empty list of objects")
    layers = []
    for i, entry in enumerate(entries):
        skip = entry.get("skip_weight")
        if (skip is None) == (kind == "gcn_skip"):
            raise ConfigError(f"{kind} {what} layer {i} "
                              f"{'lacks' if skip is None else 'has'} a skip_weight")

        def parameter(key, ndim):
            return T.Tensor(as_array(entry.get(key), float, ndim, f"{what} layer {i} {key}",
                                     ConfigError), requires_grad=True)
        weight, bias = parameter("weight", 2), parameter("bias", 1)
        if skip is not None:
            skip = parameter("skip_weight", 2)
        if bias.shape != weight.shape[1:]:
            raise ConfigError(f"{what} layer {i} has {bias.shape[0]} biases for "
                              f"{weight.shape[1]} weight columns")
        if skip is not None and skip.shape != weight.shape:
            raise ConfigError(f"{what} layer {i} skip_weight is {skip.shape}, "
                              f"its weight {weight.shape}")
        if layers and layers[-1].weight.shape[1] != weight.shape[0]:
            raise ConfigError(f"{what} layer {i} takes {weight.shape[0]} inputs, "
                              f"layer {i - 1} gives {layers[-1].weight.shape[1]}")
        layers.append(Layer(weight, bias, skip))
    model = ExpertModel(kind, layers)
    if "dims" in doc:
        dims = as_array(doc["dims"], int, 1, f"{what} dims", ConfigError).tolist()
        if dims != model.dims:
            raise ConfigError(f"{what} dims {dims} do not match its layers {model.dims}")
    return model


def save_expert(model: ExpertModel, path):
    """The checkpoint document's JSON, its weights written from their
    arrays a block of rows at a time."""
    write_json(path, expert_to_document(model), sort_keys=False)


def load_expert(path) -> ExpertModel:
    return expert_from_document(read_json(path, "checkpoint", ConfigError))
