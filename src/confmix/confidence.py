"""Confidence of a prediction: a dispersion measure composed with a gate.

Dispersion is distance from the uniform vector (variance, or negative
entropy shifted so the uniform scores zero). The gate maps dispersion
into [0, 1]. The fixed gate shapes are non-decreasing with g(0) = 0;
step and two_level are the discontinuous shapes used by the minimizer
analysis, capped_linear is the smooth default used in training. The
learnable gate is a weak expert over the [variance, neg_entropy] pair
with a softmax head; nothing anchors it to zero at zero dispersion and
its monotonicity is not enforced, so analytical guarantees only cover
the fixed shapes.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError, DomainError, as_type, check_range
from .experts import (ExpertArch, ExpertModel, expert_from_document, init_expert,
                      weak_forward)

DISPERSION_KINDS = ("variance", "neg_entropy")
SIMPLEX_TOL = 1e-9


def on_simplex(rows: np.ndarray) -> bool:
    """Whether each row (along the last axis) is a probability vector up to
    SIMPLEX_TOL. Each comparison is one that NaN fails."""
    return bool(rows.min() >= -SIMPLEX_TOL
                and np.abs(rows.sum(axis=-1) - 1.0).max() <= SIMPLEX_TOL)


def _require_simplex(p: np.ndarray):
    if p.ndim != 1:
        raise DomainError(f"expected a probability vector, got shape {p.shape}")
    if not on_simplex(p):
        raise DomainError(f"input off the probability simplex: {p!r}")


def _dispersion_rows_np(rows: np.ndarray, kind: str) -> np.ndarray:
    n = rows.shape[-1]
    if kind == "variance":
        return ((rows - 1.0 / n) ** 2).sum(axis=-1)
    if kind == "neg_entropy":
        logs = np.log(np.clip(rows, T.LOG_FLOOR, 1.0))
        plogp = np.where(rows > 0.0, rows * logs, 0.0)
        value = np.log(n) + plogp.sum(axis=-1)
        # the shift makes the uniform vector score exactly zero in exact
        # arithmetic; float residue there is ~1e-16, far below the true
        # dispersion one grid step away, so snap it out
        return np.where(np.abs(value) < 1e-15, 0.0, value)
    raise ConfigError(f"dispersion kind must be one of {DISPERSION_KINDS}, got {kind!r}")


def dispersion(p, kind: str) -> float:
    """Zero exactly at the uniform vector, positive elsewhere."""
    p = np.asarray(p, dtype=np.float64)
    _require_simplex(p)
    return float(_dispersion_rows_np(p, kind))


def dispersion_rows(rows: T.Tensor, kind: str) -> T.Tensor:
    """Differentiable per-row dispersion of a probability matrix."""
    n = rows.shape[1]
    if kind == "variance":
        centered = rows + (-1.0 / n)
        return T.sum_rows(centered * centered)
    if kind == "neg_entropy":
        d = T.sum_rows(rows * T.log(rows)) + float(np.log(n))
        # _dispersion_rows_np's snap, flat: a residue times a zero of its
        # own sign is +0.0, with zero gradient
        snap = np.abs(d.values) < 1e-15
        return d * np.where(snap, np.copysign(0.0, d.values), 1.0) if snap.any() else d
    raise ConfigError(f"dispersion kind must be one of {DISPERSION_KINDS}, got {kind!r}")


# ---- gate shapes ----

@dataclass(frozen=True)
class StepGate:
    """0 up to the threshold, 1 above it; tau=0 is the all-or-nothing gate."""
    tau: float = 0.0

    def __post_init__(self):
        check_range("step threshold", self.tau, 0)

    def __call__(self, x):
        return np.where(np.asarray(x, dtype=np.float64) > self.tau, 1.0, 0.0)


@dataclass(frozen=True)
class TwoLevelGate:
    """0 at or below zero, beta inside (0, d_max), 1 from d_max on."""
    d_max: float
    beta: float

    def __post_init__(self):
        if self.d_max <= 0:
            raise ConfigError(f"d_max must be > 0, got {self.d_max}")
        if not (0.0 < self.beta < 1.0):
            raise ConfigError(f"beta must be in (0, 1), got {self.beta}")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x <= 0.0, 0.0, np.where(x < self.d_max, self.beta, 1.0))


@dataclass(frozen=True)
class CappedLinearGate:
    """min(1, slope * x): the smooth shape used for trainable gating."""
    slope: float

    def __post_init__(self):
        if self.slope <= 0:
            raise ConfigError(f"slope must be > 0, got {self.slope}")

    def __call__(self, x):
        return np.minimum(1.0, self.slope * np.asarray(x, dtype=np.float64))


@dataclass
class LearnableGate:
    """A weak expert over the per-node [variance, neg_entropy] pair.

    It maps the 2 dispersions to 2 units through hidden relu layers and a
    softmax head whose first column is the confidence, which keeps the
    output in (0, 1) using only the engine's primitives.
    """
    model: ExpertModel

    @classmethod
    def create(cls, seed: int, hidden: int = 8):
        """Seeded as a weak expert: 2 dispersions, one hidden layer, 2 units."""
        return cls(init_expert(ExpertArch("weak", 2, hidden), 2, 2, seed))

    def forward(self, pair: T.Tensor) -> T.Tensor:
        """Confidence rows from an (n, 2) tensor of dispersion pairs."""
        n = pair.shape[0]
        return T.take_rows(weak_forward(self.model, pair), np.arange(n), np.zeros(n, dtype=np.intp))


GATE_NAMES = {"step": StepGate, "two_level": TwoLevelGate,
              "capped_linear": CappedLinearGate, "learnable": LearnableGate}


def _gate_kind(gate) -> str:
    return next(name for name, cls in GATE_NAMES.items() if type(gate) is cls)


@dataclass
class ConfidenceSpec:
    dispersion: str
    gate: object

    def __post_init__(self):
        if self.dispersion not in DISPERSION_KINDS:
            raise ConfigError(
                f"dispersion must be one of {DISPERSION_KINDS}, got {self.dispersion!r}")

    @property
    def is_fixed(self) -> bool:
        return not isinstance(self.gate, LearnableGate)

    def parameters(self):
        if isinstance(self.gate, LearnableGate):
            yield from self.gate.model.parameters()


def default_spec() -> ConfidenceSpec:
    """Variance with a capped-linear gate that saturates only at one-hot
    rows for binary problems, keeping the gate gradient alive."""
    return ConfidenceSpec("variance", CappedLinearGate(slope=2.0))


def confidence(p, spec: ConfidenceSpec) -> float:
    """C(p) = gate(dispersion(p)); in [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    _require_simplex(p)
    return float(confidence_batch(p[None, :], spec)[0])


def confidence_batch(rows: np.ndarray, spec: ConfidenceSpec) -> np.ndarray:
    """Vectorized confidence over probability rows (no simplex check)."""
    rows = np.asarray(rows, dtype=np.float64)
    if isinstance(spec.gate, LearnableGate):
        return confidence_rows(T.Tensor(rows), spec).values
    return np.asarray(spec.gate(_dispersion_rows_np(rows, spec.dispersion)),
                      dtype=np.float64)


def confidence_rows(rows: T.Tensor, spec: ConfidenceSpec) -> T.Tensor:
    """Differentiable per-row confidence of a probability matrix.

    Step and two-level gates are locally constant, so their confidence
    is a constant tensor (zero gradient almost everywhere);
    capped_linear and the learnable gate are differentiable almost
    everywhere.
    """
    gate = spec.gate
    if isinstance(gate, LearnableGate):
        # the reverse pass adds the rows' gradient terms newest first; made
        # first, the entropy's terms come last, the order the trained
        # weights have always been summed in
        entropy = dispersion_rows(rows, "neg_entropy")
        return gate.forward(T.stack_columns([dispersion_rows(rows, "variance"), entropy]))
    d = dispersion_rows(rows, spec.dispersion)
    if isinstance(gate, CappedLinearGate):
        scaled = d * gate.slope
        return scaled - T.relu(scaled + (-1.0))
    # a step or two-level gate's values lie in {0, beta, 1}: nothing to scan
    return T.constant(gate(d.values))


def quasiconvexity_witness_search(spec: ConfidenceSpec, trials: int, seed: int,
                                  n: int = 2) -> float:
    """Worst violation of C(mix) <= max(C(p), C(p')) over random triples.

    Returns max over trials of C(lam*p + (1-lam)*p') - max(C(p), C(p'));
    a quasiconvex confidence keeps this at or below zero (1e-12 noise).
    """
    return _witness_margins([spec], trials, seed, n)[0]


def _witness_margins(specs: list, trials: int, seed: int, n: int) -> list:
    """quasiconvexity_witness_search's margin for each spec, in order, all
    scored on one draw: a fixed spec's dispersions come once per kind."""
    check_range("trials", trials, 1)
    check_range("n", n, 2)
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n), size=trials)
    q = rng.dirichlet(np.ones(n), size=trials)
    lam = rng.uniform(0.0, 1.0, size=trials)
    triple = (lam[:, None] * p + (1.0 - lam[:, None]) * q, p, q)
    dispersions = {kind: [_dispersion_rows_np(rows, kind) for rows in triple]
                   for kind in {spec.dispersion for spec in specs if spec.is_fixed}}
    margins = []
    for spec in specs:
        c_mix, c_p, c_q = ([spec.gate(d) for d in dispersions[spec.dispersion]] if spec.is_fixed
                           else [confidence_batch(rows, spec) for rows in triple])
        margins.append(float((c_mix - np.maximum(c_p, c_q)).max()))
    return margins


# ---- serialization (embedded in run configurations) ----

def spec_to_document(spec: ConfidenceSpec) -> dict:
    gate = spec.gate
    if isinstance(gate, LearnableGate):
        g = {"weights": [[layer.weight.values.tolist(), layer.bias.values.tolist()]
                         for layer in gate.model.layers]}
    else:
        g = asdict(gate)
    return {"dispersion": spec.dispersion, "gate": {"kind": _gate_kind(gate), **g}}


def spec_from_document(doc) -> ConfidenceSpec:
    """Inverse of spec_to_document; a malformed document is a ConfigError."""
    g = doc.get("gate") if isinstance(doc, dict) else None
    if not isinstance(g, dict) or "dispersion" not in doc:
        raise ConfigError("confidence spec needs a 'dispersion' and a 'gate' object")
    values = dict(g)
    kind = values.pop("kind", None)
    cls = GATE_NAMES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"gate kind must be one of {sorted(GATE_NAMES)}, got {kind!r}")
    # the learnable gate's one document field holds its model's layers
    known = ({"weights": MISSING} if cls is LearnableGate
             else {f.name: f.default for f in fields(cls)})
    required = {name for name, default in known.items() if default is MISSING}
    if not required <= set(values) <= set(known):
        raise ConfigError(f"{kind} gate takes fields {list(known)}, "
                          f"{sorted(required)} required; got {sorted(values)}")
    if cls is not LearnableGate:
        return ConfidenceSpec(doc["dispersion"], cls(**{
            name: as_type(value, float, f"gate {name}") for name, value in values.items()}))
    pairs = values["weights"]
    if not (isinstance(pairs, list)
            and all(isinstance(pair, list) and len(pair) == 2 for pair in pairs)):
        raise ConfigError("learnable gate weights must be a list of [weight, bias] pairs")
    model = expert_from_document(
        {"kind": "weak", "layers": [{"weight": w, "bias": b} for w, b in pairs]},
        "learnable gate")
    if model.dims[0] != 2 or model.dims[-1] != 2:
        raise ConfigError(f"learnable gate layers must map 2 dispersions to 2 units, "
                          f"got dims {model.dims}")
    return ConfidenceSpec(doc["dispersion"], LearnableGate(model))
