"""Training loops: alternating turns, joint updates, blend objective.

The in-turn loop alternates full-batch gradient-descent phases: the weak
expert (plus any learnable gate parameters) optimizes the mixture loss
against a frozen strong expert, then the strong expert optimizes against
the frozen weak side, for a fixed number of rounds. "Until convergence"
is operationalized as early stopping on validation loss with a patience
window, capped by max_epochs. Joint mode updates everything at once on
the mixture loss; blend mode does the same on the blend loss.

Every phase builds its per-node loss terms, unchecked, from `T.nll_rows`,
`mixture_rows` (the chained gate) and `blend_rows`. A turn computes its
frozen side (and, in the strong turn, its confidence) once, quietly, as
constants; joint mode passes both sides live. One check catches a
divergence in every phase, pretraining included: an epoch's terms must
all be finite, a frozen side's among them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .confidence import ConfidenceSpec, _gate_kind, confidence_rows, default_spec
from .documents import write_csv
from .errors import ConfigError, DomainError, TrainingDivergedError
from .experts import ExpertArch, ExpertModel, check_role, forward, init_expert
from .graphs import Graph
from .mixture import blend_rows, infer_expected, infer_stochastic, mixture_rows

MODES = ("in_turn", "joint", "blend")
PRETRAIN_CHOICES = ("none", "weak", "strong", "both")
HIST_BINS = 20
# the finiteness checks report an overflow; numpy's warnings would repeat it
_QUIET = dict(over="ignore", invalid="ignore")


@dataclass
class TrainConfig:
    mode: str = "in_turn"
    rounds: int = 5
    max_epochs: int = 500
    lr: float = 0.5
    patience: int = 20
    seed: int = 0
    pretrain: str = "weak"
    pretrain_epochs: int = 100
    weak_arch: ExpertArch = field(default_factory=lambda: ExpertArch("weak", 1))
    strong_arch: ExpertArch = field(default_factory=lambda: ExpertArch("gcn", 2, 32))
    spec: ConfidenceSpec = field(default_factory=default_spec)
    gate_seed: int = 1   # evaluation gate draws, independent of model seed

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.pretrain not in PRETRAIN_CHOICES:
            raise ConfigError(
                f"pretrain must be one of {PRETRAIN_CHOICES}, got {self.pretrain!r}")
        if min(self.rounds, self.max_epochs, self.patience) < 1:
            raise ConfigError("rounds, max_epochs and patience must be positive")
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be > 0, got {self.lr}")
        if min(self.pretrain_epochs, self.seed, self.gate_seed) < 0:
            raise ConfigError("pretrain_epochs, seed and gate_seed must be >= 0")
        check_role(self.weak_arch.kind, "weak")
        check_role(self.strong_arch.kind, "strong")


@dataclass
class TrainReport:
    loss_rows: list = field(default_factory=list)      # (round, turn, epoch, train, val)
    hist_rows: list = field(default_factory=list)      # (round, bin_lo, bin_hi, count)
    accuracy_rows: list = field(default_factory=list)  # (round, split, accuracy)
    metric_rows: list = field(default_factory=list)    # (split, mode, accuracy)

    def write_csvs(self, outdir):
        write_csv(f"{outdir}/loss.csv",
                  ["round", "turn", "epoch", "train_loss", "val_loss"], self.loss_rows)
        write_csv(f"{outdir}/confidence_hist.csv",
                  ["round", "bin_lo", "bin_hi", "count"], self.hist_rows)
        write_csv(f"{outdir}/metrics.csv", ["split", "mode", "accuracy"], self.metric_rows)


@dataclass
class TrainResult:
    weak: ExpertModel
    strong: ExpertModel
    spec: ConfidenceSpec
    report: TrainReport


def _snapshot(params):
    return [p.values.copy() for p in params]


def _restore(params, snap):
    for p, values in zip(params, snap):
        p.values = values.copy()


def _sgd_step(params, lr):
    for p in params:
        if p.grad is not None:
            p.values = p.values - lr * p.grad


def _epoch_loss(terms_fn, splits: dict, epoch: int):
    """(train mean as a Tensor, val mean as a float) of every node's loss
    terms; the val mean reads the train ids when val is empty. The split
    ids were checked when the graph was built. A non-finite term is a
    TrainingDivergedError; each is a clamped cross-entropy under gates in
    [0, 1], so finite terms give finite means."""
    terms = terms_fn()
    if not np.isfinite(terms.values).all():
        raise TrainingDivergedError(f"non-finite values at epoch {epoch}")
    train_ids = splits["train"]
    val_ids = splits["val"] if splits["val"].size else train_ids
    return T.mean_rows(terms, train_ids), float(terms.values[val_ids].mean())


def _run_phase(params, splits, lr, max_epochs, patience, terms_fn, record):
    """One early-stopped gradient-descent phase over a fixed builder of
    every node's loss terms."""
    best_val = np.inf
    best = _snapshot(params)
    wait = 0
    with np.errstate(**_QUIET):
        for epoch in range(max_epochs):
            train_loss, val_loss = _epoch_loss(terms_fn, splits, epoch)
            record(epoch, train_loss.item(), val_loss)
            if val_loss < best_val - 1e-12:
                best_val, best, wait = val_loss, _snapshot(params), 0
            else:
                wait += 1
                if wait >= patience:
                    break
            T.backward(train_loss)
            _sgd_step(params, lr)
    _restore(params, best)


def _ce_terms(model: ExpertModel, graph: Graph):
    """A builder of every node's cross-entropy under `model`."""
    return lambda: T.nll_rows(forward(model, graph), graph.labels)


def train(config: TrainConfig, graph: Graph, weak: ExpertModel | None = None,
          strong: ExpertModel | None = None) -> TrainResult:
    """Run the configured training mode; deterministic under config.seed."""
    config.validate()
    if graph.splits["train"].size == 0:
        raise ConfigError("graph has an empty train split")
    f, n = graph.num_features, graph.num_classes
    spec = config.spec

    if weak is None:
        weak = init_expert(config.weak_arch, f, n, config.seed)
    if strong is None:
        strong = init_expert(config.strong_arch, f, n, config.seed + 1)
    if config.pretrain in ("weak", "both"):
        _plain_ce_phase(weak, graph, config.pretrain_epochs, config.lr)
    if config.pretrain in ("strong", "both"):
        _plain_ce_phase(strong, graph, config.pretrain_epochs, config.lr)

    report = TrainReport()
    labels = graph.labels

    gate_params = list(spec.parameters())
    weak_params = list(weak.parameters()) + gate_params
    strong_params = list(strong.parameters())

    def ce(rows):
        return T.nll_rows(rows, labels)

    # a turn's frozen side is computed quietly, wrapped as a constant and
    # scored once; a non-finite frozen row surfaces at epoch 0's check
    def frozen(compute):
        with np.errstate(**_QUIET):
            return T.constant(compute().values)

    def weak_turn_terms():
        frozen_ce = ce(frozen(lambda: forward(strong, graph)))

        def terms():
            pw = forward(weak, graph)
            return mixture_rows([confidence_rows(pw, spec)], [ce(pw), frozen_ce])
        return terms

    def strong_turn_terms():
        pw = frozen(lambda: forward(weak, graph))
        # a constant: no gradient reaches a learnable gate in the strong turn
        conf, frozen_ce = frozen(lambda: confidence_rows(pw, spec)), ce(pw)
        return lambda: mixture_rows([conf], [frozen_ce, ce(forward(strong, graph))])

    def phase(params, max_epochs, terms_fn, round_idx, turn):
        _run_phase(params, graph.splits, config.lr, max_epochs, config.patience, terms_fn,
                   lambda e, t, v: report.loss_rows.append((round_idx, turn, e, t, v)))

    def record_round(round_idx) -> dict:
        scores = _scores(predict(weak, strong, spec, graph), graph, config.gate_seed)
        # np.histogram's edges over range (0, 1)
        edges = np.linspace(0.0, 1.0, HIST_BINS + 1)
        for b, count in enumerate(scores["train"]["histogram"]):
            report.hist_rows.append((round_idx, float(edges[b]), float(edges[b + 1]),
                                     count))
        for split, split_scores in scores.items():
            report.accuracy_rows.append((round_idx, split, split_scores["expected"]))
        return scores

    if config.mode == "in_turn":
        for round_idx in range(1, config.rounds + 1):
            phase(weak_params, config.max_epochs, weak_turn_terms(), round_idx, "weak")
            phase(strong_params, config.max_epochs, strong_turn_terms(), round_idx, "strong")
            scores = record_round(round_idx)
    else:
        def terms():
            pw, ps = forward(weak, graph), forward(strong, graph)
            conf = confidence_rows(pw, spec)
            if config.mode == "blend":
                return ce(blend_rows(pw, ps, conf))
            return mixture_rows([conf], [ce(pw), ce(ps)])

        phase(weak_params + strong_params, config.rounds * config.max_epochs, terms, 1,
              config.mode)
        scores = record_round(1)

    # the last round scored the final models
    for split, split_scores in scores.items():
        report.metric_rows.append((split, "expected", split_scores["expected"]))
        report.metric_rows.append((split, "stochastic", split_scores["stochastic"]))

    return TrainResult(weak, strong, spec, report)


def _plain_ce_phase(model: ExpertModel, graph: Graph, epochs: int, lr: float):
    terms = _ce_terms(model, graph)
    params = list(model.parameters())
    with np.errstate(**_QUIET):
        for epoch in range(epochs):
            T.backward(_epoch_loss(terms, graph.splits, epoch)[0])
            _sgd_step(params, lr)


def pretrain_expert(arch: ExpertArch, graph: Graph, epochs: int, lr: float,
                    seed: int) -> ExpertModel:
    """Plain cross-entropy training of a single expert on the train split.

    Zero epochs returns the seeded initial weights unchanged.
    """
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if lr <= 0:
        raise ConfigError(f"learning rate must be > 0, got {lr}")
    model = init_expert(arch, graph.num_features, graph.num_classes, seed)
    if graph.splits["train"].size == 0:
        raise ConfigError("graph has an empty train split")
    _plain_ce_phase(model, graph, epochs, lr)
    return model


def predict(weak: ExpertModel, strong: ExpertModel, spec: ConfidenceSpec,
            graph: Graph):
    """(weak rows, strong rows, confidence) of every node, as arrays.

    DomainError when either expert's rows or the gate's confidences are
    not finite, as from a checkpoint or gate whose weights overflow.
    """
    with np.errstate(**_QUIET):
        pw = forward(weak, graph).values
        ps = forward(strong, graph).values
        for role, rows in (("weak", pw), ("strong", ps)):
            if not np.all(np.isfinite(rows)):
                raise DomainError(f"the {role} expert's predictions are not finite")
        conf = confidence_rows(T.constant(pw), spec).values
    if not np.all(np.isfinite(conf)):
        raise DomainError(f"the {_gate_kind(spec.gate)} gate's confidences are not finite")
    return pw, ps, conf


def _scores(predictions, graph: Graph, gate_seed: int) -> dict:
    """evaluate's scores for every non-empty split, from predict's arrays."""
    pw, ps, c = predictions
    _, pred_expected = infer_expected(pw, ps, c)
    pred_stochastic, _ = infer_stochastic(pw, ps, c, gate_seed)
    out = {}
    for split in ("train", "val", "test"):
        ids = graph.splits[split]
        if ids.size:
            labels = graph.labels[ids]
            counts, _ = np.histogram(c[ids], bins=HIST_BINS, range=(0.0, 1.0))
            out[split] = {
                "expected": float((pred_expected[ids] == labels).mean()),
                "stochastic": float((pred_stochastic[ids] == labels).mean()),
                "histogram": counts.tolist(),
            }
    return out


def evaluate(weak: ExpertModel, strong: ExpertModel, spec: ConfidenceSpec,
             graph: Graph, split: str, gate_seed: int) -> dict:
    """Accuracy per inference mode plus the confidence histogram.

    Stochastic gating draws one variate per node in node-id order from
    gate_seed, independently of any training seed.
    """
    if graph.splits[split].size == 0:
        raise ConfigError(f"split {split!r} is empty")
    return _scores(predict(weak, strong, spec, graph), graph, gate_seed)[split]


def single_expert_baseline(arch: ExpertArch, graph: Graph, seed: int) -> ExpertModel:
    """Train one expert alone with validation early stopping.

    The comparison baseline for mixture runs: the optimizer and stopping
    rule of a default TrainConfig's turn, but plain cross-entropy all the
    way.
    """
    model = init_expert(arch, graph.num_features, graph.num_classes, seed)
    defaults = TrainConfig()
    _run_phase(list(model.parameters()), graph.splits, defaults.lr, defaults.max_epochs,
               defaults.patience, _ce_terms(model, graph), lambda e, t, v: None)
    return model
