"""Training loops: alternating turns, joint updates, blend objective.

The in-turn loop alternates full-batch gradient-descent phases: the weak
expert (plus any learnable gate parameters) optimizes the mixture loss
against a frozen strong expert, then the strong expert optimizes against
the frozen weak side, for a fixed number of rounds. "Until convergence"
is operationalized as early stopping on validation loss with a patience
window, capped by max_epochs. Joint mode updates everything at once on
the mixture loss; blend mode does the same on the blend loss.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .confidence import (ConfidenceSpec, confidence_batch, confidence_rows,
                         default_spec)
from .errors import ConfigError, DomainError, TrainingDivergedError
from .experts import ExpertArch, ExpertModel, check_role, forward, init_expert
from .graphs import Graph
from .mixture import (blend_loss_rows, cross_entropy_rows, infer_expected,
                      infer_stochastic, mixture_loss_rows)

MODES = ("in_turn", "joint", "blend")
PRETRAIN_CHOICES = ("none", "weak", "strong", "both")
HIST_BINS = 20


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
        if self.pretrain_epochs < 0:
            raise ConfigError("pretrain_epochs must be >= 0")
        check_role(self.weak_arch.kind, "weak")
        check_role(self.strong_arch.kind, "strong")


@dataclass
class TrainReport:
    loss_rows: list = field(default_factory=list)      # (round, turn, epoch, train, val)
    hist_rows: list = field(default_factory=list)      # (round, bin_lo, bin_hi, count)
    accuracy_rows: list = field(default_factory=list)  # (round, split, accuracy)
    metric_rows: list = field(default_factory=list)    # (split, mode, accuracy)

    def write_csvs(self, outdir):
        def fmt(x):
            return f"{x:.12g}" if isinstance(x, float) else str(x)
        tables = {
            "loss.csv": (["round", "turn", "epoch", "train_loss", "val_loss"],
                         self.loss_rows),
            "confidence_hist.csv": (["round", "bin_lo", "bin_hi", "count"],
                                    self.hist_rows),
            "metrics.csv": (["split", "mode", "accuracy"], self.metric_rows),
        }
        for name, (header, rows) in tables.items():
            with open(f"{outdir}/{name}", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([fmt(x) for x in row])


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


class _Phase:
    """One early-stopped gradient-descent phase over a fixed loss builder."""

    def __init__(self, params, lr, max_epochs, patience):
        self.params = params
        self.lr = lr
        self.max_epochs = max_epochs
        self.patience = patience

    def run(self, losses_fn, record):
        best_val = np.inf
        best = _snapshot(self.params)
        wait = 0
        for epoch in range(self.max_epochs):
            try:
                train_loss, val_loss = losses_fn()
            except DomainError as e:
                raise TrainingDivergedError(f"non-finite values at epoch {epoch}") from e
            value = train_loss.item()
            if not np.isfinite(value) or not np.isfinite(val_loss):
                raise TrainingDivergedError(f"loss diverged at epoch {epoch}")
            record(epoch, value, val_loss)
            if val_loss < best_val - 1e-12:
                best_val, best, wait = val_loss, _snapshot(self.params), 0
            else:
                wait += 1
                if wait >= self.patience:
                    break
            T.backward(train_loss)
            _sgd_step(self.params, self.lr)
        _restore(self.params, best)


def _loss_rows(graph: Graph):
    """Train ids then val ids (train again when val is empty), and the
    positions of the train ids in that concatenation."""
    train_ids = graph.splits["train"]
    val_ids = graph.splits["val"] if graph.splits["val"].size else train_ids
    return np.concatenate([train_ids, val_ids]), np.arange(train_ids.size)


def _split_means(terms: T.Tensor, train_pos: np.ndarray):
    """(train mean as a Tensor, val mean as a float) of per-node loss terms
    laid out as by _loss_rows."""
    return (T.mean_all(T.take_rows(terms, train_pos)),
            float(terms.values[train_pos.size:].mean()))


def train(config: TrainConfig, graph: Graph, weak: ExpertModel | None = None,
          strong: ExpertModel | None = None) -> TrainResult:
    """Run the configured training mode; deterministic under config.seed."""
    config.validate()
    train_ids = graph.splits["train"]
    if train_ids.size == 0:
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

    # each epoch evaluates the loss terms of the train and val rows in one pass
    rows, train_pos = _loss_rows(graph)
    y_rows = graph.labels[rows]
    report = TrainReport()

    gate_params = list(spec.parameters())
    weak_params = list(weak.parameters()) + gate_params
    strong_params = list(strong.parameters())

    def weak_turn_losses(frozen_strong_rows):
        ps_rows = frozen_strong_rows[rows]

        def losses():
            pw = T.take_rows(forward(weak, graph), rows)
            terms = mixture_loss_rows(pw, ps_rows, confidence_rows(pw, spec), y_rows)
            return _split_means(terms, train_pos)
        return losses

    def strong_turn_losses(frozen_weak_rows):
        pw_rows = frozen_weak_rows[rows]
        c_rows = confidence_batch(pw_rows, spec)

        def losses():
            ps = T.take_rows(forward(strong, graph), rows)
            return _split_means(mixture_loss_rows(pw_rows, ps, c_rows, y_rows),
                                train_pos)
        return losses

    def record_round(round_idx) -> dict:
        pw, ps, c = predict(weak, strong, spec, graph)
        counts, edges = np.histogram(c[train_ids], bins=HIST_BINS, range=(0.0, 1.0))
        for b in range(HIST_BINS):
            report.hist_rows.append((round_idx, float(edges[b]), float(edges[b + 1]),
                                     int(counts[b])))
        scores = _scores((pw, ps, c), graph, config.gate_seed)
        for split, split_scores in scores.items():
            report.accuracy_rows.append((round_idx, split, split_scores["expected"]))
        return scores

    if config.mode == "in_turn":
        for round_idx in range(1, config.rounds + 1):
            phase = _Phase(weak_params, config.lr, config.max_epochs, config.patience)
            phase.run(weak_turn_losses(forward(strong, graph).values),
                      lambda e, t, v, r=round_idx: report.loss_rows.append(
                          (r, "weak", e, t, v)))
            phase = _Phase(strong_params, config.lr, config.max_epochs, config.patience)
            phase.run(strong_turn_losses(forward(weak, graph).values),
                      lambda e, t, v, r=round_idx: report.loss_rows.append(
                          (r, "strong", e, t, v)))
            scores = record_round(round_idx)
    else:
        terms_fn = mixture_loss_rows if config.mode == "joint" else blend_loss_rows

        def losses():
            pw = T.take_rows(forward(weak, graph), rows)
            ps = T.take_rows(forward(strong, graph), rows)
            terms = terms_fn(pw, ps, confidence_rows(pw, spec), y_rows)
            return _split_means(terms, train_pos)

        phase = _Phase(weak_params + strong_params, config.lr,
                       config.rounds * config.max_epochs, config.patience)
        phase.run(losses, lambda e, t, v: report.loss_rows.append(
            (1, config.mode, e, t, v)))
        scores = record_round(1)

    # the last round scored the final models
    for split, split_scores in scores.items():
        report.metric_rows.append((split, "expected", split_scores["expected"]))
        report.metric_rows.append((split, "stochastic", split_scores["stochastic"]))

    return TrainResult(weak, strong, spec, report)


def _plain_ce_phase(model: ExpertModel, graph: Graph, epochs: int, lr: float):
    train_ids = graph.splits["train"]
    labels = graph.labels[train_ids]
    params = list(model.parameters())
    for _ in range(epochs):
        probs = forward(model, graph)
        loss = T.mean_all(cross_entropy_rows(T.take_rows(probs, train_ids), labels))
        T.backward(loss)
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

    DomainError when either expert's rows are not finite, as from a
    checkpoint whose weights overflow.
    """
    # the check below reports an overflow; numpy's warnings would repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        pw = forward(weak, graph).values
        ps = forward(strong, graph).values
    for role, rows in (("weak", pw), ("strong", ps)):
        if not np.all(np.isfinite(rows)):
            raise DomainError(f"the {role} expert's predictions are not finite")
    return pw, ps, confidence_batch(pw, spec)


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


def single_expert_baseline(arch: ExpertArch, graph: Graph, seed: int,
                           lr: float = 0.5, max_epochs: int = 500,
                           patience: int = 20) -> ExpertModel:
    """Train one expert alone with validation early stopping.

    The comparison baseline for mixture runs: same optimizer and
    stopping rule as a turn, but plain cross-entropy all the way.
    """
    model = init_expert(arch, graph.num_features, graph.num_classes, seed)
    rows, train_pos = _loss_rows(graph)
    y_rows = graph.labels[rows]

    def losses():
        probs = T.take_rows(forward(model, graph), rows)
        return _split_means(cross_entropy_rows(probs, y_rows), train_pos)

    phase = _Phase(list(model.parameters()), lr, max_epochs, patience)
    phase.run(losses, lambda e, t, v: None)
    return model
