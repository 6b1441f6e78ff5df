"""Training: one epoch loop for every phase.

The in-turn mode alternates full-batch gradient-descent turns: the weak
expert (plus any learnable gate parameters) optimizes the mixture loss
against a frozen strong expert, then the strong expert optimizes against
the frozen weak side, for a fixed number of rounds. Joint mode updates
everything at once on the mixture loss; blend mode does the same on the
blend loss. Each is a turn builder keyed by its `loss.csv` turn name,
and `train` is one loop over rounds and turns.

One runner, `_run_phase`, serves every phase; its stop rule is a value.
The turns, joint mode, blend mode and the single-expert baseline stop
early: "until convergence" is operationalized as early stopping on
validation loss with a patience window, capped by max_epochs, and the
best epoch's parameters are restored. Pretraining runs a fixed budget
and keeps its last parameters.

Every phase builds its per-node loss terms, unchecked, from `T.nll_rows`,
`mixture_rows` (the chained gate) and `blend_rows`. A turn computes its
frozen side (and, in the strong turn, its confidence) once, quietly, as
constants; joint and blend mode pass both sides live. One check catches
a divergence in every phase, pretraining included: an epoch's terms must
all be finite, a frozen side's among them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import tensor as T
from .confidence import ConfidenceSpec, _gate_kind, confidence_rows, default_spec
from .documents import write_csv
from .errors import ConfigError, DomainError, TrainingDivergedError, check_range
from .experts import ExpertArch, ExpertModel, check_role, forward, init_expert
from .graphs import Graph
from .mixture import blend_rows, infer_expected, infer_stochastic, mixture_rows

MODES = ("in_turn", "joint", "blend")
PRETRAIN_CHOICES = ("none", "weak", "strong", "both")
HIST_BINS = 20
# the finiteness checks report an overflow; numpy's warnings would repeat it
_QUIET = dict(over="ignore", invalid="ignore")
# ceilings on train's counts, 20 times the defaults: early stopping ends a
# default turn long before its cap (a default seed-7 train runs about 2,700
# epochs), and a train at the ceilings runs about 2,000,000 at most
MAX_ROUNDS = 100
MAX_EPOCHS = 10_000
MAX_PRETRAIN_EPOCHS = 2_000


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
        for name, low, high in (("rounds", 1, MAX_ROUNDS), ("max_epochs", 1, MAX_EPOCHS),
                                ("pretrain_epochs", 0, MAX_PRETRAIN_EPOCHS),
                                ("patience", 1, None), ("seed", 0, None), ("gate_seed", 0, None)):
            check_range(name, getattr(self, name), low, high)
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be > 0, got {self.lr}")
        for role in ("weak", "strong"):
            arch = getattr(self, f"{role}_arch")
            check_role(arch.kind, role)
            arch.dims(1, 1)   # its layers and hidden, before any weight is drawn


@dataclass
class TrainReport:
    loss_rows: list = field(default_factory=list)      # (round, turn, epoch, train, val)
    hist_rows: list = field(default_factory=list)      # (round, bin_lo, bin_hi, count)
    accuracy_rows: list = field(default_factory=list)  # (round, split, accuracy)
    metric_rows: list = field(default_factory=list)    # (split, mode, accuracy)

    def add_round(self, round_idx, scores):
        """A round's train confidence histogram and accuracy per split."""
        # np.histogram's edges over range (0, 1)
        edges = np.linspace(0.0, 1.0, HIST_BINS + 1)
        for b, count in enumerate(scores["train"]["histogram"]):
            self.hist_rows.append((round_idx, float(edges[b]), float(edges[b + 1]), count))
        for split, split_scores in scores.items():
            self.accuracy_rows.append((round_idx, split, split_scores["expected"]))

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


def _sgd_step(params, lr):
    for p in params:
        if p.grad is not None:
            p.values = p.values - lr * p.grad


def _run_phase(params, splits, lr, epochs, patience, terms_fn, record=None):
    """Full-batch gradient descent on the train mean of every node's loss
    terms, built by `terms_fn`. A patience stops early on the val mean (the
    train ids' when val is empty) and restores the best epoch's parameters;
    None runs all `epochs` and keeps the last ones.

    The split ids were checked when the graph was built. A non-finite term
    is a TrainingDivergedError; each is a clamped cross-entropy under gates
    in [0, 1], so finite terms give finite means."""
    train_ids = splits["train"]
    if train_ids.size == 0:
        raise ConfigError("graph has an empty train split")
    val_ids = splits["val"] if splits["val"].size else train_ids
    best_val, best, wait = np.inf, None, 0
    with np.errstate(**_QUIET):
        for epoch in range(epochs):
            terms = terms_fn()
            if not np.isfinite(terms.values).all():
                raise TrainingDivergedError(f"non-finite values at epoch {epoch}")
            train_loss = T.mean_rows(terms, train_ids)
            val_loss = float(terms.values[val_ids].mean())
            if record is not None:
                record(epoch, train_loss.item(), val_loss)
            if patience is not None:
                if val_loss < best_val - 1e-12:
                    best_val, best, wait = val_loss, _snapshot(params), 0
                elif (wait := wait + 1) >= patience:
                    break
            T.backward(train_loss)
            _sgd_step(params, lr)
    if best is not None:
        for p, values in zip(params, best):
            p.values = values


def _fit(model: ExpertModel, graph: Graph, lr, epochs, patience=None) -> ExpertModel:
    """`model` after a phase of plain cross-entropy on the train split."""
    _run_phase(list(model.parameters()), graph.splits, lr, epochs, patience,
               lambda: T.nll_rows(forward(model, graph), graph.labels))
    return model


# Each turn builder returns (params, terms_fn) for one phase. A frozen side
# is computed once, when the phase starts, and wrapped as a constant; the
# caller quiets numpy, so a non-finite frozen row surfaces at epoch 0's check.

def _weak_turn(weak, strong, spec, graph):
    """The weak expert and any learnable gate against the frozen strong side."""
    frozen_ce = T.nll_rows(T.constant(forward(strong, graph).values), graph.labels)

    def terms():
        pw = forward(weak, graph)
        return mixture_rows([confidence_rows(pw, spec)],
                            [T.nll_rows(pw, graph.labels), frozen_ce])
    return [*weak.parameters(), *spec.parameters()], terms


def _strong_turn(weak, strong, spec, graph):
    """The strong expert against the frozen weak side; the confidence is a
    constant too, so no gradient reaches a learnable gate."""
    pw = T.constant(forward(weak, graph).values)
    conf = T.constant(confidence_rows(pw, spec).values)
    frozen_ce = T.nll_rows(pw, graph.labels)
    return list(strong.parameters()), lambda: mixture_rows(
        [conf], [frozen_ce, T.nll_rows(forward(strong, graph), graph.labels)])


def _live_turn(weak, strong, spec, graph, blend=False):
    """Both experts and any learnable gate, live, on the mixture loss or
    the blend loss."""
    def terms():
        pw, ps = forward(weak, graph), forward(strong, graph)
        conf = confidence_rows(pw, spec)
        if blend:
            return T.nll_rows(blend_rows(pw, ps, conf), graph.labels)
        return mixture_rows([conf], [T.nll_rows(pw, graph.labels),
                                     T.nll_rows(ps, graph.labels)])
    return [*weak.parameters(), *spec.parameters(), *strong.parameters()], terms


# keyed by the turn column of loss.csv
_TURNS = {"weak": _weak_turn, "strong": _strong_turn, "joint": _live_turn,
          "blend": partial(_live_turn, blend=True)}


def train(config: TrainConfig, graph: Graph, weak: ExpertModel | None = None,
          strong: ExpertModel | None = None) -> TrainResult:
    """Run the configured training mode; deterministic under config.seed."""
    config.validate()
    f, n = graph.num_features, graph.num_classes
    if weak is None:
        weak = init_expert(config.weak_arch, f, n, config.seed)
    if strong is None:
        strong = init_expert(config.strong_arch, f, n, config.seed + 1)
    for role, model in (("weak", weak), ("strong", strong)):
        if config.pretrain in (role, "both"):
            _fit(model, graph, config.lr, config.pretrain_epochs)

    report = TrainReport()
    rounds, turns, budget = ((config.rounds, ("weak", "strong"), config.max_epochs)
                             if config.mode == "in_turn" else
                             (1, (config.mode,), config.rounds * config.max_epochs))
    for round_idx in range(1, rounds + 1):
        for turn in turns:
            # built as its phase starts: the weak turn freezes the last strong phase's side
            with np.errstate(**_QUIET):
                params, terms_fn = _TURNS[turn](weak, strong, config.spec, graph)
            _run_phase(params, graph.splits, config.lr, budget, config.patience, terms_fn,
                       lambda *row: report.loss_rows.append((round_idx, turn, *row)))
        scores = _scores(predict(weak, strong, config.spec, graph), graph, config.gate_seed)
        report.add_round(round_idx, scores)
    # the last round scored the final models
    report.metric_rows = [(split, mode, split_scores[mode]) for split, split_scores in
                          scores.items() for mode in ("expected", "stochastic")]
    return TrainResult(weak, strong, config.spec, report)


def pretrain_expert(arch: ExpertArch, graph: Graph, epochs: int, lr: float,
                    seed: int) -> ExpertModel:
    """Plain cross-entropy training of a single expert on the train split.

    Zero epochs returns the seeded initial weights unchanged.
    """
    check_range("epochs", epochs, 0)
    if lr <= 0:
        raise ConfigError(f"learning rate must be > 0, got {lr}")
    return _fit(init_expert(arch, graph.num_features, graph.num_classes, seed), graph, lr,
                epochs)


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
    if split not in graph.splits:
        raise ConfigError(f"split must be one of ('train', 'val', 'test'), got {split!r}")
    if graph.splits[split].size == 0:
        raise ConfigError(f"split {split!r} is empty")
    return _scores(predict(weak, strong, spec, graph), graph, gate_seed)[split]


def single_expert_baseline(arch: ExpertArch, graph: Graph, seed: int) -> ExpertModel:
    """Train one expert alone with validation early stopping.

    The comparison baseline for mixture runs: the optimizer and stopping
    rule of a default TrainConfig's turn, but plain cross-entropy all the
    way.
    """
    defaults = TrainConfig()
    return _fit(init_expert(arch, graph.num_features, graph.num_classes, seed), graph,
                defaults.lr, defaults.max_epochs, defaults.patience)
