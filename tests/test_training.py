"""Training loops: determinism, collapse reductions, evaluation, reports."""

import dataclasses
import sys

import numpy as np
import pytest

from confmix import tensor as T
from confmix.confidence import (ConfidenceSpec, LearnableGate, StepGate, confidence_batch,
                                confidence_rows, default_spec)
from confmix.errors import ConfigError, DomainError, TrainingDivergedError
from confmix.experts import ExpertArch, forward, init_expert
from confmix import graphs, mixture, training
from confmix.graphs import build_graph, generate_specialization_graph
from confmix.mixture import mixture_rows
from confmix.training import (TrainConfig, _run_phase, _sgd_step, evaluate,
                              pretrain_expert, single_expert_baseline, train)


@pytest.fixture(scope="module")
def graph():
    return generate_specialization_graph(40, 6, 0.1, seed=11)


def small_config(**kw):
    base = dict(rounds=2, max_epochs=80, patience=10, seed=3, pretrain="none",
                weak_arch=ExpertArch("weak", 1),
                strong_arch=ExpertArch("gcn", 2, 8))
    base.update(kw)
    return TrainConfig(**base)


def test_training_deterministic(graph):
    a = train(small_config(), graph)
    b = train(small_config(), graph)
    assert a.report.loss_rows == b.report.loss_rows
    assert a.report.hist_rows == b.report.hist_rows
    assert a.report.metric_rows == b.report.metric_rows
    for la, lb in zip(a.weak.layers, b.weak.layers):
        assert np.array_equal(la.weight.values, lb.weight.values)


def test_modes_produce_distinct_trajectories(graph):
    in_turn = train(small_config(), graph)
    joint = train(small_config(mode="joint"), graph)
    blend = train(small_config(mode="blend"), graph)
    assert {r[1] for r in joint.report.loss_rows} == {"joint"}
    assert {r[1] for r in blend.report.loss_rows} == {"blend"}
    assert {r[1] for r in in_turn.report.loss_rows} == {"weak", "strong"}
    assert joint.report.loss_rows != in_turn.report.loss_rows


def test_collapse_to_weak_ce_with_uniform_strong(graph):
    """All-or-nothing gate + strong pinned to uniform = plain weak training."""
    spec = ConfidenceSpec("variance", StepGate(0.0))
    config = small_config(rounds=1, max_epochs=120, spec=spec)
    strong = init_expert(config.strong_arch, graph.num_features,
                         graph.num_classes, 77)
    for layer in strong.layers:
        layer.weight.values = np.zeros_like(layer.weight.values)
    result = train(config, graph, strong=strong)
    mixture_track = [r[3] for r in result.report.loss_rows if r[1] == "weak"]

    # independent plain cross-entropy loop with identical init and stopping
    weak = init_expert(config.weak_arch, graph.num_features,
                       graph.num_classes, config.seed)
    tr, va = graph.splits["train"], graph.splits["val"]

    def plain_ce(probs, ids):
        picked = probs[ids, graph.labels[ids]]
        return float(-np.log(np.clip(picked, T.LOG_FLOOR, 1.0)).mean())

    plain_track = []
    best, wait = np.inf, 0
    for _ in range(config.max_epochs):
        probs = forward(weak, graph)
        plain_track.append(plain_ce(probs.values, tr))
        val = plain_ce(probs.values, va)
        if val < best - 1e-12:
            best, wait = val, 0
        else:
            wait += 1
            if wait >= config.patience:
                break
        hot = np.eye(graph.num_classes)[graph.labels[tr]]
        loss = T.mean_all(-T.sum_rows(hot * T.log(T.take_rows(probs, tr))))
        T.backward(loss)
        _sgd_step(list(weak.parameters()), config.lr)

    assert len(mixture_track) == len(plain_track)
    assert max(abs(a - b) for a, b in zip(mixture_track, plain_track)) < 1e-10


def test_collapse_to_strong_with_uniform_weak(graph):
    """Weak pinned to uniform keeps the gate shut: strong-only training."""
    spec = ConfidenceSpec("variance", StepGate(0.0))
    config = small_config(rounds=1, max_epochs=60, spec=spec)
    weak = init_expert(config.weak_arch, graph.num_features, graph.num_classes, 5)
    for layer in weak.layers:
        layer.weight.values = np.zeros_like(layer.weight.values)
        layer.bias.values = np.zeros_like(layer.bias.values)
    result = train(config, graph, weak=weak)
    pw = forward(result.weak, graph).values
    assert np.array_equal(pw, np.full_like(pw, 1.0 / graph.num_classes))
    conf = confidence_batch(pw, spec)
    assert (conf == 0.0).all()
    strong_rows = [r for r in result.report.loss_rows if r[1] == "strong"]
    ces = [r[3] for r in strong_rows]
    assert ces[-1] < ces[0]  # the strong expert actually trained


def test_histogram_counts_sum_to_train_size(graph):
    result = train(small_config(), graph)
    per_round = {}
    for round_idx, _, _, count in result.report.hist_rows:
        per_round[round_idx] = per_round.get(round_idx, 0) + count
    assert set(per_round.values()) == {len(graph.splits["train"])}


def test_metrics_rows_cover_splits_and_modes(graph):
    result = train(small_config(), graph)
    seen = {(row[0], row[1]) for row in result.report.metric_rows}
    assert ("test", "expected") in seen and ("train", "stochastic") in seen
    for _, _, acc in result.report.metric_rows:
        assert 0.0 <= acc <= 1.0


@pytest.mark.parametrize("mode", ["in_turn", "blend"])
def test_metric_rows_equal_evaluate(graph, mode):
    config = small_config(mode=mode)
    result = train(config, graph)
    expected = []
    for split in ("train", "val", "test"):
        scores = evaluate(result.weak, result.strong, result.spec, graph,
                          split, config.gate_seed)
        expected += [(split, "expected", scores["expected"]),
                     (split, "stochastic", scores["stochastic"])]
    assert result.report.metric_rows == expected


def test_report_csvs_written(tmp_path, graph):
    result = train(small_config(), graph)
    result.report.write_csvs(tmp_path)
    loss_lines = (tmp_path / "loss.csv").read_text().splitlines()
    assert loss_lines[0] == "round,turn,epoch,train_loss,val_loss"
    hist_lines = (tmp_path / "confidence_hist.csv").read_text().splitlines()
    assert hist_lines[0] == "round,bin_lo,bin_hi,count"
    metric_lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert metric_lines[0] == "split,mode,accuracy"
    assert any(line.startswith("test,") for line in metric_lines[1:])


def test_pretrain_reaches_separable_accuracy(graph):
    model = pretrain_expert(ExpertArch("weak", 1), graph, 500, 0.5, seed=2)
    feature_train = [v for v in graph.splits["train"] if v < 40]
    probs = forward(model, graph).values
    acc = (probs.argmax(1)[feature_train] == graph.labels[feature_train]).mean()
    assert acc >= 0.95


def test_pretrain_zero_epochs_is_identity(graph):
    fresh = init_expert(ExpertArch("weak", 1), graph.num_features,
                        graph.num_classes, seed=21)
    model = pretrain_expert(ExpertArch("weak", 1), graph, 0, 0.5, seed=21)
    assert np.array_equal(model.layers[0].weight.values,
                          fresh.layers[0].weight.values)


def test_pretrain_deterministic(graph):
    a = pretrain_expert(ExpertArch("gcn", 2, 8), graph, 40, 0.5, seed=6)
    b = pretrain_expert(ExpertArch("gcn", 2, 8), graph, 40, 0.5, seed=6)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weight.values, lb.weight.values)


def test_evaluate_perfect_weak_full_confidence(graph):
    # a weak expert that nails every label plus an always-open gate
    config = small_config()
    weak = init_expert(ExpertArch("weak", 1), graph.num_features, 2, 8)
    hot = np.eye(2)[graph.labels] * 60.0
    pinv = np.linalg.pinv(graph.features)
    weak.layers[0].weight.values = pinv @ hot  # logits memorize labels
    weak.layers[0].bias.values = np.zeros(2)
    probs = forward(weak, graph).values
    if (probs.argmax(1) == graph.labels).all():
        strong = init_expert(config.strong_arch, graph.num_features, 2, 9)
        spec = ConfidenceSpec("variance", StepGate(0.0))
        scores = evaluate(weak, strong, spec, graph, "train", gate_seed=0)
        conf = confidence_batch(probs, spec)
        if (conf == 1.0).all():
            assert scores["expected"] == 1.0 and scores["stochastic"] == 1.0
    # construction depends on feature rank; the uniform-prediction path
    # below is the deterministic half of the check
    uniform_weak = init_expert(ExpertArch("weak", 1), graph.num_features, 2, 10)
    for layer in uniform_weak.layers:
        layer.weight.values = np.zeros_like(layer.weight.values)
    strong = init_expert(config.strong_arch, graph.num_features, 2, 11)
    spec = ConfidenceSpec("variance", StepGate(0.0))
    scores = evaluate(uniform_weak, strong, spec, graph, "test", gate_seed=0)
    pred = forward(strong, graph).values.argmax(1)
    expected = (pred[graph.splits["test"]]
                == graph.labels[graph.splits["test"]]).mean()
    assert scores["stochastic"] == pytest.approx(expected)


def test_evaluate_unknown_split_names_the_three(graph):
    weak = init_expert(ExpertArch("weak", 1), graph.num_features, 2, 8)
    strong = init_expert(ExpertArch("gcn", 1), graph.num_features, 2, 9)
    with pytest.raises(ConfigError, match=r"^split must be one of \('train', 'val', 'test'\), "
                                          r"got 'foo'$"):
        evaluate(weak, strong, default_spec(), graph, "foo", gate_seed=0)


def test_evaluate_random_uniform_predictions_near_half():
    g = generate_specialization_graph(400, 4, 0.5, seed=13)
    weak = init_expert(ExpertArch("weak", 1), 4, 2, 14)
    for layer in weak.layers:
        layer.weight.values = np.zeros_like(layer.weight.values)
    strong = init_expert(ExpertArch("gcn", 1), 4, 2, 15)
    for layer in strong.layers:
        layer.weight.values = np.zeros_like(layer.weight.values)
        layer.bias.values = np.asarray([0.01, -0.01])  # fixed near-uniform lean
    spec = ConfidenceSpec("variance", StepGate(0.0))
    scores = evaluate(weak, strong, spec, g, "train", gate_seed=3)
    assert abs(scores["stochastic"] - 0.5) <= 0.05
    counts = scores["histogram"]
    assert sum(counts) == len(g.splits["train"])


def test_divergence_guards():
    """One check stops a phase: a non-finite loss term, a val node's or a
    train node's, before any step. A builder's own error is not converted."""
    params = [T.Tensor([1.0, 2.0], requires_grad=True)]
    splits = {"train": np.array([0]), "val": np.array([1])}

    for node, bad in ((1, np.nan), (0, np.inf)):
        def bad_terms():
            terms = params[0] * params[0]
            terms.values[node] = bad   # as from an overflow the engine does not scan for
            return terms
        with pytest.raises(TrainingDivergedError, match="^non-finite values at epoch 0$"):
            _run_phase(params, splits, 0.1, 5, 3, bad_terms, lambda *a: None)
        assert params[0].values.tolist() == [1.0, 2.0]

    def domain_error_terms():
        raise DomainError("a bad operand")
    with pytest.raises(DomainError, match="a bad operand"):
        _run_phase(params, splits, 0.1, 5, 3, domain_error_terms, lambda *a: None)


@pytest.mark.parametrize("patience, steps, snapshots, final", [
    # p halves each step: 3, 1.5, 0.75, 0.375, 0.1875, 0.09375
    pytest.param(None, 5, 0, 0.09375, id="fixed_budget"),
    # val (p - 1)^2 is least at p = 0.75 (epoch 2), then rises for two epochs
    pytest.param(2, 4, 3, 0.75, id="early_stop")])
def test_stop_rules(monkeypatch, patience, steps, snapshots, final):
    """A fixed budget takes every step with no snapshot and keeps the last
    parameters; a patience stops early and restores the best epoch's."""
    counts = {"_snapshot": 0, "_sgd_step": 0}
    for name in counts:
        def counted(*args, fn=getattr(training, name), name=name):
            counts[name] += 1
            return fn(*args)
        monkeypatch.setattr(training, name, counted)
    p = T.Tensor(3.0, requires_grad=True)

    def terms():   # node 0 trains toward p = 0, node 1 validates toward p = 1
        d = p - T.constant(np.array([0.0, 1.0]))
        return d * d
    splits = {"train": np.array([0]), "val": np.array([1])}
    rows = []
    _run_phase([p], splits, 0.25, 5, patience, terms, lambda *row: rows.append(row))
    assert counts == {"_snapshot": snapshots, "_sgd_step": steps}
    assert p.values.tolist() == final
    assert len(rows) == 5


def test_empty_train_split_is_one_config_error():
    """Every entry point that trains rejects an empty train split the same
    way, before any step."""
    empty = build_graph(3, 2, np.zeros((3, 2)), [0, 1, 0], [(0, 1)],
                        {"train": [], "val": [1], "test": [0]})
    arch = ExpertArch("gcn", 2, 4)
    for run in (lambda: train(small_config(pretrain="both"), empty),
                lambda: pretrain_expert(arch, empty, 3, 0.5, seed=1),
                lambda: single_expert_baseline(arch, empty, seed=1)):
        with pytest.raises(ConfigError, match="^graph has an empty train split$"):
            run()


def test_empty_val_split_scores_val_on_train_ids(tmp_path):
    """With no val ids, every phase's val loss is its train loss."""
    g = generate_specialization_graph(20, 4, 0.1, seed=5)
    g = dataclasses.replace(g, splits={**g.splits, "val": np.zeros(0, dtype=np.int64)})
    for mode in ("in_turn", "joint"):
        train(small_config(mode=mode, rounds=1, max_epochs=20), g).report.write_csvs(tmp_path)
        rows = [line.split(",") for line in
                (tmp_path / "loss.csv").read_text().splitlines()[1:]]
        assert rows and all(row[3] == row[4] for row in rows)
    arch = ExpertArch("gcn", 2, 4)
    model = single_expert_baseline(arch, g, seed=1)
    start = init_expert(arch, g.num_features, g.num_classes, 1)
    assert not np.array_equal(model.layers[0].weight.values, start.layers[0].weight.values)


def test_test_labels_never_reach_the_weights():
    """Every phase scores all nodes, but only train and val labels may
    move a weight: flipping the test labels changes none."""
    g = generate_specialization_graph(20, 4, 0.1, seed=5)
    labels = g.labels.copy()
    test_ids = g.splits["test"]
    labels[test_ids] = (labels[test_ids] + 1) % g.num_classes
    flipped = dataclasses.replace(g, labels=labels)
    arch = ExpertArch("gcn", 2, 4)
    config = small_config(rounds=1, max_epochs=10, pretrain="both", pretrain_epochs=3)

    def fitted(graph):
        result = train(config, graph)
        models = (result.weak, result.strong, pretrain_expert(arch, graph, 5, 0.5, seed=1),
                  single_expert_baseline(arch, graph, seed=1))
        return [p.values for model in models for p in model.parameters()]

    assert all(np.array_equal(a, b) for a, b in zip(fitted(g), fitted(flipped)))


def test_config_validation(graph):
    with pytest.raises(ConfigError):
        train(small_config(mode="turbo"), graph)
    with pytest.raises(ConfigError):
        train(small_config(lr=-1.0), graph)
    with pytest.raises(ConfigError):
        train(small_config(pretrain="everything"), graph)
    with pytest.raises(ConfigError):
        train(small_config(strong_arch=ExpertArch("weak", 1)), graph)
    # an architecture above its ceilings is refused by validate, before any weight exists
    with pytest.raises(ConfigError, match=r"^layers must be in \[1, 40\], got 1000000$"):
        small_config(strong_arch=ExpertArch("gcn", 10**6, 32)).validate()
    with pytest.raises(ConfigError, match=r"^hidden must be in \[1, 640\], got 641$"):
        small_config(weak_arch=ExpertArch("weak", 2, 641)).validate()
    empty = build_graph(3, 2, np.zeros((3, 2)), [0, 1, 0], [(0, 1)],
                        {"train": [], "val": [], "test": [0]})
    with pytest.raises(ConfigError):
        train(small_config(), empty)


def test_gradient_correctness_of_training_objectives():
    """Full losses composed with both experts stay within 1e-4 of central
    differences on a 6-node graph."""
    from confmix.confidence import CappedLinearGate, confidence_rows
    from confmix.mixture import blend_loss, mixture_loss
    from confmix.tensor import check_gradient

    rng = np.random.default_rng(0)
    g = build_graph(6, 2, rng.standard_normal((6, 3)), [0, 1, 0, 1, 1, 0],
                    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
                    {"train": [0, 1, 2, 3], "val": [4], "test": [5]})
    spec = ConfidenceSpec("variance", CappedLinearGate(2.0))
    weak = init_expert(ExpertArch("weak", 2, 4), 3, 2, 1)
    strong = init_expert(ExpertArch("gcn", 2, 4), 3, 2, 2)
    params = list(weak.parameters()) + list(strong.parameters())
    for loss_fn in (mixture_loss, blend_loss):
        def fn(inputs):
            pw = forward(weak, g)
            ps = forward(strong, g)
            return loss_fn(pw, ps, confidence_rows(pw, spec), g.labels)
        assert check_gradient(fn, params, 1e-5) < 1e-4


def test_operator_built_once_per_graph(monkeypatch):
    """A train and an evaluation build a graph's operator once, whichever
    kernel its density gives it."""
    calls = []
    build = graphs.conv_rows
    monkeypatch.setattr(graphs, "conv_rows", lambda graph: calls.append(graph) or build(graph))
    for bound, dense in ((0.0, True), (np.inf, False)):
        monkeypatch.setattr(T, "SPARSE_DENSITY", bound)
        g = generate_specialization_graph(20, 4, 0.1, seed=5)
        calls.clear()
        result = train(small_config(rounds=1, max_epochs=5, pretrain="both",
                                    pretrain_epochs=3), g)
        evaluate(result.weak, result.strong, result.spec, g, "test", gate_seed=1)
        assert len(calls) == 1 and calls[0] is g
        assert (g.coefficients.values.dense is not None) == dense


def turn_specs():
    return [default_spec(), ConfidenceSpec("variance", LearnableGate.create(4, hidden=3))]


@pytest.mark.parametrize("spec", turn_specs(), ids=["default", "learnable"])
def test_hoisted_turns_equal_mixture_loss_rows(spec):
    """Each epoch of a turn, with its frozen side's loss rows (and, in the
    strong turn, confidence) scored once and passed as constants, gives
    the all-live objective's per-node values and live gradients."""
    rng = np.random.default_rng(8)
    g = build_graph(8, 2, rng.standard_normal((8, 3)), [0, 1, 0, 1, 1, 0, 0, 1],
                    [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)],
                    {"train": [0, 1, 2, 3, 4], "val": [5, 6], "test": [7]})
    weak = init_expert(ExpertArch("weak", 2, 4), 3, 2, 1)
    strong = init_expert(ExpertArch("gcn_skip", 2, 4), 3, 2, 2)
    y = g.labels

    def epochs(params, hoisted, live):
        for _ in range(4):
            terms = hoisted()
            T.backward(T.mean_all(terms))
            grads = [p.grad.copy() for p in params]
            want = live()
            T.backward(T.mean_all(want))
            assert np.array_equal(terms.values, want.values)
            assert all(np.array_equal(a, p.grad) for a, p in zip(grads, params))
            _sgd_step(params, 0.5)

    def live_weak(strong_ce):
        pw = forward(weak, g)
        return mixture_rows([confidence_rows(pw, spec)], [T.nll_rows(pw, y), strong_ce])

    def all_live():
        return live_weak(T.nll_rows(forward(strong, g), y))

    frozen_strong = T.nll_rows(T.Tensor(forward(strong, g).values), y)
    epochs(list(weak.parameters()) + list(spec.parameters()),
           lambda: live_weak(frozen_strong), all_live)

    pw = forward(weak, g).values
    conf, weak_ce = T.Tensor(confidence_batch(pw, spec)), T.nll_rows(T.Tensor(pw), y)
    epochs(list(strong.parameters()),
           lambda: mixture_rows([conf], [weak_ce, T.nll_rows(forward(strong, g), y)]),
           all_live)


@pytest.mark.parametrize("spec", turn_specs() + [ConfidenceSpec("neg_entropy", StepGate(0.05))],
                         ids=["default", "learnable", "step"])
def test_epochs_build_no_tensors(graph, monkeypatch, spec):
    """Every Tensor a train builds is built per turn or round, none per epoch."""
    # the graph's cached tensors are built once, by whichever train comes first
    graph.first_aggregation
    init = T.Tensor.__init__
    built = []

    def counted(self, values, requires_grad=False):
        built.append(1)
        init(self, values, requires_grad)

    monkeypatch.setattr(T.Tensor, "__init__", counted)
    counts = []
    for max_epochs in (3, 30):
        built.clear()
        result = train(small_config(max_epochs=max_epochs, patience=max_epochs + 1,
                                    spec=spec), graph)
        assert len(result.report.loss_rows) == 2 * 2 * max_epochs
        counts.append(len(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("mode", ["in_turn", "joint", "blend"])
def test_epochs_make_no_simplex_or_range_check(graph, monkeypatch, mode):
    """The train path's one divergence check is the epoch's finiteness
    test: no phase, pretraining included, checks values per epoch."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    # the package's `confidence` attribute is the scalar function
    confidence = sys.modules["confmix.confidence"]
    monkeypatch.setattr(mixture, "_check", counted(mixture._check))
    on_simplex = counted(confidence.on_simplex)
    for module in (confidence, mixture):
        monkeypatch.setattr(module, "on_simplex", on_simplex)
    counts = []
    for max_epochs in (3, 6):
        calls.clear()
        train(small_config(mode=mode, max_epochs=max_epochs, patience=7, pretrain="both",
                           pretrain_epochs=max_epochs), graph)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_strong_turn_tapes_never_reach_a_learnable_gate(graph, monkeypatch):
    """The strong turn's frozen confidence is a constant, so its tapes reach
    no gate parameter; the weak turn's reach every one."""
    spec = ConfidenceSpec("variance", LearnableGate.create(3, hidden=4))
    gate = {id(p) for p in spec.parameters()}
    run_phase = training._run_phase
    reached = {"weak": [], "strong": []}

    def watched(params, splits, lr, max_epochs, patience, terms_fn, record):
        turn = "weak" if gate & {id(p) for p in params} else "strong"

        def terms():
            out = terms_fn()
            leaves = {id(t) for t in T.Tape.from_output(out).leaves()}
            reached[turn].append(len(gate & leaves))
            return out
        run_phase(params, splits, lr, max_epochs, patience, terms, record)

    monkeypatch.setattr(training, "_run_phase", watched)
    train(small_config(max_epochs=5, spec=spec), graph)
    assert reached["strong"] and set(reached["strong"]) == {0}
    assert reached["weak"] and set(reached["weak"]) == {len(gate)}
