"""Mixture losses, the blend bound, multi-expert chaining, inference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confmix.errors import ConfigError, DomainError
from confmix.mixture import (blend_loss, cross_entropy_rows, infer_expected,
                             infer_stochastic, mixture_loss, multi_expert_loss,
                             multi_expert_weights, write_predictions_csv)


def random_instance(rng, nodes=20, classes=3):
    pw = rng.dirichlet(np.ones(classes), size=nodes)
    ps = rng.dirichlet(np.ones(classes), size=nodes)
    c = rng.uniform(0.0, 1.0, nodes)
    y = rng.integers(0, classes, nodes)
    return pw, ps, c, y


def test_confidence_zero_collapses_to_strong():
    rng = np.random.default_rng(0)
    pw, ps, _, y = random_instance(rng)
    loss = mixture_loss(pw, ps, np.zeros(len(y)), y)
    strong_only = cross_entropy_rows(ps, y).values.mean()
    assert loss.item() == strong_only


def test_confidence_one_collapses_to_weak():
    rng = np.random.default_rng(1)
    pw, ps, _, y = random_instance(rng)
    loss = mixture_loss(pw, ps, np.ones(len(y)), y)
    weak_only = cross_entropy_rows(pw, y).values.mean()
    assert loss.item() == weak_only


def test_single_node_hand_value():
    loss = mixture_loss(np.array([[0.9, 0.1]]), np.array([[0.6, 0.4]]),
                        np.array([0.5]), np.array([0]))
    assert np.isclose(loss.item(), 0.5 * -np.log(0.9) + 0.5 * -np.log(0.6))
    assert np.isclose(loss.item(), 0.30809306971190853)


def test_blend_hand_value_and_bound():
    star = blend_loss(np.array([[0.9, 0.1]]), np.array([[0.6, 0.4]]),
                      np.array([0.5]), np.array([0]))
    assert np.isclose(star.item(), -np.log(0.75))
    assert star.item() <= 0.30809306971190853


def test_blend_bound_on_random_draws():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        pw, ps, c, y = random_instance(rng, nodes=3, classes=2)
        assert (blend_loss(pw, ps, c, y).item()
                <= mixture_loss(pw, ps, c, y).item() + 1e-12)


def test_blend_equality_exact_at_gate_extremes():
    rng = np.random.default_rng(3)
    pw, ps, _, y = random_instance(rng)
    for c in (0.0, 1.0):
        conf = np.full(len(y), c)
        assert blend_loss(pw, ps, conf, y).item() == \
            mixture_loss(pw, ps, conf, y).item()


def test_blend_strict_when_experts_disagree():
    pw, ps = np.array([[0.9, 0.1]]), np.array([[0.2, 0.8]])
    y, c = np.array([0]), np.array([0.5])
    assert blend_loss(pw, ps, c, y).item() < mixture_loss(pw, ps, c, y).item()


def test_off_simplex_rejected():
    with pytest.raises(DomainError):
        mixture_loss(np.array([[0.9, 0.2]]), np.array([[0.5, 0.5]]),
                     np.array([0.5]), np.array([0]))
    with pytest.raises(DomainError):
        blend_loss(np.array([[0.5, 0.5]]), np.array([[0.9, 0.2]]),
                   np.array([0.5]), np.array([0]))
    with pytest.raises(DomainError):
        mixture_loss(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]]),
                     np.array([1.5]), np.array([0]))
    pw, nan = np.array([[0.5, 0.5]]), np.array([np.nan])
    for loss in (mixture_loss, blend_loss):
        with pytest.raises(DomainError):
            loss(pw, pw, nan, np.array([0]))
    with pytest.raises(DomainError):
        multi_expert_loss([pw, pw], [nan], np.array([0]))


def test_multi_expert_reduces_to_two_expert():
    rng = np.random.default_rng(4)
    pw, ps, c, y = random_instance(rng)
    chained = multi_expert_loss([pw, ps], [c], y)
    assert chained.item() == mixture_loss(pw, ps, c, y).item()


def test_multi_expert_first_gate_closed():
    rng = np.random.default_rng(5)
    p1, p2, _, y = random_instance(rng)
    p3 = rng.dirichlet(np.ones(3), size=len(y))
    c2 = rng.uniform(0, 1, len(y))
    three = multi_expert_loss([p1, p2, p3], [np.zeros(len(y)), c2], y)
    two = mixture_loss(p2, p3, c2, y)
    assert np.isclose(three.item(), two.item(), atol=1e-15)


def test_multi_expert_hand_expansion():
    # constant half-open gates: weights (0.5, 0.25, 0.25)
    rng = np.random.default_rng(6)
    probs = [rng.dirichlet(np.ones(2), size=4) for _ in range(3)]
    y = rng.integers(0, 2, 4)
    halves = [np.full(4, 0.5), np.full(4, 0.5)]
    got = multi_expert_loss(probs, halves, y).item()
    ces = [cross_entropy_rows(p, y).values for p in probs]
    want = (0.5 * ces[0] + 0.25 * ces[1] + 0.25 * ces[2]).mean()
    assert np.isclose(got, want, atol=1e-15)
    weights = multi_expert_weights(halves)
    assert np.allclose(weights[:, 0], [0.5, 0.25, 0.25])


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_multi_expert_weights_form_distribution(num_experts, seed):
    rng = np.random.default_rng(seed)
    confs = [rng.uniform(0, 1, 6) for _ in range(num_experts - 1)]
    weights = multi_expert_weights(confs)
    assert weights.min() >= 0.0
    assert np.abs(weights.sum(axis=0) - 1.0).max() < 1e-12


def test_multi_expert_missing_confidence_rejected():
    rng = np.random.default_rng(7)
    pw, ps, c, y = random_instance(rng)
    with pytest.raises(ConfigError):
        multi_expert_loss([pw, ps, pw], [c], y)
    with pytest.raises(ConfigError):
        multi_expert_loss([pw], [], y)


def test_stochastic_gate_certain_cases():
    rng = np.random.default_rng(8)
    pw, ps, _, y = random_instance(rng)
    pred, fired = infer_stochastic(pw, ps, np.ones(len(y)), seed=0)
    assert fired.all() and np.array_equal(pred, pw.argmax(axis=1))
    pred, fired = infer_stochastic(pw, ps, np.zeros(len(y)), seed=0)
    assert not fired.any() and np.array_equal(pred, ps.argmax(axis=1))


def test_stochastic_gate_frequency():
    rng = np.random.default_rng(9)
    pw = rng.dirichlet(np.ones(2), size=5)
    ps = rng.dirichlet(np.ones(2), size=5)
    c = np.full(5, 0.8)
    hits = np.zeros(5)
    trials = 10_000
    for t in range(trials):
        _, fired = infer_stochastic(pw, ps, c, seed=t)
        hits += fired
    assert np.abs(hits / trials - 0.8).max() <= 0.02


def test_stochastic_gate_deterministic_per_seed():
    rng = np.random.default_rng(10)
    pw, ps, c, _ = random_instance(rng)
    a = infer_stochastic(pw, ps, c, seed=123)
    b = infer_stochastic(pw, ps, c, seed=123)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_expected_inference_tie_breaks_low_index():
    q, pred = infer_expected(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]),
                             np.array([0.5]))
    assert np.array_equal(q, [[0.5, 0.5]])
    assert pred[0] == 0


def test_expected_inference_extremes_and_hand_value():
    pw, ps = np.array([[0.9, 0.1]]), np.array([[0.6, 0.4]])
    q, _ = infer_expected(pw, ps, np.array([1.0]))
    assert np.array_equal(q, pw)
    q, pred = infer_expected(pw, ps, np.array([0.5]))
    assert np.allclose(q, [[0.75, 0.25]])
    assert pred[0] == 0


def test_gate_expectation_consistency():
    # empirical mean gated loss approaches the mixture loss
    rng = np.random.default_rng(11)
    pw, ps, c, y = random_instance(rng, nodes=30, classes=2)
    target = mixture_loss(pw, ps, c, y).item()
    ce_w = cross_entropy_rows(pw, y).values
    ce_s = cross_entropy_rows(ps, y).values
    trials = 20_000
    draws = rng.uniform(0.0, 1.0, size=(trials, 30))
    gated = np.where(draws < c, ce_w, ce_s)
    per_trial = gated.mean(axis=1)
    se = per_trial.std(ddof=1) / np.sqrt(trials)
    assert abs(per_trial.mean() - target) <= 3 * se


def test_predictions_csv_header(tmp_path):
    path = tmp_path / "pred.csv"
    write_predictions_csv(path, [0, 1], ["weak", "strong"], [0.25, 1.0],
                          [1, 0], [1, 1])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node_id,expert,confidence,pred_class,true_class"
    assert lines[1] == "0,weak,0.25,1,1"
